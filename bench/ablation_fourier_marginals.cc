// Related-work comparison (paper Sec. VIII): Barak et al.'s Fourier
// marginal mechanism vs Privelet vs Basic on the task Barak et al.
// optimize for — releasing all 2-way marginals of a binary contingency
// table. Privelet/Basic publish the full noisy matrix (answering any
// range-count query, marginal entries included); Fourier releases only
// the requested marginals, but with less noise and exact mutual
// consistency. The bench quantifies this trade-off.
#include <cstdio>
#include <vector>

#include "privelet/common/math_util.h"
#include "privelet/data/attribute.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/basic.h"
#include "privelet/mechanism/fourier_marginals.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/rng/distributions.h"
#include "privelet/rng/xoshiro256pp.h"

namespace {

using namespace privelet;

constexpr std::size_t kDims = 16;  // m = 65536 binary cells
constexpr double kEpsilon = 1.0;
constexpr std::size_t kSeeds = 20;

// All 2-way marginal entry queries: (attribute pair, cell).
struct MarginalEntry {
  std::size_t a, b;       // attribute pair, a < b
  std::size_t va, vb;     // their values
};

double TrueEntry(const matrix::FrequencyMatrix& m, const MarginalEntry& e) {
  double total = 0.0;
  for (std::size_t flat = 0; flat < m.size(); ++flat) {
    const auto coords = m.Coords(flat);
    if (coords[e.a] == e.va && coords[e.b] == e.vb) total += m[flat];
  }
  return total;
}

}  // namespace

int main() {
  // Correlated binary data: 100k tuples.
  matrix::FrequencyMatrix m(std::vector<std::size_t>(kDims, 2));
  rng::Xoshiro256pp gen(17);
  std::vector<std::size_t> coords(kDims);
  for (int t = 0; t < 100'000; ++t) {
    const bool base = rng::SampleBernoulli(gen, 0.4);
    for (std::size_t a = 0; a < kDims; ++a) {
      const double p = base ? 0.7 : 0.3;
      coords[a] = rng::SampleBernoulli(gen, p) ? 1 : 0;
    }
    m.At(coords) += 1.0;
  }

  // Enumerate all 2-way marginal entries and their true values.
  std::vector<MarginalEntry> entries;
  std::vector<std::vector<std::size_t>> pairs;
  for (std::size_t a = 0; a < kDims; ++a) {
    for (std::size_t b = a + 1; b < kDims; ++b) {
      pairs.push_back({a, b});
      for (std::size_t va = 0; va < 2; ++va) {
        for (std::size_t vb = 0; vb < 2; ++vb) {
          entries.push_back({a, b, va, vb});
        }
      }
    }
  }
  std::vector<double> truths;
  truths.reserve(entries.size());
  for (const auto& e : entries) truths.push_back(TrueEntry(m, e));

  // Schema for the full-matrix mechanisms.
  std::vector<data::Attribute> attrs;
  for (std::size_t a = 0; a < kDims; ++a) {
    std::string name = "B";
    name += std::to_string(a);
    attrs.push_back(data::Attribute::Ordinal(name, 2));
  }
  const data::Schema schema(std::move(attrs));

  auto measure_matrix_mechanism = [&](const mechanism::Mechanism& mech) {
    double total_sq = 0.0;
    for (std::size_t seed = 0; seed < kSeeds; ++seed) {
      auto release =
          query::PublishingSession::Publish(schema, mech, m, kEpsilon, seed);
      PRIVELET_CHECK(release.ok(), release.status().ToString());
      for (std::size_t i = 0; i < entries.size(); ++i) {
        query::RangeQuery q(kDims);
        PRIVELET_CHECK(
            q.SetRange(schema, entries[i].a, entries[i].va, entries[i].va)
                .ok());
        PRIVELET_CHECK(
            q.SetRange(schema, entries[i].b, entries[i].vb, entries[i].vb)
                .ok());
        const double diff = release->Answer(q) - truths[i];
        total_sq += diff * diff;
      }
    }
    return total_sq / static_cast<double>(kSeeds * entries.size());
  };

  const mechanism::FourierMarginalMechanism fourier(pairs);
  auto measure_fourier = [&]() {
    double total_sq = 0.0;
    for (std::size_t seed = 0; seed < kSeeds; ++seed) {
      auto marginals = fourier.Publish(m, kEpsilon, seed);
      PRIVELET_CHECK(marginals.ok(), marginals.status().ToString());
      std::size_t entry_index = 0;
      for (const auto& marginal : *marginals) {
        for (std::size_t va = 0; va < 2; ++va) {
          for (std::size_t vb = 0; vb < 2; ++vb) {
            const double approx = marginal.counts[va | (vb << 1)];
            const double diff = approx - truths[entry_index++];
            total_sq += diff * diff;
          }
        }
      }
    }
    return total_sq / static_cast<double>(kSeeds * entries.size());
  };

  std::printf("=== Sec. VIII comparison: all 2-way marginals of a %zu-bit "
              "binary table (m=%zu, eps=%.1f) ===\n",
              kDims, m.size(), kEpsilon);
  std::printf("%-28s %16s %28s\n", "mechanism", "avg sq err",
              "answers arbitrary ranges?");
  std::printf("%-28s %16.1f %28s\n", "Basic (full matrix)",
              measure_matrix_mechanism(mechanism::BasicMechanism()), "yes");
  std::printf("%-28s %16.1f %28s\n", "Privelet (full matrix)",
              measure_matrix_mechanism(mechanism::PriveletMechanism()),
              "yes");
  std::printf("%-28s %16.1f %28s\n", "Fourier (Barak et al.)",
              measure_fourier(), "no (released marginals only)");
  std::printf("# Fourier releases %zu coefficients; its marginals are "
              "mutually consistent by construction.\n",
              fourier.NumReleasedCoefficients());
  std::printf("# Privelet's pure form is the wrong tool here: with all-"
              "binary attributes its sensitivity stacks to prod P = 2^d "
              "(the Sec. VI-D small-domain effect); the SA advisor would "
              "select SA = all attributes, i.e. exactly Basic.\n");
  return 0;
}
