// Ablation for paper Sec. V-D: on one-dimensional nominal data, the novel
// nominal wavelet transform vs. the alternative of imposing a total order
// and running the Haar transform. Reproduces the worked example
// (Occupation: m = 512 leaves, 3-level hierarchy): theoretical bounds
// 4400/ε² (Haar, Eq. 4) vs 288/ε² (nominal, Eq. 6) — a >15x reduction —
// and measures the empirical noise variance of subtree queries under both.
#include <cstdio>
#include <vector>

#include "privelet/analysis/bounds.h"
#include "privelet/common/math_util.h"
#include "privelet/data/attribute.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/range_query.h"
#include "privelet/rng/distributions.h"
#include "privelet/rng/xoshiro256pp.h"

namespace {

using namespace privelet;

// US-style occupation domain: 511 = 7 x 73 leaves (pads to 512, so the
// Eq. 4 bound is the worked example's 4400/ε²). The 73-leaf groups are NOT
// aligned to Haar tree blocks, which is the generic case; with the
// Brazil-style 16 x 32 factorization every subtree boundary is
// power-of-two aligned — the Haar transform's best case — and the
// empirical gap disappears even though the bounds differ 15x.
constexpr std::size_t kLeaves = 511;
constexpr std::size_t kGroups = 7;
constexpr double kEpsilon = 1.0;
constexpr std::size_t kSeeds = 60;

// Average empirical noise variance of the subtree queries at one hierarchy
// level (level 2 = the 7 occupation groups, level 3 = the 511 single
// leaves). Averaging all levels together would hide the transforms' gap:
// point queries cost both transforms about the same, while group queries
// cut the Haar tree at many levels but touch O(1) nominal coefficients.
double MeasureSubtreeQueryVariance(const data::Schema& schema,
                                   const matrix::FrequencyMatrix& m,
                                   const data::Hierarchy& hierarchy,
                                   std::size_t level,
                                   const mechanism::Mechanism& mech) {
  // Subtree query ranges, expressed on the leaf order so they apply to
  // both the nominal and the order-imposed ordinal schema.
  std::vector<query::RangeQuery> queries;
  for (std::size_t node : hierarchy.NodesAtLevel(level)) {
    query::RangeQuery q(1);
    PRIVELET_CHECK(q.SetRange(schema, 0, hierarchy.node(node).leaf_begin,
                              hierarchy.node(node).leaf_end - 1)
                       .ok());
    queries.push_back(std::move(q));
  }
  auto truth = query::PublishingSession::FromMatrix(schema, m);
  PRIVELET_CHECK(truth.ok(), truth.status().ToString());
  const std::vector<double> truths = truth->AnswerAll(queries);

  // Per-query noise samples across seeds -> mean variance across queries.
  std::vector<std::vector<double>> noise(queries.size());
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    auto release =
        query::PublishingSession::Publish(schema, mech, m, kEpsilon, seed);
    PRIVELET_CHECK(release.ok(), release.status().ToString());
    const std::vector<double> answers = release->AnswerAll(queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      noise[i].push_back(answers[i] - truths[i]);
    }
  }
  double total = 0.0;
  for (const auto& samples : noise) total += SampleVariance(samples);
  return total / static_cast<double>(noise.size());
}

}  // namespace

int main() {
  const data::Hierarchy hierarchy =
      data::Hierarchy::Balanced({kGroups, kLeaves / kGroups}).value();

  // Zipf-distributed counts over the occupation leaves.
  matrix::FrequencyMatrix counts({kLeaves});
  rng::Xoshiro256pp gen(99);
  rng::ZipfSampler zipf(kLeaves, 1.07);
  for (int i = 0; i < 200'000; ++i) counts[zipf.Sample(gen)] += 1.0;

  std::vector<data::Attribute> ordinal_attrs;
  ordinal_attrs.push_back(data::Attribute::Ordinal("Occupation", kLeaves));
  const data::Schema ordinal_schema(std::move(ordinal_attrs));

  std::vector<data::Attribute> nominal_attrs;
  nominal_attrs.push_back(data::Attribute::Nominal("Occupation", hierarchy));
  const data::Schema nominal_schema(std::move(nominal_attrs));

  const mechanism::PriveletMechanism privelet;
  const double haar_bound =
      analysis::HaarOrdinalVarianceBound(kLeaves, kEpsilon);
  const double nominal_bound =
      analysis::NominalVarianceBound(hierarchy.height(), kEpsilon);

  std::printf(
      "=== Sec. V-D ablation: nominal wavelet vs imposed-order Haar ===\n");
  std::printf("# domain: %zu leaves, hierarchy height %zu, epsilon=%.2f\n",
              kLeaves, hierarchy.height(), kEpsilon);
  std::printf("# bounds: Haar (Eq.4) %.0f/eps^2, nominal (Eq.6) %.0f/eps^2 "
              "-> %.1fx (the paper's ~15x)\n",
              haar_bound, nominal_bound, haar_bound / nominal_bound);
  std::printf("%-34s %16s %16s %8s\n", "query class", "Haar (var)",
              "Nominal (var)", "ratio");

  for (std::size_t level = 2; level <= hierarchy.height(); ++level) {
    const double haar_measured = MeasureSubtreeQueryVariance(
        ordinal_schema, counts, hierarchy, level, privelet);
    const double nominal_measured = MeasureSubtreeQueryVariance(
        nominal_schema, counts, hierarchy, level, privelet);
    std::printf("level-%zu subtrees (%3zu queries)     %16.1f %16.1f %7.1fx\n",
                level, hierarchy.NodesAtLevel(level).size(), haar_measured,
                nominal_measured, haar_measured / nominal_measured);
  }
  std::printf("# group (level-2) queries show the gap; single-leaf queries "
              "cost both transforms alike.\n");
  return 0;
}
