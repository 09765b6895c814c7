// Mechanism tour: side-by-side comparison of every publishing mechanism in
// the library on the same one-dimensional dataset — Basic (Dwork et al.),
// Privelet with the Haar transform, and Hay et al.'s hierarchical
// mechanism — illustrating the accuracy/domain-size trade-offs the paper
// analyzes (Secs. II-B, IV, VI-D, VIII).
//
//   build/examples/mechanism_tour [domain_size]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "privelet/common/math_util.h"
#include "privelet/data/attribute.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/basic.h"
#include "privelet/mechanism/hay.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/workload.h"
#include "privelet/rng/distributions.h"
#include "privelet/rng/xoshiro256pp.h"

using namespace privelet;

int main(int argc, char** argv) {
  const std::size_t domain =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1024;

  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Value", domain));
  const data::Schema schema(std::move(attrs));

  // A bimodal histogram of 500k tuples.
  matrix::FrequencyMatrix m({domain});
  rng::Xoshiro256pp gen(11);
  for (int i = 0; i < 500'000; ++i) {
    const double mode = rng::SampleBernoulli(gen, 0.6)
                            ? 0.25 * static_cast<double>(domain)
                            : 0.7 * static_cast<double>(domain);
    const double x = mode + 0.08 * static_cast<double>(domain) *
                                rng::SampleStandardNormal(gen);
    const auto bin = static_cast<std::size_t>(
        std::clamp(x, 0.0, static_cast<double>(domain - 1)));
    m[bin] += 1.0;
  }

  query::WorkloadOptions wopts;
  wopts.num_queries = 500;
  auto workload = query::GenerateWorkload(schema, wopts);
  if (!workload.ok()) return 1;
  auto truth = query::PublishingSession::FromMatrix(schema, m);
  if (!truth.ok()) return 1;
  const std::vector<double> acts = truth->AnswerAll(*workload);

  const mechanism::BasicMechanism basic;
  const mechanism::PriveletMechanism privelet;
  const mechanism::HayHierarchicalMechanism hay;
  const std::vector<const mechanism::Mechanism*> mechanisms = {
      &basic, &privelet, &hay};

  std::printf("domain |A| = %zu, 500k tuples, %zu random interval queries\n\n",
              domain, workload->size());
  std::printf("%-16s %14s %16s %16s\n", "mechanism", "eps", "bound (var)",
              "measured (var)");
  for (double epsilon : {0.5, 1.0}) {
    for (const auto* mech : mechanisms) {
      // Empirical noise variance, averaged over queries and seeds.
      double total_sq = 0.0;
      constexpr std::size_t kSeeds = 10;
      for (std::size_t seed = 0; seed < kSeeds; ++seed) {
        auto release =
            query::PublishingSession::Publish(schema, *mech, m, epsilon, seed);
        if (!release.ok()) return 1;
        const std::vector<double> answers = release->AnswerAll(*workload);
        for (std::size_t i = 0; i < workload->size(); ++i) {
          const double diff = answers[i] - acts[i];
          total_sq += diff * diff;
        }
      }
      const double measured =
          total_sq / static_cast<double>(kSeeds * workload->size());
      std::printf("%-16s %14.2f %16.0f %16.0f\n",
                  std::string(mech->name()).c_str(), epsilon,
                  mech->NoiseVarianceBound(schema, epsilon).value(), measured);
    }
    std::printf("\n");
  }
  std::printf("expected shape: Basic's variance scales with |A|; Privelet "
              "and Hay scale with log^3|A| and are comparable (Sec. VIII).\n");
  return 0;
}
