// Extension bench (paper Sec. VIII, related work): one-dimensional
// mechanism shoot-out between Basic (Dwork et al.), Privelet with the Haar
// transform, and Hay et al.'s hierarchical/consistency mechanism. The
// paper notes Hay et al. "provide comparable utility guarantees" in one
// dimension; this bench quantifies that on random interval workloads over
// a sweep of domain sizes.
#include <cstdio>
#include <vector>

#include "privelet/common/math_util.h"
#include "privelet/data/attribute.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/basic.h"
#include "privelet/mechanism/hay.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/metrics.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/workload.h"
#include "privelet/rng/distributions.h"
#include "privelet/rng/xoshiro256pp.h"

namespace {

using namespace privelet;

double AverageSquareError(const mechanism::Mechanism& mech,
                          const data::Schema& schema,
                          const matrix::FrequencyMatrix& m,
                          const std::vector<query::RangeQuery>& workload,
                          const std::vector<double>& acts, double epsilon) {
  double total = 0.0;
  constexpr std::size_t kSeeds = 20;
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    auto release =
        query::PublishingSession::Publish(schema, mech, m, epsilon, seed);
    PRIVELET_CHECK(release.ok(), release.status().ToString());
    const std::vector<double> answers = release->AnswerAll(workload);
    for (std::size_t i = 0; i < workload.size(); ++i) {
      total += query::SquareError(answers[i], acts[i]);
    }
  }
  return total / static_cast<double>(kSeeds * workload.size());
}

}  // namespace

int main() {
  const double epsilon = 1.0;
  std::printf("=== 1-D mechanism shoot-out (random intervals, eps=1) ===\n");
  std::printf("%-10s %14s %14s %14s\n", "domain", "Basic", "Privelet(Haar)",
              "Hay");

  for (std::size_t domain : {256u, 1024u, 4096u}) {
    std::vector<data::Attribute> attrs;
    attrs.push_back(data::Attribute::Ordinal("A", domain));
    const data::Schema schema(std::move(attrs));

    matrix::FrequencyMatrix m({domain});
    rng::Xoshiro256pp gen(domain);
    for (int i = 0; i < 100'000; ++i) {
      m[gen.NextUint64InRange(0, domain - 1)] += 1.0;
    }

    query::WorkloadOptions wopts;
    wopts.num_queries = 400;
    auto workload = query::GenerateWorkload(schema, wopts);
    PRIVELET_CHECK(workload.ok(), workload.status().ToString());
    auto truth = query::PublishingSession::FromMatrix(schema, m);
    PRIVELET_CHECK(truth.ok(), truth.status().ToString());
    const std::vector<double> acts = truth->AnswerAll(*workload);

    const double basic = AverageSquareError(mechanism::BasicMechanism(),
                                            schema, m, *workload, acts,
                                            epsilon);
    const double privelet = AverageSquareError(mechanism::PriveletMechanism(),
                                               schema, m, *workload, acts,
                                               epsilon);
    const double hay = AverageSquareError(mechanism::HayHierarchicalMechanism(),
                                          schema, m, *workload, acts, epsilon);
    std::printf("%-10zu %14.1f %14.1f %14.1f\n", domain, basic, privelet, hay);
  }
  std::printf("# expected shape: Basic grows linearly with the domain; "
              "Privelet and Hay stay polylogarithmic and comparable.\n");
  return 0;
}
