// Census publishing scenario (the paper's motivating workload, Sec. I and
// VII): a statistics bureau publishes a 4-attribute census table under
// ε-differential privacy, choosing the Privelet+ SA set with the paper's
// rule, and an analyst evaluates OLAP-style range-count queries against
// the release.
//
//   build/examples/census_publishing [num_tuples]
#include <cstdio>
#include <cstdlib>

#include "privelet/analysis/bounds.h"
#include "privelet/analysis/sa_advisor.h"
#include "privelet/data/census_generator.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/basic.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/metrics.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/workload.h"

using namespace privelet;

int main(int argc, char** argv) {
  data::CensusConfig config =
      data::DefaultCensusConfig(data::CensusCountry::kBrazil);
  config.num_tuples = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 300'000;

  std::printf("generating census surrogate: %zu tuples...\n",
              config.num_tuples);
  auto table = data::GenerateCensus(config);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  const data::Schema& schema = table->schema();
  const auto m = matrix::FrequencyMatrix::FromTable(*table);
  std::printf("schema:");
  for (const auto& attr : schema.attributes()) {
    std::printf(" %s(|A|=%zu,%s)", attr.name().c_str(), attr.domain_size(),
                attr.is_ordinal() ? "ordinal" : "nominal");
  }
  std::printf("\nfrequency matrix: m = %zu cells\n\n", m.size());

  // The bureau picks SA with the paper's rule (|A| <= P^2 * H).
  const auto sa = analysis::AdviseSa(schema);
  std::printf("SA advisor selects:");
  for (const auto& name : sa) std::printf(" %s", name.c_str());
  std::printf("\n");

  const double epsilon = 1.0;
  const mechanism::PriveletPlusMechanism mechanism(sa);
  std::printf("publishing with %s at epsilon = %.2f (Eq.7 variance bound "
              "%.3e; Basic bound %.3e)\n\n",
              std::string(mechanism.name()).c_str(), epsilon,
              mechanism.NoiseVarianceBound(schema, epsilon).value(),
              analysis::BasicVarianceBound(schema, epsilon));
  auto released = query::PublishingSession::Publish(schema, mechanism, m,
                                                    epsilon, /*seed=*/1);
  if (!released.ok()) {
    std::fprintf(stderr, "%s\n", released.status().ToString().c_str());
    return 1;
  }

  // The analyst runs OLAP-style drill-downs against the release. The
  // true counts come from a session over the exact matrix.
  auto truth = query::PublishingSession::FromMatrix(schema, m);
  if (!truth.ok()) return 1;
  const data::Hierarchy& occupation = schema.attribute(2).hierarchy();

  std::printf("%-58s %10s %10s %8s\n", "query", "true", "private", "relerr");
  const double sanity = 0.001 * static_cast<double>(table->num_rows());
  auto report = [&](const char* label, const query::RangeQuery& q) {
    const double act = truth->Answer(q);
    const double approx = released->Answer(q);
    std::printf("%-58s %10.0f %10.1f %7.1f%%\n", label, act, approx,
                100.0 * query::RelativeError(approx, act, sanity));
  };

  {
    query::RangeQuery q(4);
    (void)q.SetRange(schema, 0, 18, 65);
    report("working-age population (18 <= Age <= 65)", q);
  }
  {
    query::RangeQuery q(4);
    (void)q.SetRange(schema, 0, 18, 65);
    (void)q.SetHierarchyNode(schema, 2, occupation.NodesAtLevel(2)[0]);
    report("... AND Occupation in first sector (roll-up node)", q);
  }
  {
    query::RangeQuery q(4);
    (void)q.SetRange(schema, 0, 18, 65);
    (void)q.SetHierarchyNode(schema, 2, occupation.leaf_node(3));
    (void)q.SetHierarchyNode(schema, 1,
                             schema.attribute(1).hierarchy().leaf_node(0));
    report("... drill-down: one occupation code, one gender", q);
  }
  {
    query::RangeQuery q(4);
    (void)q.SetRange(schema, 3, 0, schema.attribute(3).domain_size() / 10);
    report("lowest income decile (Income in bottom 10% of domain)", q);
  }

  // Aggregate quality over a random workload, Privelet+ vs Basic.
  query::WorkloadOptions wopts;
  wopts.num_queries = 1'000;
  auto workload = query::GenerateWorkload(schema, wopts);
  if (!workload.ok()) return 1;
  auto basic = query::PublishingSession::Publish(
      schema, mechanism::BasicMechanism(), m, epsilon, 1);
  if (!basic.ok()) return 1;
  double plus_sq = 0.0, basic_sq = 0.0;
  for (const auto& q : *workload) {
    const double act = truth->Answer(q);
    plus_sq += query::SquareError(released->Answer(q), act);
    basic_sq += query::SquareError(basic->Answer(q), act);
  }
  const auto n_queries = static_cast<double>(workload->size());
  std::printf("\nrandom workload (%zu queries): avg square error %s = %.3e, "
              "Basic = %.3e (%.0fx)\n",
              workload->size(), std::string(mechanism.name()).c_str(),
              plus_sq / n_queries, basic_sq / n_queries, basic_sq / plus_sq);
  return 0;
}
