// End-to-end publishing pipeline: the workflow a data custodian would run
// in production —
//   1. load microdata (CSV),
//   2. plan the Privelet+ SA set against the expected query workload
//      (workload-aware planner; costs no privacy budget),
//   3. publish under ε-DP into a serving session
//      (PublishingSession::Publish),
//   4. persist the release as a PVLS snapshot (storage/snapshot.h) with
//      its provenance recorded,
// and then, acting as the analyst in a separate serving step, memory-map
// the snapshot into a zero-copy PublishingSession (storage::MapSession)
// and answer a query batch, comparing against the predicted noise
// variance. Publishing
// and serving both run on a worker pool; thanks to the determinism
// contract the release is bit-identical to a serial run for the same
// seed, and the snapshot round trip changes no bits either.
//
//   build/examples/publishing_pipeline
#include <cmath>
#include <cstdio>

#include "privelet/analysis/query_variance.h"
#include "privelet/analysis/workload_planner.h"
#include "privelet/common/thread_pool.h"
#include "privelet/data/census_generator.h"
#include "privelet/data/csv.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/workload.h"
#include "privelet/storage/session_io.h"

using namespace privelet;

int main() {
  const double epsilon = 1.0;
  const char* csv_path = "/tmp/privelet_pipeline_microdata.csv";
  const char* release_path = "/tmp/privelet_pipeline_release.pvls";

  // --- custodian side ---------------------------------------------------
  // Stand-in for real microdata: write a census surrogate to CSV, then
  // load it back the way a real pipeline would.
  data::CensusConfig config =
      data::DefaultCensusConfig(data::CensusCountry::kUS);
  config.num_tuples = 200'000;
  config.income_domain = 64;
  auto generated = data::GenerateCensus(config);
  if (!generated.ok()) return 1;
  if (!data::WriteCsv(csv_path, *generated).ok()) return 1;

  auto table = data::ReadCsv(csv_path, generated->schema());
  if (!table.ok()) {
    std::fprintf(stderr, "load: %s\n", table.status().ToString().c_str());
    return 1;
  }
  const data::Schema& schema = table->schema();
  const auto m = matrix::FrequencyMatrix::FromTable(*table);
  std::printf("loaded %zu tuples; frequency matrix m = %zu\n",
              table->num_rows(), m.size());

  // Plan SA against the workload we expect analysts to run (1-2 predicate
  // roll-ups). Planning uses only the schema and the workload: no budget.
  query::WorkloadOptions expected;
  expected.num_queries = 300;
  expected.max_predicates = 2;
  auto planning_workload = query::GenerateWorkload(schema, expected);
  if (!planning_workload.ok()) return 1;
  auto plan =
      analysis::PlanSaForWorkload(schema, *planning_workload, epsilon);
  if (!plan.ok()) return 1;
  std::printf("planner chose SA = {");
  for (std::size_t i = 0; i < plan->sa_names.size(); ++i) {
    std::printf("%s%s", i ? "," : "", plan->sa_names[i].c_str());
  }
  std::printf("} (expected variance %.3e)\n", plan->expected_variance);

  // Publish and persist. The noisy counts are served as released:
  // negatives are deliberately NOT clamped, since on a sparse matrix
  // (m >> n) clamping adds a positive bias of Theta(covered cells) that
  // would dwarf every wide range count. The session records the
  // mechanism and epsilon, and the snapshot carries them; the seed stays
  // out of the file, since whoever holds it can regenerate the noise.
  common::ThreadPool pool(common::ThreadPool::DefaultThreadCount());
  mechanism::PriveletPlusMechanism mech(plan->sa_names);
  mech.set_thread_pool(&pool);  // parallel transform + sharded noise
  auto release = query::PublishingSession::Publish(
      schema, mech, m, epsilon, /*seed=*/2026, &pool);
  if (!release.ok()) return 1;
  if (!storage::SaveSession(release_path, *release).ok()) return 1;
  std::printf("release snapshot written to %s (%.1f MB)\n\n", release_path,
              static_cast<double>(m.size() * sizeof(double)) / 1e6);

  // --- analyst side -----------------------------------------------------
  // Serve the snapshot in place: MapSession memory-maps the file, checks
  // the CRC once, and the session reads the prefix table straight
  // from the mapped pages — zero copies, no O(m) load work. The
  // session carries the release provenance, answers batches across the
  // pool, and is safe to share between serving threads.
  auto session = storage::MapSession(release_path, &pool);
  if (!session.ok()) return 1;
  std::printf("mapped release: mechanism=%s epsilon=%g\n",
              session->metadata().mechanism.c_str(),
              session->metadata().epsilon);
  // For demonstration only: a session over the exact counts.
  auto truth = query::PublishingSession::FromMatrix(schema, m);
  if (!truth.ok()) return 1;

  std::printf("%-44s %10s %10s %12s\n", "query", "true", "private",
              "pred stddev");
  query::WorkloadOptions analyst;
  analyst.num_queries = 6;
  analyst.max_predicates = 2;
  analyst.seed = 555;
  auto queries = query::GenerateWorkload(schema, analyst);
  if (!queries.ok()) return 1;
  const std::vector<double> answers = session->AnswerAll(*queries);
  for (std::size_t i = 0; i < queries->size(); ++i) {
    const auto& q = (*queries)[i];
    const double predicted_var =
        analysis::PriveletPlusQueryVariance(schema, plan->sa_names, epsilon,
                                            q)
            .value();
    char label[64];
    std::snprintf(label, sizeof(label), "workload query #%zu (%zu preds)",
                  i + 1, q.NumPredicates());
    std::printf("%-44s %10.0f %10.0f %12.1f\n", label, truth->Answer(q),
                answers[i], std::sqrt(predicted_var));
  }

  std::printf("\nnotes: private answers should sit within ~3 predicted "
              "stddevs of the truth.\n");
  std::printf("the release keeps its negative noisy counts: clamping them "
              "would bias wide queries upward by Theta(covered cells) on "
              "this sparse matrix.\n");
  std::remove(csv_path);
  std::remove(release_path);
  return 0;
}
