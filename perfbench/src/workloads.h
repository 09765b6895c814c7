// The four workloads and the pieces they share. Every workload runs the
// whole publish -> snapshot -> serve path; what differs is which part is
// timed (README.md has the table).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "daemon.h"
#include "privelet/data/census_generator.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/range_query.h"
#include "privelet/serving/server.h"

namespace perfbench {

inline constexpr double kEpsilon = 1.0;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;
/// One event loop and one pool worker per serve daemon, so its two busy
/// threads fit the two CPUs it is pinned to. The replay uses the same pool
/// size.
inline constexpr std::size_t kDaemonPoolThreads = 1;
inline const std::vector<std::string> kDaemonFlags = {
    "--loops", "1", "--threads", std::to_string(kDaemonPoolThreads)};
/// The daemon runs with the serving::ServerOptions defaults for its answer
/// cache and compile threshold; the replay reads the same defaults.
inline const privelet::serving::ServerOptions kDaemonDefaults{};
/// Accepted band of mechanism.mse_over_predicted.
inline constexpr double kNoiseGuardLow = 0.5;
inline constexpr double kNoiseGuardHigh = 2.0;
inline constexpr char kReleaseId[] = "r";

struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir;
  std::string cli;
  Tracer* tracer = nullptr;  ///< records only in --trace 1 runs
  Tracer* untraced = nullptr;  ///< always off
  RunReport* report = nullptr;
  ServeCpus cpus;  ///< where serve runs pin the daemon and the loadgen
  /// Informational lines printed before the result (phase counts, the
  /// noise guard, per-workload views of the metrics).
  std::vector<std::string> notes;

  // Samples the per-layer report needs besides the spans.
  std::vector<double> save_mb_per_s;        ///< traced SaveSession calls
  std::vector<double> map_open_ms;          ///< MapSession calls
  std::vector<double> traced_publish_ms;    ///< traced "publish" roots
  std::vector<double> untraced_publish_ms;  ///< same path, tracing off
  /// Publish stages seen inside a traced "publish" root span.
  std::set<std::string> publish_path_stages;
};

// ---------------------------------------------------------------------------
// Publish side (publish.cc).

privelet::data::CensusConfig CensusConfigFor(std::uint64_t seed);

/// The CLI publish path, CSV -> snapshot: ReadCsv -> FromTable ->
/// PublishingSession::Publish (Privelet) -> SaveSession, under one
/// "publish" root span. `exact` receives the unperturbed matrix.
privelet::query::PublishingSession PublishCsvToSnapshot(
    RunContext& ctx, Tracer& tracer, const std::string& csv,
    const privelet::data::Schema& schema, std::uint64_t noise_seed,
    const std::string& snapshot, privelet::matrix::FrequencyMatrix* exact,
    std::uint64_t parent = 0);

/// Empirical MSE of the release against exact answers, divided by the
/// closed-form noise variance (analysis::ExactQueryNoiseVariance), over a
/// random workload. About 1 for a correct Privelet release; 0 when no
/// noise was added.
double MseOverPredicted(const privelet::data::Schema& schema,
                        const privelet::matrix::FrequencyMatrix& exact,
                        const privelet::query::PublishingSession& release,
                        std::uint64_t seed, privelet::common::ThreadPool* pool);

inline bool NoiseGuardOk(double ratio) {
  return ratio >= kNoiseGuardLow && ratio <= kNoiseGuardHigh;
}

/// MseOverPredicted of `release` as the mechanism.mse_over_predicted
/// metric, counted as a failed check outside the guard band.
void CheckNoise(RunContext& ctx, const privelet::data::Schema& schema,
                const privelet::matrix::FrequencyMatrix& exact,
                const privelet::query::PublishingSession& release);

/// Times MapSession on `path` three times (storage.map_open spans) and
/// returns the last session.
privelet::query::PublishingSession MapRelease(RunContext& ctx,
                                              const std::string& path);

void RunPublishCsv(RunContext& ctx);
void RunPublishInMemory(RunContext& ctx);

/// Per-layer publish metrics from the recorded spans.
void ReportPublishLayers(RunContext& ctx);

// ---------------------------------------------------------------------------
// Serve side (serve.cc).

/// Serves `snapshot` from the daemon, sends a short mixed text/binary
/// request set drawn from a random workload, checks every answer, and
/// (traced) replays it in-process. Used by the publish workloads to close
/// the publish -> snapshot -> serve loop.
void VerifyServing(RunContext& ctx, const std::string& snapshot);

void RunServeInteractive(RunContext& ctx);
void RunServeDashboard(RunContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
