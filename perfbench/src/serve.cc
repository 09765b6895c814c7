// serve_interactive and serve_dashboard: the shipped daemon as a child
// process under the closed-loop loadgen, its public STATS, and the
// in-process replay of the exact requests that times each serving layer.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <string_view>
#include <unordered_set>

#include "daemon.h"
#include "host_speed.h"
#include "loadgen.h"
#include "privelet/data/csv.h"
#include "privelet/query/release_store.h"
#include "privelet/query/workload.h"
#include "privelet/serving/answer_cache.h"
#include "privelet/serving/protocol.h"
#include "privelet/storage/session_io.h"
#include "workloads.h"

namespace perfbench {

namespace data = privelet::data;
namespace matrix = privelet::matrix;
namespace query = privelet::query;
namespace serving = privelet::serving;
namespace storage = privelet::storage;

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kInteractiveRingRequests = 2048;  // per connection
constexpr std::size_t kInteractiveMaxBatch = 16;
constexpr std::size_t kDashboardHotSet = 4096;
constexpr double kDashboardZipf = 1.0;
constexpr std::size_t kDashboardBatch = 256;
constexpr std::size_t kDashboardRingRequests = 128;  // per connection
/// Connection 2 sends one RELOAD per kDashboardReloadEvery of its
/// requests, about twice in a 20 s run. Each stalls the single loop for a
/// CRC-bound re-map (165-330 ms): one per second would put a quarter of
/// the measured time into storage, this rate about 3%.
/// Windows are cycles of connection 0, and their medians leave out the few
/// that hold a RELOAD.
constexpr std::size_t kDashboardReloadConnection = 2;
constexpr std::size_t kDashboardReloadEvery = 4096;
constexpr std::size_t kVerifyQueries = 2000;
constexpr std::size_t kMaxReplayRequests = 20'000;
constexpr double kMaxReplaySeconds = 2.0;

/// Distinct queries (by the answer cache's canonical key) with their
/// binary specs, text predicate lines and in-process answers.
struct QueryPool {
  std::vector<query::RangeQuery> queries;
  std::vector<serving::QuerySpec> specs;
  std::vector<std::string> lines;
  std::vector<double> expected;
};

QueryPool MakeQueryPool(const data::Schema& schema,
                        const query::PublishingSession& reference,
                        std::size_t count, std::uint64_t seed) {
  QueryPool pool;
  std::unordered_set<std::string> seen;
  for (std::uint64_t round = 0; pool.queries.size() < count; ++round) {
    const auto batch = Must(
        query::GenerateWorkload(
            schema, {count + count / 4, 1, 4, seed * 7919 + round}),
        "GenerateWorkload");
    for (const query::RangeQuery& q : batch) {
      if (pool.queries.size() == count) break;
      std::string key;
      serving::AppendQueryKey(q, &key);
      if (!seen.insert(std::move(key)).second) continue;
      serving::QuerySpec spec;
      std::string line;
      for (std::size_t a = 0; a < q.num_attributes(); ++a) {
        if (!q.range(a).has_value()) continue;
        spec.predicates.push_back(
            {0, static_cast<std::uint16_t>(a), q.range(a)->lo, q.range(a)->hi});
        if (!line.empty()) line += ' ';
        line += schema.attribute(a).name();
        line += '=';
        line += std::to_string(q.range(a)->lo);
        line += ':';
        line += std::to_string(q.range(a)->hi);
      }
      pool.queries.push_back(q);
      pool.specs.push_back(std::move(spec));
      pool.lines.push_back(line.empty() ? "*" : std::move(line));
    }
  }
  pool.expected = reference.AnswerAll(pool.queries);
  return pool;
}

Request QueryRequest(const QueryPool& pool, std::vector<std::uint32_t> indices,
                     bool text) {
  Request request;
  request.text = text;
  if (text) {
    request.bytes = "BATCH ";
    request.bytes += kReleaseId;
    request.bytes += ' ';
    request.bytes += std::to_string(indices.size());
    request.bytes += '\n';
    for (const std::uint32_t i : indices) {
      request.bytes += pool.lines[i];
      request.bytes += '\n';
    }
  } else {
    std::vector<serving::QuerySpec> specs;
    specs.reserve(indices.size());
    for (const std::uint32_t i : indices) specs.push_back(pool.specs[i]);
    serving::EncodeQueryRequest(&request.bytes, kReleaseId, specs);
  }
  request.queries = std::move(indices);
  return request;
}

Request ReloadRequest(const std::string& path) {
  Request request;
  request.reload = true;
  serving::EncodeReloadRequest(&request.bytes, kReleaseId, path);
  return request;
}

/// Rings of requests with batches uniform in [1, max_batch], taking the
/// pool's queries in order, connection after connection.
std::vector<ConnectionPlan> SequentialPlans(const QueryPool& pool,
                                            std::size_t connections,
                                            std::size_t requests_per_conn,
                                            std::size_t max_batch,
                                            std::uint64_t seed,
                                            bool text_on_odd) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> batch(1, max_batch);
  std::vector<ConnectionPlan> plans(connections);
  std::size_t next = 0;
  for (std::size_t c = 0; c < connections; ++c) {
    const bool text = text_on_odd && c % 2 == 1;
    plans[c].binary = !text;
    for (std::size_t r = 0; r < requests_per_conn; ++r) {
      std::vector<std::uint32_t> indices(batch(rng));
      for (std::uint32_t& i : indices) {
        i = static_cast<std::uint32_t>(next++ % pool.queries.size());
      }
      plans[c].ring.push_back(QueryRequest(pool, std::move(indices), text));
    }
  }
  return plans;
}

// ---------------------------------------------------------------------------
// In-process replay of recorded requests, mirroring the daemon's answering
// path (serving::Server::AnswerTimed) stage by stage.

struct ReplayResult {
  std::size_t requests = 0;
  std::map<std::string, double> stage_us;  ///< mean per request
  double traced_us = 0.0;    ///< mean per request, spans on
  double untraced_us = 0.0;  ///< mean per request, spans off
};

class Replayer {
 public:
  Replayer(const std::string& snapshot, std::span<const double> expected,
           RunReport& report)
      : pool_(kDaemonPoolThreads),
        store_(query::ReleaseStore::Options{0, &pool_}),
        snapshot_(snapshot),
        expected_(expected),
        report_(report) {
    Must(store_.Register(kReleaseId, snapshot), "ReleaseStore::Register");
    Must(store_.Acquire(kReleaseId), "ReleaseStore::Acquire");
  }

  void Reset() {
    cache_ = serving::AnswerCache(kDaemonDefaults.answer_cache_entries);
  }

  /// One query request through decode -> acquire -> build -> cache ->
  /// compile/evaluate -> encode, each a span under a "serving.request"
  /// root; returns the root span id (0 untraced). A RELOAD is one
  /// "serving.reload" span (Rebind + Acquire) and returns 0.
  std::uint64_t Replay(const Request& request, Tracer& tracer) {
    const std::string release(kReleaseId);
    if (request.reload) {
      ScopedSpan span(tracer, "serving.reload");
      Must(store_.Rebind(release, snapshot_), "Rebind");
      report_.Check(store_.Acquire(release).ok(), "replayed RELOAD");
      return 0;
    }
    ScopedSpan root(tracer, "serving.request");
    const std::uint64_t id = root.id();

    serving::BinaryRequest decoded;
    std::vector<std::string_view> lines;
    {
      ScopedSpan span(tracer, "serving.decode", id);
      if (request.text) {
        std::string_view rest(request.bytes);
        rest.remove_prefix(rest.find('\n') + 1);  // "BATCH r n"
        while (!rest.empty()) {
          const std::size_t nl = rest.find('\n');
          lines.push_back(rest.substr(0, nl));
          rest.remove_prefix(nl + 1);
        }
      } else {
        const std::string_view payload(request.bytes.data() + 4,
                                       request.bytes.size() - 4);
        decoded = Must(serving::DecodeRequest(payload), "DecodeRequest");
      }
    }
    std::uint64_t generation = 0;
    std::shared_ptr<const query::PublishingSession> session;
    {
      ScopedSpan span(tracer, "query.acquire", id);
      generation = store_.generation(release);
      session = Must(store_.Acquire(release), "Acquire");
    }
    std::vector<query::RangeQuery> queries;
    {
      ScopedSpan span(tracer, "serving.build", id);
      const data::Schema& schema = session->schema();
      if (request.text) {
        queries.reserve(lines.size());
        for (const std::string_view line : lines) {
          queries.push_back(Must(serving::ParseQueryLine(schema, line),
                                 "ParseQueryLine"));
        }
      } else {
        queries.reserve(decoded.queries.size());
        for (const serving::QuerySpec& spec : decoded.queries) {
          queries.push_back(Must(serving::BuildQuery(schema, spec), "BuildQuery"));
        }
      }
    }
    std::vector<double> answers(queries.size());
    std::vector<std::string> keys(queries.size());
    std::vector<std::size_t> misses;
    {
      ScopedSpan span(tracer, "serving.cache", id);
      cache_.SetGeneration(generation);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        serving::AppendQueryKey(queries[i], &keys[i]);
        if (!cache_.Lookup(keys[i], &answers[i])) misses.push_back(i);
      }
    }
    if (!misses.empty()) {
      std::vector<query::RangeQuery> miss_queries;
      if (misses.size() != queries.size()) {
        for (const std::size_t i : misses) miss_queries.push_back(queries[i]);
      }
      const std::vector<query::RangeQuery>& todo =
          misses.size() == queries.size() ? queries : miss_queries;
      std::vector<double> computed;
      const std::size_t threshold = kDaemonDefaults.compile_batch_threshold;
      if (threshold > 0 && todo.size() >= threshold) {
        std::optional<query::CompiledWorkload> compiled;
        {
          ScopedSpan span(tracer, "query.compile", id);
          compiled.emplace(session->Compile(todo));
        }
        ScopedSpan span(tracer, "query.evaluate", id);
        computed = session->AnswerCompiled(*compiled);
      } else {
        ScopedSpan span(tracer, "query.evaluate", id);
        computed = session->AnswerAll(todo);
      }
      ScopedSpan span(tracer, "serving.cache", id);
      for (std::size_t j = 0; j < misses.size(); ++j) {
        answers[misses[j]] = computed[j];
        cache_.Insert(keys[misses[j]], computed[j]);
      }
    }
    {
      ScopedSpan span(tracer, "serving.encode", id);
      out_.clear();
      if (request.text) {
        char buf[64];
        out_ += "ok ";
        out_ += std::to_string(answers.size());
        out_ += '\n';
        for (const double a : answers) {
          const int len = std::snprintf(buf, sizeof buf, "%.17g\n", a);
          out_.append(buf, static_cast<std::size_t>(len));
        }
      } else {
        serving::EncodeOkAnswers(&out_, answers);
      }
    }
    bool same = true;
    for (std::size_t i = 0; i < answers.size(); ++i) {
      same = same && SameBits(answers[i], expected_[request.queries[i]]);
    }
    report_.Check(same, "replayed answers");
    return id;
  }

 private:
  privelet::common::ThreadPool pool_;
  query::ReleaseStore store_;
  std::string snapshot_;
  std::span<const double> expected_;
  RunReport& report_;
  serving::AnswerCache cache_{kDaemonDefaults.answer_cache_entries};
  std::string out_;
};

/// Traced runs only: replays the loadgen's measured requests in send
/// order, once untraced and once traced, with a fresh answer cache each
/// time.
ReplayResult ReplayRequests(RunContext& ctx, const std::string& snapshot,
                            const std::vector<ConnectionPlan>& plans,
                            const LoadResult& load,
                            std::span<const double> expected) {
  ReplayResult result;
  if (!ctx.tracer->enabled()) return result;
  Replayer replayer(snapshot, expected, *ctx.report);
  const std::uint64_t start = NowNs();
  double query_us = 0.0;
  std::size_t query_requests = 0;
  for (const auto& [conn, index] : load.order) {
    if (result.requests == kMaxReplayRequests ||
        SecondsSince(start) > kMaxReplaySeconds) {
      break;
    }
    const Request& request = plans[conn].ring[index];
    const std::uint64_t t0 = NowNs();
    replayer.Replay(request, *ctx.untraced);
    if (!request.reload) {
      query_us += static_cast<double>(NowNs() - t0) * 1e-3;
      ++query_requests;
    }
    ++result.requests;
  }
  if (query_requests == 0) return result;
  result.untraced_us = query_us / static_cast<double>(query_requests);

  replayer.Reset();
  std::vector<std::uint64_t> roots;
  roots.reserve(result.requests);
  for (std::size_t i = 0; i < result.requests; ++i) {
    const auto& [conn, index] = load.order[i];
    const std::uint64_t root =
        replayer.Replay(plans[conn].ring[index], *ctx.tracer);
    if (root != 0) roots.push_back(root);
  }
  if (roots.empty()) return result;
  std::unordered_set<std::uint64_t> root_set(roots.begin(), roots.end());
  double total = 0.0;
  for (const std::uint64_t id : roots) total += ctx.tracer->span(id).micros();
  for (const Span& span : ctx.tracer->spans()) {
    if (root_set.count(span.parent) != 0) result.stage_us[span.name] += span.micros();
  }
  const double n = static_cast<double>(roots.size());
  for (auto& [name, us] : result.stage_us) us /= n;
  result.traced_us = total / n;
  return result;
}

/// End-of-run STATS, the replay and the loadgen phases as per-layer
/// metrics and notes.
void ReportServeLayers(RunContext& ctx, const LoadResult& load,
                       const std::map<std::string, double>& stats,
                       const ReplayResult& replay) {
  const auto stat = [&](const char* key) {
    const auto it = stats.find(key);
    return it == stats.end() ? 0.0 : it->second;
  };
  const auto stage = [&](const char* key) {
    const auto it = replay.stage_us.find(key);
    return it == replay.stage_us.end() ? 0.0 : it->second;
  };
  RunReport& r = *ctx.report;
  r.Check(!stats.empty(), "STATS reply");
  const double service_p50 = stat("latency_p50_us");
  const char* const kStages[] = {"serving.decode", "query.acquire",
                                 "serving.build",  "serving.cache",
                                 "query.compile",  "query.evaluate",
                                 "serving.encode"};
  for (const char* name : kStages) {
    r.Set(std::string(name) + "_us", stage(name), "us");
  }
  // The daemon's service timer (Server::AnswerTimed) starts at Acquire
  // and stops after the cache inserts: decode and encode lie outside it.
  const double timed_stages = stage("query.acquire") + stage("serving.build") +
                              stage("serving.cache") + stage("query.compile") +
                              stage("query.evaluate");
  r.Set("serving.replay_total_us", replay.traced_us, "us");
  r.Set("serving.trace_overhead_us", replay.traced_us - replay.untraced_us, "us");
  r.Set("serving.service_p50_us", service_p50, "us");
  r.Set("serving.service_p99_us", stat("latency_p99_us"), "us");
  r.Set("serving.wait_us", Median(load.request_us) - service_p50, "us");
  r.Set("serving.unattributed_us", service_p50 - timed_stages, "us");
  const double queries = stat("queries");
  const double hit_ratio = queries > 0 ? stat("answer_cache_hits") / queries : 0.0;
  r.Set("serving.cache_hit_ratio", hit_ratio, "ratio");
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "serve: daemon STATS: %.0f queries, answer-cache hit ratio %.4f",
                queries, hit_ratio);
  ctx.notes.push_back(buf);
  r.Set("query.store_loads", stat("store_loads"), "count");
  r.Set("query.store_hits", stat("store_hits"), "count");
}

void AccountLoad(RunContext& ctx, const LoadResult& load, const char* what) {
  RunReport& r = *ctx.report;
  r.attempted += load.warmup.sent + load.measured.sent + load.refused_connections;
  r.failed += load.warmup.failed + load.measured.failed;
  for (const std::string& f : load.failures) {
    if (r.check_failures.size() < 20) r.check_failures.push_back(f);
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s: warm-up sent %llu ok %llu failed %llu; measured sent "
                "%llu ok %llu failed %llu; refused connections %llu",
                what, static_cast<unsigned long long>(load.warmup.sent),
                static_cast<unsigned long long>(load.warmup.succeeded),
                static_cast<unsigned long long>(load.warmup.failed),
                static_cast<unsigned long long>(load.measured.sent),
                static_cast<unsigned long long>(load.measured.succeeded),
                static_cast<unsigned long long>(load.measured.failed),
                static_cast<unsigned long long>(load.refused_connections));
  ctx.notes.push_back(buf);
}

/// Loadgen -> STATS -> stop daemon -> replay -> per-layer metrics.
LoadResult DriveDaemon(RunContext& ctx, Daemon& daemon,
                       const std::string& snapshot,
                       const std::vector<ConnectionPlan>& plans,
                       const QueryPool& pool, const LoadOptions& options,
                       const char* what, double* daemon_rss_mb) {
  LoadOptions pinned = options;
  pinned.cpus = ctx.cpus.loadgen;
  LoadResult load = RunClosedLoop(daemon.port(), plans, pool.expected, pinned);
  const std::map<std::string, double> stats = daemon.Stats();
  *daemon_rss_mb = daemon.PeakRssMb();
  daemon.Stop();
  AccountLoad(ctx, load, what);
  const ReplayResult replay =
      ReplayRequests(ctx, snapshot, plans, load, pool.expected);
  ReportServeLayers(ctx, load, stats, replay);
  return load;
}

std::vector<std::string> DaemonArgs(const std::string& snapshot) {
  std::vector<std::string> args = {std::string(kReleaseId) + "=" + snapshot};
  args.insert(args.end(), kDaemonFlags.begin(), kDaemonFlags.end());
  return args;
}

/// Shared by both serve workloads: the census release published the CLI
/// way and served by a fresh daemon, set up kSetupRepeats times.
struct ServeSetup {
  std::string snapshot;
  std::optional<query::PublishingSession> reference;  ///< mapped release
  std::size_t cells = 0;
  ReferencedTimes setup_s;
};

void SetUpServing(RunContext& ctx, Daemon& daemon, ServeSetup* setup) {
  const std::string csv = ctx.work_dir + "/census.csv";
  setup->snapshot = ctx.work_dir + "/census.pvls";
  const auto config = CensusConfigFor(ctx.seed);
  const auto schema = Must(data::MakeCensusSchema(config.country,
                                                  config.income_domain),
                           "MakeCensusSchema");
  matrix::FrequencyMatrix exact;
  std::optional<query::PublishingSession> session;
  const HostReference reference = ComputeReference();
  setup->setup_s.nominal_ms = reference.nominal_ms;
  for (int i = 0; i < kSetupRepeats; ++i) {
    // The last set-up publishes untraced: the tracing-overhead baseline.
    const bool traced = i + 1 < kSetupRepeats;
    Tracer& tracer = traced ? *ctx.tracer : *ctx.untraced;
    daemon.Stop();
    session.reset();
    const double reference_ms = reference.run();
    const std::uint64_t start = NowNs();
    ScopedSpan span(tracer, "setup");
    {
      const auto table = Must(data::GenerateCensus(config), "GenerateCensus");
      Must(data::WriteCsv(csv, table), "WriteCsv");
    }
    const std::uint64_t publish_start = NowNs();
    session.emplace(PublishCsvToSnapshot(ctx, tracer, csv, schema, ctx.seed,
                                         setup->snapshot, &exact, span.id()));
    if (!traced) ctx.untraced_publish_ms.push_back(SecondsSince(publish_start) * 1e3);
    daemon.Start(ctx.cli, DaemonArgs(setup->snapshot), ctx.work_dir,
                 ctx.cpus.daemon);
    setup->setup_s.Add(SecondsSince(start), reference_ms);
  }
  setup->cells = exact.size();
  setup->reference.emplace(MapRelease(ctx, setup->snapshot));
  CheckNoise(ctx, schema, exact, *session);
}

void ReportServeE2e(RunContext& ctx, const ServeSetup& setup,
                    const HostReference& reference, const LoadResult& load,
                    double daemon_rss_mb) {
  // Medians over windows (cycles of one connection's ring) keep a burst
  // of interference on the shared host from moving the whole run; each
  // window is scaled by the reference run right before it.
  std::vector<double> p50_ms;
  std::vector<double> qps;
  for (std::size_t w = 0; w < load.window_p50_us.size(); ++w) {
    const double speed = reference.nominal_ms / load.window_reference_ms[w];
    p50_ms.push_back(load.window_p50_us[w] * 1e-3 * speed);
    qps.push_back(load.window_qps[w] / speed);
  }
  const Tail tail = TailOf(load.request_us);
  RunReport& r = *ctx.report;
  r.Set("setup_s", Median(setup.setup_s.AtNominalSpeed()), "s");
  r.Set("latency_p50_nominal_ms", Median(p50_ms), "ms");
  r.Set("throughput_nominal_per_s", Median(qps), "1/s");
  r.Set("peak_rss_mb", daemon_rss_mb, "MiB");
  r.Set("snapshot_bytes_per_cell",
        static_cast<double>(FileSize(setup.snapshot)) /
            static_cast<double>(setup.cells),
        "bytes");
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "serve: measured: window medians p50 %.4f ms, %.0f queries/s; "
                "setup median %.4f s",
                Median(load.window_p50_us) * 1e-3, Median(load.window_qps),
                Median(setup.setup_s.measured));
  ctx.notes.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "serve: %s reference median %.2f ms before windows (nominal "
                "%.1f ms); compute reference median %.2f ms before set-ups "
                "(nominal %.1f ms)",
                reference.name, Median(load.window_reference_ms),
                reference.nominal_ms, Median(setup.setup_s.reference_ms),
                setup.setup_s.nominal_ms);
  ctx.notes.push_back(buf);
  std::snprintf(buf, sizeof buf,
                "serve: %zu timed requests in %zu windows; whole run (the "
                "reference pauses included): request p50 %.1f us, p%.2f %.1f "
                "us, %.0f queries/s",
                load.request_us.size(), load.window_qps.size(),
                Median(load.request_us), tail.percentile, tail.value,
                load.measured_seconds > 0
                    ? static_cast<double>(load.measured_queries) /
                          load.measured_seconds
                    : 0.0);
  ctx.notes.push_back(buf);
  if (!load.reload_ms.empty()) {
    double reload_ms = 0.0;
    for (const double ms : load.reload_ms) reload_ms += ms;
    std::snprintf(buf, sizeof buf,
                  "serve: %zu RELOADs, reload p50 %.1f ms, %.1f%% of the "
                  "measured time",
                  load.reload_ms.size(), Median(load.reload_ms),
                  load.measured_seconds > 0
                      ? reload_ms * 1e-1 / load.measured_seconds
                      : 0.0);
    ctx.notes.push_back(buf);
  }
}

}  // namespace

void VerifyServing(RunContext& ctx, const std::string& snapshot) {
  const query::PublishingSession reference =
      Must(storage::MapSession(snapshot, nullptr), "MapSession");
  const QueryPool pool = MakeQueryPool(reference.schema(), reference,
                                       kVerifyQueries, ctx.seed + 31);
  const std::vector<ConnectionPlan> plans = SequentialPlans(
      pool, 2, 128, kInteractiveMaxBatch, ctx.seed + 37, /*text_on_odd=*/true);
  Daemon daemon;
  daemon.Start(ctx.cli, DaemonArgs(snapshot), ctx.work_dir, ctx.cpus.daemon);
  double rss = 0.0;
  LoadOptions options;
  options.warmup_seconds = 0.0;
  options.measure_seconds = 0.5;
  DriveDaemon(ctx, daemon, snapshot, plans, pool, options, "verify serving",
              &rss);
}

void RunServeInteractive(RunContext& ctx) {
  Daemon daemon;
  ServeSetup setup;
  SetUpServing(ctx, daemon, &setup);
  const QueryPool pool = MakeQueryPool(
      setup.reference->schema(), *setup.reference,
      kConnections * kInteractiveRingRequests * (kInteractiveMaxBatch + 1) / 2,
      ctx.seed);
  const std::vector<ConnectionPlan> plans =
      SequentialPlans(pool, kConnections, kInteractiveRingRequests,
                      kInteractiveMaxBatch, ctx.seed, /*text_on_odd=*/false);
  // Small requests spend their time in syscalls and wake-ups: the
  // reference is the round trip between the loadgen's CPU (the loadgen
  // thread is pinned there) and the daemon loop's.
  const HostReference reference =
      WakeupReference(-1, ctx.cpus.daemon.empty() ? -1 : ctx.cpus.daemon[0]);
  double rss = 0.0;
  LoadOptions options;
  options.measure_seconds = ctx.seconds;
  options.reference = &reference;
  const LoadResult load = DriveDaemon(ctx, daemon, setup.snapshot, plans, pool,
                                      options, "serve_interactive", &rss);
  ReportServeE2e(ctx, setup, reference, load, rss);
}

void RunServeDashboard(RunContext& ctx) {
  Daemon daemon;
  ServeSetup setup;
  SetUpServing(ctx, daemon, &setup);
  const QueryPool pool = MakeQueryPool(setup.reference->schema(),
                                       *setup.reference, kDashboardHotSet,
                                       ctx.seed);
  // Zipf-skewed draws over a hot set four times the answer cache.
  std::vector<double> cdf(kDashboardHotSet);
  double sum = 0.0;
  for (std::size_t i = 0; i < kDashboardHotSet; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), kDashboardZipf);
    cdf[i] = sum;
  }
  std::mt19937_64 rng(ctx.seed);
  std::uniform_real_distribution<double> uniform(0.0, sum);
  std::vector<ConnectionPlan> plans(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    const bool text = c < 2;
    plans[c].binary = !text;
    const std::size_t requests = c == kDashboardReloadConnection
                                     ? kDashboardReloadEvery
                                     : kDashboardRingRequests;
    for (std::size_t r = 0; r < requests; ++r) {
      std::vector<std::uint32_t> indices(kDashboardBatch);
      for (std::uint32_t& i : indices) {
        i = static_cast<std::uint32_t>(
            std::lower_bound(cdf.begin(), cdf.end(), uniform(rng)) - cdf.begin());
      }
      plans[c].ring.push_back(QueryRequest(pool, std::move(indices), text));
    }
    if (c == kDashboardReloadConnection) {
      plans[c].ring.push_back(ReloadRequest(setup.snapshot));
    }
  }
  // 256-query batches spend their time answering: the compute reference.
  const HostReference reference = ComputeReference();
  double rss = 0.0;
  LoadOptions options;
  options.measure_seconds = ctx.seconds;
  options.reference = &reference;
  const LoadResult load = DriveDaemon(ctx, daemon, setup.snapshot, plans, pool,
                                      options, "serve_dashboard", &rss);
  ReportServeE2e(ctx, setup, reference, load, rss);
}

}  // namespace perfbench
