// perfbench: one run of one workload of the publish -> snapshot -> serve
// benchmark. Usually started through run.py, which builds this binary:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--git-sha SHA]
//
// Human-readable lines first; the last line of stdout is the JSON result
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones (and writes the spans
// to DIR/trace_<workload>.tsv). Exit code 0 only when every check passed.
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "daemon.h"
#include "loadgen.h"
#include "privelet/query/publishing_session.h"
#include "privelet/serving/protocol.h"
#include "privelet/simd/dispatch.h"
#include "privelet/storage/session_io.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace data = privelet::data;
namespace matrix = privelet::matrix;
namespace query = privelet::query;

// The metric lists of BENCHMARK.json, in order.
const char* const kEndToEnd[] = {"setup_s",
                                 "latency_p50_nominal_ms",
                                 "throughput_nominal_per_s",
                                 "peak_rss_mb",
                                 "snapshot_bytes_per_cell",
                                 "ok_frac"};
const char* const kPerLayer[] = {
    "data.read_csv_ms",        "matrix.from_table_ms",
    "wavelet.forward_ms",      "wavelet.inverse_ms",
    "mechanism.publish_ms",    "mechanism.noise_ms",
    "matrix.prefix_build_ms",  "storage.save_ms",
    "storage.write_mb_per_s",  "storage.map_open_ms",
    "publish.traced_total_ms", "publish.unattributed_ms",
    "publish.trace_overhead_ms", "serving.decode_us",
    "query.acquire_us",        "serving.build_us",
    "serving.cache_us",        "query.compile_us",
    "query.evaluate_us",       "serving.encode_us",
    "serving.replay_total_us", "serving.trace_overhead_us",
    "serving.service_p50_us",  "serving.service_p99_us",
    "serving.wait_us",         "serving.unattributed_us",
    "serving.cache_hit_ratio", "query.store_loads",
    "query.store_hits",        "mechanism.mse_over_predicted"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

/// The checks must be able to fail: a deliberately wrong expected answer
/// is counted as failed by the loadgen, and a release without noise trips
/// the noise guard. Returns "" when both hold.
std::string SelfTest(RunContext& ctx) {
  const data::Schema schema({data::Attribute::Ordinal("a", 64),
                             data::Attribute::Ordinal("b", 64)});
  matrix::FrequencyMatrix exact(schema.DomainSizes());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    exact[i] = static_cast<double>((i * 2654435761u) % 17);
  }
  const auto noiseless = Must(
      query::PublishingSession::FromMatrix(schema, exact, nullptr), "FromMatrix");
  if (NoiseGuardOk(MseOverPredicted(schema, exact, noiseless, 1, nullptr))) {
    return "the noise guard accepted a release without noise";
  }

  const std::string path = ctx.work_dir + "/selftest.pvls";
  Must(privelet::storage::SaveSession(path, noiseless), "SaveSession");
  query::RangeQuery q(2);
  Must(q.SetRange(schema, 0, 3, 40), "SetRange");
  const std::vector<double> truth = noiseless.AnswerAll(std::span(&q, 1));
  ConnectionPlan plan;
  Request request;
  privelet::serving::QuerySpec spec;
  spec.predicates.push_back({0, 0, 3, 40});
  privelet::serving::EncodeQueryRequest(&request.bytes, kReleaseId,
                                        std::span(&spec, 1));
  request.queries = {0};
  plan.ring.push_back(request);

  Daemon daemon;
  daemon.Start(ctx.cli, {std::string(kReleaseId) + "=" + path}, ctx.work_dir);
  LoadOptions options;
  options.warmup_seconds = 0.0;
  options.measure_seconds = 0.05;
  const std::vector<double> wrong = {truth[0] + 1.0};
  const LoadResult bad = RunClosedLoop(daemon.port(), {plan}, wrong, options);
  const LoadResult good = RunClosedLoop(daemon.port(), {plan}, truth, options);
  daemon.Stop();
  if (bad.measured.sent == 0 || bad.measured.succeeded != 0 ||
      bad.measured.failed != bad.measured.sent) {
    return "a wrong expected answer was not counted as failed";
  }
  if (good.measured.sent == 0 || good.measured.failed != 0) {
    return "a correct answer was counted as failed";
  }
  return "";
}

void PrintLayerTable(const RunContext& ctx) {
  const RunReport& r = *ctx.report;
  const auto v = [&](const char* name) {
    const auto it = r.metrics.find(name);
    return it == r.metrics.end() ? 0.0 : it->second.value;
  };
  std::printf(
      "layer table (publish, ms per call, medians; * = inside the traced "
      "publish, the others ran in set-up or the checks)\n");
  const char* const kPublish[] = {"data.read_csv", "matrix.from_table",
                                  "mechanism.publish", "matrix.prefix_build",
                                  "storage.save"};
  double sum = 0.0;
  for (const char* stage : kPublish) {
    const std::string name = std::string(stage) + "_ms";
    const bool inside = ctx.publish_path_stages.count(stage) != 0;
    std::printf("  %-28s %12.3f %s\n", name.c_str(), v(name.c_str()),
                inside ? "*" : "");
    if (inside) sum += v(name.c_str());
  }
  std::printf("    %-26s %12.3f\n", "of which wavelet.forward", v("wavelet.forward_ms"));
  std::printf("    %-26s %12.3f\n", "of which wavelet.inverse", v("wavelet.inverse_ms"));
  std::printf("    %-26s %12.3f\n", "of which noise", v("mechanism.noise_ms"));
  std::printf("  %-28s %12.3f\n", "sum of * stages", sum);
  std::printf("  %-28s %12.3f\n", "publish.unattributed_ms", v("publish.unattributed_ms"));
  std::printf("  %-28s %12.3f\n", "traced total", v("publish.traced_total_ms"));
  const double total = v("publish.traced_total_ms");
  std::printf("  %-28s %11.2f%%\n", "unattributed share",
              total > 0 ? 100.0 * v("publish.unattributed_ms") / total : 0.0);
  std::printf("  %-28s %12.3f\n", "tracing overhead", v("publish.trace_overhead_ms"));
  std::printf("layer table (serve, us per request, in-process replay means)\n");
  const char* const kServe[] = {"serving.decode_us", "query.acquire_us",
                                "serving.build_us",  "serving.cache_us",
                                "query.compile_us",  "query.evaluate_us",
                                "serving.encode_us"};
  sum = 0.0;
  for (const char* name : kServe) {
    std::printf("  %-28s %12.3f\n", name, v(name));
    sum += v(name);
  }
  std::printf("  %-28s %12.3f\n", "sum of stages", sum);
  std::printf("  %-28s %12.3f\n", "replay unattributed",
              v("serving.replay_total_us") - sum);
  std::printf("  %-28s %12.3f\n", "traced replay total", v("serving.replay_total_us"));
  std::printf("  %-28s %12.3f\n", "tracing overhead", v("serving.trace_overhead_us"));
  std::printf("  %-28s %12.3f\n", "daemon service p50 (acquire..evaluate)",
              v("serving.service_p50_us"));
  std::printf("  %-28s %12.3f\n", "serving.unattributed_us", v("serving.unattributed_us"));
  std::printf("  %-28s %12.3f\n", "serving.wait_us", v("serving.wait_us"));
}

/// Pins the calling thread, and the threads it starts later, to the last
/// CPU it may run on; returns that CPU, or -1.
int PinToLastCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  return ::sched_setaffinity(0, sizeof one, &one) == 0 ? last : -1;
}

int Run(const Args& args) {
  std::filesystem::create_directories(args.work_dir);
  Tracer tracer(args.trace);
  Tracer untraced(false);
  RunReport report;
  // The harness runs serially (no pool) on one pinned CPU, the loadgen's
  // on the serve workloads, and the compute reference runs there too: a
  // parallel publish waits for its slowest vCPU, and on a shared host a
  // stolen vCPU slowed one by up to 1.7x while a reference run on one CPU
  // slowed by 1.16x.
  const ServeCpus serve_cpus = ChooseServeCpus();  // before the pinning
  const int harness_cpu = PinToLastCpu();
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.work_dir = std::filesystem::absolute(args.work_dir).string();
  ctx.cli = PERFBENCH_CLI_PATH;
  ctx.tracer = &tracer;
  ctx.untraced = &untraced;
  ctx.report = &report;
  ctx.cpus = serve_cpus;

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::string daemon_flags;
  for (const std::string& f : kDaemonFlags) daemon_flags += " " + f;
  const auto cpu_list = [](const std::vector<int>& cpus) {
    std::string out;
    for (const int cpu : cpus) {
      if (!out.empty()) out += ',';
      out += std::to_string(cpu);
    }
    return out.empty() ? std::string("any") : out;
  };
  std::printf(
      "host: nproc=%ld isa_active=%s isa_best=%s cpu=%s git=%s "
      "harness_cpu=%d (serial) daemon:%s daemon_cpus=%s loadgen_cpus=%s\n",
      ::sysconf(_SC_NPROCESSORS_ONLN),
      std::string(privelet::simd::IsaLevelName(privelet::simd::ResolveIsa())).c_str(),
      std::string(privelet::simd::IsaLevelName(privelet::simd::DetectBestIsa())).c_str(),
      std::string(privelet::simd::CpuFeatureString()).c_str(), args.git_sha.c_str(),
      harness_cpu, daemon_flags.c_str(), cpu_list(ctx.cpus.daemon).c_str(),
      cpu_list(ctx.cpus.loadgen).c_str());

  const std::string self_test = SelfTest(ctx);
  report.Check(self_test.empty(), "self-test: " + self_test);
  std::printf("self-test: %s\n", self_test.empty() ? "ok" : self_test.c_str());

  if (args.workload == "publish_csv") {
    RunPublishCsv(ctx);
  } else if (args.workload == "publish_inmem") {
    RunPublishInMemory(ctx);
  } else if (args.workload == "serve_interactive") {
    RunServeInteractive(ctx);
  } else if (args.workload == "serve_dashboard") {
    RunServeDashboard(ctx);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  report.Set("ok_frac",
             static_cast<double>(report.attempted - report.failed) /
                 static_cast<double>(report.attempted),
             "ratio");
  for (const std::string& note : ctx.notes) std::printf("%s\n", note.c_str());
  for (const std::string& failure : report.check_failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  if (args.trace) {
    ReportPublishLayers(ctx);
    PrintLayerTable(ctx);
    const std::string spans = ctx.work_dir + "/trace_" + args.workload + ".tsv";
    if (!tracer.WriteTsv(spans)) throw FatalError("cannot write " + spans);
    std::printf("spans: %zu written to %s\n", tracer.spans().size(), spans.c_str());
  }

  std::string metrics;
  const auto emit = [&](const char* name) {
    const auto it = report.metrics.find(name);
    if (it == report.metrics.end() || !std::isfinite(it->second.value)) {
      throw FatalError(std::string("metric ") + name + " was not measured");
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name, it->second.value,
                  it->second.unit.c_str());
    metrics += buf;
    std::fprintf(stderr, "metric %-30s %.6g %s\n", name, it->second.value,
                 it->second.unit.c_str());
  };
  if (args.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  const bool correct = report.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's adaptive one, so release-sized
  // buffers are mapped and unmapped on every publish, as in a one-publish
  // CLI process, instead of being served from heaps whose layout (and peak
  // RSS) depends on the allocation history.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--git-sha SHA]\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
