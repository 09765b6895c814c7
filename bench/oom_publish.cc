// Out-of-core publish benchmark: publishes a data cube several times
// larger than the configured memory budget and reports peak RSS and wall
// time for the streamed (bounded-memory) path against the ordinary
// in-core path. Drops BENCH_oom_publish.json with one row per mode.
//
// The streamed publish starts from a scratch-backed input that records the
// budget; every later release-sized buffer — transform scratch, and the
// noisy matrix, over whose mapping the prefix table is built in place —
// follows it into unlinked mmap scratch files, and every pass (the
// snapshot save included) releases resident pages behind itself, so its
// peak RSS is paced by the budget, not the cube. VmHWM is monotone over
// the process lifetime, so the streamed run is measured FIRST; the
// in-core run then inherits (and raises) the high-water mark.
//
// Every run byte-compares the two snapshot files (streamed and in-core
// publishes must be indistinguishable on disk — docs/DETERMINISM.md), so
// the harness doubles as a correctness check. With --smoke it runs a
// reduced cube and (Release builds only) exits non-zero if the streamed
// publish's RSS growth over the process baseline exceeds
// kSmokeRssFactor x budget — i.e. the release-behind plumbing regressed
// to materializing the cube.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "privelet/common/residency.h"
#include "privelet/common/stopwatch.h"
#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/engine.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/storage/session_io.h"

namespace privelet::bench {
namespace {

// RSS growth allowance for the streamed smoke run, in multiples of the
// budget. The transform's per-worker panels (~25 MiB with 4 threads, not
// charged to the budget) plus the scratch pages mapped between two
// releases (the governor fires every sixteenth of the budget) make ~1x
// budget of working set; 1.5x leaves headroom for allocator and
// page-granularity slop while still failing loudly if any stage
// materializes the whole cube (>= 4x).
constexpr double kSmokeRssFactor = 1.5;

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  PRIVELET_CHECK(f != nullptr, "cannot reopen snapshot " + path);
  std::string bytes;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(f);
  return bytes;
}

// Deterministic cube fill. The streamed variant pours the same values
// into an mmap scratch matrix, releasing residency behind the write
// cursor so even the input never holds more than a budget's worth of
// pages — without this the fill alone would set VmHWM to the cube size.
void FillValues(std::span<double> values) {
  rng::Xoshiro256pp gen(5);
  for (double& v : values) v = gen.NextDouble() * 50.0;
}

matrix::FrequencyMatrix MakeInCoreCube(const data::Schema& schema) {
  matrix::FrequencyMatrix m(schema.DomainSizes());
  FillValues(m.values());
  return m;
}

matrix::FrequencyMatrix MakeScratchCube(const data::Schema& schema,
                                        std::size_t budget_bytes) {
  matrix::EngineOptions options;
  options.max_memory_bytes = budget_bytes;
  auto m = matrix::FrequencyMatrix::CreateScratch(schema.DomainSizes(),
                                                  options);
  PRIVELET_CHECK(m.ok(), m.status().ToString());
  std::span<double> values = m->values();
  rng::Xoshiro256pp gen(5);
  common::ResidencyGovernor governor(budget_bytes,
                                     [&] { m->ReleaseResidency(); });
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  for (std::size_t i = 0; i < values.size(); i += kChunk) {
    const std::size_t count = std::min(kChunk, values.size() - i);
    for (std::size_t j = 0; j < count; ++j) {
      values[i + j] = gen.NextDouble() * 50.0;
    }
    governor.OnBytesProcessed(count * sizeof(double));
  }
  return std::move(*m);
}

int Run(bool smoke) {
  // Cube >= 4x budget in both configurations (8x at full scale).
  const std::size_t side = smoke ? 4096 : 8192;
  const std::size_t other = smoke ? 4096 : 8192;
  const std::size_t budget = smoke ? (std::size_t{32} << 20)
                                   : (std::size_t{64} << 20);

  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", side));
  attrs.push_back(data::Attribute::Ordinal("B", other));
  const data::Schema schema{std::move(attrs)};
  const std::size_t cells = side * other;
  const std::size_t cube_bytes = cells * sizeof(double);
  PRIVELET_CHECK(cube_bytes >= 4 * budget,
                 "configuration error: cube must be >= 4x the budget");

  common::ThreadPool pool(common::ThreadPool::DefaultThreadCount());
  const std::size_t baseline_rss = PeakRssBytes();
  std::printf("oom_publish: m = %zu cells (%.0f MiB cube), budget %.0f MiB "
              "(%.1fx), %zu threads, baseline RSS %.1f MiB\n",
              cells, cube_bytes / 1048576.0, budget / 1048576.0,
              static_cast<double>(cube_bytes) / static_cast<double>(budget),
              pool.num_threads(), baseline_rss / 1048576.0);

  const std::string streamed_path = "oom_publish_streamed.pvls";
  const std::string incore_path = "oom_publish_incore.pvls";
  constexpr double kEpsilon = 1.0;
  constexpr std::uint64_t kSeed = 7;

  // Publishes `m` and saves the release to `path`; returns the wall time
  // of both. The release stays where `m` lives: in scratch files under
  // its budget, or in core.
  const auto publish_and_save = [&](const matrix::FrequencyMatrix& m,
                                    const std::string& path) {
    mechanism::PriveletMechanism mech;
    mech.set_thread_pool(&pool);
    Stopwatch watch;
    auto session = query::PublishingSession::Publish(schema, mech, m, kEpsilon,
                                                     kSeed, &pool);
    PRIVELET_CHECK(session.ok(), session.status().ToString());
    PRIVELET_CHECK(session->prefix_table().is_scratch() == m.is_scratch(),
                   "the release left its input's storage");
    const Status saved = storage::SaveSession(path, *session);
    PRIVELET_CHECK(saved.ok(), saved.ToString());
    return watch.ElapsedSeconds();
  };

  // Streamed first: VmHWM is monotone, so this phase owns the process
  // high-water mark it reports.
  const double streamed_s =
      publish_and_save(MakeScratchCube(schema, budget), streamed_path);
  const std::size_t streamed_rss = PeakRssBytes();
  const double incore_s = publish_and_save(MakeInCoreCube(schema), incore_path);
  const std::size_t incore_rss = PeakRssBytes();

  // The two files must be bitwise indistinguishable — the determinism
  // contract's streamed ≡ in-core clause, on a release-sized cube.
  PRIVELET_CHECK(ReadFileBytes(streamed_path) == ReadFileBytes(incore_path),
                 "streamed snapshot differs from the in-core snapshot");
  std::remove(streamed_path.c_str());
  std::remove(incore_path.c_str());

  const double streamed_growth =
      static_cast<double>(streamed_rss - std::min(streamed_rss, baseline_rss));
  const double streamed_over_budget =
      streamed_growth / static_cast<double>(budget);
  std::printf("  %-10s %12s %14s %16s\n", "mode", "publish s", "peak RSS MiB",
              "rss/budget");
  std::printf("  %-10s %12.3f %14.1f %16.2f\n", "streamed", streamed_s,
              streamed_rss / 1048576.0, streamed_over_budget);
  std::printf("  %-10s %12.3f %14.1f %16s\n", "in-core", incore_s,
              incore_rss / 1048576.0, "-");

  BenchReport report("oom_publish");
  report.AddRow({{"streamed", 1.0},
                 {"cells", static_cast<double>(cells)},
                 {"budget", static_cast<double>(budget)},
                 {"peak_rss", static_cast<double>(streamed_rss)},
                 {"baseline_rss", static_cast<double>(baseline_rss)},
                 {"publish_s", streamed_s},
                 {"rss_over_budget", streamed_over_budget}});
  report.AddRow({{"streamed", 0.0},
                 {"cells", static_cast<double>(cells)},
                 {"budget", static_cast<double>(budget)},
                 {"peak_rss", static_cast<double>(incore_rss)},
                 {"baseline_rss", static_cast<double>(baseline_rss)},
                 {"publish_s", incore_s},
                 {"rss_over_budget", 0.0}});

#ifdef NDEBUG
  if (smoke && streamed_growth > kSmokeRssFactor * static_cast<double>(budget)) {
    std::fprintf(stderr,
                 "FAIL: streamed publish grew RSS by %.1f MiB over the "
                 "baseline — more than %.1fx the %.0f MiB budget; the "
                 "release-behind path regressed\n",
                 streamed_growth / 1048576.0, kSmokeRssFactor,
                 budget / 1048576.0);
    return 1;
  }
#else
  (void)smoke;
#endif
  return 0;
}

}  // namespace
}  // namespace privelet::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return privelet::bench::Run(smoke);
}
