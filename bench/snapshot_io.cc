// Snapshot economics: the whole point of a durable release artifact is
// that a serving process pays an O(file) load instead of an O(publish)
// recompute. This harness publishes a release on the scalability schema,
// then times (a) SaveSession, (b) LoadSession, which copies the stored
// prefix table, (c) MapSession, which adopts it in place, against the
// publish itself — and verifies all paths answer a probe workload
// bit-identically. It also times the CRC-32 that every
// save, copy load and mapped open pays, against memcpy over the same
// buffer: crc_over_memcpy is scale-free, so CI gates it
// (bench/baselines/manifest.json) and a byte-at-a-time CRC fails the
// build. publish_minflt counts the minor page faults of the in-core
// publish (getrusage, whole process): each release-sized buffer the
// publish faults in fresh shows as cells * 8 / 4096 of them. It is
// informational, not gated. Emits BENCH_snapshot_io.json.
//
//   build/bench/snapshot_io          # ~1M cells; PRIVELET_FULL=1 -> ~16M
//   build/bench/snapshot_io --smoke  # ~1M cells always (the CI baseline)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench_util.h"
#include "privelet/common/stopwatch.h"
#include "privelet/common/thread_pool.h"
#include "privelet/data/synthetic_generator.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/workload.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/storage/crc32.h"
#include "privelet/storage/session_io.h"
#include "privelet/storage/snapshot.h"

using namespace privelet;

namespace {

struct CrcThroughput {
  double crc_mb_per_s;
  double memcpy_mb_per_s;
};

// Best of kReps timings, each kPasses passes over a 256 KiB buffer. The
// buffer stays in L2, so both loops are core-bound and their ratio moves
// less with host load than past the caches, where memcpy competes for
// memory bandwidth: six runs on a 4-vCPU host gave 0.084-0.087 here and
// 0.42-0.48 with 16 MiB.
CrcThroughput MeasureCrcThroughput() {
  constexpr std::size_t kBytes = std::size_t{256} << 10;
  constexpr int kPasses = 64;
  constexpr int kReps = 15;
  std::vector<unsigned char> src(kBytes);
  std::vector<unsigned char> dst(kBytes);
  rng::Xoshiro256pp gen(5);
  for (auto& b : src) b = static_cast<unsigned char>(gen.Next() >> 56);
  const std::uint32_t want = storage::Crc32(src.data(), kBytes);
  double best_crc = 1e9;
  double best_copy = 1e9;
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch crc_watch;
    for (int pass = 0; pass < kPasses; ++pass) {
      PRIVELET_CHECK(storage::Crc32(src.data(), kBytes) == want,
                     "CRC-32 changed between passes");
    }
    best_crc = std::min(best_crc, crc_watch.ElapsedSeconds());
    Stopwatch copy_watch;
    for (int pass = 0; pass < kPasses; ++pass) {
      std::memcpy(dst.data(), src.data(), kBytes);
      dst[pass] ^= 1;  // keeps every copy live
    }
    best_copy = std::min(best_copy, copy_watch.ElapsedSeconds());
  }
  const double mb = static_cast<double>(kBytes) * kPasses / 1e6;
  return {mb / best_crc, mb / best_copy};
}

/// Minor page faults of this process so far (all threads).
double MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_minflt);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t target_cells = !smoke && bench::FullScale()
                                       ? (std::size_t{1} << 24)
                                       : (std::size_t{1} << 20);
  const std::string path = "BENCH_snapshot_io.pvls";

  auto schema = data::MakeScalabilitySchema(target_cells);
  PRIVELET_CHECK(schema.ok(), schema.status().ToString());
  auto table = data::GenerateUniformTable(*schema, /*num_tuples=*/500'000,
                                          /*seed=*/9);
  PRIVELET_CHECK(table.ok(), table.status().ToString());
  const auto m = matrix::FrequencyMatrix::FromTable(*table);

  common::ThreadPool pool(common::ThreadPool::DefaultThreadCount());
  mechanism::PriveletMechanism mech;
  mech.set_thread_pool(&pool);

  const double faults_before = MinorFaults();
  Stopwatch publish_watch;
  auto session = query::PublishingSession::Publish(
      *schema, mech, m, /*epsilon=*/1.0, /*seed=*/31, &pool);
  PRIVELET_CHECK(session.ok(), session.status().ToString());
  const double publish_s = publish_watch.ElapsedSeconds();
  const double publish_minflt = MinorFaults() - faults_before;

  query::WorkloadOptions wopts;
  wopts.num_queries = 2'000;
  auto workload = query::GenerateWorkload(*schema, wopts);
  PRIVELET_CHECK(workload.ok(), workload.status().ToString());
  const std::vector<double> expected = session->AnswerAll(*workload);

  Stopwatch save_watch;
  PRIVELET_CHECK(storage::SaveSession(path, *session).ok(),
                 "snapshot save failed");
  const double save_s = save_watch.ElapsedSeconds();

  Stopwatch load_watch;
  auto loaded = storage::LoadSession(path, &pool);
  const double load_s = load_watch.ElapsedSeconds();
  PRIVELET_CHECK(loaded.ok(), loaded.status().ToString());
  PRIVELET_CHECK(expected == loaded->AnswerAll(*workload),
                 "loaded session answers diverge");

  Stopwatch map_watch;
  auto mapped = storage::MapSession(path, &pool);
  const double map_s = map_watch.ElapsedSeconds();
  PRIVELET_CHECK(mapped.ok(), mapped.status().ToString());
  PRIVELET_CHECK(expected == mapped->AnswerAll(*workload),
                 "mapped session answers diverge");

  auto info = storage::InspectSnapshot(path);
  PRIVELET_CHECK(info.ok(), info.status().ToString());

  const CrcThroughput crc = MeasureCrcThroughput();

  std::printf("cells=%zu publish=%.3fs save=%.3fs load=%.3fs map=%.3fs "
              "(%.1fx publish -> load speedup)\n",
              m.size(), publish_s, save_s, load_s, map_s,
              publish_s / (load_s > 0 ? load_s : 1e-9));
  std::printf("publish minor faults %.0f\n", publish_minflt);
  std::printf("crc32 %.0f MB/s, memcpy %.0f MB/s (crc/memcpy %.3f)\n",
              crc.crc_mb_per_s, crc.memcpy_mb_per_s,
              crc.crc_mb_per_s / crc.memcpy_mb_per_s);

  bench::BenchReport report("snapshot_io");
  report.AddRow({{"cells", static_cast<double>(m.size())},
                 {"publish_s", publish_s},
                 {"publish_minflt", publish_minflt},
                 {"save_s", save_s},
                 {"load_s", load_s},
                 {"map_s", map_s},
                 {"file_mb", static_cast<double>(info->file_bytes) / 1e6},
                 {"crc_mb_per_s", crc.crc_mb_per_s},
                 {"memcpy_mb_per_s", crc.memcpy_mb_per_s},
                 {"crc_over_memcpy",
                  crc.crc_mb_per_s / crc.memcpy_mb_per_s}});
  std::remove(path.c_str());
  return 0;
}
