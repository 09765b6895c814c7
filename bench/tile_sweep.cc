// Axis-shape sweep of the line engine (matrix/engine.h) against the
// per-line reference (tests/reference/per_line_engine.h): HN
// forward/inverse transforms and end-to-end Privelet publishes on cubes
// whose long axis sits in different stride positions, plus a dispatch
// sweep over the kernel levels the host runs. Prints one table per case
// and drops BENCH_tile_sweep.json: the `tile: 0` row is the reference,
// the `tile: 64` rows the engine at its fixed panel width.
//
// Every release is checked bitwise against the reference one, so the
// sweep doubles as a correctness harness. With --smoke the harness runs
// the headline 1024x1024 case only and exits non-zero if the engine fails
// to beat the per-line walk (Release builds only — the check is a
// layout-regression tripwire, not a micro-benchmark), so CI fails loudly
// when the memory layout regresses.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "privelet/common/stopwatch.h"
#include "privelet/data/attribute.h"
#include "privelet/data/hierarchy.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/engine.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/rng/laplace.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/simd/dispatch.h"
#include "privelet/simd/kernels.h"
#include "privelet/wavelet/hn_transform.h"
#include "reference/per_line_engine.h"
#include "scoped_isa.h"

namespace privelet::bench {
namespace {

struct SweepCase {
  std::string name;
  data::Schema schema;
};

std::vector<SweepCase> MakeCases(bool smoke) {
  std::vector<SweepCase> cases;
  auto ordinal2d = [](const char* name, std::size_t a, std::size_t b) {
    std::vector<data::Attribute> attrs;
    attrs.push_back(data::Attribute::Ordinal("A", a));
    attrs.push_back(data::Attribute::Ordinal("B", b));
    return SweepCase{name, data::Schema(std::move(attrs))};
  };
  // The acceptance case: a 2-D cube whose first (non-last, stride 1024)
  // axis is Haar-transformed line by line.
  cases.push_back(ordinal2d("haar_1024x1024", 1024, 1024));
  if (smoke) return cases;
  cases.push_back(ordinal2d("haar_4096x256", 4096, 256));
  cases.push_back(ordinal2d("haar_256x4096", 256, 4096));
  {
    std::vector<data::Attribute> attrs;
    attrs.push_back(data::Attribute::Ordinal("Ord", 256));
    attrs.push_back(data::Attribute::Nominal(
        "Nom", data::Hierarchy::Balanced({4, 4}).value()));
    attrs.push_back(data::Attribute::Ordinal("Last", 64));
    cases.push_back({"mixed_256x16x64", data::Schema(std::move(attrs))});
  }
  return cases;
}

struct Timing {
  double forward_s = 0.0;
  double inverse_s = 0.0;
  double publish_s = 0.0;
};

// One forward, inverse and publish, timed per stage: through the line
// engine, or through the per-line reference when `per_line` is set. The
// release lands in `release`.
Timing RunOnce(const data::Schema& schema,
               const wavelet::HnTransform& transform,
               const matrix::FrequencyMatrix& m,
               bool per_line,
               matrix::FrequencyMatrix* release) {
  Timing t;
  Stopwatch watch;
  if (per_line) {
    wavelet::HnCoefficients coeffs = reference::Forward(transform, m);
    t.forward_s = watch.ElapsedSeconds();
    watch.Restart();
    reference::Inverse(transform, std::move(coeffs.coeffs));
    t.inverse_s = watch.ElapsedSeconds();
    watch.Restart();
    *release = reference::PublishPrivelet(schema, {}, m, /*epsilon=*/1.0,
                                          /*seed=*/1);
    t.publish_s = watch.ElapsedSeconds();
    return t;
  }
  auto coeffs = transform.Forward(m, nullptr);
  PRIVELET_CHECK(coeffs.ok(), "forward failed");
  t.forward_s = watch.ElapsedSeconds();
  watch.Restart();
  auto back = transform.Inverse(*coeffs, nullptr);
  PRIVELET_CHECK(back.ok(), "inverse failed");
  t.inverse_s = watch.ElapsedSeconds();
  mechanism::PriveletMechanism mech;
  watch.Restart();
  auto published = mech.Publish(schema, m, /*epsilon=*/1.0, /*seed=*/1);
  PRIVELET_CHECK(published.ok(), "publish failed");
  t.publish_s = watch.ElapsedSeconds();
  *release = std::move(*published);
  return t;
}

// Best-of-`reps` wall time per stage; the release of the first rep is
// returned through `release` for the bitwise comparison.
Timing Measure(const data::Schema& schema, const matrix::FrequencyMatrix& m,
               bool per_line, int reps,
               matrix::FrequencyMatrix* release) {
  auto transform = wavelet::HnTransform::Create(schema);
  PRIVELET_CHECK(transform.ok(), "transform creation failed");
  Timing best;
  for (int rep = 0; rep < reps; ++rep) {
    matrix::FrequencyMatrix rep_release;
    const Timing t = RunOnce(schema, *transform, m, per_line, &rep_release);
    if (rep == 0) {
      best = t;
      *release = std::move(rep_release);
    } else {
      best.forward_s = std::min(best.forward_s, t.forward_s);
      best.inverse_s = std::min(best.inverse_s, t.inverse_s);
      best.publish_s = std::min(best.publish_s, t.publish_s);
    }
  }
  return best;
}

// Best-of-`reps` time of one level's Laplace kernel drawing `n` units —
// the draws a Privelet publish of an n-cell cube makes, timed on their
// own.
double TimeLaplaceDraws(simd::IsaLevel level, std::size_t n, int reps) {
  const simd::KernelTable& kernels = simd::Kernels(level);
  const rng::NoiseKey key = rng::NoiseKey::FromSeed(1);
  std::vector<double> draws(n);
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    kernels.laplace_units(key, /*first=*/0, n, draws.data());
    const double s = watch.ElapsedSeconds();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

// The smoke tripwire fails only when the engine loses most of its
// measured advantage over the per-line walk: requiring >=
// 1/kSmokeMarginFactor speedup separates a genuine layout regression
// (engine ~= per-line) from shared-runner timing noise on the
// back-to-back relative measurement.
constexpr double kSmokeMarginFactor = 0.75;

// Same philosophy for the dispatch tripwire, which times each level's
// Laplace kernel on its own: the vector levels draw ~1.9x (AVX2) to
// ~3.5x (AVX-512) faster than the forced-scalar baseline on a 4-vCPU
// AVX-512 host, so the tripwire fires when the best level retains less
// than ~1.5x — a dispatch regression (kernels silently scalar), not
// timing noise. Forward+inverse is recorded beside it (speedup_vs_scalar,
// gated by tools/compare_bench.py) but does not trip the smoke: every
// level runs the same in-matrix line kernel, which streams memory, so the
// levels read within ~1.3x of each other there.
constexpr double kSimdSmokeMarginFactor = 0.65;

int Run(bool smoke) {
  const int reps = smoke ? 3 : 4;
  const double tile = static_cast<double>(matrix::kTileLines);
  BenchReport report("tile_sweep");
  bool engine_beats_per_line = true;
  bool simd_beats_scalar = true;

  std::vector<SweepCase> cases = MakeCases(smoke);
  for (std::size_t case_id = 0; case_id < cases.size(); ++case_id) {
    const SweepCase& c = cases[case_id];
    matrix::FrequencyMatrix m(c.schema.DomainSizes());
    rng::Xoshiro256pp gen(5);
    for (std::size_t i = 0; i < m.size(); ++i) m[i] = gen.NextDouble() * 50.0;

    // speedup_vs_naive keeps the key the baseline gate reads; "naive"
    // is the per-line reference.
    matrix::FrequencyMatrix reference_release;
    const Timing per_line =
        Measure(c.schema, m, /*per_line=*/true, reps, &reference_release);
    const double per_line_total = per_line.forward_s + per_line.inverse_s;
    std::printf("%s (m = %zu)\n", c.name.c_str(), m.size());
    std::printf("  %-10s %10s %10s %10s %9s\n", "engine", "fwd ms", "inv ms",
                "publish ms", "speedup");
    std::printf("  %-10s %10.2f %10.2f %10.2f %9s\n", "per-line",
                per_line.forward_s * 1e3, per_line.inverse_s * 1e3,
                per_line.publish_s * 1e3, "1.00x");
    report.AddRow({{"case_id", static_cast<double>(case_id)},
                   {"tile", 0.0},
                   {"forward_ms", per_line.forward_s * 1e3},
                   {"inverse_ms", per_line.inverse_s * 1e3},
                   {"publish_ms", per_line.publish_s * 1e3},
                   {"speedup_vs_naive", 1.0}});

    {
      matrix::FrequencyMatrix release;
      const Timing t = Measure(c.schema, m, /*per_line=*/false, reps, &release);
      PRIVELET_CHECK(
          matrix::ValuesEqual(release.values(), reference_release.values()),
          "release differs from the per-line reference");
      const double total = t.forward_s + t.inverse_s;
      const double speedup = total > 0.0 ? per_line_total / total : 0.0;
      std::printf("  tile %-5zu %10.2f %10.2f %10.2f %8.2fx\n",
                  matrix::kTileLines, t.forward_s * 1e3, t.inverse_s * 1e3,
                  t.publish_s * 1e3, speedup);
      report.AddRow({{"case_id", static_cast<double>(case_id)},
                     {"tile", tile},
                     {"forward_ms", t.forward_s * 1e3},
                     {"inverse_ms", t.inverse_s * 1e3},
                     {"publish_ms", t.publish_s * 1e3},
                     {"speedup_vs_naive", speedup}});
      if (case_id == 0 && total >= kSmokeMarginFactor * per_line_total) {
        engine_beats_per_line = false;
      }
    }

    // Dispatch sweep: one row per kernel level the host runs, each forced
    // through PRIVELET_ISA. Level 0 is the honest scalar baseline
    // (the one kernel source built at the baseline flags);
    // speedup_vs_scalar, the forward+inverse ratio, is the
    // within-run ratio the compare_bench gate guards, and laplace_ms the
    // level's draws for this cube, which the smoke tripwire reads. Every
    // level's publish is checked bitwise against the reference release —
    // the sweep doubles as a cross-ISA determinism harness.
    const simd::IsaLevel best_isa = simd::DetectBestIsa();
    double scalar_total = 0.0;
    double scalar_draws = 0.0;
    for (int lvl = 0; lvl <= static_cast<int>(best_isa); ++lvl) {
      const testutil::ScopedIsa forced(static_cast<simd::IsaLevel>(lvl));
      matrix::FrequencyMatrix release;
      const Timing t = Measure(c.schema, m, /*per_line=*/false, reps, &release);
      PRIVELET_CHECK(
          matrix::ValuesEqual(release.values(), reference_release.values()),
          "dispatched release differs from the per-line reference");
      const double total = t.forward_s + t.inverse_s;
      const double draws =
          TimeLaplaceDraws(static_cast<simd::IsaLevel>(lvl), m.size(), reps);
      if (lvl == 0) {
        scalar_total = total;
        scalar_draws = draws;
      }
      const double speedup =
          total > 0.0 && scalar_total > 0.0 ? scalar_total / total : 0.0;
      const std::string isa_name(
          simd::IsaLevelName(static_cast<simd::IsaLevel>(lvl)));
      std::printf("  isa %-6s %10.2f %10.2f %10.2f %8.2fx  laplace %.2f ms\n",
                  isa_name.c_str(), t.forward_s * 1e3, t.inverse_s * 1e3,
                  t.publish_s * 1e3, speedup, draws * 1e3);
      report.AddRow({{"case_id", static_cast<double>(case_id)},
                     {"tile", tile},
                     {"isa", static_cast<double>(lvl)},
                     {"forward_ms", t.forward_s * 1e3},
                     {"inverse_ms", t.inverse_s * 1e3},
                     {"publish_ms", t.publish_s * 1e3},
                     {"speedup_vs_scalar", speedup},
                     {"laplace_ms", draws * 1e3}});
      if (case_id == 0 && lvl == static_cast<int>(best_isa) && lvl > 0 &&
          draws >= kSimdSmokeMarginFactor * scalar_draws) {
        simd_beats_scalar = false;
      }
    }
    std::printf("\n");
  }

#ifdef NDEBUG
  if (smoke && !engine_beats_per_line) {
    std::fprintf(stderr,
                 "FAIL: line engine did not beat the per-line reference on "
                 "%s\n",
                 cases[0].name.c_str());
    return 1;
  }
  if (smoke && !simd_beats_scalar) {
    std::fprintf(stderr,
                 "FAIL: best dispatch level (%s) did not beat the forced "
                 "scalar baseline's Laplace draws on %s\n",
                 std::string(simd::IsaLevelName(simd::DetectBestIsa()))
                     .c_str(),
                 cases[0].name.c_str());
    return 1;
  }
#else
  (void)engine_beats_per_line;
  (void)simd_beats_scalar;
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
  // The sweep compares back-to-back relative timings of identical-size
  // runs; allocator page cycling between them is pure noise.
  privelet::bench::StabilizeAllocator();
  return privelet::bench::Run(smoke);
}
