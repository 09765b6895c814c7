// Shared scaffolding for the figure-reproduction harnesses. Each harness is
// a standalone binary that regenerates one table/figure of the paper's
// evaluation (Sec. VII) and prints the same series the paper plots.
//
// Scale: by default the harnesses run a reduced configuration that
// completes in seconds on a laptop (smaller Income domain, fewer tuples,
// 4,000 instead of 40,000 queries). Set PRIVELET_FULL=1 to run the paper's
// exact parameters (n = 10M/8M tuples, m ~ 1e8 — needs ~6 GB RAM and
// minutes per figure).
#ifndef PRIVELET_BENCH_BENCH_UTIL_H_
#define PRIVELET_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "privelet/common/check.h"
#include "privelet/data/census_generator.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/basic.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/metrics.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/workload.h"

namespace privelet::bench {

/// True when PRIVELET_FULL=1 selects the paper-scale configuration.
inline bool FullScale() {
  const char* env = std::getenv("PRIVELET_FULL");
  return env != nullptr && std::string(env) == "1";
}

/// The ε values of Figs. 6-9 (panels a-d).
inline std::vector<double> PaperEpsilons() { return {0.5, 0.75, 1.0, 1.25}; }

/// Pins glibc's malloc thresholds so repeated multi-megabyte transform
/// intermediates are served from the retained heap instead of being
/// mmap'd, faulted in, and unmapped on every run (2-3 ms per 8 MB matrix
/// of pure page-fault noise on the relative timings). Call once at the
/// top of wall-clock-sensitive bench mains. Deliberately NOT used by the
/// out-of-core/RSS benches — retaining freed heap would inflate the
/// resident-set numbers they guard. No-op on non-glibc platforms.
void StabilizeAllocator();

/// High-water-mark resident set size of this process in bytes (VmHWM from
/// /proc/self/status), or 0 where unavailable. Monotone over the process
/// lifetime: to attribute a peak to one phase, measure that phase first.
std::size_t PeakRssBytes();

/// Machine-readable companion to the printed tables: harnesses append flat
/// {key: number} rows, and the destructor writes them to
/// BENCH_<name>.json in the current working directory as
/// {"meta": {...}, "rows": [...]}, where meta attributes the run — active
/// and best-supported SIMD dispatch level, CPU feature flags, and the git
/// sha the binary was configured from — so regression diffs
/// (tools/compare_bench.py) can tell a code regression from a
/// different-machine or different-ISA run. The artifacts are build outputs
/// (gitignored), meant for plotting scripts and regression tracking.
class BenchReport {
 public:
  /// `name` must be filesystem-safe (it becomes BENCH_<name>.json).
  explicit BenchReport(std::string name);
  ~BenchReport();

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void AddRow(std::vector<std::pair<std::string, double>> fields);

 private:
  std::string name_;
  std::vector<std::vector<std::pair<std::string, double>>> rows_;
};

struct ErrorExperimentConfig {
  data::CensusCountry country = data::CensusCountry::kBrazil;
  /// "coverage" buckets report average square error vs. query coverage
  /// (Figs. 6-7); "selectivity" buckets report average relative error vs.
  /// query selectivity (Figs. 8-9).
  bool bucket_by_coverage = true;
  std::size_t num_buckets = 5;
};

/// Runs the Sec. VII-A error experiment for one country/metric and prints
/// per-ε tables with one row per quintile and one column per mechanism
/// (Basic, Privelet+ with the paper's SA = {Age, Gender}).
void RunErrorExperiment(const ErrorExperimentConfig& config,
                        const char* figure_name);

}  // namespace privelet::bench

#endif  // PRIVELET_BENCH_BENCH_UTIL_H_
