// Shared helpers of the perfbench harness: clocks, sample statistics,
// the span recorder behind the traced run, the metric sink, and the
// failure bookkeeping every workload reports into.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "privelet/common/result.h"

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// A set-up step that cannot complete ends the run: no result is printed.
struct FatalError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

template <typename T>
T Must(privelet::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    throw FatalError(what + ": " + result.status().ToString());
  }
  return std::move(result).value();
}

inline void Must(const privelet::Status& status, const std::string& what) {
  if (!status.ok()) throw FatalError(what + ": " + status.ToString());
}

// ---------------------------------------------------------------------------
// Sample statistics.

/// Linear-interpolated quantile (q in [0, 1]); NaN-free for non-empty input.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// The highest percentile with at least ten samples beyond it, capped at
/// p99; the maximum when fewer than 20 samples exist.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
};

inline Tail TailOf(const std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  if (values.size() < 20) {
    return {values.empty() ? 0.0
                           : *std::max_element(values.begin(), values.end()),
            100.0};
  }
  const double q = std::min(0.99, 1.0 - 10.0 / n);
  return {Quantile(values, q), q * 100.0};
}

// ---------------------------------------------------------------------------
// Spans of the traced run. Names are string literals; ids are 1-based
// indices into the in-memory list (0 = no parent / tracing off). Spans
// are written out once, when the run ends.

struct Span {
  const char* name = "";
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double micros() const { return static_cast<double>(end_ns - start_ns) * 1e-3; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  std::uint64_t Open(const char* name, std::uint64_t parent) {
    if (!enabled_) return 0;
    spans_.push_back(Span{name, parent, NowNs(), 0});
    return spans_.size();
  }

  void Close(std::uint64_t id) {
    if (id != 0) spans_[id - 1].end_ns = NowNs();
  }

  const Span& span(std::uint64_t id) const { return spans_[id - 1]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one `id parent name start_ns end_ns` line per span.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%llu\t%s\t%llu\t%llu\n", i + 1,
                   static_cast<unsigned long long>(s.parent), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent = 0)
      : tracer_(tracer), id_(tracer.Open(name, parent)) {}
  ~ScopedSpan() { tracer_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

// ---------------------------------------------------------------------------
// What a run reports: metrics by name, and operations attempted / failed.

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Checks that failed (each also counted in `failed`), for the log.
  std::vector<std::string> check_failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records one checked operation.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (check_failures.size() < 20) check_failures.push_back(what);
    }
  }
};

/// Size of a file in bytes; 0 if it cannot be read.
inline std::uintmax_t FileSize(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  return ec ? 0 : bytes;
}

/// Peak resident set size (VmHWM) of a process, in MiB; 0 if unreadable.
double PeakRssMb(const std::string& pid = "self");

/// Bitwise equality of two answers (the serving contract is bit-identity).
bool SameBits(double a, double b);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
