// Log-linear latency histogram for the serving daemon's per-release
// observability (STATS verb). HDR-style bucketing: values below 2^kSubBits
// get exact buckets, above that each power-of-two octave is split into
// 2^kSubBits linear sub-buckets, so the relative quantile error is bounded
// by 2^-kSubBits (~6%) at any scale from nanoseconds to minutes with a
// few hundred fixed-size counters and O(1) recording — the event loop
// records one sample per request on its hot path.
//
// Thread-safe and lock-free: buckets, sum and max are relaxed atomics.
// Each daemon loop records into its own instance (no contention on the
// hot path); the STATS renderer, on any loop, Merges them into a local
// one while they keep recording. Every reader loads each bucket exactly
// once and takes the sample count as the mass of those loads, so the
// quantiles always see a self-consistent distribution even when a Record
// lands mid-read. `sum` and `max` are loaded separately and may trail the
// buckets by in-flight samples; they feed only the mean and max display.
#ifndef PRIVELET_SERVING_LATENCY_HISTOGRAM_H_
#define PRIVELET_SERVING_LATENCY_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace privelet::serving {

class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Adds one sample (any unit; the daemon records nanoseconds).
  /// Wait-free apart from the max CAS, which retries only while another
  /// thread is publishing a larger maximum.
  void Record(std::uint64_t value);

  /// The bucket mass.
  std::uint64_t count() const;
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Smallest recorded-bucket upper bound below which at least a `q`
  /// fraction of samples fall (0 < q <= 1). Exact for values < 2^kSubBits;
  /// within one sub-bucket (relative error <= 2^-kSubBits) above. Returns
  /// 0 on an empty histogram.
  std::uint64_t Quantile(double q) const;

  /// Element-wise accumulation of another histogram's samples; either
  /// side may be recording concurrently.
  void Merge(const LatencyHistogram& other);

  /// One-line "count=N mean_us=... p50_us=... p99_us=... p999_us=...
  /// max_us=..." rendering, interpreting samples as nanoseconds (the
  /// daemon's unit), all from one read of the buckets. Used verbatim by
  /// the STATS verb.
  std::string SummaryMicros() const;

  static constexpr int kSubBits = 4;
  // 64-bit values span 64 octaves; the first kSubBits octaves collapse
  // into the exact region.
  static constexpr std::size_t kNumBuckets = (64 - kSubBits + 1)
                                             << kSubBits;

  /// Bucket index for a value (exposed for tests).
  static std::size_t BucketIndex(std::uint64_t value);
  /// Inclusive upper bound of a bucket (exposed for tests).
  static std::uint64_t BucketUpperBound(std::size_t index);

 private:
  using Counts = std::array<std::uint64_t, kNumBuckets>;

  /// One relaxed load of every bucket; returns their mass.
  std::uint64_t LoadBuckets(Counts* counts) const;
  void RaiseMax(std::uint64_t value);

  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace privelet::serving

#endif  // PRIVELET_SERVING_LATENCY_HISTOGRAM_H_
