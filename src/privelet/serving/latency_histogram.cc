#include "privelet/serving/latency_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace privelet::serving {

namespace {

std::uint64_t QuantileOf(const std::uint64_t* counts, std::uint64_t mass,
                         std::uint64_t max, double q) {
  if (mass == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(mass))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative >= target) {
      return std::min(LatencyHistogram::BucketUpperBound(i), max);
    }
  }
  return max;
}

}  // namespace

std::size_t LatencyHistogram::BucketIndex(std::uint64_t value) {
  constexpr std::uint64_t kSubCount = std::uint64_t{1} << kSubBits;
  if (value < kSubCount) return static_cast<std::size_t>(value);
  const int octave = std::bit_width(value) - 1;  // >= kSubBits
  const std::size_t group = static_cast<std::size_t>(octave - kSubBits + 1);
  const std::size_t sub = static_cast<std::size_t>(
      (value >> (octave - kSubBits)) - kSubCount);
  return (group << kSubBits) | sub;
}

std::uint64_t LatencyHistogram::BucketUpperBound(std::size_t index) {
  constexpr std::uint64_t kSubCount = std::uint64_t{1} << kSubBits;
  const std::size_t group = index >> kSubBits;
  const std::uint64_t sub = index & (kSubCount - 1);
  if (group == 0) return sub;
  // Top group's bound wraps to 2^64; the unsigned wrap-minus-one yields
  // UINT64_MAX, which is the correct clamp.
  return ((sub + kSubCount + 1) << (group - 1)) - 1;
}

void LatencyHistogram::Record(std::uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  RaiseMax(value);
}

void LatencyHistogram::RaiseMax(std::uint64_t value) {
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t LatencyHistogram::LoadBuckets(Counts* counts) const {
  std::uint64_t mass = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    (*counts)[i] = buckets_[i].load(std::memory_order_relaxed);
    mass += (*counts)[i];
  }
  return mass;
}

std::uint64_t LatencyHistogram::count() const {
  Counts counts;
  return LoadBuckets(&counts);
}

std::uint64_t LatencyHistogram::Quantile(double q) const {
  Counts counts;
  const std::uint64_t mass = LoadBuckets(&counts);
  return QuantileOf(counts.data(), mass, max(), q);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    const std::uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  RaiseMax(other.max());
}

std::string LatencyHistogram::SummaryMicros() const {
  const auto micros = [](std::uint64_t nanos) {
    return static_cast<double>(nanos) * 1e-3;
  };
  Counts counts;
  const std::uint64_t mass = LoadBuckets(&counts);
  const std::uint64_t top = max();
  const auto quantile = [&](double q) {
    return micros(QuantileOf(counts.data(), mass, top, q));
  };
  const double mean =
      mass == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(mass);
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean_us=%.1f p50_us=%.1f p99_us=%.1f "
                "p999_us=%.1f max_us=%.1f",
                static_cast<unsigned long long>(mass), mean * 1e-3,
                quantile(0.50), quantile(0.99), quantile(0.999), micros(top));
  return buf;
}

}  // namespace privelet::serving
