// Release-behind pacing for the out-of-core publish path. A pass over an
// mmap-backed scratch matrix touches every page once; without back
// pressure the kernel keeps all of them resident and peak RSS grows to
// the full cube size. A ResidencyGovernor counts bytes as workers process
// them and invokes a release callback (typically MappedFile's
// MADV_DONTNEED via ReleaseResidency) every time another quota's worth of
// bytes has gone by, so the resident set stays proportional to the
// configured memory budget rather than to the domain.
//
// Correctness note (see docs/DETERMINISM.md): releasing residency only
// changes *where* bytes live (RAM vs page cache vs disk), never their
// values, so pacing frequency cannot affect published results.
#ifndef PRIVELET_COMMON_RESIDENCY_H_
#define PRIVELET_COMMON_RESIDENCY_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <utility>

namespace privelet::common {

/// Residency estimate for one panel of `count` adjacent lines along an
/// axis of length `axis_dim` whose elements are `stride` elements (of
/// `elem_bytes` bytes) apart. Residency is paid in mapping granules, not
/// element bytes: a strided access faults the whole page under every
/// element, and on Linux a *read* fault on a file mapping additionally
/// maps the surrounding fault-around window (fault_around_bytes, 64 KiB
/// by default; POSIX_MADV_RANDOM suppresses readahead but not
/// fault-around). The bytes a pass *touches* can therefore exceed the
/// bytes it *processes* by up to fault_around / elem_bytes. Feeding this
/// to a ResidencyGovernor (rather than the processed-byte count) keeps
/// release-behind pacing honest on transpose passes; for contiguous lines
/// it reduces to the plain count-times-line-bytes charge.
inline std::size_t PageTouchedBytes(std::size_t axis_dim, std::size_t stride,
                                    std::size_t count,
                                    std::size_t elem_bytes) {
  constexpr std::size_t kPage = 4096;
  // Linux default fault-around window (/sys/kernel/debug/fault_around_bytes).
  constexpr std::size_t kFaultAround = std::size_t{64} << 10;
  // Contiguous bytes the panel's `count` adjacent lines cover at each of
  // the axis_dim element steps.
  const std::size_t band = count * elem_bytes;
  // Distance between consecutive steps. Steps closer together than the
  // fault-around window share mapped granules, so the cost per step is at
  // most the step distance; farther apart, each step maps its own window
  // (plus whatever the band spills past it).
  const std::size_t per_step =
      std::min(stride * elem_bytes,
               (band + kPage - 1) / kPage * kPage + kFaultAround);
  return axis_dim * std::max(band, per_step);
}

/// Thread-safe byte-counting trigger. A budget of 0 disables it (every
/// OnBytesProcessed is a cheap early-out), matching the in-core engine.
/// The release callback may fire concurrently from several workers; that
/// is safe for its intended payload (madvise on a shared file mapping).
///
/// The callback fires every sixteenth of the budget. The per-worker
/// transform panels are not charged to the budget (about 5 MiB a worker
/// at 4096-long lines, so ~25 MiB for a 4-thread pool plus the caller),
/// and the file pages a pass maps between two releases (source, the
/// destination and fault-around windows, with every worker still
/// running while one releases) overshoot the charged bytes. A 4096² cube
/// streamed under a 32 MiB budget peaked at ~41 MiB of RSS growth
/// (1.28x budget) with a quarter-budget quota and at ~31 MiB (0.95x)
/// with this one, for about 5% more streamed publish time.
class ResidencyGovernor {
 public:
  ResidencyGovernor(std::size_t budget_bytes, std::function<void()> release)
      : quota_(budget_bytes == 0
                   ? 0
                   : std::max<std::size_t>(budget_bytes / 16, kMinQuota)),
        release_(std::move(release)) {}

  ResidencyGovernor(const ResidencyGovernor&) = delete;
  ResidencyGovernor& operator=(const ResidencyGovernor&) = delete;

  /// Records `bytes` of progress; fires the release callback when the
  /// running total crosses a quota boundary.
  void OnBytesProcessed(std::size_t bytes) {
    if (quota_ == 0) return;
    const std::size_t before =
        counter_.fetch_add(bytes, std::memory_order_relaxed);
    if (before / quota_ != (before + bytes) / quota_) release_();
  }

 private:
  // Releasing more often than every 64 KiB would be all syscall overhead.
  static constexpr std::size_t kMinQuota = std::size_t{64} << 10;

  const std::size_t quota_;
  std::function<void()> release_;
  std::atomic<std::size_t> counter_{0};
};

}  // namespace privelet::common

#endif  // PRIVELET_COMMON_RESIDENCY_H_
