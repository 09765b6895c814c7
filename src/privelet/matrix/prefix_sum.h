// d-dimensional prefix-sum (summed-area) table. Every range-count query in
// the paper is a contiguous box over the frequency matrix (ordinal
// predicates are intervals; nominal subtree predicates are contiguous in
// the imposed leaf order, Sec. V-A), so after O(m) preprocessing any query
// is answered with 2^d table lookups.
//
// Storage comes in two modes sharing one query path:
//   owned   — the entries live in a FrequencyMatrix the table holds, so
//     every table buffer comes from the matrix allocator. The const-source
//     build fills a fresh one, FromSums takes a filled one, and the rvalue
//     build adopts a release matrix and running-sums it in place, so a
//     publish needs no buffer beyond the release. A vector-backed release
//     stays on the heap; a scratch-backed (out-of-core) one stays in its
//     unlinked mmap scratch file, and the build releases residency as it
//     streams, paced by the budget the release records, so the table can
//     be many times larger than that budget. Same arithmetic in every
//     build, hence bit-identical entries;
//   view    — the View factory serves lookups straight out of caller-
//     managed memory (the binary64 table section of a memory-mapped PVLS
//     snapshot), so adopting a multi-GB table costs no copy at all.
// The caller of View guarantees the backing storage outlives the table
// and every copy of it (storage::MappedSnapshot is kept alive by the
// owning PublishingSession).
#ifndef PRIVELET_MATRIX_PREFIX_SUM_H_
#define PRIVELET_MATRIX_PREFIX_SUM_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "privelet/common/check.h"
#include "privelet/common/residency.h"
#include "privelet/common/thread_pool.h"
#include "privelet/matrix/engine.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/matrix/tile_buffer.h"
#include "privelet/simd/kernels.h"

namespace privelet::matrix {

/// Binary64 prefix-sum table: the one table every answer reads. Over a
/// noisy release, recursive summation's rounding error grows like
/// (adds per entry) x 2^-53 x sum|x|, orders of magnitude below the
/// Laplace noise every answer already carries
/// (tests/query_variance_test.cc pins the margin on a 1e9-total cube).
/// Over integer counts whose total is below 2^53 every entry is an
/// integer binary64 represents exactly, so the table is exact, and so is
/// every answer whose corner sum stays below 2^53 in magnitude
/// (tests/matrix_test.cc pins this with 2^40-sized entries).
class PrefixSumTable {
 public:
  /// Builds the table in O(m) per axis. A non-null `pool` fans each axis
  /// pass's independent lines across its workers; each line is a serial
  /// accumulation over disjoint elements, so the table is bit-identical
  /// for every pool size and ISA level. The pool is only used during
  /// construction. The non-last axes are walked a panel of adjacent lines
  /// at a time so the inner accumulation runs unit-stride over the panel
  /// (in place — the running sum needs no transpose).
  explicit PrefixSumTable(const FrequencyMatrix& source,
                          common::ThreadPool* pool = nullptr)
      : dims_(source.dims()) {
    InitStrides();
    PRIVELET_CHECK(!dims_.empty(), "cannot build a table over an empty matrix");
    // Left uninitialized: the fused first pass writes every entry.
    storage_ = FrequencyMatrix::Uninitialized(dims_);
    data_ = storage_.values();
    BuildFrom(storage_.values().data(), source.values().data(), pool);
  }

  /// The same build in place over `release`'s own storage, which the
  /// table adopts: each entry is read before it is overwritten with its
  /// prefix sum, so the additions (and the entries) are exactly the
  /// const-source build's. A scratch-backed release keeps its mapping,
  /// and the build then releases its residency as it streams, pacing
  /// peak RSS by the release's budget().
  explicit PrefixSumTable(FrequencyMatrix&& release,
                          common::ThreadPool* pool = nullptr)
      : dims_(release.dims()), storage_(std::move(release)) {
    InitStrides();
    PRIVELET_CHECK(!dims_.empty(), "cannot adopt an empty matrix");
    double* slots = storage_.values().data();
    data_ = {slots, storage_.size()};
    BuildFrom(slots, slots, pool);
  }

  /// Reassembles a table from its serialized parts: `sums` holds the flat
  /// (row-major) entries of a previously built table over a matrix of
  /// sums.dims(), in the layout raw_sums() exposes. Used by
  /// storage::LoadSession to own a copy of a snapshot's table; the
  /// entries themselves are trusted — integrity is the snapshot CRC's job.
  static PrefixSumTable FromSums(FrequencyMatrix sums) {
    PRIVELET_CHECK(sums.size() > 0, "prefix-sum parts do not form a table");
    PrefixSumTable table;
    table.dims_ = sums.dims();
    table.InitStrides();
    table.storage_ = std::move(sums);
    table.data_ = table.storage_.values();
    return table;
  }

  /// Non-owning view over externally stored entries (the binary64 table
  /// section of a mapped PVLS snapshot): lookups read `view` directly,
  /// so adoption is O(1) with no copy. Entries are trusted like
  /// FromSums'; the backing storage must outlive this table and every
  /// table copied from it.
  static PrefixSumTable View(std::vector<std::size_t> dims,
                             std::span<const double> view) {
    PrefixSumTable table;
    table.dims_ = std::move(dims);
    table.InitStrides();
    PRIVELET_CHECK(!table.dims_.empty() && table.NumCells() == view.size(),
                   "prefix-sum view does not form a table");
    table.data_ = view;
    return table;
  }

  // A copied owned table owns a vector-backed copy of the entries (the
  // matrix copy; scratch-ness is not copied), while a copied view table
  // keeps aliasing the external storage. Moves hand the backing over
  // unchanged — neither a matrix's vector nor a mapping moves in memory —
  // so `data_` carries over as is.
  PrefixSumTable(const PrefixSumTable& other)
      : dims_(other.dims_), strides_(other.strides_), data_(other.data_),
        storage_(other.storage_) {
    if (!other.is_view()) data_ = storage_.values();
  }
  PrefixSumTable(PrefixSumTable&& other) noexcept
      : dims_(std::move(other.dims_)),
        strides_(std::move(other.strides_)),
        data_(std::exchange(other.data_, {})),
        storage_(std::move(other.storage_)) {}
  PrefixSumTable& operator=(const PrefixSumTable& other) {
    if (this != &other) *this = PrefixSumTable(other);
    return *this;
  }
  PrefixSumTable& operator=(PrefixSumTable&& other) noexcept {
    if (this != &other) {
      dims_ = std::move(other.dims_);
      strides_ = std::move(other.strides_);
      data_ = std::exchange(other.data_, {});
      storage_ = std::move(other.storage_);
    }
    return *this;
  }

  /// Sum of all entries with lo[i] <= coord[i] <= hi[i] (inclusive bounds).
  double RangeSum(std::span<const std::size_t> lo,
                  std::span<const std::size_t> hi) const {
    const std::size_t d = dims_.size();
    PRIVELET_DCHECK(lo.size() == d && hi.size() == d, "bound arity mismatch");
    for (std::size_t axis = 0; axis < d; ++axis) {
      PRIVELET_DCHECK(lo[axis] <= hi[axis] && hi[axis] < dims_[axis],
                      "bad range bounds");
    }
    // Inclusion-exclusion over the 2^d box corners. Corner bit = 1 picks
    // hi[axis]; bit = 0 picks lo[axis]-1 (empty => the term vanishes).
    double total = 0;
    const std::size_t corners = std::size_t{1} << d;
    for (std::size_t corner = 0; corner < corners; ++corner) {
      std::size_t flat = 0;
      bool empty = false;
      int low_sides = 0;
      for (std::size_t axis = 0; axis < d; ++axis) {
        if (corner & (std::size_t{1} << axis)) {
          flat += hi[axis] * strides_[axis];
        } else {
          ++low_sides;
          if (lo[axis] == 0) {
            empty = true;
            break;
          }
          flat += (lo[axis] - 1) * strides_[axis];
        }
      }
      if (empty) continue;
      total += (low_sides % 2 == 0) ? data_[flat] : -data_[flat];
    }
    return total;
  }

  const std::vector<std::size_t>& dims() const { return dims_; }

  /// True when the entries live in caller-managed storage (View) rather
  /// than in this table.
  bool is_view() const {
    return storage_.size() == 0 && !data_.empty();
  }

  /// True when the entries live in an mmap scratch file (an adopted
  /// scratch-backed release).
  bool is_scratch() const { return storage_.is_scratch(); }

  /// The memory budget of an adopted scratch-backed release, which
  /// readers streaming the table pace themselves by; the default (no
  /// budget) otherwise.
  const EngineOptions& budget() const { return storage_.budget(); }

  /// Drops resident pages of a scratch-backed table (data preserved);
  /// no-op otherwise. See common::MappedFile::ReleaseResidency.
  void ReleaseResidency() const { storage_.ReleaseResidency(); }

  /// The flat (row-major) table entries — entry at a coordinate is the
  /// inclusive prefix sum up to it. The serialization surface consumed by
  /// storage/snapshot.cc and accepted back by FromSums.
  std::span<const double> raw_sums() const { return data_; }

 private:
  PrefixSumTable() = default;

  void InitStrides() {
    strides_.resize(dims_.size());
    std::size_t stride = 1;
    for (std::size_t axis = dims_.size(); axis-- > 0;) {
      strides_[axis] = stride;
      stride = CheckedCellMul(stride, dims_[axis]);
    }
  }

  std::size_t NumCells() const {
    std::size_t cells = 1;
    for (std::size_t d : dims_) cells = CheckedCellMul(cells, d);
    return cells;
  }

  static std::size_t CheckedCellMul(std::size_t a, std::size_t b) {
    PRIVELET_CHECK(b == 0 || a <= std::numeric_limits<std::size_t>::max() / b,
                   "dimension product overflow");
    return a * b;
  }

  /// The shared build, identical arithmetic for every storage mode. The
  /// first pass fuses the copy with the last (contiguous) axis: each line
  /// is read from `source` and running-summed straight into `slots`, so
  /// every entry is written before it is read and the table needs no
  /// zero-fill or separate copy pass. `source` may be `slots` itself (the
  /// adopting build): each entry is then read just before it is
  /// overwritten. Each remaining axis is a pass of element-wise
  /// `curr += prev` adds between adjacent hyperplanes.
  void BuildFrom(double* slots, const double* source,
                 common::ThreadPool* pool) {
    common::ResidencyGovernor governor(budget().max_memory_bytes,
                                       [&] { ReleaseResidency(); });
    const std::size_t cells = data_.size();
    const std::size_t line_len = dims_.back();
    common::ParallelFor(
        pool, cells / line_len, /*grain=*/0,
        [&](std::size_t begin, std::size_t end) {
          // Charge in fixed sub-chunks: a single end-of-line charge would
          // let a long line (1-D tables are one line) dirty its whole
          // extent of table pages before release-behind could fire.
          constexpr std::size_t kPaceCells = std::size_t{1} << 16;
          for (std::size_t line = begin; line < end; ++line) {
            const double* in = source + line * line_len;
            double* out = slots + line * line_len;
            double run = 0;
            for (std::size_t i = 0; i < line_len; i += kPaceCells) {
              const std::size_t count = std::min(line_len - i, kPaceCells);
              run = ScanInto(in + i, out + i, count, run);
              // Only an adopted scratch table paces, and it is built in
              // place: the pass touches that one buffer.
              governor.OnBytesProcessed(count * sizeof(double));
            }
          }
        });
    // The remaining passes add whole runs of independent lines at once
    // (vertical adds), so the dispatched vector kernels are bit-identical
    // to scalar at every level.
    const simd::KernelTable& kernels = simd::Kernels(simd::ResolveIsa());
    for (std::size_t axis = 0; axis + 1 < dims_.size(); ++axis) {
      BuildAxis(slots, dims_[axis], strides_[axis],
                cells / dims_[axis], pool, kernels, governor);
    }
  }

  /// Running sum of in[0, n) continued from `run`, written to out[0, n)
  /// (`in` may equal `out`); returns the last sum. A separate function so
  /// the sum stays in a register: inlined into the pool lambda, GCC -O3
  /// spills it to the stack on every element, doubling the pass.
  static double ScanInto(const double* in, double* out, std::size_t n,
                         double run) {
    for (std::size_t j = 0; j < n; ++j) {
      run += in[j];
      out[j] = run;
    }
    return run;
  }

  /// Running-sum pass along one axis: panels of up to kTileLines adjacent
  /// lines advance through the axis together, so each step accumulates a
  /// contiguous run of elements into the contiguous run one axis-stride
  /// later. Per line the additions are those of a per-line walk (same
  /// operands, same order), hence bit-identical tables.
  void BuildAxis(double* slots, std::size_t axis_dim, std::size_t stride,
                 std::size_t lines, common::ThreadPool* pool,
                 const simd::KernelTable& kernels,
                 common::ResidencyGovernor& governor) {
    constexpr std::size_t tile = kTileLines;
    const std::size_t panels = (lines + tile - 1) / tile;
    common::ParallelFor(
        pool, panels, /*grain=*/0, [&](std::size_t pb, std::size_t pe) {
          for (std::size_t p = pb; p < pe; ++p) {
            const std::size_t first = p * tile;
            const std::size_t count = std::min(tile, lines - first);
            ForEachLineRun(
                stride, axis_dim, first, count,
                [&](std::size_t base, std::size_t col, std::size_t run) {
                  (void)col;
                  // Charge per axis step: a panel touches a page of the
                  // table per step, which can dwarf the byte budget long
                  // before an end-of-panel charge would fire.
                  const std::size_t step_touched = common::PageTouchedBytes(
                      1, stride, run, sizeof(double));
                  for (std::size_t k = 1; k < axis_dim; ++k) {
                    double* curr = slots + base + k * stride;
                    const double* prev = curr - stride;
                    kernels.row_add(curr, prev, run);
                    governor.OnBytesProcessed(step_touched);
                  }
                });
          }
        });
  }

  std::vector<std::size_t> dims_;
  std::vector<std::size_t> strides_;
  std::span<const double> data_;  ///< what RangeSum reads: backing or the view
  // Last, so the members every lookup reads share the first cache lines.
  FrequencyMatrix storage_;  ///< owned entries; empty for a view
};

}  // namespace privelet::matrix

#endif  // PRIVELET_MATRIX_PREFIX_SUM_H_
