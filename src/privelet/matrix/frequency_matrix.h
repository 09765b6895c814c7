// FrequencyMatrix: dense d-dimensional array of doubles — the lowest level
// of the data cube (paper Sec. II-B). Entry <x1,...,xd> counts the tuples
// with those attribute values; noisy matrices produced by the mechanisms
// reuse the same type. Also used for intermediate wavelet-coefficient
// matrices, whose axes may be longer than the data axes (the nominal
// transform is over-complete).
//
// Storage comes in two flavors behind one interface:
//   * owned   — a std::vector<double> through detail::MatrixAllocator (the
//     default; in-core publish path). A buffer of 32 MiB or more (a
//     2048² matrix) is 2 MiB aligned and advised onto transparent huge
//     pages, so it faults in as 16 huge pages instead of 8192 4 KiB ones:
//     allocating, first-touching and freeing it took ≈4 ms instead of
//     ≈20 ms on a 4-vCPU AVX-512 VM, and a warm serial 2048² publish
//     takes 36–1,083 minor faults instead of 16.4–17.5 k.
//   * scratch — a writable common::MappedFile over an unlinked temp file
//     (CreateScratch; out-of-core publish path). Same layout, same
//     arithmetic; the extra capability is ReleaseResidency(), which lets
//     streaming passes evict already-processed pages so peak RSS stays
//     bounded by the memory budget instead of the domain size. A scratch
//     matrix records that budget (budget()), and every stage that reads
//     it paces itself by it (matrix/engine.h).
#ifndef PRIVELET_MATRIX_FREQUENCY_MATRIX_H_
#define PRIVELET_MATRIX_FREQUENCY_MATRIX_H_

#include <algorithm>
#include <cstddef>
#include <new>
#include <span>
#include <vector>

#include "privelet/common/check.h"
#include "privelet/common/file_mapping.h"
#include "privelet/common/result.h"
#include "privelet/data/table.h"
#include "privelet/matrix/engine.h"

namespace privelet::matrix {

namespace detail {

// Advises the kernel to back [p, p + bytes) with transparent huge pages
// (madvise(MADV_HUGEPAGE)); `p` and `bytes` are multiples of kHugePage.
// Per-process advice: a no-op where THP is off.
inline constexpr std::size_t kHugePage = std::size_t{2} << 20;
void AdviseHugePages(void* p, std::size_t bytes) noexcept;

// The smallest request that goes on huge pages: glibc's largest dynamic
// mmap threshold (DEFAULT_MMAP_THRESHOLD_MAX on 64-bit), so only buffers
// that glibc maps afresh on every allocation anyway take the aligned
// path. Below it glibc recycles freed heap memory, which a 2 MiB-aligned
// request (B + 2 MiB from glibc) defeats: 1024² (8 MiB) matrices
// allocated in a loop became fresh mappings and ran slower.
inline constexpr std::size_t kHugeMatrixBytes = std::size_t{32} << 20;

// Storage allocator for vector-backed matrices. Default-initializing, so
// resize() without a value performs no zero-fill. Explicit fills
// (assign, the (n, value) constructor, range copies) still write every
// element — only FrequencyMatrix::Uninitialized relies on the no-fill
// resize. A request under kHugeMatrixBytes is 64-byte aligned (cache
// line / widest dispatched vector register, matching
// common::AlignedBuffer). A larger one is kHugePage aligned and its
// whole-huge-page prefix is advised onto huge pages; the tail stays on
// 4 KiB pages, so resident memory does not grow. deallocate picks the
// alignment by the same rule.
template <typename T>
struct MatrixAllocator {
  using value_type = T;

  MatrixAllocator() = default;
  template <typename U>
  MatrixAllocator(const MatrixAllocator<U>&) {}

  static std::align_val_t AlignFor(std::size_t bytes) {
    return std::align_val_t{bytes >= kHugeMatrixBytes ? kHugePage : 64};
  }
  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    void* p = ::operator new(bytes, AlignFor(bytes));
    if (bytes >= kHugeMatrixBytes) {
      AdviseHugePages(p, bytes / kHugePage * kHugePage);
    }
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, AlignFor(n * sizeof(T)));
  }
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;  // default-init: no fill for double
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  bool operator==(const MatrixAllocator&) const { return true; }
  bool operator!=(const MatrixAllocator&) const { return false; }
};

}  // namespace detail

/// Dense row-major d-dimensional matrix (last axis contiguous).
class FrequencyMatrix {
 public:
  FrequencyMatrix() = default;

  /// Zero-filled vector-backed matrix with the given per-axis sizes
  /// (all >= 1).
  explicit FrequencyMatrix(std::vector<std::size_t> dims);

  /// Vector-backed matrix whose entries are left uninitialized. Strictly
  /// an allocation-cost optimization for callers that overwrite every
  /// entry before any read — e.g. the HN axis passes, where each pass
  /// writes all out_len elements of every line of its destination.
  /// Reading an entry before writing it is undefined behavior, so prefer
  /// the zero-filled constructor unless the full overwrite is structural.
  static FrequencyMatrix Uninitialized(std::vector<std::size_t> dims);

  /// Uninitialized(dims) that recycles the storage of `reuse` when it is
  /// vector-backed and its capacity() covers the new cell count: the
  /// buffer is re-dimensioned in place, with no allocation and no fill.
  /// Otherwise `reuse` is released first and a fresh buffer allocated.
  /// Either way `reuse` is left empty, and every entry of the result is
  /// indeterminate until written.
  static FrequencyMatrix Uninitialized(std::vector<std::size_t> dims,
                                       FrequencyMatrix&& reuse);

  /// Zero-filled matrix backed by an unlinked mmap scratch file under
  /// options.scratch_dir (empty -> $TMPDIR, then /tmp), recording
  /// `options` as its budget(). Identical semantics to the vector-backed
  /// constructor; additionally supports ReleaseResidency(). Fails with
  /// InvalidArgument without a budget (options.out_of_core() false) and
  /// with IOError when the scratch file cannot be created or mapped.
  static Result<FrequencyMatrix> CreateScratch(std::vector<std::size_t> dims,
                                               const EngineOptions& options);

  /// Copying always lands in an owned vector (scratch-ness and the budget
  /// are properties of how a matrix was created, not of its values).
  /// Moves transfer the backing and the budget as-is.
  FrequencyMatrix(const FrequencyMatrix& other);
  FrequencyMatrix& operator=(const FrequencyMatrix& other);
  FrequencyMatrix(FrequencyMatrix&& other) noexcept;
  FrequencyMatrix& operator=(FrequencyMatrix&& other) noexcept;
  ~FrequencyMatrix() = default;

  /// Number of axes d (= the schema's attribute count for data matrices).
  std::size_t num_dims() const { return dims_.size(); }
  /// Per-axis sizes, in attribute order.
  const std::vector<std::size_t>& dims() const { return dims_; }
  /// Size of one axis.
  std::size_t dim(std::size_t axis) const { return dims_[axis]; }

  /// Total number of entries (the paper's m for data matrices).
  std::size_t size() const { return size_; }

  /// Entries the storage holds without reallocating: the owned vector's
  /// capacity (>= size() for a recycled buffer), or size() for a scratch
  /// matrix.
  std::size_t capacity() const {
    return is_scratch() ? size_ : owned_.capacity();
  }

  /// Entry at a row-major flat index (no bounds check in release builds).
  double operator[](std::size_t flat) const { return data_[flat]; }
  double& operator[](std::size_t flat) { return data_[flat]; }

  /// The flat row-major storage; mutable access is how the transforms,
  /// the noise pass and the in-place prefix-sum build write. Spans stay
  /// valid until the matrix is destroyed, moved from, or assigned over.
  std::span<const double> values() const { return {data_, size_}; }
  std::span<double> values() { return {data_, size_}; }

  /// True when the entries live in an mmap scratch file (CreateScratch).
  bool is_scratch() const { return scratch_.size() > 0; }

  /// The memory budget a scratch matrix was created under; the default
  /// (no budget) for a vector-backed one.
  const EngineOptions& budget() const { return budget_; }

  /// Asks the kernel to drop resident pages of a scratch-backed matrix
  /// (data is preserved; see common::MappedFile::ReleaseResidency). No-op
  /// for vector-backed matrices. Safe to call concurrently with readers
  /// and writers.
  void ReleaseResidency() const { scratch_.ReleaseResidency(); }

  /// Row-major flat index of a coordinate vector.
  std::size_t FlatIndex(std::span<const std::size_t> coords) const;

  /// Inverse of FlatIndex.
  std::vector<std::size_t> Coords(std::size_t flat) const;

  double At(std::span<const std::size_t> coords) const {
    return data_[FlatIndex(coords)];
  }
  double& At(std::span<const std::size_t> coords) {
    return data_[FlatIndex(coords)];
  }

  /// Stride (in flat elements) between consecutive entries along `axis`.
  std::size_t Stride(std::size_t axis) const { return strides_[axis]; }

  /// Number of 1-D lines along `axis` (= size / dims[axis]).
  std::size_t NumLines(std::size_t axis) const;

  /// Flat index of the first element of the `line`-th line along `axis`.
  /// Elements of the line are then base, base + stride, base + 2*stride, ...
  /// Lines are numbered so that two matrices differing only in the length
  /// of `axis` enumerate corresponding lines with the same line index.
  std::size_t LineBase(std::size_t axis, std::size_t line) const;

  /// Copies the `line`-th line along `axis` into `out` (length dims[axis]).
  void GatherLine(std::size_t axis, std::size_t line, double* out) const;

  /// Writes `in` (length dims[axis]) into the `line`-th line along `axis`.
  void ScatterLine(std::size_t axis, std::size_t line, const double* in);

  /// Builds the frequency matrix of a table: dims = attribute domain
  /// sizes; entry = number of tuples with those values. O(n + m).
  static FrequencyMatrix FromTable(const data::Table& table);

  /// FromTable honoring `options`: with options.out_of_core() the counts
  /// land in a scratch-backed matrix that records `options` as its
  /// budget, and residency is released as rows stream in; otherwise
  /// identical to the in-core FromTable.
  static Result<FrequencyMatrix> FromTable(
      const data::Table& table, const EngineOptions& options);

  /// Sum of all entries (== n for a table-derived matrix).
  double Total() const;

 private:
  void InitStrides();

  std::vector<std::size_t> dims_;
  std::vector<std::size_t> strides_;
  // Exactly one of owned_ / scratch_ backs data_ (both empty for a
  // default-constructed matrix). At least 64-byte aligned so the vector
  // kernels' direct-to-matrix paths see the same alignment as TileBuffer
  // panels.
  std::vector<double, detail::MatrixAllocator<double>> owned_;
  common::MappedFile scratch_;
  EngineOptions budget_;  ///< set only with scratch_
  double* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Element-wise equality of two value spans (bit-exact, the comparison the
/// determinism tests rely on). A plain == on spans would compare pointers.
inline bool ValuesEqual(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace privelet::matrix

#endif  // PRIVELET_MATRIX_FREQUENCY_MATRIX_H_
