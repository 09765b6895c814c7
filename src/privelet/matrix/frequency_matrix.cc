#include "privelet/matrix/frequency_matrix.h"

#include <cstring>
#include <limits>
#include <utility>

#include "privelet/common/math_util.h"
#include "privelet/common/residency.h"

namespace privelet::matrix {

namespace {

// Satellite of the 10^9-cell sizing math: a huge-domain schema must trip a
// CHECK, not silently wrap the cell count / strides around size_t.
std::size_t CheckedMul(std::size_t a, std::size_t b) {
  PRIVELET_CHECK(b == 0 || a <= std::numeric_limits<std::size_t>::max() / b,
                 "dimension product overflow");
  return a * b;
}

}  // namespace

void FrequencyMatrix::InitStrides() {
  PRIVELET_CHECK(!dims_.empty(), "matrix needs >= 1 dimension");
  for (std::size_t d : dims_) PRIVELET_CHECK(d >= 1, "axis size must be >= 1");
  strides_.resize(dims_.size());
  std::size_t stride = 1;
  for (std::size_t axis = dims_.size(); axis-- > 0;) {
    strides_[axis] = stride;
    stride = CheckedMul(stride, dims_[axis]);
  }
  size_ = stride;
}

FrequencyMatrix::FrequencyMatrix(std::vector<std::size_t> dims)
    : dims_(std::move(dims)) {
  InitStrides();
  owned_.assign(size_, 0.0);
  data_ = owned_.data();
}

FrequencyMatrix FrequencyMatrix::Uninitialized(std::vector<std::size_t> dims) {
  return Uninitialized(std::move(dims), FrequencyMatrix());
}

FrequencyMatrix FrequencyMatrix::Uninitialized(std::vector<std::size_t> dims,
                                               FrequencyMatrix&& reuse) {
  FrequencyMatrix m;
  m.dims_ = std::move(dims);
  m.InitStrides();
  FrequencyMatrix spent = std::move(reuse);
  if (!spent.is_scratch() && spent.owned_.capacity() >= m.size_) {
    m.owned_ = std::move(spent.owned_);
  } else {
    spent = FrequencyMatrix();  // free it before allocating the new buffer
  }
  // Default-initializing resize: MatrixAllocator skips the zero-fill, so
  // this is a pure allocation, or within capacity no allocation at all
  // (the caller contract is a full overwrite).
  m.owned_.resize(m.size_);
  m.data_ = m.owned_.data();
  return m;
}

Result<FrequencyMatrix> FrequencyMatrix::CreateScratch(
    std::vector<std::size_t> dims, const EngineOptions& options) {
  if (!options.out_of_core()) {
    return Status::InvalidArgument(
        "a scratch-backed matrix needs a memory budget");
  }
  FrequencyMatrix m;
  m.dims_ = std::move(dims);
  m.InitStrides();
  const std::size_t bytes = CheckedMul(m.size_, sizeof(double));
  PRIVELET_ASSIGN_OR_RETURN(
      m.scratch_,
      common::MappedFile::CreateScratch(bytes, options.scratch_dir));
  m.budget_ = options;
  // ftruncate guarantees zero-filled pages, matching the owned constructor.
  m.data_ = reinterpret_cast<double*>(m.scratch_.mutable_bytes().data());
  return m;
}

FrequencyMatrix::FrequencyMatrix(const FrequencyMatrix& other)
    : dims_(other.dims_),
      strides_(other.strides_),
      owned_(other.data_, other.data_ + other.size_),
      data_(owned_.data()),
      size_(other.size_) {}

FrequencyMatrix& FrequencyMatrix::operator=(const FrequencyMatrix& other) {
  if (this != &other) {
    dims_ = other.dims_;
    strides_ = other.strides_;
    owned_.assign(other.data_, other.data_ + other.size_);
    scratch_ = common::MappedFile();
    budget_ = EngineOptions();
    data_ = owned_.data();
    size_ = other.size_;
  }
  return *this;
}

FrequencyMatrix::FrequencyMatrix(FrequencyMatrix&& other) noexcept
    : dims_(std::move(other.dims_)),
      strides_(std::move(other.strides_)),
      owned_(std::move(other.owned_)),
      scratch_(std::move(other.scratch_)),
      budget_(std::exchange(other.budget_, EngineOptions())),
      data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {
  other.dims_.clear();
  other.strides_.clear();
  other.owned_.clear();
}

FrequencyMatrix& FrequencyMatrix::operator=(FrequencyMatrix&& other) noexcept {
  if (this != &other) {
    dims_ = std::move(other.dims_);
    strides_ = std::move(other.strides_);
    owned_ = std::move(other.owned_);
    scratch_ = std::move(other.scratch_);
    budget_ = std::exchange(other.budget_, EngineOptions());
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    other.dims_.clear();
    other.strides_.clear();
    other.owned_.clear();
  }
  return *this;
}

std::size_t FrequencyMatrix::FlatIndex(
    std::span<const std::size_t> coords) const {
  PRIVELET_DCHECK(coords.size() == dims_.size(), "coordinate arity mismatch");
  std::size_t flat = 0;
  for (std::size_t axis = 0; axis < dims_.size(); ++axis) {
    PRIVELET_DCHECK(coords[axis] < dims_[axis], "coordinate out of range");
    flat += coords[axis] * strides_[axis];
  }
  return flat;
}

std::vector<std::size_t> FrequencyMatrix::Coords(std::size_t flat) const {
  PRIVELET_DCHECK(flat < size_, "flat index out of range");
  std::vector<std::size_t> coords(dims_.size());
  for (std::size_t axis = 0; axis < dims_.size(); ++axis) {
    coords[axis] = flat / strides_[axis];
    flat %= strides_[axis];
  }
  return coords;
}

std::size_t FrequencyMatrix::NumLines(std::size_t axis) const {
  PRIVELET_DCHECK(axis < dims_.size());
  return size_ / dims_[axis];
}

std::size_t FrequencyMatrix::LineBase(std::size_t axis, std::size_t line) const {
  // A line is identified by the coordinates of the other axes. Split the
  // line index into the part "outside" the axis (slower-varying axes) and
  // the part "inside" it, so the numbering is independent of dims_[axis].
  const std::size_t inner = strides_[axis];
  return (line / inner) * (inner * dims_[axis]) + (line % inner);
}

void FrequencyMatrix::GatherLine(std::size_t axis, std::size_t line,
                                 double* out) const {
  const std::size_t stride = strides_[axis];
  std::size_t index = LineBase(axis, line);
  for (std::size_t k = 0; k < dims_[axis]; ++k, index += stride) {
    out[k] = data_[index];
  }
}

void FrequencyMatrix::ScatterLine(std::size_t axis, std::size_t line,
                                  const double* in) {
  const std::size_t stride = strides_[axis];
  std::size_t index = LineBase(axis, line);
  for (std::size_t k = 0; k < dims_[axis]; ++k, index += stride) {
    data_[index] = in[k];
  }
}

FrequencyMatrix FrequencyMatrix::FromTable(const data::Table& table) {
  FrequencyMatrix m(table.schema().DomainSizes());
  const std::size_t num_attrs = table.schema().num_attributes();
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    std::size_t flat = 0;
    for (std::size_t a = 0; a < num_attrs; ++a) {
      flat += static_cast<std::size_t>(table.value(row, a)) * m.strides_[a];
    }
    m.data_[flat] += 1.0;
  }
  return m;
}

Result<FrequencyMatrix> FrequencyMatrix::FromTable(
    const data::Table& table, const EngineOptions& options) {
  if (!options.out_of_core()) return FromTable(table);
  PRIVELET_ASSIGN_OR_RETURN(
      FrequencyMatrix m,
      CreateScratch(table.schema().DomainSizes(), options));
  const std::size_t num_attrs = table.schema().num_attributes();
  // Counting touches one cell per row at an arbitrary position, so pace
  // releases by rows. The increment reads before it writes, and a read
  // fault on a file mapping maps the whole fault-around window of cached
  // pages, not one page (common::PageTouchedBytes), so charge each row
  // that window.
  const std::size_t row_touched =
      common::PageTouchedBytes(1, m.size_, 1, sizeof(double));
  const std::size_t rows_per_release =
      std::max<std::size_t>(1, options.max_memory_bytes / 2 / row_touched);
  for (std::size_t row = 0; row < table.num_rows(); ++row) {
    std::size_t flat = 0;
    for (std::size_t a = 0; a < num_attrs; ++a) {
      flat += static_cast<std::size_t>(table.value(row, a)) * m.strides_[a];
    }
    m.data_[flat] += 1.0;
    if ((row + 1) % rows_per_release == 0) m.ReleaseResidency();
  }
  return m;
}

double FrequencyMatrix::Total() const {
  double total = 0.0;
  for (std::size_t i = 0; i < size_; ++i) total += data_[i];
  return total;
}

}  // namespace privelet::matrix
