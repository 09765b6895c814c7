#include "privelet/query/compiled_workload.h"

#include "privelet/common/check.h"

namespace privelet::query {

CompiledWorkload CompiledWorkload::Compile(
    std::span<const RangeQuery> queries, std::span<const std::size_t> dims) {
  CompiledWorkload compiled;
  compiled.dims_.assign(dims.begin(), dims.end());
  compiled.num_queries_ = queries.size();

  const std::size_t d = dims.size();
  // Row-major strides, exactly PrefixSumTable::InitStrides (last axis
  // contiguous), so the flattened offsets address raw_sums() directly.
  std::vector<std::size_t> strides(d);
  std::size_t stride = 1;
  for (std::size_t axis = d; axis-- > 0;) {
    strides[axis] = stride;
    stride *= dims[axis];
  }

  compiled.begins_.reserve(queries.size() + 1);
  compiled.begins_.push_back(0);
  const std::size_t corners = std::size_t{1} << d;
  compiled.offsets_.reserve(queries.size() * corners);
  compiled.signs_.reserve(queries.size() * corners);

  std::vector<std::size_t> lo, hi;
  for (const RangeQuery& query : queries) {
    PRIVELET_CHECK(query.num_attributes() == d,
                   "query arity does not match the table dims");
    query.ResolveBounds(dims, &lo, &hi);
    // The corner walk below is PrefixSumTable::RangeSum verbatim, minus
    // the arithmetic: corners whose term vanishes (a low side at the
    // domain edge) are dropped here instead of skipped there, and the
    // surviving (offset, sign) pairs are emitted in RangeSum's corner
    // order so the evaluation fold adds the same values in the same
    // sequence — bit-identical answers.
    for (std::size_t corner = 0; corner < corners; ++corner) {
      std::size_t flat = 0;
      bool empty = false;
      int low_sides = 0;
      for (std::size_t axis = 0; axis < d; ++axis) {
        if (corner & (std::size_t{1} << axis)) {
          flat += hi[axis] * strides[axis];
        } else {
          ++low_sides;
          if (lo[axis] == 0) {
            empty = true;
            break;
          }
          flat += (lo[axis] - 1) * strides[axis];
        }
      }
      if (empty) continue;
      compiled.offsets_.push_back(static_cast<std::uint64_t>(flat));
      compiled.signs_.push_back(low_sides % 2 == 0 ? 1 : -1);
    }
    compiled.begins_.push_back(compiled.offsets_.size());
  }
  return compiled;
}

void CompiledWorkload::AnswerInto(const matrix::PrefixSumTable& table,
                                  std::size_t begin, std::size_t end,
                                  double* out) const {
  PRIVELET_CHECK(table.dims() == dims_,
                 "table dims do not match the compiled workload");
  PRIVELET_CHECK(begin <= end && end <= num_queries_,
                 "query range out of bounds");
  const double* slots = table.raw_sums().data();
  for (std::size_t q = begin; q < end; ++q) {
    double total = 0.0;
    for (std::uint64_t k = begins_[q]; k < begins_[q + 1]; ++k) {
      const double v = slots[offsets_[k]];
      // Conditional negation exactly as RangeSum's signed accumulate.
      total += signs_[k] > 0 ? v : -v;
    }
    out[q - begin] = total;
  }
}

std::vector<double> CompiledWorkload::AnswerAll(
    const matrix::PrefixSumTable& table) const {
  std::vector<double> answers(num_queries_);
  AnswerInto(table, 0, num_queries_, answers.data());
  return answers;
}

}  // namespace privelet::query
