// CompiledWorkload: a batch of range-count queries pre-resolved against
// one prefix-sum table shape. Answering a query the direct way
// (PublishingSession::Answer) re-derives everything per call: predicate
// bounds, then 2^d inclusion-exclusion corners, each a d-term
// stride-multiply plus an empty-side branch. Compiling does that work
// once — every query flattens into a run of (table offset, sign) corner
// pairs — so evaluation is just a signed double fold of table entries,
// read straight from the table in compile order.
//
// Bit-identity (docs/DETERMINISM.md): the corner order and the
// conditional negation are exactly PrefixSumTable::RangeSum's, and
// corners skipped there (a low side at the domain edge) are dropped at
// compile time — so AnswerAll adds the same doubles in the same order as
// the per-query path and is bit-identical to it by construction.
#ifndef PRIVELET_QUERY_COMPILED_WORKLOAD_H_
#define PRIVELET_QUERY_COMPILED_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "privelet/matrix/prefix_sum.h"
#include "privelet/query/range_query.h"

namespace privelet::query {

class CompiledWorkload {
 public:
  CompiledWorkload() = default;

  /// Resolves every query's bounds against per-attribute domain sizes
  /// (the table's dims) and flattens its inclusion-exclusion corners.
  /// Each query's arity must equal dims.size() (PRIVELET_CHECKed, same
  /// contract as PublishingSession::Answer).
  static CompiledWorkload Compile(std::span<const RangeQuery> queries,
                                  std::span<const std::size_t> dims);

  std::size_t num_queries() const { return num_queries_; }
  std::size_t num_corners() const { return offsets_.size(); }
  const std::vector<std::size_t>& dims() const { return dims_; }

  /// Answers queries [begin, end) into out[0 .. end-begin). `table` must
  /// have the dims this workload was compiled against (PRIVELET_CHECKed).
  /// Thread-safe and re-entrant: disjoint ranges may be answered
  /// concurrently.
  void AnswerInto(const matrix::PrefixSumTable& table,
                  std::size_t begin, std::size_t end, double* out) const;

  /// All answers, in query order.
  std::vector<double> AnswerAll(
      const matrix::PrefixSumTable& table) const;

 private:
  std::vector<std::size_t> dims_;
  std::vector<std::uint64_t> offsets_;  ///< flat corner offsets, all queries
  std::vector<std::int8_t> signs_;      ///< +1 / -1 per corner
  std::vector<std::uint64_t> begins_;   ///< per-query [begin, end) corners
  std::size_t num_queries_ = 0;
};

}  // namespace privelet::query

#endif  // PRIVELET_QUERY_COMPILED_WORKLOAD_H_
