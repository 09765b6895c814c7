// Query evaluation over frequency matrices. Exact counts come from an
// int64 prefix-sum table over the true matrix; noisy answers come from a
// double table over a mechanism's output. A brute-force evaluator is
// provided as the test oracle.
#ifndef PRIVELET_QUERY_EVALUATOR_H_
#define PRIVELET_QUERY_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/matrix/prefix_sum.h"
#include "privelet/query/range_query.h"

namespace privelet::common {
class ThreadPool;
}  // namespace privelet::common

namespace privelet::query {

/// Answers range-count queries over a real-valued (typically noisy) matrix
/// in O(2^d) after O(m) setup. Answer is const with no hidden mutable
/// state, so a shared evaluator serves concurrent callers safely.
///
/// The schema passed at construction is only validated against, never
/// retained: answering resolves unconstrained axes from the table's own
/// dims (== the schema's domain sizes, checked), so an evaluator safely
/// outlives the schema — and, for table-adopting construction, the matrix
/// — it was built from.
class QueryEvaluator {
 public:
  /// `pool` (optional) parallelizes the prefix-sum build and `options`
  /// sets its memory budget and ISA level (matrix/engine.h); neither is
  /// retained after construction. The matrix dims must match the schema's
  /// domain sizes.
  QueryEvaluator(const data::Schema& schema, const matrix::FrequencyMatrix& m,
                 common::ThreadPool* pool = nullptr,
                 const matrix::EngineOptions& options = {});

  /// Adopts an already-built table — deserialized from a release snapshot,
  /// or a non-owning view into a mapped one — instead of paying the O(m)
  /// build. The table dims must match the schema's domain sizes. For view
  /// tables the caller keeps the backing storage alive (see
  /// matrix::PrefixSumTable).
  QueryEvaluator(const data::Schema& schema,
                 matrix::PrefixSumTable<double> table);

  /// The underlying prefix-sum table; what storage/ serializes.
  const matrix::PrefixSumTable<double>& table() const { return table_; }

  /// Noisy estimate of one range-count query. Thread-safe.
  double Answer(const RangeQuery& query) const;

  /// Scratch-reusing overload for batched callers: `lo`/`hi` are resized
  /// and overwritten, avoiding the two small allocations per query. Each
  /// concurrent caller passes its own scratch.
  double Answer(const RangeQuery& query, std::vector<std::size_t>* lo,
                std::vector<std::size_t>* hi) const;

 private:
  matrix::PrefixSumTable<double> table_;
};

/// Answers range-count queries over an exact count matrix with integer
/// arithmetic (no rounding for any data size). Thread-safe like
/// QueryEvaluator, and likewise independent of the schema after
/// construction.
class ExactEvaluator {
 public:
  ExactEvaluator(const data::Schema& schema, const matrix::FrequencyMatrix& m,
                 common::ThreadPool* pool = nullptr,
                 const matrix::EngineOptions& options = {});

  std::int64_t Answer(const RangeQuery& query) const;

  std::int64_t Answer(const RangeQuery& query, std::vector<std::size_t>* lo,
                      std::vector<std::size_t>* hi) const;

 private:
  matrix::PrefixSumTable<std::int64_t> table_;
};

/// O(m)-per-query reference evaluator used to validate the tables.
double BruteForceAnswer(const data::Schema& schema,
                        const matrix::FrequencyMatrix& m,
                        const RangeQuery& query);

}  // namespace privelet::query

#endif  // PRIVELET_QUERY_EVALUATOR_H_
