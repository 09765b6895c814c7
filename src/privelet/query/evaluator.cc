#include "privelet/query/evaluator.h"

#include <utility>

namespace privelet::query {

QueryEvaluator::QueryEvaluator(const data::Schema& schema,
                               const matrix::FrequencyMatrix& m,
                               common::ThreadPool* pool,
                               const matrix::EngineOptions& options)
    : table_(m, pool, options) {
  PRIVELET_CHECK(table_.dims() == schema.DomainSizes(),
                 "matrix dims do not match the schema");
}

QueryEvaluator::QueryEvaluator(const data::Schema& schema,
                               matrix::PrefixSumTable<double> table)
    : table_(std::move(table)) {
  PRIVELET_CHECK(table_.dims() == schema.DomainSizes(),
                 "prefix-sum table dims do not match the schema");
}

namespace {

// Per-thread bound scratch for the single-query entry points: keeps them
// allocation-free (after each thread's first call) without reintroducing
// the shared mutable state that made concurrent Answer calls race.
struct BoundScratch {
  std::vector<std::size_t> lo, hi;
};

BoundScratch& ThreadBoundScratch() {
  static thread_local BoundScratch scratch;
  return scratch;
}

}  // namespace

double QueryEvaluator::Answer(const RangeQuery& query) const {
  BoundScratch& scratch = ThreadBoundScratch();
  return Answer(query, &scratch.lo, &scratch.hi);
}

double QueryEvaluator::Answer(const RangeQuery& query,
                              std::vector<std::size_t>* lo,
                              std::vector<std::size_t>* hi) const {
  query.ResolveBounds(table_.dims(), lo, hi);
  return table_.RangeSum(*lo, *hi);
}

ExactEvaluator::ExactEvaluator(const data::Schema& schema,
                               const matrix::FrequencyMatrix& m,
                               common::ThreadPool* pool,
                               const matrix::EngineOptions& options)
    : table_(m, pool, options) {
  PRIVELET_CHECK(table_.dims() == schema.DomainSizes(),
                 "matrix dims do not match the schema");
}

std::int64_t ExactEvaluator::Answer(const RangeQuery& query) const {
  BoundScratch& scratch = ThreadBoundScratch();
  return Answer(query, &scratch.lo, &scratch.hi);
}

std::int64_t ExactEvaluator::Answer(const RangeQuery& query,
                                    std::vector<std::size_t>* lo,
                                    std::vector<std::size_t>* hi) const {
  query.ResolveBounds(table_.dims(), lo, hi);
  return table_.RangeSum(*lo, *hi);
}

double BruteForceAnswer(const data::Schema& schema,
                        const matrix::FrequencyMatrix& m,
                        const RangeQuery& query) {
  std::vector<std::size_t> lo, hi;
  query.ResolveBounds(schema, &lo, &hi);
  const std::size_t d = m.num_dims();
  std::vector<std::size_t> coords = lo;
  double total = 0.0;
  while (true) {
    total += m.At(coords);
    // Odometer increment within [lo, hi].
    std::size_t axis = d;
    while (axis-- > 0) {
      if (coords[axis] < hi[axis]) {
        ++coords[axis];
        break;
      }
      coords[axis] = lo[axis];
      if (axis == 0) return total;
    }
  }
}

}  // namespace privelet::query
