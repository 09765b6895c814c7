// O(m)-per-query reference answer: sums the matrix cells inside a query's
// box one at a time. The test oracle the prefix-sum table's answers are
// checked against (query_test, property_test, publishing_session_test).
#ifndef PRIVELET_TESTS_REFERENCE_BRUTE_FORCE_H_
#define PRIVELET_TESTS_REFERENCE_BRUTE_FORCE_H_

#include <cstddef>
#include <vector>

#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/query/range_query.h"

namespace privelet::reference {

/// O(m)-per-query reference evaluator used to validate the tables.
inline double BruteForceAnswer(const data::Schema& schema,
                               const matrix::FrequencyMatrix& m,
                               const query::RangeQuery& query) {
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

}  // namespace privelet::reference

#endif  // PRIVELET_TESTS_REFERENCE_BRUTE_FORCE_H_
