#include "privelet/matrix/prefix_sum.h"

namespace privelet::matrix {

template class PrefixSumTable<double>;
template class PrefixSumTable<std::int64_t>;

}  // namespace privelet::matrix
