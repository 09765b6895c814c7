#include "privelet/analysis/query_variance.h"

#include <vector>

#include "privelet/mechanism/mechanism.h"

namespace privelet::analysis {

Result<double> ExactQueryNoiseVariance(const wavelet::HnTransform& transform,
                                       const data::Schema& schema,
                                       double lambda,
                                       const query::RangeQuery& query) {
  if (lambda < 0.0) {
    return Status::InvalidArgument("lambda must be non-negative");
  }
  if (query.num_attributes() != transform.num_axes() ||
      schema.num_attributes() != transform.num_axes()) {
    return Status::InvalidArgument("query/schema/transform arity mismatch");
  }
  std::vector<std::size_t> lo, hi;
  query.ResolveBounds(schema, &lo, &hi);

  double factor_product = 1.0;
  std::vector<double> contribution;
  for (std::size_t axis = 0; axis < transform.num_axes(); ++axis) {
    const wavelet::Transform1D& t = transform.axis_transform(axis);
    if (hi[axis] >= t.input_size()) {
      return Status::OutOfRange("query range exceeds the transform's axis");
    }
    contribution.assign(t.coefficient_count(), 0.0);
    t.RangeContribution(lo[axis], hi[axis], contribution.data());
    factor_product *= t.RefinedQuadraticForm(contribution.data());
  }
  return 2.0 * lambda * lambda * factor_product;
}

Result<double> PriveletPlusQueryVariance(
    const data::Schema& schema, const std::vector<std::string>& sa_names,
    double epsilon, const query::RangeQuery& query) {
  PRIVELET_RETURN_IF_ERROR(mechanism::CheckEpsilon(epsilon));
  std::vector<std::size_t> sa_axes;
  for (const std::string& name : sa_names) {
    PRIVELET_ASSIGN_OR_RETURN(std::size_t axis, schema.FindAttribute(name));
    sa_axes.push_back(axis);
  }
  PRIVELET_ASSIGN_OR_RETURN(wavelet::HnTransform transform,
                            wavelet::HnTransform::Create(schema, sa_axes));
  const double lambda = 2.0 * transform.GeneralizedSensitivity() / epsilon;
  return ExactQueryNoiseVariance(transform, schema, lambda, query);
}

}  // namespace privelet::analysis
