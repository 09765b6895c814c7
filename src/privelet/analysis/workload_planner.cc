#include "privelet/analysis/workload_planner.h"

#include <algorithm>

#include "privelet/analysis/query_variance.h"
#include "privelet/mechanism/mechanism.h"
#include "privelet/wavelet/hn_transform.h"

namespace privelet::analysis {

Result<std::vector<SaPlan>> EvaluateAllSaSubsets(
    const data::Schema& schema, const std::vector<query::RangeQuery>& workload,
    double epsilon) {
  PRIVELET_RETURN_IF_ERROR(mechanism::CheckEpsilon(epsilon));
  if (workload.empty()) {
    return Status::InvalidArgument("planning workload must be non-empty");
  }
  const std::size_t d = schema.num_attributes();
  if (d == 0) return Status::InvalidArgument("schema has no attributes");
  if (d > 16) {
    return Status::InvalidArgument(
        "subset enumeration capped at 16 attributes; use AdviseSa instead");
  }

  std::vector<SaPlan> plans;
  plans.reserve(std::size_t{1} << d);
  for (std::size_t mask = 0; mask < (std::size_t{1} << d); ++mask) {
    std::vector<std::size_t> sa_axes;
    SaPlan plan;
    for (std::size_t axis = 0; axis < d; ++axis) {
      if (mask & (std::size_t{1} << axis)) {
        sa_axes.push_back(axis);
        plan.sa_names.push_back(schema.attribute(axis).name());
      }
    }
    PRIVELET_ASSIGN_OR_RETURN(wavelet::HnTransform transform,
                              wavelet::HnTransform::Create(schema, sa_axes));
    const double lambda = 2.0 * transform.GeneralizedSensitivity() / epsilon;
    double total = 0.0;
    for (const query::RangeQuery& q : workload) {
      PRIVELET_ASSIGN_OR_RETURN(
          double variance,
          ExactQueryNoiseVariance(transform, schema, lambda, q));
      total += variance;
    }
    plan.expected_variance = total / static_cast<double>(workload.size());
    plans.push_back(std::move(plan));
  }
  std::stable_sort(plans.begin(), plans.end(),
                   [](const SaPlan& a, const SaPlan& b) {
                     return a.expected_variance < b.expected_variance;
                   });
  return plans;
}

Result<SaPlan> PlanSaForWorkload(
    const data::Schema& schema, const std::vector<query::RangeQuery>& workload,
    double epsilon) {
  PRIVELET_ASSIGN_OR_RETURN(std::vector<SaPlan> plans,
                            EvaluateAllSaSubsets(schema, workload, epsilon));
  return plans.front();
}

}  // namespace privelet::analysis
