#include "privelet/analysis/mechanism_planner.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "privelet/analysis/workload_planner.h"
#include "privelet/common/math_util.h"
#include "privelet/mechanism/mechanism.h"

namespace privelet::analysis {

namespace {

Status CheckPlanningArgs(const data::Schema& schema, double epsilon,
                         const query::RangeQuery& query) {
  PRIVELET_RETURN_IF_ERROR(mechanism::CheckEpsilon(epsilon));
  if (query.num_attributes() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "query arity does not match the schema");
  }
  return Status::OK();
}

Status CheckBinarySchema(const data::Schema& schema) {
  if (schema.num_attributes() == 0 || schema.num_attributes() >= 30) {
    return Status::InvalidArgument(
        "the Fourier model needs 1..29 attributes");
  }
  for (const data::Attribute& attribute : schema.attributes()) {
    if (attribute.domain_size() != 2) {
      return Status::InvalidArgument(
          "the Fourier model requires binary attributes");
    }
  }
  return Status::OK();
}

/// Attribute-index mask of the query's point-constrained attributes (the
/// marginal subset T answering it on a binary cube).
std::uint64_t ConstrainedMask(const query::RangeQuery& query) {
  std::uint64_t mask = 0;
  for (std::size_t a = 0; a < query.num_attributes(); ++a) {
    const std::optional<query::ValueRange>& range = query.range(a);
    if (range.has_value() && range->width() == 1) {
      mask |= std::uint64_t{1} << a;
    }
  }
  return mask;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& name : names) {
    if (!joined.empty()) joined += ",";
    joined += name;
  }
  return joined;
}

}  // namespace

Result<double> BasicQueryVariance(const data::Schema& schema, double epsilon,
                                  const query::RangeQuery& query) {
  PRIVELET_RETURN_IF_ERROR(CheckPlanningArgs(schema, epsilon, query));
  std::vector<std::size_t> lo, hi;
  query.ResolveBounds(schema, &lo, &hi);
  // Independent per-cell Laplace(2/ε): Var(answer) = #cells · 2(2/ε)².
  double cells = 1.0;
  for (std::size_t axis = 0; axis < lo.size(); ++axis) {
    cells *= static_cast<double>(hi[axis] - lo[axis] + 1);
  }
  return cells * 8.0 / (epsilon * epsilon);
}

Result<double> HayQueryVariance(const data::Schema& schema, double epsilon,
                                const query::RangeQuery& query) {
  PRIVELET_RETURN_IF_ERROR(CheckPlanningArgs(schema, epsilon, query));
  if (schema.num_attributes() != 1 || !schema.attribute(0).is_ordinal()) {
    return Status::InvalidArgument(
        "the Hay model supports exactly one ordinal attribute");
  }
  const std::size_t n = schema.TotalDomainSize();
  const std::size_t padded = NextPowerOfTwo(n);
  const std::size_t levels = FloorLog2(padded) + 1;
  const double lambda = static_cast<double>(levels) / epsilon;

  std::vector<std::size_t> lo, hi;
  query.ResolveBounds(schema, &lo, &hi);

  // The published leaf counts are linear in the iid per-node noise (the
  // consistency passes of hay.cc are linear maps), so the answer is
  // Σ_v c_v · noisy[v] + const and Var = 2λ² Σ_v c_v². The coefficients
  // come from running the two passes backwards: seed the gradient on the
  // requested leaves, reverse pass 2 (top-down averaging), then reverse
  // pass 1 (bottom-up subtree pooling). Same heap layout and α/β weights
  // as the forward code.
  std::vector<double> gh(2 * padded, 0.0);  // d answer / d h[v]
  std::vector<double> gz(2 * padded, 0.0);  // d answer / d z[v]
  std::vector<double> gn(2 * padded, 0.0);  // d answer / d noisy[v]
  for (std::size_t i = lo[0]; i <= hi[0]; ++i) gh[padded + i] = 1.0;

  // Reverse of: h[v] = z[v] + (h[parent] - (z[v] + z[sibling])) / 2 for
  // v ascending 2..2p-1, h[1] = z[1]. Children have larger indices than
  // their parent, so descending order visits every use of h[v] first.
  for (std::size_t v = 2 * padded; v-- > 2;) {
    const double g = gh[v];
    if (g == 0.0) continue;
    gz[v] += 0.5 * g;
    gz[v ^ 1] -= 0.5 * g;
    gh[v / 2] += 0.5 * g;
  }
  gz[1] += gh[1];

  // Reverse of: z[v] = α·noisy[v] + β·(z[2v] + z[2v+1]) for v descending
  // (leaves: z[v] = noisy[v]). Ascending order visits every use of z[v]
  // (by its parent, parent < v) first.
  for (std::size_t v = 1; v < 2 * padded; ++v) {
    const double g = gz[v];
    if (g == 0.0) continue;
    if (v >= padded) {  // leaf
      gn[v] += g;
      continue;
    }
    const std::size_t depth = FloorLog2(v) + 1;
    const std::size_t k = levels - depth + 1;
    const double pow_k = std::ldexp(1.0, static_cast<int>(k));
    const double pow_k1 = std::ldexp(1.0, static_cast<int>(k - 1));
    const double alpha = (pow_k - pow_k1) / (pow_k - 1.0);
    const double beta = (pow_k1 - 1.0) / (pow_k - 1.0);
    gn[v] += alpha * g;
    gz[2 * v] += beta * g;
    gz[2 * v + 1] += beta * g;
  }

  double sum_sq = 0.0;
  for (std::size_t v = 1; v < 2 * padded; ++v) sum_sq += gn[v] * gn[v];
  return 2.0 * lambda * lambda * sum_sq;
}

Result<std::size_t> FourierClosureSize(
    const data::Schema& schema,
    const std::vector<query::RangeQuery>& workload) {
  PRIVELET_RETURN_IF_ERROR(CheckBinarySchema(schema));
  if (workload.empty()) {
    return Status::InvalidArgument("planning workload must be non-empty");
  }
  std::set<std::uint64_t> closure;
  closure.insert(0);  // the total count is always released
  for (const query::RangeQuery& query : workload) {
    if (query.num_attributes() != schema.num_attributes()) {
      return Status::InvalidArgument(
          "query arity does not match the schema");
    }
    const std::uint64_t mask = ConstrainedMask(query);
    std::uint64_t sub = mask;
    while (true) {
      closure.insert(sub);
      if (sub == 0) break;
      sub = (sub - 1) & mask;
    }
  }
  return closure.size();
}

Result<double> FourierQueryVariance(const data::Schema& schema, double epsilon,
                                    std::size_t closure_size,
                                    const query::RangeQuery& query) {
  PRIVELET_RETURN_IF_ERROR(CheckPlanningArgs(schema, epsilon, query));
  PRIVELET_RETURN_IF_ERROR(CheckBinarySchema(schema));
  if (closure_size == 0) {
    return Status::InvalidArgument("closure size must be positive");
  }
  const double lambda = 2.0 * static_cast<double>(closure_size) / epsilon;
  const int arity = __builtin_popcountll(ConstrainedMask(query));
  // One entry of marginal T: 2^|T| closure coefficients, each scaled by
  // 2^-|T|, each carrying independent Laplace(λ) noise.
  return 2.0 * lambda * lambda * std::ldexp(1.0, -arity);
}

query::PlanRecord MechanismPlan::ToRecord() const {
  query::PlanRecord record;
  record.chosen = chosen.id;
  record.predicted_variance = chosen.expected_variance;
  for (const MechanismCandidate& candidate : ranked) {
    if (candidate.publishable && candidate.id != chosen.id) {
      record.runner_up = candidate.id;
      record.runner_up_variance = candidate.expected_variance;
      break;
    }
  }
  record.workload_queries = static_cast<std::uint32_t>(workload_queries);
  return record;
}

Result<MechanismPlan> PlanMechanismForWorkload(
    const data::Schema& schema, const std::vector<query::RangeQuery>& workload,
    double epsilon) {
  PRIVELET_RETURN_IF_ERROR(mechanism::CheckEpsilon(epsilon));
  if (workload.empty()) {
    return Status::InvalidArgument("planning workload must be non-empty");
  }

  std::vector<MechanismCandidate> candidates;
  auto mean_over_workload =
      [&](auto&& per_query) -> Result<double> {
    double total = 0.0;
    for (const query::RangeQuery& query : workload) {
      PRIVELET_ASSIGN_OR_RETURN(double variance, per_query(query));
      total += variance;
    }
    return total / static_cast<double>(workload.size());
  };

  // Basic: always applicable.
  {
    MechanismCandidate basic;
    basic.id = "basic";
    PRIVELET_ASSIGN_OR_RETURN(
        basic.expected_variance,
        mean_over_workload([&](const query::RangeQuery& q) {
          return BasicQueryVariance(schema, epsilon, q);
        }));
    candidates.push_back(std::move(basic));
  }

  // The Privelet family: the full SA-subset enumeration already scores
  // every subset; surface the pure-Haar release ("privelet", SA = ∅) and
  // the best subset ("privelet+ sa={...}") as candidates.
  {
    PRIVELET_ASSIGN_OR_RETURN(
        std::vector<SaPlan> plans,
        EvaluateAllSaSubsets(schema, workload, epsilon));
    for (const SaPlan& plan : plans) {
      if (plan.sa_names.empty()) {
        MechanismCandidate privelet;
        privelet.id = "privelet";
        privelet.expected_variance = plan.expected_variance;
        candidates.push_back(std::move(privelet));
        break;
      }
    }
    const SaPlan& best = plans.front();
    if (!best.sa_names.empty()) {
      MechanismCandidate plus;
      plus.id = "privelet+ sa={" + JoinNames(best.sa_names) + "}";
      plus.sa_names = best.sa_names;
      plus.expected_variance = best.expected_variance;
      candidates.push_back(std::move(plus));
    }
  }

  // Hay: one ordinal attribute only.
  if (schema.num_attributes() == 1 && schema.attribute(0).is_ordinal()) {
    MechanismCandidate hay;
    hay.id = "hay";
    PRIVELET_ASSIGN_OR_RETURN(
        hay.expected_variance,
        mean_over_workload([&](const query::RangeQuery& q) {
          return HayQueryVariance(schema, epsilon, q);
        }));
    candidates.push_back(std::move(hay));
  }

  // Fourier: binary cubes only, and rank-only — it releases marginals,
  // not a frequency matrix, so the snapshot pipeline cannot publish it.
  if (CheckBinarySchema(schema).ok()) {
    MechanismCandidate fourier;
    fourier.id = "fourier";
    fourier.publishable = false;
    PRIVELET_ASSIGN_OR_RETURN(std::size_t closure,
                              FourierClosureSize(schema, workload));
    PRIVELET_ASSIGN_OR_RETURN(
        fourier.expected_variance,
        mean_over_workload([&](const query::RangeQuery& q) {
          return FourierQueryVariance(schema, epsilon, closure, q);
        }));
    candidates.push_back(std::move(fourier));
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const MechanismCandidate& a, const MechanismCandidate& b) {
              if (a.expected_variance != b.expected_variance) {
                return a.expected_variance < b.expected_variance;
              }
              return a.id < b.id;
            });

  MechanismPlan plan;
  plan.ranked = std::move(candidates);
  plan.workload_queries = workload.size();
  for (const MechanismCandidate& candidate : plan.ranked) {
    if (candidate.publishable) {
      plan.chosen = candidate;
      break;
    }
  }
  PRIVELET_CHECK(!plan.chosen.id.empty(), "no publishable candidate");
  return plan;
}

}  // namespace privelet::analysis
