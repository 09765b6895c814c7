// PlanRecord: the provenance of a workload-adaptive mechanism choice,
// carried in ReleaseMetadata and round-tripped through the plan section of PVLS snapshots.
// Deliberately flat (strings + numbers, no pointers into the planner's
// candidate structures) so the storage layer can serialize it without
// depending on the analysis module.
#ifndef PRIVELET_QUERY_PLAN_RECORD_H_
#define PRIVELET_QUERY_PLAN_RECORD_H_

#include <cstdint>
#include <string>

namespace privelet::query {

/// What the planner decided and why, in release provenance form. The ids
/// are the stable candidate identifiers of analysis::MechanismCandidate
/// ("basic", "privelet", "privelet+ sa={...}", "hay", "fourier").
struct PlanRecord {
  /// Candidate the release was (or would be) published under.
  std::string chosen;
  /// Mean exact per-query noise variance of `chosen` over the planning
  /// workload at the release epsilon.
  double predicted_variance = 0.0;
  /// Next-best publishable candidate ("" when there was no alternative).
  std::string runner_up;
  /// Expected variance of `runner_up` (0 when there was none).
  double runner_up_variance = 0.0;
  /// Size of the planning workload the prediction averages over.
  std::uint32_t workload_queries = 0;

  bool operator==(const PlanRecord&) const = default;
};

}  // namespace privelet::query

#endif  // PRIVELET_QUERY_PLAN_RECORD_H_
