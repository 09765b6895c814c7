// Mechanism: the interface of an ε-differentially-private data-publishing
// algorithm. A mechanism consumes a table's frequency matrix and produces a
// noisy frequency matrix of the same shape; all range-count queries are
// then answered from the noisy matrix.
#ifndef PRIVELET_MECHANISM_MECHANISM_H_
#define PRIVELET_MECHANISM_MECHANISM_H_

#include <cstdint>
#include <string_view>

#include "privelet/common/result.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/engine.h"
#include "privelet/matrix/frequency_matrix.h"

namespace privelet::common {
class ThreadPool;
}  // namespace privelet::common

namespace privelet::mechanism {

/// Interface of a publishing mechanism. Implementations are stateless
/// apart from the two performance knobs below (pool, engine options);
/// Publish is const and may be called concurrently (see README,
/// "Threading model").
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Stable identifier of the mechanism (e.g. "Privelet+{Gender}") —
  /// what ReleaseMetadata and PVLS snapshots record as provenance.
  virtual std::string_view name() const = 0;

  /// Optional worker pool used by Publish implementations for internal
  /// parallelism (transform fan-out, noise injection). Not owned; must
  /// outlive every Publish call. Publish output is bit-identical for a
  /// given seed whatever the pool — nullptr (serial, the default) and any
  /// pool size produce the same matrix — so threading is purely a
  /// performance knob.
  void set_thread_pool(common::ThreadPool* pool) { thread_pool_ = pool; }
  common::ThreadPool* thread_pool() const { return thread_pool_; }

  /// Memory budget and kernel ISA level for the passes inside Publish
  /// (see matrix/engine.h). Like the thread pool, purely a performance
  /// knob: for a given seed the published matrix is bit-identical for
  /// every value. Basic and Hay read only the ISA level.
  void set_engine_options(const matrix::EngineOptions& options) {
    engine_options_ = options;
  }
  const matrix::EngineOptions& engine_options() const {
    return engine_options_;
  }

  /// Publishes a noisy version of `m` (dims must equal the schema's domain
  /// sizes) satisfying `epsilon`-differential privacy. Deterministic in
  /// `seed`. epsilon must pass CheckEpsilon.
  virtual Result<matrix::FrequencyMatrix> Publish(
      const data::Schema& schema, const matrix::FrequencyMatrix& m,
      double epsilon, std::uint64_t seed) const = 0;

  /// Worst-case noise variance of a single range-count query answered from
  /// the published matrix (the paper's utility bound for this mechanism at
  /// this ε). Used by the analysis module and the ablation benches.
  virtual Result<double> NoiseVarianceBound(const data::Schema& schema,
                                            double epsilon) const = 0;

 private:
  common::ThreadPool* thread_pool_ = nullptr;
  matrix::EngineOptions engine_options_;
};

/// InvalidArgument unless `epsilon` is finite and > 0: an infinite budget
/// would publish the exact counts, and NaN a release of NaNs. Shared by
/// every mechanism and planner entry point that takes a budget.
Status CheckEpsilon(double epsilon);

/// Validates the common Publish preconditions; shared by implementations.
Status CheckPublishArgs(const data::Schema& schema,
                        const matrix::FrequencyMatrix& m, double epsilon);

}  // namespace privelet::mechanism

#endif  // PRIVELET_MECHANISM_MECHANISM_H_
