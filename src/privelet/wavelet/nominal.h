// The paper's novel nominal wavelet transform (Sec. V). The decomposition
// tree R is the attribute's hierarchy H with one data leaf attached under
// each hierarchy leaf; one coefficient is emitted per node of H, indexed by
// the hierarchy's BFS node id (= level order, base coefficient first).
//
//   coefficient(root) = sum of all entries               (base coefficient)
//   coefficient(N)    = leafsum(N) - leafsum(parent(N)) / fanout(parent(N))
//
// The transform is over-complete: coefficient_count() = H.num_nodes() >
// num_leaves. Refine() is the mean-subtraction procedure over sibling
// groups (Sec. V-B), applied to noisy coefficients before reconstruction.
// The weight function WNom maps the base coefficient to 1 and every other
// coefficient to f/(2f-2), where f is the fanout of its parent.
#ifndef PRIVELET_WAVELET_NOMINAL_H_
#define PRIVELET_WAVELET_NOMINAL_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "privelet/data/hierarchy.h"
#include "privelet/wavelet/transform.h"

namespace privelet::wavelet {

class NominalTransform final : public Transform1D {
 public:
  /// The hierarchy must satisfy Hierarchy's invariants (uniform leaf depth,
  /// internal fanout >= 2) — those are established by its builders.
  explicit NominalTransform(std::shared_ptr<const data::Hierarchy> hierarchy);

  std::string_view name() const override { return "nominal"; }
  std::size_t input_size() const override { return hierarchy_->num_leaves(); }
  std::size_t coefficient_count() const override {
    return hierarchy_->num_nodes();
  }

  void Forward(const double* in, double* out) const override;

  /// Mean subtraction: within every sibling group (maximal set of
  /// coefficients sharing a parent in the decomposition tree) subtract the
  /// group mean, so each noisy group sums to zero.
  void Refine(double* coeffs) const override;
  bool has_refinement() const override { return true; }

  void Inverse(const double* coeffs, double* out) const override;

  /// Allocation-free overloads: scratch holds the per-node leaf sums.
  std::size_t scratch_size() const override { return hierarchy_->num_nodes(); }
  void Forward(const double* in, double* out, double* scratch) const override;
  void Inverse(const double* coeffs, double* out,
               double* scratch) const override;

  /// The batched kernel (see Transform1D): the bottom-up/top-down
  /// leaf-sum recurrences and the sibling-group means run node by node
  /// through the selected simd::KernelTable's element-wise row kernels,
  /// lanes over the lines. Node order is the single-line order, so every
  /// level is bit-identical to Forward and to Refine + Inverse. Scratch
  /// holds a num_nodes x count node panel plus one group-sum row.
  std::size_t lines_scratch_size(std::size_t count) const override {
    return (hierarchy_->num_nodes() + 1) * count;
  }
  void ForwardLines(std::size_t count, const double* in, double* out,
                    std::size_t pitch, double* scratch,
                    simd::IsaLevel isa) const override;
  void InverseLines(std::size_t count, const double* coeffs, double* out,
                    std::size_t pitch, double* scratch,
                    simd::IsaLevel isa) const override;

  /// Reconstruction coefficients of a range sum via the Eq. 5 expansion:
  /// a[N] = sum over leaves v in [lo, hi] under N of
  /// prod_{ancestors B from N down to v's parent} 1/fanout(B), computed
  /// with a bottom-up DP: a[leaf node] = [leaf in range],
  /// a[N] = (1/fanout(N)) * sum over children.
  void RangeContribution(std::size_t lo, std::size_t hi,
                         double* out) const override;

  /// Accounts for the mean-subtraction refinement: within each sibling
  /// group the noise covariance is v*(I - J/g) (equal weights within a
  /// group), so the group's quadratic-form contribution is
  /// v * (sum a_j^2 - (sum a_j)^2 / g).
  double RefinedQuadraticForm(const double* a) const override;

  const std::vector<double>& weights() const override { return weights_; }

  /// P(A) = h, the hierarchy height (Lemma 4).
  double p_factor() const override {
    return static_cast<double>(hierarchy_->height());
  }

  /// H(A) = 4 (Lemma 5).
  double h_factor() const override { return 4.0; }

  const data::Hierarchy& hierarchy() const { return *hierarchy_; }

 private:
  std::shared_ptr<const data::Hierarchy> hierarchy_;
  std::vector<double> weights_;
};

}  // namespace privelet::wavelet

#endif  // PRIVELET_WAVELET_NOMINAL_H_
