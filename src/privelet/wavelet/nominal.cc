#include "privelet/wavelet/nominal.h"

#include <algorithm>
#include <vector>

#include "privelet/common/check.h"
#include "privelet/simd/kernels.h"

namespace privelet::wavelet {

NominalTransform::NominalTransform(
    std::shared_ptr<const data::Hierarchy> hierarchy)
    : hierarchy_(std::move(hierarchy)) {
  PRIVELET_CHECK(hierarchy_ != nullptr, "hierarchy must not be null");
  const data::Hierarchy& h = *hierarchy_;
  weights_.resize(h.num_nodes());
  weights_[data::Hierarchy::kRoot] = 1.0;  // base coefficient
  for (std::size_t id = 1; id < h.num_nodes(); ++id) {
    const std::size_t f = h.fanout(h.node(id).parent);
    PRIVELET_CHECK(f >= 2, "internal hierarchy node with fanout < 2");
    const double fd = static_cast<double>(f);
    weights_[id] = fd / (2.0 * fd - 2.0);
  }
}

void NominalTransform::Forward(const double* in, double* out) const {
  std::vector<double> leafsum(hierarchy_->num_nodes());
  Forward(in, out, leafsum.data());
}

void NominalTransform::Forward(const double* in, double* out,
                               double* scratch) const {
  const data::Hierarchy& h = *hierarchy_;
  // Leaf-sums bottom-up in `scratch`. BFS layout guarantees parent <
  // child, so one reverse pass accumulates children into parents.
  double* leafsum = scratch;
  std::fill(leafsum, leafsum + h.num_nodes(), 0.0);
  for (std::size_t leaf = 0; leaf < h.num_leaves(); ++leaf) {
    leafsum[h.leaf_node(leaf)] = in[leaf];
  }
  for (std::size_t id = h.num_nodes(); id-- > 1;) {
    leafsum[h.node(id).parent] += leafsum[id];
  }

  out[data::Hierarchy::kRoot] = leafsum[data::Hierarchy::kRoot];
  for (std::size_t id = 1; id < h.num_nodes(); ++id) {
    const std::size_t parent = h.node(id).parent;
    out[id] = leafsum[id] -
              leafsum[parent] / static_cast<double>(h.fanout(parent));
  }
}

void NominalTransform::ForwardLines(std::size_t count, const double* in,
                                    double* out, std::size_t pitch,
                                    double* scratch,
                                    simd::IsaLevel isa) const {
  const simd::KernelTable& k = simd::Kernels(isa);
  const data::Hierarchy& h = *hierarchy_;
  const std::size_t nodes = h.num_nodes();
  // scratch = num_nodes x count leaf-sum panel; per line b the node order
  // of every pass matches the single-line path exactly.
  double* leafsum = scratch;
  std::fill(leafsum, leafsum + nodes * count, 0.0);
  for (std::size_t leaf = 0; leaf < h.num_leaves(); ++leaf) {
    std::copy(in + leaf * pitch, in + leaf * pitch + count,
              leafsum + h.leaf_node(leaf) * count);
  }
  for (std::size_t id = nodes; id-- > 1;) {
    k.row_add(leafsum + h.node(id).parent * count, leafsum + id * count,
              count);
  }

  constexpr std::size_t kRoot = data::Hierarchy::kRoot;
  std::copy(leafsum + kRoot * count, leafsum + (kRoot + 1) * count,
            out + kRoot * pitch);
  for (std::size_t id = 1; id < nodes; ++id) {
    const std::size_t parent = h.node(id).parent;
    const double fanout = static_cast<double>(h.fanout(parent));
    k.row_sub_div(out + id * pitch, leafsum + id * count,
                  leafsum + parent * count, fanout, count);
  }
}

void NominalTransform::Refine(double* coeffs) const {
  const data::Hierarchy& h = *hierarchy_;
  for (std::size_t id = 0; id < h.num_nodes(); ++id) {
    const auto& children = h.node(id).children;
    if (children.empty()) continue;
    double sum = 0.0;
    for (std::size_t child : children) sum += coeffs[child];
    const double mean = sum / static_cast<double>(children.size());
    for (std::size_t child : children) coeffs[child] -= mean;
  }
}

void NominalTransform::RangeContribution(std::size_t lo, std::size_t hi,
                                         double* out) const {
  const data::Hierarchy& h = *hierarchy_;
  PRIVELET_CHECK(lo <= hi && hi < h.num_leaves(), "bad range");
  for (std::size_t id = 0; id < h.num_nodes(); ++id) out[id] = 0.0;
  for (std::size_t leaf = lo; leaf <= hi; ++leaf) {
    out[h.leaf_node(leaf)] = 1.0;
  }
  // Bottom-up: parents precede children in the BFS layout.
  for (std::size_t id = h.num_nodes(); id-- > 0;) {
    const auto& children = h.node(id).children;
    if (children.empty()) continue;
    double sum = 0.0;
    for (std::size_t child : children) sum += out[child];
    out[id] = sum / static_cast<double>(children.size());
  }
}

double NominalTransform::RefinedQuadraticForm(const double* a) const {
  const data::Hierarchy& h = *hierarchy_;
  // Base coefficient: untouched by refinement, weight 1.
  double total = a[data::Hierarchy::kRoot] * a[data::Hierarchy::kRoot];
  for (std::size_t id = 0; id < h.num_nodes(); ++id) {
    const auto& children = h.node(id).children;
    if (children.empty()) continue;
    // All coefficients in the sibling group share the weight f/(2f-2).
    const double w = weights_[children.front()];
    const double v = 1.0 / (w * w);
    double sum = 0.0, sum_sq = 0.0;
    for (std::size_t child : children) {
      sum += a[child];
      sum_sq += a[child] * a[child];
    }
    const double g = static_cast<double>(children.size());
    total += v * (sum_sq - sum * sum / g);
  }
  return total;
}

void NominalTransform::Inverse(const double* coeffs, double* out) const {
  std::vector<double> leafsum(hierarchy_->num_nodes());
  Inverse(coeffs, out, leafsum.data());
}

void NominalTransform::Inverse(const double* coeffs, double* out,
                               double* scratch) const {
  const data::Hierarchy& h = *hierarchy_;
  // Reconstruct leaf-sums top-down (Eq. 5 unrolled):
  //   leafsum(root) = c0;  leafsum(N) = c(N) + leafsum(parent)/fanout(parent)
  double* leafsum = scratch;
  leafsum[data::Hierarchy::kRoot] = coeffs[data::Hierarchy::kRoot];
  for (std::size_t id = 1; id < h.num_nodes(); ++id) {
    const std::size_t parent = h.node(id).parent;
    leafsum[id] = coeffs[id] +
                  leafsum[parent] / static_cast<double>(h.fanout(parent));
  }
  for (std::size_t leaf = 0; leaf < h.num_leaves(); ++leaf) {
    out[leaf] = leafsum[h.leaf_node(leaf)];
  }
}

void NominalTransform::InverseLines(std::size_t count, const double* coeffs,
                                    double* out, std::size_t pitch,
                                    double* scratch,
                                    simd::IsaLevel isa) const {
  const simd::KernelTable& k = simd::Kernels(isa);
  const data::Hierarchy& h = *hierarchy_;
  const std::size_t nodes = h.num_nodes();
  // The node panel takes a copy of the coefficients, which Refine's mean
  // subtraction then rewrites in place; one scratch row accumulates each
  // sibling group's sum. Children are visited in the order of the
  // single-line Refine, so the per-line sums (and hence the subtracted
  // means) are bit-identical.
  double* node = scratch;
  double* sum = scratch + nodes * count;
  for (std::size_t id = 0; id < nodes; ++id) {
    std::copy(coeffs + id * pitch, coeffs + id * pitch + count,
              node + id * count);
  }
  for (std::size_t id = 0; id < nodes; ++id) {
    const auto& children = h.node(id).children;
    if (children.empty()) continue;
    std::fill(sum, sum + count, 0.0);
    for (std::size_t child : children) {
      k.row_add(sum, node + child * count, count);
    }
    k.row_div(sum, static_cast<double>(children.size()), count);
    for (std::size_t child : children) {
      k.row_sub(node + child * count, sum, count);
    }
  }
  // Leaf sums top-down, in place (Eq. 5 unrolled): parents precede
  // children, so each parent row already holds its leaf sum.
  for (std::size_t id = 1; id < nodes; ++id) {
    const std::size_t parent = h.node(id).parent;
    k.row_add_div(node + id * count, node + id * count, node + parent * count,
                  static_cast<double>(h.fanout(parent)), count);
  }
  for (std::size_t leaf = 0; leaf < h.num_leaves(); ++leaf) {
    const double* row = node + h.leaf_node(leaf) * count;
    std::copy(row, row + count, out + leaf * pitch);
  }
}

}  // namespace privelet::wavelet
