#include "privelet/mechanism/hay.h"

#include <cmath>
#include <span>
#include <vector>

#include "privelet/common/math_util.h"
#include "privelet/mechanism/noise.h"
#include "privelet/rng/splitmix64.h"

namespace privelet::mechanism {

namespace {

Status CheckOneDimensionalOrdinal(const data::Schema& schema) {
  if (schema.num_attributes() != 1 || !schema.attribute(0).is_ordinal()) {
    return Status::InvalidArgument(
        "the Hay hierarchical mechanism supports exactly one ordinal "
        "attribute");
  }
  return Status::OK();
}

}  // namespace

Result<matrix::FrequencyMatrix> HayHierarchicalMechanism::Publish(
    const data::Schema& schema, const matrix::FrequencyMatrix& m,
    double epsilon, std::uint64_t seed) const {
  PRIVELET_RETURN_IF_ERROR(CheckPublishArgs(schema, m, epsilon));
  PRIVELET_RETURN_IF_ERROR(CheckOneDimensionalOrdinal(schema));

  const std::size_t n = m.size();
  const std::size_t padded = NextPowerOfTwo(n);
  const std::size_t levels = FloorLog2(padded) + 1;  // tree height h

  // Complete binary tree in heap layout: node 1 is the root; leaves are
  // nodes [padded, 2*padded).
  std::vector<double> true_count(2 * padded, 0.0);
  for (std::size_t i = 0; i < n; ++i) true_count[padded + i] = m[i];
  for (std::size_t v = padded; v-- > 1;) {
    true_count[v] = true_count[2 * v] + true_count[2 * v + 1];
  }

  // Uniform budget split: each level gets ε/h, i.e. Laplace(h/ε) per node.
  // Per-node noise: node v draws index v - 1 of the Hay key.
  const double lambda = static_cast<double>(levels) / epsilon;
  std::vector<double> noisy = true_count;
  noisy[0] = 0.0;
  AddLaplaceNoise(std::span<double>(noisy).subspan(1), lambda,
                  rng::NoiseKey::FromSeed(rng::DeriveSeed(seed, 0x4A7)),
                  thread_pool());

  // Consistency, pass 1 (bottom-up): z[v] is the best subtree-local
  // estimate. For a node whose subtree has k levels:
  //   z[v] = (2^k - 2^(k-1)) / (2^k - 1) * noisy[v]
  //        + (2^(k-1) - 1)   / (2^k - 1) * (z[left] + z[right]).
  std::vector<double> z(2 * padded, 0.0);
  for (std::size_t v = 2 * padded; v-- > 1;) {
    if (v >= padded) {  // leaf: subtree has 1 level
      z[v] = noisy[v];
      continue;
    }
    // Subtree levels: leaves are at depth `levels`; node v has depth
    // floor(log2(v)) + 1.
    const std::size_t depth = FloorLog2(v) + 1;
    const std::size_t k = levels - depth + 1;
    const double pow_k = std::ldexp(1.0, static_cast<int>(k));        // 2^k
    const double pow_k1 = std::ldexp(1.0, static_cast<int>(k - 1));   // 2^(k-1)
    const double alpha = (pow_k - pow_k1) / (pow_k - 1.0);
    const double beta = (pow_k1 - 1.0) / (pow_k - 1.0);
    z[v] = alpha * noisy[v] + beta * (z[2 * v] + z[2 * v + 1]);
  }

  // Consistency, pass 2 (top-down): distribute each parent's surplus
  // equally between its children so that children sum to the parent.
  std::vector<double> h(2 * padded, 0.0);
  h[1] = z[1];
  for (std::size_t v = 2; v < 2 * padded; ++v) {
    const std::size_t parent = v / 2;
    const std::size_t sibling = v ^ 1;
    h[v] = z[v] + (h[parent] - (z[v] + z[sibling])) / 2.0;
  }

  matrix::FrequencyMatrix noisy_matrix(m.dims());
  for (std::size_t i = 0; i < n; ++i) noisy_matrix[i] = h[padded + i];
  return noisy_matrix;
}

Result<double> HayHierarchicalMechanism::NoiseVarianceBound(
    const data::Schema& schema, double epsilon) const {
  PRIVELET_RETURN_IF_ERROR(CheckEpsilon(epsilon));
  PRIVELET_RETURN_IF_ERROR(CheckOneDimensionalOrdinal(schema));
  const std::size_t padded = NextPowerOfTwo(schema.TotalDomainSize());
  const double h = static_cast<double>(FloorLog2(padded) + 1);
  return 4.0 * h * h * h / (epsilon * epsilon);
}

}  // namespace privelet::mechanism
