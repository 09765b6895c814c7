// Tests isolating the mean-subtraction refinement's contribution to
// Lemma 5: refining noisy nominal coefficients strictly reduces the noise
// variance of reconstructed range sums, and never changes what exact
// coefficients reconstruct to.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "privelet/common/math_util.h"
#include "privelet/data/hierarchy.h"
#include "privelet/rng/laplace.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/wavelet/nominal.h"

namespace privelet::wavelet {
namespace {

std::shared_ptr<const data::Hierarchy> WideHierarchy() {
  return std::make_shared<const data::Hierarchy>(
      data::Hierarchy::Balanced({4, 4}).value());
}

// Reconstruct leaves from coefficients with / without Refine and return
// the variance of a subtree sum's noise across many noise draws.
struct RefinementEffect {
  double with_refine;
  double without_refine;
};

RefinementEffect MeasureSubtreeSumVariance(std::size_t group_index) {
  auto hierarchy = WideHierarchy();
  NominalTransform transform(hierarchy);
  const std::size_t k = transform.coefficient_count();
  const std::size_t leaves = transform.input_size();

  // Exact coefficients of some data.
  std::vector<double> data(leaves, 10.0);
  std::vector<double> exact(k);
  transform.Forward(data.data(), exact.data());

  const auto& group =
      hierarchy->node(hierarchy->NodesAtLevel(2)[group_index]);
  auto subtree_sum = [&](const std::vector<double>& leaf_values) {
    double total = 0.0;
    for (std::size_t leaf = group.leaf_begin; leaf < group.leaf_end;
         ++leaf) {
      total += leaf_values[leaf];
    }
    return total;
  };

  const rng::NoiseKey key = rng::NoiseKey::FromSeed(5);
  std::uint64_t draw = 0;
  std::vector<double> noisy(k), reconstructed(leaves);
  std::vector<double> with_refine, without_refine;
  const double true_sum = 10.0 * static_cast<double>(group.leaf_end -
                                                     group.leaf_begin);
  const auto& w = transform.weights();
  for (int trial = 0; trial < 4000; ++trial) {
    for (std::size_t j = 0; j < k; ++j) {
      noisy[j] = exact[j] + (1.0 / w[j]) * rng::LaplaceUnitAt(key, draw++);
    }
    std::vector<double> refined = noisy;
    transform.Refine(refined.data());
    transform.Inverse(refined.data(), reconstructed.data());
    with_refine.push_back(subtree_sum(reconstructed) - true_sum);
    transform.Inverse(noisy.data(), reconstructed.data());
    without_refine.push_back(subtree_sum(reconstructed) - true_sum);
  }
  return {SampleVariance(with_refine), SampleVariance(without_refine)};
}

TEST(RefinementTest, MeanSubtractionReducesSubtreeSumVariance) {
  for (std::size_t group = 0; group < 4; ++group) {
    const RefinementEffect effect = MeasureSubtreeSumVariance(group);
    // Lemma 5's proof relies on refined sibling groups summing to zero;
    // without it, each sibling's share of the group's noise leaks into
    // every subtree sum. Expect a strict, sizable reduction.
    EXPECT_LT(effect.with_refine, 0.8 * effect.without_refine)
        << "group " << group;
  }
}

TEST(RefinementTest, RefinedSubtreeVarianceRespectsLemma5) {
  // With per-coefficient noise variance (sigma/W)^2 where sigma^2 = 2
  // (Laplace magnitude 1/W), Lemma 5 bounds the refined subtree-sum
  // variance by 4*sigma^2 = 8.
  for (std::size_t group = 0; group < 4; ++group) {
    const RefinementEffect effect = MeasureSubtreeSumVariance(group);
    EXPECT_LT(effect.with_refine, 8.0 * 1.3) << "group " << group;
  }
}

TEST(RefinementTest, RefineCommutesWithExactReconstruction) {
  // On exact coefficients Refine is a no-op, so reconstruction must be
  // unchanged; on noisy coefficients Refine must not move the base
  // coefficient (the total).
  auto hierarchy = WideHierarchy();
  NominalTransform transform(hierarchy);
  rng::Xoshiro256pp gen(9);
  std::vector<double> data(transform.input_size());
  for (auto& v : data) {
    v = static_cast<double>(gen.NextUint64InRange(0, 50));
  }
  std::vector<double> coeffs(transform.coefficient_count());
  transform.Forward(data.data(), coeffs.data());
  std::vector<double> refined = coeffs;
  transform.Refine(refined.data());
  std::vector<double> a(transform.input_size()), b(transform.input_size());
  transform.Inverse(coeffs.data(), a.data());
  transform.Inverse(refined.data(), b.data());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

}  // namespace
}  // namespace privelet::wavelet
