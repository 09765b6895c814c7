// Tests for the multi-dimensional Haar-nominal transform (paper Sec. VI):
// the Fig. 4 worked example, round-trips over random mixed schemas,
// linearity (Proposition 1), weight tensor products, the P/H factor
// bookkeeping, and the recycling Inverse(HnCoefficients&&).
//
// Note on Fig. 4 / Example 5: the paper's Example 5 misstates the axis
// kinds ("both dimensions ... are nominal") and quotes a base weight of
// 1/2, which contradicts the formal definition WHaar(base) = m of
// Sec. IV-B (and Lemma 2, which the privacy proof relies on). We test
// against the formal definitions: for Fig. 4, WHN(c11) = 2 * 2 = 4.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/schema.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/simd/dispatch.h"
#include "privelet/wavelet/hn_transform.h"
#include "scoped_isa.h"

namespace privelet::wavelet {
namespace {

data::Schema Fig4Schema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A1", 2));
  attrs.push_back(data::Attribute::Ordinal("A2", 2));
  return data::Schema(std::move(attrs));
}

matrix::FrequencyMatrix Fig4Matrix() {
  matrix::FrequencyMatrix m({2, 2});
  m.At(std::array<std::size_t, 2>{0, 0}) = 8.0;  // v11
  m.At(std::array<std::size_t, 2>{0, 1}) = 4.0;  // v12
  m.At(std::array<std::size_t, 2>{1, 0}) = 1.0;  // v21
  m.At(std::array<std::size_t, 2>{1, 1}) = 5.0;  // v22
  return m;
}

TEST(HnTransformTest, PaperFigure4FinalCoefficients) {
  const data::Schema schema = Fig4Schema();
  auto transform = HnTransform::Create(schema);
  ASSERT_TRUE(transform.ok());
  auto coeffs = transform->Forward(Fig4Matrix());
  ASSERT_TRUE(coeffs.ok());
  const auto& c = coeffs->coeffs;
  // C2 of Fig. 4: [[4.5, 0], [1.5, 2]]. (Standard decomposition commutes,
  // so the axis order does not change the final matrix.)
  EXPECT_DOUBLE_EQ(c.At(std::array<std::size_t, 2>{0, 0}), 4.5);
  EXPECT_DOUBLE_EQ(c.At(std::array<std::size_t, 2>{0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(c.At(std::array<std::size_t, 2>{1, 0}), 1.5);
  EXPECT_DOUBLE_EQ(c.At(std::array<std::size_t, 2>{1, 1}), 2.0);
}

TEST(HnTransformTest, Fig4WeightsAreTensorProducts) {
  const data::Schema schema = Fig4Schema();
  auto transform = HnTransform::Create(schema);
  ASSERT_TRUE(transform.ok());
  auto coeffs = transform->Forward(Fig4Matrix());
  ASSERT_TRUE(coeffs.ok());
  // Per the formal WHaar (base weight = m = 2; level-1 weight = 2):
  // every coefficient of the 2x2 transform has WHN = 2 * 2 = 4.
  for (std::size_t flat = 0; flat < 4; ++flat) {
    EXPECT_DOUBLE_EQ(coeffs->WeightAt(flat), 4.0);
  }
}

TEST(HnTransformTest, Fig4RoundTrip) {
  const data::Schema schema = Fig4Schema();
  auto transform = HnTransform::Create(schema);
  ASSERT_TRUE(transform.ok());
  const matrix::FrequencyMatrix m = Fig4Matrix();
  auto coeffs = transform->Forward(m);
  ASSERT_TRUE(coeffs.ok());
  auto back = transform->Inverse(*coeffs);
  ASSERT_TRUE(back.ok());
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR((*back)[i], m[i], 1e-9);
  }
}

data::Schema MixedSchema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Ord5", 5));
  attrs.push_back(data::Attribute::Nominal(
      "Nom6", data::Hierarchy::Balanced({2, 3}).value()));
  attrs.push_back(data::Attribute::Ordinal("Ord4", 4));
  return data::Schema(std::move(attrs));
}

TEST(HnTransformTest, OutputDimsReflectCoefficientCounts) {
  auto transform = HnTransform::Create(MixedSchema());
  ASSERT_TRUE(transform.ok());
  // Ord5 pads to 8; Nom6 over-completes to 9 nodes; Ord4 stays 4.
  EXPECT_EQ(transform->output_dims(),
            (std::vector<std::size_t>{8, 9, 4}));
  EXPECT_EQ(transform->input_dims(), (std::vector<std::size_t>{5, 6, 4}));
}

TEST(HnTransformTest, RejectsMismatchedDims) {
  auto transform = HnTransform::Create(MixedSchema());
  ASSERT_TRUE(transform.ok());
  matrix::FrequencyMatrix wrong({5, 6, 5});
  EXPECT_FALSE(transform->Forward(wrong).ok());
}

TEST(HnTransformTest, IdentityAxesSkipTransforms) {
  auto transform = HnTransform::Create(MixedSchema(), {0, 2});
  ASSERT_TRUE(transform.ok());
  EXPECT_EQ(transform->axis_transform(0).name(), "identity");
  EXPECT_EQ(transform->axis_transform(1).name(), "nominal");
  EXPECT_EQ(transform->axis_transform(2).name(), "identity");
  EXPECT_EQ(transform->output_dims(), (std::vector<std::size_t>{5, 9, 4}));
  // rho = P(Nom6) = h = 3; identity axes contribute 1.
  EXPECT_DOUBLE_EQ(transform->GeneralizedSensitivity(), 3.0);
  // Variance factor = 5 * 4 * 4 (identity |A| * nominal 4 * identity |A|).
  EXPECT_DOUBLE_EQ(transform->VarianceBoundFactor(), 80.0);
}

TEST(HnTransformTest, AllIdentityDegeneratesToCopy) {
  auto transform = HnTransform::Create(MixedSchema(), {0, 1, 2});
  ASSERT_TRUE(transform.ok());
  matrix::FrequencyMatrix m({5, 6, 4});
  rng::Xoshiro256pp gen(4);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 9));
  }
  auto coeffs = transform->Forward(m);
  ASSERT_TRUE(coeffs.ok());
  EXPECT_TRUE(matrix::ValuesEqual(coeffs->coeffs.values(), m.values()));
  EXPECT_DOUBLE_EQ(coeffs->WeightAt(0), 1.0);
  EXPECT_DOUBLE_EQ(transform->GeneralizedSensitivity(), 1.0);
  EXPECT_DOUBLE_EQ(transform->VarianceBoundFactor(),
                   static_cast<double>(m.size()));
}

TEST(HnTransformTest, GeneralizedSensitivityIsProductOfPFactors) {
  auto transform = HnTransform::Create(MixedSchema());
  ASSERT_TRUE(transform.ok());
  // P(Ord5 padded to 8) = 4; P(Nom6) = 3; P(Ord4) = 3.
  EXPECT_DOUBLE_EQ(transform->GeneralizedSensitivity(), 4.0 * 3.0 * 3.0);
  // H: (2+3)/2 = 2.5; 4; (2+2)/2 = 2.
  EXPECT_DOUBLE_EQ(transform->VarianceBoundFactor(), 2.5 * 4.0 * 2.0);
}

TEST(HnTransformTest, ForEachCoefficientMatchesWeightAt) {
  // ForEachCoefficient, WeightAt and LineWeights times the last axis's
  // weight (the fused noise's per-line form) fold the same product.
  auto transform = HnTransform::Create(MixedSchema());
  ASSERT_TRUE(transform.ok());
  matrix::FrequencyMatrix m({5, 6, 4});
  auto coeffs = transform->Forward(m);
  ASSERT_TRUE(coeffs.ok());
  const std::size_t line_len = coeffs->coeffs.dims().back();
  const std::vector<double>& last = *coeffs->axis_weights.back();
  const LineWeights line_weight = coeffs->line_weights();
  std::size_t visited = 0;
  coeffs->ForEachCoefficient([&](std::size_t flat, double weight) {
    EXPECT_EQ(weight, coeffs->WeightAt(flat));
    EXPECT_EQ(weight, line_weight(flat / line_len) * last[flat % line_len]);
    EXPECT_EQ(flat, visited);
    ++visited;
  });
  EXPECT_EQ(visited, coeffs->coeffs.size());
}

TEST(HnTransformTest, LinearityProposition1) {
  // Proposition 1: M + M' = M'' implies Md + M'd = M''d.
  auto transform = HnTransform::Create(MixedSchema());
  ASSERT_TRUE(transform.ok());
  rng::Xoshiro256pp gen(8);
  matrix::FrequencyMatrix a({5, 6, 4}), b({5, 6, 4}), sum({5, 6, 4});
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<double>(gen.NextUint64InRange(0, 9));
    b[i] = static_cast<double>(gen.NextUint64InRange(0, 9));
    sum[i] = a[i] + b[i];
  }
  auto ta = transform->Forward(a);
  auto tb = transform->Forward(b);
  auto tsum = transform->Forward(sum);
  ASSERT_TRUE(ta.ok() && tb.ok() && tsum.ok());
  for (std::size_t i = 0; i < tsum->coeffs.size(); ++i) {
    EXPECT_NEAR(tsum->coeffs[i], ta->coeffs[i] + tb->coeffs[i], 1e-9);
  }
}

// Round-trip property over random schemas mixing ordinal, nominal, and
// identity axes.
class HnRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HnRoundTripTest, InverseRecoversInput) {
  rng::Xoshiro256pp gen(GetParam());
  const std::size_t d = gen.NextUint64InRange(1, 4);
  std::vector<data::Attribute> attrs;
  std::vector<std::size_t> identity_axes;
  for (std::size_t a = 0; a < d; ++a) {
    const std::uint64_t kind = gen.NextUint64InRange(0, 2);
    // Built via += : `"A" + std::to_string(a)` trips GCC 12's -Wrestrict
    // false positive (PR 105651) under -O2.
    std::string name = "A";
    name += std::to_string(a);
    if (kind == 0) {
      attrs.push_back(
          data::Attribute::Ordinal(name, gen.NextUint64InRange(1, 9)));
    } else {
      const std::size_t f1 = gen.NextUint64InRange(2, 3);
      const std::size_t f2 = gen.NextUint64InRange(2, 3);
      attrs.push_back(data::Attribute::Nominal(
          name, data::Hierarchy::Balanced({f1, f2}).value()));
    }
    if (gen.NextUint64InRange(0, 3) == 0) identity_axes.push_back(a);
  }
  const data::Schema schema(std::move(attrs));
  auto transform = HnTransform::Create(schema, identity_axes);
  ASSERT_TRUE(transform.ok());

  matrix::FrequencyMatrix m(schema.DomainSizes());
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 20));
  }
  auto coeffs = transform->Forward(m);
  ASSERT_TRUE(coeffs.ok());
  auto back = transform->Inverse(*coeffs);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->dims(), m.dims());
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR((*back)[i], m[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HnRoundTripTest,
                         ::testing::Range<std::uint64_t>(0, 24));

// Inverse(HnCoefficients&&) writes its passes into the forward's working
// matrices; it must release exactly the bytes of Inverse(const&), which
// recycles nothing. A position-keyed perturbation rides the first pass
// like the mechanisms' fused noise, so recycling under the hook is
// covered too.
std::vector<simd::IsaLevel> HostLevels() {
  std::vector<simd::IsaLevel> levels;
  for (int l = 0; l <= static_cast<int>(simd::DetectBestIsa()); ++l) {
    levels.push_back(static_cast<simd::IsaLevel>(l));
  }
  return levels;
}

void ExpectRecyclingInverseMatches(std::vector<data::Attribute> attrs,
                                   const std::vector<std::size_t>& identity) {
  const data::Schema schema(std::move(attrs));
  auto transform = HnTransform::Create(schema, identity);
  ASSERT_TRUE(transform.ok());
  matrix::FrequencyMatrix m(schema.DomainSizes());
  rng::Xoshiro256pp gen(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 30));
  }
  const PanelNoiseFactory noise = [] {
    return [](std::size_t begin, std::size_t end, double* values) {
      for (std::size_t i = begin; i < end; ++i) {
        values[i - begin] += 1.0 / static_cast<double>(i + 1);
      }
    };
  };
  common::ThreadPool four(4);
  for (common::ThreadPool* pool : {static_cast<common::ThreadPool*>(nullptr),
                                   &four}) {
    for (const simd::IsaLevel level : HostLevels()) {
      const testutil::ScopedIsa forced(level);
      const std::string where = std::string(simd::IsaLevelName(level)) +
                                (pool != nullptr ? ", 4 threads" : ", serial");
      auto coeffs = transform->Forward(m, pool);
      ASSERT_TRUE(coeffs.ok()) << where;
      auto kept = transform->Inverse(*coeffs, pool, noise);
      auto recycled = transform->Inverse(std::move(*coeffs), pool, noise);
      ASSERT_TRUE(kept.ok() && recycled.ok()) << where;
      ASSERT_EQ(kept->dims(), m.dims()) << where;
      ASSERT_EQ(recycled->dims(), m.dims()) << where;
      EXPECT_EQ(0, std::memcmp(kept->values().data(),
                               recycled->values().data(),
                               m.size() * sizeof(double)))
          << where;
    }
  }
}

TEST(HnRecyclingTest, PowerOfTwoHaarMatchesConstInverse) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 64));
  attrs.push_back(data::Attribute::Ordinal("B", 64));
  ExpectRecyclingInverseMatches(std::move(attrs), {});
}

TEST(HnRecyclingTest, PaddedHaarMatchesConstInverse) {
  // 100 x 60 pads to 128 x 64: every pass changes the cell count.
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 100));
  attrs.push_back(data::Attribute::Ordinal("B", 60));
  ExpectRecyclingInverseMatches(std::move(attrs), {});
}

TEST(HnRecyclingTest, GrowingNominalAndHaarMatchesConstInverse) {
  // Forward grows the matrix on every pass (10 -> 16, 12 -> 17 nodes,
  // 24 -> 32), so the third pass finds no dead buffer large enough.
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 10));
  attrs.push_back(data::Attribute::Nominal(
      "N", data::Hierarchy::Balanced({3, 4}).value()));
  attrs.push_back(data::Attribute::Ordinal("B", 24));
  ExpectRecyclingInverseMatches(std::move(attrs), {});
}

TEST(HnRecyclingTest, PriveletPlusIdentityAxisMatchesConstInverse) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("SA", 40));
  attrs.push_back(data::Attribute::Nominal(
      "N", data::Hierarchy::Balanced({2, 3}).value()));
  attrs.push_back(data::Attribute::Ordinal("B", 20));
  ExpectRecyclingInverseMatches(std::move(attrs), {0});
}

TEST(HnRecyclingTest, OneDimensionalMatchesConstInverse) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 1000));
  ExpectRecyclingInverseMatches(std::move(attrs), {});
}

TEST(HnRecyclingTest, ReleaseLandsInOneOfTheForwardBuffers) {
  // Powers of two keep every pass the same size: Forward leaves its two
  // working matrices in coeffs and workspace, and every inverse pass
  // writes into one of them. In 3-D the release lands in the workspace,
  // so an inverse that ignored it would release a third buffer.
  for (const std::vector<std::size_t>& dims :
       {std::vector<std::size_t>{64, 128},
        std::vector<std::size_t>{16, 8, 32}}) {
    std::vector<data::Attribute> attrs;
    for (const std::size_t n : dims) {
      std::string name = "A";
      name += std::to_string(attrs.size());
      attrs.push_back(data::Attribute::Ordinal(name, n));
    }
    const data::Schema schema(std::move(attrs));
    auto transform = HnTransform::Create(schema);
    ASSERT_TRUE(transform.ok());
    matrix::FrequencyMatrix m(dims);
    m[5] = 3.0;
    auto coeffs = transform->Forward(m);
    ASSERT_TRUE(coeffs.ok());
    const double* forward_out = coeffs->coeffs.values().data();
    const double* forward_idle = coeffs->workspace.values().data();
    ASSERT_NE(forward_idle, nullptr);
    ASSERT_NE(forward_out, forward_idle);
    auto back = transform->Inverse(std::move(*coeffs));
    ASSERT_TRUE(back.ok());
    const double* release = back->values().data();
    EXPECT_TRUE(release == forward_out || release == forward_idle)
        << dims.size() << "-D";
    EXPECT_EQ(back->capacity(), back->size());
    EXPECT_DOUBLE_EQ((*back)[5], 3.0);
  }
}

}  // namespace
}  // namespace privelet::wavelet
