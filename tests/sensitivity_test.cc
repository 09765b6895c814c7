// Property tests for the paper's sensitivity lemmas using the empirical
// probe: Lemma 2 (Haar: 1 + log2 m), Lemma 4 (nominal: h), Theorem 2
// (HN: product of P factors), and the identity transform's factor of 1.
// For these transforms the per-entry coefficient change is
// data-independent, so the probe must match theory to rounding error.
#include <gtest/gtest.h>

#include <vector>

#include "privelet/data/attribute.h"
#include "privelet/data/schema.h"
#include "privelet/wavelet/hn_transform.h"
#include "reference/sensitivity_probe.h"

namespace privelet::analysis {
namespace {

data::Schema OrdinalSchema(std::size_t domain) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", domain));
  return data::Schema(std::move(attrs));
}

data::Schema NominalSchema(std::vector<std::size_t> fanouts) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Nominal(
      "N", data::Hierarchy::Balanced(fanouts).value()));
  return data::Schema(std::move(attrs));
}

double Probe(const data::Schema& schema,
             const std::vector<std::size_t>& identity_axes = {}) {
  auto transform = wavelet::HnTransform::Create(schema, identity_axes);
  EXPECT_TRUE(transform.ok());
  auto probe = ProbeGeneralizedSensitivity(*transform, {});
  EXPECT_TRUE(probe.ok());
  return probe.value();
}

// Lemma 2: Haar's generalized sensitivity is exactly 1 + log2(m).
class HaarSensitivityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HaarSensitivityTest, MatchesLemma2) {
  const std::size_t m = GetParam();  // power of two
  const data::Schema schema = OrdinalSchema(m);
  auto transform = wavelet::HnTransform::Create(schema);
  ASSERT_TRUE(transform.ok());
  const double theory = transform->GeneralizedSensitivity();
  EXPECT_NEAR(Probe(schema), theory, 1e-9 * theory);
}

INSTANTIATE_TEST_SUITE_P(PowerOfTwo, HaarSensitivityTest,
                         ::testing::Values(2, 4, 8, 16, 64, 256));

// Lemma 4: the nominal transform's generalized sensitivity is exactly h.
TEST(NominalSensitivityTest, MatchesLemma4Height2) {
  EXPECT_NEAR(Probe(NominalSchema({5})), 2.0, 1e-9);
}

TEST(NominalSensitivityTest, MatchesLemma4Height3) {
  EXPECT_NEAR(Probe(NominalSchema({2, 3})), 3.0, 1e-9);
}

TEST(NominalSensitivityTest, MatchesLemma4Height4) {
  EXPECT_NEAR(Probe(NominalSchema({2, 2, 4})), 4.0, 1e-9);
}

TEST(NominalSensitivityTest, MatchesLemma4UnevenGroups) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Nominal(
      "N", data::Hierarchy::FromGroupSizes({2, 7, 3}).value()));
  const data::Schema schema(std::move(attrs));
  EXPECT_NEAR(Probe(schema), 3.0, 1e-9);
}

TEST(IdentitySensitivityTest, IsOne) {
  const data::Schema schema = OrdinalSchema(17);
  EXPECT_NEAR(Probe(schema, {0}), 1.0, 1e-12);
}

// Theorem 2: the HN transform's generalized sensitivity is the product of
// the per-axis P factors.
TEST(HnSensitivityTest, ProductOverMixedAxes) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("O", 8));             // P = 4
  attrs.push_back(data::Attribute::Nominal(
      "N", data::Hierarchy::Balanced({2, 3}).value()));          // P = 3
  const data::Schema schema(std::move(attrs));
  EXPECT_NEAR(Probe(schema), 12.0, 1e-8);
}

TEST(HnSensitivityTest, ProductWithIdentityAxis) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("O", 8));             // identity: P = 1
  attrs.push_back(data::Attribute::Nominal(
      "N", data::Hierarchy::Balanced({2, 2}).value()));          // P = 3
  const data::Schema schema(std::move(attrs));
  EXPECT_NEAR(Probe(schema, {0}), 3.0, 1e-8);
}

TEST(HnSensitivityTest, ThreeAxes) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("O1", 4));            // P = 3
  attrs.push_back(data::Attribute::Ordinal("O2", 2));            // P = 2
  attrs.push_back(data::Attribute::Nominal(
      "N", data::Hierarchy::Flat(5).value()));                   // P = 2
  const data::Schema schema(std::move(attrs));
  EXPECT_NEAR(Probe(schema), 12.0, 1e-8);
}

// Padding caveat: for non-power-of-two ordinal domains the probe can only
// reach entries inside the real domain; the theoretical bound (computed on
// the padded tree) still dominates.
TEST(HaarSensitivityTest, PaddedDomainIsUpperBound) {
  const data::Schema schema = OrdinalSchema(100);  // pads to 128, P = 8
  auto transform = wavelet::HnTransform::Create(schema);
  ASSERT_TRUE(transform.ok());
  const double probed = Probe(schema);
  EXPECT_LE(probed, transform->GeneralizedSensitivity() + 1e-9);
  // Every real entry still touches the base + all 7 tree levels.
  EXPECT_NEAR(probed, 8.0, 1e-9);
}

TEST(ProbeTest, RejectsNonPositiveDelta) {
  const data::Schema schema = OrdinalSchema(4);
  auto transform = wavelet::HnTransform::Create(schema);
  ASSERT_TRUE(transform.ok());
  SensitivityProbeOptions options;
  options.delta = 0.0;
  EXPECT_FALSE(ProbeGeneralizedSensitivity(*transform, options).ok());
}

}  // namespace
}  // namespace privelet::analysis
