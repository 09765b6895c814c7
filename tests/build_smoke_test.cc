// Build-health smoke test (ctest label: smoke). Includes the public
// umbrella header and runs the whole pipeline — schema -> table ->
// frequency matrix -> Privelet publish -> query — so that any public
// header or link breakage fails fast, before the full suite runs.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "privelet/privelet.h"

namespace privelet {
namespace {

TEST(BuildSmokeTest, UmbrellaHeaderPipelineEndToEnd) {
  // Schema: one ordinal and one nominal attribute.
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Age", 16));
  attrs.push_back(
      data::Attribute::Nominal("Flag", data::Hierarchy::Flat(2).value()));
  const data::Schema schema(std::move(attrs));

  data::Table table(schema);
  rng::Xoshiro256pp gen(7);
  for (int i = 0; i < 512; ++i) {
    const auto age =
        static_cast<std::uint32_t>(gen.NextUint64InRange(0, 15));
    const std::uint32_t flag = rng::SampleBernoulli(gen, 0.5) ? 1 : 0;
    ASSERT_TRUE(table.AppendRow({age, flag}).ok());
  }

  const auto m = matrix::FrequencyMatrix::FromTable(table);
  EXPECT_EQ(m.size(), 32u);
  EXPECT_DOUBLE_EQ(m.Total(), 512.0);

  const mechanism::PriveletMechanism mech;
  auto noisy = mech.Publish(schema, m, /*epsilon=*/1.0, /*seed=*/1);
  ASSERT_TRUE(noisy.ok()) << noisy.status().ToString();
  EXPECT_EQ(noisy->size(), m.size());

  // A range-count query answered from the noisy output must land within
  // the mechanism's (generous) worst-case noise envelope.
  query::RangeQuery q(schema.num_attributes());
  ASSERT_TRUE(q.SetRange(schema, 0, 0, 7).ok());
  const double truth =
      query::PublishingSession::FromMatrix(schema, m)->Answer(q);
  const double answer =
      query::PublishingSession::FromMatrix(schema, *noisy)->Answer(q);
  const double bound = mech.NoiseVarianceBound(schema, 1.0).value();
  EXPECT_NEAR(answer, truth, 20.0 * std::sqrt(bound));
}

}  // namespace
}  // namespace privelet
