// Tests for the data-cube operations (marginal projection and nominal
// roll-up) and a golden determinism regression pinning the full
// mechanism pipeline byte for byte.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "privelet/data/attribute.h"
#include "privelet/matrix/data_cube.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/evaluator.h"
#include "privelet/query/range_query.h"
#include "privelet/rng/xoshiro256pp.h"

namespace privelet::matrix {
namespace {

data::Schema CubeSchema() {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("X", 4));
  attrs.push_back(data::Attribute::Nominal(
      "G", data::Hierarchy::Balanced({2, 3}).value()));
  attrs.push_back(data::Attribute::Ordinal("Z", 2));
  return data::Schema(std::move(attrs));
}

FrequencyMatrix RandomCube(const data::Schema& schema, std::uint64_t seed) {
  FrequencyMatrix m(schema.DomainSizes());
  rng::Xoshiro256pp gen(seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(gen.NextUint64InRange(0, 9));
  }
  return m;
}

TEST(ProjectMarginalTest, SingleAxisMatchesRangeQueries) {
  const data::Schema schema = CubeSchema();
  const FrequencyMatrix m = RandomCube(schema, 1);
  auto marginal = ProjectMarginal(m, {1});
  ASSERT_TRUE(marginal.ok());
  ASSERT_EQ(marginal->dims(), (std::vector<std::size_t>{6}));

  query::QueryEvaluator eval(schema, m);
  for (std::size_t v = 0; v < 6; ++v) {
    query::RangeQuery q(3);
    ASSERT_TRUE(q.SetRange(schema, 1, v, v).ok());
    EXPECT_NEAR((*marginal)[v], eval.Answer(q), 1e-9);
  }
}

TEST(ProjectMarginalTest, TwoAxesPreserveTotalsAndOrder) {
  const data::Schema schema = CubeSchema();
  const FrequencyMatrix m = RandomCube(schema, 2);
  auto marginal = ProjectMarginal(m, {0, 2});
  ASSERT_TRUE(marginal.ok());
  ASSERT_EQ(marginal->dims(), (std::vector<std::size_t>{4, 2}));
  EXPECT_NEAR(marginal->Total(), m.Total(), 1e-9);
  // Check one cell against brute force.
  double expected = 0.0;
  for (std::size_t g = 0; g < 6; ++g) {
    expected += m.At(std::array<std::size_t, 3>{2, g, 1});
  }
  EXPECT_NEAR(marginal->At(std::array<std::size_t, 2>{2, 1}), expected,
              1e-9);
}

TEST(ProjectMarginalTest, ProjectionsCommute) {
  // Projecting to {0,1} then {0} equals projecting straight to {0}.
  const data::Schema schema = CubeSchema();
  const FrequencyMatrix m = RandomCube(schema, 3);
  auto two = ProjectMarginal(m, {0, 1});
  ASSERT_TRUE(two.ok());
  auto via_two = ProjectMarginal(*two, {0});
  auto direct = ProjectMarginal(m, {0});
  ASSERT_TRUE(via_two.ok() && direct.ok());
  for (std::size_t i = 0; i < direct->size(); ++i) {
    EXPECT_NEAR((*via_two)[i], (*direct)[i], 1e-9);
  }
}

TEST(ProjectMarginalTest, ValidatesAxes) {
  const FrequencyMatrix m({2, 3});
  EXPECT_FALSE(ProjectMarginal(m, {}).ok());
  EXPECT_FALSE(ProjectMarginal(m, {2}).ok());
  EXPECT_FALSE(ProjectMarginal(m, {1, 0}).ok());
  EXPECT_FALSE(ProjectMarginal(m, {0, 0}).ok());
}

TEST(RollUpTest, ToGroupLevelSumsSubtrees) {
  const data::Schema schema = CubeSchema();
  const FrequencyMatrix m = RandomCube(schema, 4);
  auto rolled = RollUpNominalAxis(m, schema, 1, 2);
  ASSERT_TRUE(rolled.ok());
  ASSERT_EQ(rolled->dims(), (std::vector<std::size_t>{4, 2, 2}));
  // Group 0 covers leaves 0..2, group 1 covers 3..5.
  for (std::size_t x = 0; x < 4; ++x) {
    for (std::size_t z = 0; z < 2; ++z) {
      double g0 = 0.0, g1 = 0.0;
      for (std::size_t leaf = 0; leaf < 3; ++leaf) {
        g0 += m.At(std::array<std::size_t, 3>{x, leaf, z});
        g1 += m.At(std::array<std::size_t, 3>{x, leaf + 3, z});
      }
      EXPECT_NEAR(rolled->At(std::array<std::size_t, 3>{x, 0, z}), g0, 1e-9);
      EXPECT_NEAR(rolled->At(std::array<std::size_t, 3>{x, 1, z}), g1, 1e-9);
    }
  }
}

TEST(RollUpTest, RootLevelCollapsesAxis) {
  const data::Schema schema = CubeSchema();
  const FrequencyMatrix m = RandomCube(schema, 5);
  auto rolled = RollUpNominalAxis(m, schema, 1, 1);
  ASSERT_TRUE(rolled.ok());
  EXPECT_EQ(rolled->dim(1), 1u);
  EXPECT_NEAR(rolled->Total(), m.Total(), 1e-9);
}

TEST(RollUpTest, LeafLevelIsIdentity) {
  const data::Schema schema = CubeSchema();
  const FrequencyMatrix m = RandomCube(schema, 6);
  auto rolled = RollUpNominalAxis(m, schema, 1, 3);
  ASSERT_TRUE(rolled.ok());
  EXPECT_TRUE(matrix::ValuesEqual(rolled->values(), m.values()));
}

TEST(RollUpTest, Validates) {
  const data::Schema schema = CubeSchema();
  const FrequencyMatrix m = RandomCube(schema, 7);
  EXPECT_FALSE(RollUpNominalAxis(m, schema, 0, 1).ok());  // ordinal axis
  EXPECT_FALSE(RollUpNominalAxis(m, schema, 9, 1).ok());  // bad axis
  EXPECT_FALSE(RollUpNominalAxis(m, schema, 1, 0).ok());  // bad level
  EXPECT_FALSE(RollUpNominalAxis(m, schema, 1, 4).ok());  // bad level
}

TEST(RollUpTest, CommutesWithPublishQueries) {
  // Rolling up the published matrix and querying a group equals the
  // subtree range query on the published matrix (both are linear in the
  // same noisy cells).
  const data::Schema schema = CubeSchema();
  const FrequencyMatrix m = RandomCube(schema, 8);
  mechanism::PriveletMechanism privelet;
  auto noisy = privelet.Publish(schema, m, 1.0, 3);
  ASSERT_TRUE(noisy.ok());
  auto rolled = RollUpNominalAxis(*noisy, schema, 1, 2);
  ASSERT_TRUE(rolled.ok());

  const data::Hierarchy& h = schema.attribute(1).hierarchy();
  query::QueryEvaluator eval(schema, *noisy);
  for (std::size_t g = 0; g < 2; ++g) {
    query::RangeQuery q(3);
    ASSERT_TRUE(q.SetHierarchyNode(schema, 1, h.NodesAtLevel(2)[g]).ok());
    double rolled_sum = 0.0;
    for (std::size_t x = 0; x < 4; ++x) {
      for (std::size_t z = 0; z < 2; ++z) {
        rolled_sum += rolled->At(std::array<std::size_t, 3>{x, g, z});
      }
    }
    EXPECT_NEAR(rolled_sum, eval.Answer(q), 1e-6);
  }
}

// Baseline re-recorded when the noise moved to the counter-based ChaCha20
// stream with the project's own Log (identical at every ISA level);
// re-record consciously if the pipeline's deterministic behaviour is
// intentionally changed.
double GoldenChecksum() { return 2801.6155818910452; }

TEST(GoldenRegressionTest, PublishIsStableAcrossRefactors) {
  // Pins the full deterministic pipeline (generator seeding, transform
  // order, noise stream consumption). If this test fails after a
  // refactor, published releases are no longer reproducible from seeds —
  // either fix the regression or consciously re-baseline.
  const data::Schema schema = CubeSchema();
  FrequencyMatrix m(schema.DomainSizes());
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(i % 7);
  }
  mechanism::PriveletMechanism privelet;
  auto noisy = privelet.Publish(schema, m, 1.0, 2010);
  ASSERT_TRUE(noisy.ok());
  double checksum = 0.0;
  for (std::size_t i = 0; i < noisy->size(); ++i) {
    checksum += (*noisy)[i] * static_cast<double>(i + 1);
  }
  EXPECT_NEAR(checksum, GoldenChecksum(), 1e-6);
}

// FNV-1a 64 of the bytes of the release above, recorded with it.
std::uint64_t GoldenReleaseHash() { return 0x9b0073cf7632489eULL; }

TEST(GoldenRegressionTest, ReleaseBytesAreStable) {
  // The checksum above tolerates 1e-6, so a build that rounds one step
  // differently (say, one that contracts a * b + c into an FMA) still
  // passes it. The hash pins every bit of the same release.
  const data::Schema schema = CubeSchema();
  FrequencyMatrix m(schema.DomainSizes());
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = static_cast<double>(i % 7);
  }
  mechanism::PriveletMechanism privelet;
  auto noisy = privelet.Publish(schema, m, 1.0, 2010);
  ASSERT_TRUE(noisy.ok());
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double v : noisy->values()) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (const unsigned char b : bytes) {
      hash = (hash ^ b) * 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(hash, GoldenReleaseHash()) << std::hex << hash;
}

}  // namespace
}  // namespace privelet::matrix
