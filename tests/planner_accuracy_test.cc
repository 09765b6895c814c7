// Statistical validation of the workload-adaptive mechanism planner
// (analysis/mechanism_planner.h): every closed-form per-query variance
// model — Basic, Privelet/Privelet+, Hay, Fourier — is checked against
// the empirical squared error of the mechanism it models, publishing the
// zero table with fixed seeds so every answer is pure noise. Workload
// shapes mirror the paper's fig. 6-9 sweeps (short ranges, long ranges,
// point queries, the full count, mixed random workloads). Tolerances come
// from statistical_test_util.h (4-sigma bands on the sample variance), so
// the suite is deterministic and CI-safe.
//
// Beyond per-model accuracy, the planner's *decision* is validated: the
// chosen mechanism's empirical error is never worse than the best
// alternative's by more than the statistical margin, and the recorded
// PlanRecord round-trips through the snapshot's plan section (save,
// load, map, inspect).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "statistical_test_util.h"

#include "privelet/analysis/mechanism_planner.h"
#include "privelet/analysis/query_variance.h"
#include "privelet/common/math_util.h"
#include "privelet/data/attribute.h"
#include "privelet/data/schema.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/basic.h"
#include "privelet/mechanism/fourier_marginals.h"
#include "privelet/mechanism/hay.h"
#include "privelet/mechanism/mechanism.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/plan_record.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/range_query.h"
#include "privelet/query/workload.h"
#include "privelet/storage/session_io.h"
#include "privelet/storage/snapshot.h"

namespace privelet {
namespace {

using testutil::ExpectCenteredNoiseWithVariance;
using testutil::VarianceTolerance;

data::Schema OneDimSchema(std::size_t domain) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", domain));
  return data::Schema(std::move(attrs));
}

query::RangeQuery MakeRange1D(const data::Schema& schema, std::size_t lo,
                              std::size_t hi) {
  query::RangeQuery q(1);
  EXPECT_TRUE(q.SetRange(schema, 0, lo, hi).ok());
  return q;
}

// Fig. 6-9-style 1-D workload over [0, domain): the full count plus
// short, long, and point ranges across the domain.
std::vector<query::RangeQuery> OneDimShapes(const data::Schema& schema,
                                            std::size_t domain) {
  std::vector<query::RangeQuery> queries;
  queries.emplace_back(1);  // full count
  queries.push_back(MakeRange1D(schema, 0, domain / 8));          // short, left
  queries.push_back(MakeRange1D(schema, domain / 2,
                                domain / 2 + domain / 16));       // short, mid
  queries.push_back(MakeRange1D(schema, 1, domain - 2));          // long
  queries.push_back(MakeRange1D(schema, domain / 4,
                                (3 * domain) / 4));               // half
  queries.push_back(MakeRange1D(schema, domain / 3, domain / 3)); // point
  return queries;
}

// Publishes the zero table `trials` times and collects each query's
// answers — pure noise, one sample vector per query.
std::vector<std::vector<double>> EmpiricalNoise(
    const data::Schema& schema, const mechanism::Mechanism& mech,
    const std::vector<query::RangeQuery>& queries, double epsilon,
    std::size_t trials) {
  const matrix::FrequencyMatrix zeros(schema.DomainSizes());
  std::vector<std::vector<double>> noise(queries.size());
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    auto release =
        query::PublishingSession::Publish(schema, mech, zeros, epsilon, seed);
    EXPECT_TRUE(release.ok()) << release.status().ToString();
    if (!release.ok()) return noise;
    const std::vector<double> answers = release->AnswerAll(queries);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      noise[q].push_back(answers[q]);
    }
  }
  return noise;
}

// Mean empirical squared error over the whole workload (the quantity the
// planner's expected_variance predicts; answers are centered).
double MeanSquaredError(const std::vector<std::vector<double>>& noise) {
  double total = 0.0;
  std::size_t count = 0;
  for (const std::vector<double>& samples : noise) {
    for (const double x : samples) total += x * x;
    count += samples.size();
  }
  return total / static_cast<double>(count);
}

// The mechanism behind a publishable planner candidate (mirrors the CLI's
// --auto-plan dispatch).
std::unique_ptr<mechanism::Mechanism> MechanismFor(
    const analysis::MechanismCandidate& candidate) {
  if (candidate.id == "basic") {
    return std::make_unique<mechanism::BasicMechanism>();
  }
  if (candidate.id == "hay") {
    return std::make_unique<mechanism::HayHierarchicalMechanism>();
  }
  return std::make_unique<mechanism::PriveletPlusMechanism>(
      candidate.sa_names);
}

TEST(PlannerAccuracyTest, BasicPredictionMatchesEmpiricalError) {
  // 2-D 16x8: per-query variance must be exactly 8/ε² per covered cell.
  constexpr double kEpsilon = 1.0;
  constexpr std::size_t kTrials = 400;
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 16));
  attrs.push_back(data::Attribute::Ordinal("B", 8));
  const data::Schema schema(std::move(attrs));

  std::vector<query::RangeQuery> queries;
  queries.emplace_back(2);  // full count
  query::RangeQuery box(2);
  ASSERT_TRUE(box.SetRange(schema, 0, 2, 9).ok());
  ASSERT_TRUE(box.SetRange(schema, 1, 1, 4).ok());
  queries.push_back(box);
  query::RangeQuery point(2);
  ASSERT_TRUE(point.SetRange(schema, 0, 5, 5).ok());
  ASSERT_TRUE(point.SetRange(schema, 1, 7, 7).ok());
  queries.push_back(point);

  const mechanism::BasicMechanism basic;
  const auto noise = EmpiricalNoise(schema, basic, queries, kEpsilon, kTrials);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto predicted = analysis::BasicQueryVariance(schema, kEpsilon, queries[q]);
    ASSERT_TRUE(predicted.ok());
    SCOPED_TRACE("query " + std::to_string(q));
    ExpectCenteredNoiseWithVariance(noise[q], *predicted);
  }
}

TEST(PlannerAccuracyTest, HayPredictionMatchesEmpiricalError) {
  // Domain 100 pads to 128, so the adjoint model must track the padded
  // tree (8 levels) and the consistency averaging exactly.
  constexpr double kEpsilon = 1.0;
  constexpr std::size_t kDomain = 100;
  constexpr std::size_t kTrials = 400;
  const data::Schema schema = OneDimSchema(kDomain);
  const std::vector<query::RangeQuery> queries =
      OneDimShapes(schema, kDomain);

  const mechanism::HayHierarchicalMechanism hay;
  const auto noise = EmpiricalNoise(schema, hay, queries, kEpsilon, kTrials);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto predicted = analysis::HayQueryVariance(schema, kEpsilon, queries[q]);
    ASSERT_TRUE(predicted.ok());
    SCOPED_TRACE("query " + std::to_string(q));
    ExpectCenteredNoiseWithVariance(noise[q], *predicted);
  }
}

TEST(PlannerAccuracyTest, FourierPredictionMatchesEmpiricalError) {
  // 3-attribute binary cube: a point constraint on attribute subset T is
  // one entry of marginal T, and the model predicts 2λ²/2^|T| with
  // λ = 2k/ε over the k-coefficient downward closure.
  constexpr double kEpsilon = 1.0;
  constexpr std::size_t kTrials = 600;
  std::vector<data::Attribute> attrs;
  for (const char* name : {"X", "Y", "Z"}) {
    attrs.push_back(data::Attribute::Ordinal(name, 2));
  }
  const data::Schema schema(std::move(attrs));

  // (constrained attrs, constrained values) per query.
  const std::vector<std::pair<std::vector<std::size_t>,
                              std::vector<std::size_t>>> specs = {
      {{0}, {1}}, {{1}, {0}}, {{0, 1}, {1, 0}}, {{0, 1, 2}, {1, 1, 0}}};
  std::vector<query::RangeQuery> queries;
  for (const auto& [attrs_in_query, values] : specs) {
    query::RangeQuery q(3);
    for (std::size_t i = 0; i < attrs_in_query.size(); ++i) {
      ASSERT_TRUE(
          q.SetRange(schema, attrs_in_query[i], values[i], values[i]).ok());
    }
    queries.push_back(std::move(q));
  }

  auto closure = analysis::FourierClosureSize(schema, queries);
  ASSERT_TRUE(closure.ok());
  std::vector<std::vector<std::size_t>> marginal_sets;
  for (const auto& [attrs_in_query, values] : specs) {
    marginal_sets.push_back(attrs_in_query);
  }
  const mechanism::FourierMarginalMechanism fourier(marginal_sets);
  // The model's closure (over the workload's constrained sets, plus the
  // always-released total) must agree with the mechanism's own downward
  // closure of the same sets.
  EXPECT_EQ(*closure, fourier.NumReleasedCoefficients());

  const matrix::FrequencyMatrix zeros(schema.DomainSizes());
  std::vector<std::vector<double>> noise(queries.size());
  for (std::uint64_t seed = 0; seed < kTrials; ++seed) {
    auto marginals = fourier.Publish(zeros, kEpsilon, seed);
    ASSERT_TRUE(marginals.ok());
    for (std::size_t q = 0; q < specs.size(); ++q) {
      const auto& [attrs_in_query, values] = specs[q];
      const mechanism::Marginal* marginal = nullptr;
      for (const mechanism::Marginal& candidate : *marginals) {
        if (candidate.attributes == attrs_in_query) marginal = &candidate;
      }
      ASSERT_NE(marginal, nullptr);
      std::size_t entry = 0;
      for (std::size_t i = 0; i < values.size(); ++i) {
        entry |= values[i] << i;  // attributes[0] is the LSB
      }
      noise[q].push_back(marginal->counts[entry]);
    }
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto predicted = analysis::FourierQueryVariance(schema, kEpsilon,
                                                    *closure, queries[q]);
    ASSERT_TRUE(predicted.ok());
    SCOPED_TRACE("query " + std::to_string(q));
    ExpectCenteredNoiseWithVariance(noise[q], *predicted);
  }
}

TEST(PlannerAccuracyTest, PriveletFamilyPredictionMatchesEmpiricalError) {
  // The planner's Privelet-family scores come from the exact HN-transform
  // analysis; validate the per-query model end to end for both the pure
  // release (SA = ∅) and SA = all (which degenerates to per-cell noise).
  constexpr double kEpsilon = 1.0;
  constexpr std::size_t kTrials = 400;
  constexpr std::size_t kDomain = 64;
  const data::Schema schema = OneDimSchema(kDomain);
  const std::vector<query::RangeQuery> queries =
      OneDimShapes(schema, kDomain);

  for (const std::vector<std::string>& sa :
       {std::vector<std::string>{}, std::vector<std::string>{"A"}}) {
    const mechanism::PriveletPlusMechanism mech(sa);
    const auto noise =
        EmpiricalNoise(schema, mech, queries, kEpsilon, kTrials);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      auto predicted =
          analysis::PriveletPlusQueryVariance(schema, sa, kEpsilon,
                                              queries[q]);
      ASSERT_TRUE(predicted.ok());
      SCOPED_TRACE("sa_count " + std::to_string(sa.size()) + " query " +
                   std::to_string(q));
      ExpectCenteredNoiseWithVariance(noise[q], *predicted);
    }
  }
}

TEST(PlannerAccuracyTest, ChosenMechanismNeverEmpiricallyWorse) {
  // For every workload shape, publish under every publishable candidate
  // and check (i) each candidate's expected_variance predicts its
  // empirical mean squared error, (ii) the chosen mechanism's empirical
  // error is never worse than any alternative's beyond the statistical
  // margin. A planner that mispredicted either would pick wrong releases.
  constexpr double kEpsilon = 1.0;
  constexpr std::size_t kDomain = 100;
  constexpr std::size_t kTrials = 300;
  const data::Schema schema = OneDimSchema(kDomain);

  std::map<std::string, std::vector<query::RangeQuery>> shapes;
  shapes["shapes_mixed"] = OneDimShapes(schema, kDomain);
  {
    std::vector<query::RangeQuery> shorts;
    for (std::size_t lo = 0; lo + 4 < kDomain; lo += 13) {
      shorts.push_back(MakeRange1D(schema, lo, lo + 4));
    }
    shapes["shapes_short"] = std::move(shorts);
  }
  {
    std::vector<query::RangeQuery> longs;
    for (std::size_t lo = 0; lo < 8; ++lo) {
      longs.push_back(MakeRange1D(schema, lo, kDomain - 1 - lo));
    }
    shapes["shapes_long"] = std::move(longs);
  }
  {
    query::WorkloadOptions options;
    options.num_queries = 24;
    options.seed = 11;
    auto random = query::GenerateWorkload(schema, options);
    ASSERT_TRUE(random.ok());
    shapes["shapes_random"] = std::move(*random);
  }

  for (const auto& [shape, workload] : shapes) {
    SCOPED_TRACE(shape);
    auto plan = analysis::PlanMechanismForWorkload(schema, workload, kEpsilon);
    ASSERT_TRUE(plan.ok());
    ASSERT_FALSE(plan->ranked.empty());

    std::map<std::string, double> empirical;
    for (const analysis::MechanismCandidate& candidate : plan->ranked) {
      if (!candidate.publishable) continue;
      const auto mech = MechanismFor(candidate);
      const double mse = MeanSquaredError(
          EmpiricalNoise(schema, *mech, workload, kEpsilon, kTrials));
      empirical[candidate.id] = mse;
      // (i) the prediction is accurate for every candidate, not just the
      // winner.
      EXPECT_NEAR(mse / candidate.expected_variance, 1.0,
                  VarianceTolerance(kTrials))
          << candidate.id;
    }

    // (ii) the pick is empirically sound: no alternative beats it by more
    // than the sampling margin.
    const double chosen_mse = empirical.at(plan->chosen.id);
    for (const auto& [id, mse] : empirical) {
      EXPECT_LE(chosen_mse, mse * (1.0 + VarianceTolerance(kTrials)))
          << "alternative " << id << " empirically beats the chosen "
          << plan->chosen.id;
    }
  }
}

TEST(PlannerAccuracyTest, FourierRankedOnBinarySchemasButNeverChosen) {
  // On an all-binary schema the planner ranks "fourier" alongside the
  // publishable mechanisms, scored by the mean closed-form variance over
  // the workload — but never chooses it (it releases marginals, not a
  // matrix the publish pipeline can snapshot).
  constexpr double kEpsilon = 1.0;
  std::vector<data::Attribute> attrs;
  for (const char* name : {"X", "Y", "Z"}) {
    attrs.push_back(data::Attribute::Ordinal(name, 2));
  }
  const data::Schema schema(std::move(attrs));

  std::vector<query::RangeQuery> workload;
  query::RangeQuery one(3);
  ASSERT_TRUE(one.SetRange(schema, 0, 1, 1).ok());
  workload.push_back(one);
  query::RangeQuery two(3);
  ASSERT_TRUE(two.SetRange(schema, 1, 0, 0).ok());
  ASSERT_TRUE(two.SetRange(schema, 2, 1, 1).ok());
  workload.push_back(two);

  auto plan = analysis::PlanMechanismForWorkload(schema, workload, kEpsilon);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  const analysis::MechanismCandidate* fourier = nullptr;
  for (const analysis::MechanismCandidate& candidate : plan->ranked) {
    if (candidate.id == "fourier") fourier = &candidate;
  }
  ASSERT_NE(fourier, nullptr) << "binary schema must rank the Fourier model";
  EXPECT_FALSE(fourier->publishable);
  EXPECT_NE(plan->chosen.id, "fourier");

  // The candidate's score is the mean of the per-query model.
  auto closure = analysis::FourierClosureSize(schema, workload);
  ASSERT_TRUE(closure.ok());
  double expected = 0.0;
  for (const query::RangeQuery& q : workload) {
    auto v = analysis::FourierQueryVariance(schema, kEpsilon, *closure, q);
    ASSERT_TRUE(v.ok());
    expected += *v;
  }
  expected /= static_cast<double>(workload.size());
  EXPECT_DOUBLE_EQ(fourier->expected_variance, expected);

  // A rank-only candidate must never surface as the recorded runner-up.
  const query::PlanRecord record = plan->ToRecord();
  EXPECT_NE(record.runner_up, "fourier");
}

TEST(PlannerAccuracyTest, PlannerRejectsBadInputsWithStatusErrors) {
  // The planner's argument checks must come back as Status errors (the
  // CLI prints them), not crashes: non-positive or non-finite epsilon,
  // an empty planning workload, and a query whose arity does not match
  // the schema.
  const data::Schema schema = OneDimSchema(16);
  std::vector<query::RangeQuery> workload;
  workload.push_back(MakeRange1D(schema, 2, 5));

  for (const double bad_epsilon : {0.0, -1.0}) {
    auto plan =
        analysis::PlanMechanismForWorkload(schema, workload, bad_epsilon);
    EXPECT_FALSE(plan.ok()) << "epsilon " << bad_epsilon;
  }

  auto empty = analysis::PlanMechanismForWorkload(schema, {}, 1.0);
  EXPECT_FALSE(empty.ok());
  EXPECT_FALSE(empty.status().message().empty());

  std::vector<query::RangeQuery> mismatched;
  mismatched.emplace_back(3);  // 3 attributes against a 1-attribute schema
  EXPECT_FALSE(
      analysis::PlanMechanismForWorkload(schema, mismatched, 1.0).ok());
  EXPECT_FALSE(analysis::BasicQueryVariance(schema, 1.0, mismatched[0]).ok());
  EXPECT_FALSE(analysis::HayQueryVariance(schema, 1.0, mismatched[0]).ok());

  // The Hay model is single-ordinal-attribute only.
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 8));
  attrs.push_back(data::Attribute::Ordinal("B", 8));
  const data::Schema two_d(std::move(attrs));
  query::RangeQuery q(2);
  ASSERT_TRUE(q.SetRange(two_d, 0, 0, 3).ok());
  EXPECT_FALSE(analysis::HayQueryVariance(two_d, 1.0, q).ok());

  // The Fourier model requires an all-binary schema and a positive
  // released-coefficient count.
  EXPECT_FALSE(analysis::FourierClosureSize(schema, workload).ok());
  EXPECT_FALSE(
      analysis::FourierQueryVariance(schema, 1.0, 4, workload[0]).ok());
  std::vector<data::Attribute> bits;
  bits.push_back(data::Attribute::Ordinal("X", 2));
  const data::Schema binary(std::move(bits));
  query::RangeQuery point(1);
  ASSERT_TRUE(point.SetRange(binary, 0, 1, 1).ok());
  EXPECT_FALSE(analysis::FourierQueryVariance(binary, 1.0, 0, point).ok());
}

TEST(PlannerAccuracyTest, PlanRecordRoundTripsThroughSnapshot) {
  // The decision must survive as provenance: session metadata -> plan
  // section -> copy load, mapped open, and inspect all reproduce the
  // record, and a plan-less publish writes (and loads from) a file
  // without one.
  constexpr double kEpsilon = 1.0;
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 8));
  attrs.push_back(data::Attribute::Ordinal("B", 4));
  const data::Schema schema(std::move(attrs));
  const matrix::FrequencyMatrix zeros(schema.DomainSizes());

  query::WorkloadOptions options;
  options.num_queries = 12;
  options.seed = 3;
  auto workload = query::GenerateWorkload(schema, options);
  ASSERT_TRUE(workload.ok());
  auto plan = analysis::PlanMechanismForWorkload(schema, *workload, kEpsilon);
  ASSERT_TRUE(plan.ok());
  const query::PlanRecord record = plan->ToRecord();
  EXPECT_FALSE(record.chosen.empty());
  EXPECT_EQ(record.workload_queries, 12u);

  const auto mech = MechanismFor(plan->chosen);
  auto session = query::PublishingSession::Publish(schema, *mech, zeros,
                                                   kEpsilon, /*seed=*/5);
  ASSERT_TRUE(session.ok());
  session->set_plan(record);
  ASSERT_TRUE(session->metadata().plan.has_value());

  const std::string planned = testing::TempDir() + "/planner_roundtrip.pvls";
  const std::string planless = testing::TempDir() + "/planner_planless.pvls";
  ASSERT_TRUE(storage::SaveSession(planned, *session).ok());

  auto loaded = storage::LoadSession(planned);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->metadata().plan.has_value());
  EXPECT_EQ(*loaded->metadata().plan, record);

  auto served = storage::MapSession(planned);
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(served->metadata().plan.has_value());
  EXPECT_EQ(*served->metadata().plan, record);

  auto info = storage::InspectSnapshot(planned);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 4u);
  ASSERT_TRUE(info->plan.has_value());
  EXPECT_EQ(*info->plan, record);

  // Plan-less control: same release without set_plan has no plan section
  // and loads with no plan.
  auto bare = query::PublishingSession::Publish(schema, *mech, zeros,
                                                kEpsilon, /*seed=*/5);
  ASSERT_TRUE(bare.ok());
  ASSERT_TRUE(storage::SaveSession(planless, *bare).ok());
  auto bare_info = storage::InspectSnapshot(planless);
  ASSERT_TRUE(bare_info.ok());
  EXPECT_EQ(bare_info->version, 4u);
  EXPECT_FALSE(bare_info->plan.has_value());
  auto bare_loaded = storage::LoadSession(planless);
  ASSERT_TRUE(bare_loaded.ok());
  EXPECT_FALSE(bare_loaded->metadata().plan.has_value());

  std::remove(planned.c_str());
  std::remove(planless.c_str());
}

}  // namespace
}  // namespace privelet
