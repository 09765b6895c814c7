// Workload-aware planning bench, two parts:
//
//  1. Mechanism-planner accuracy (BENCH_planner_accuracy.json): for each
//     fig. 6-9-style workload shape, run the end-to-end planner
//     (analysis/mechanism_planner.h), publish the zero table under every
//     ranked mechanism, and report the empirical mean squared error next
//     to the planner's closed-form prediction. With --smoke the harness
//     is a tripwire: it fails when any prediction drifts outside the
//     sampling band or when the planner's pick is empirically beaten by
//     an alternative beyond that band — i.e. when the variance models
//     (and therefore --auto-plan decisions) go wrong.
//
//  2. SA-subset planning (full run only, paper Sec. IX future work): when
//     the query distribution is known, the exact-variance SA planner can
//     disagree with the paper's per-attribute heuristic on skewed
//     workloads; this prints the contrast table.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"

#include "privelet/analysis/mechanism_planner.h"
#include "privelet/analysis/query_variance.h"
#include "privelet/analysis/sa_advisor.h"
#include "privelet/analysis/workload_planner.h"
#include "privelet/common/math_util.h"
#include "privelet/data/attribute.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/basic.h"
#include "privelet/mechanism/fourier_marginals.h"
#include "privelet/mechanism/hay.h"
#include "privelet/mechanism/mechanism.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/workload.h"
#include "privelet/rng/xoshiro256pp.h"

namespace {

using namespace privelet;

std::string JoinNames(const std::vector<std::string>& names) {
  if (names.empty()) return "{}";
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ",";
    out += names[i];
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Part 1: mechanism-planner accuracy across fig. 6-9 workload shapes.

// Stable numeric mechanism code for the JSON rows (rows hold numbers
// only): 0 basic, 1 privelet (pure Haar), 2 privelet+ (any SA), 3 hay,
// 4 fourier.
double MechCode(const std::string& id) {
  if (id == "basic") return 0;
  if (id == "privelet") return 1;
  if (id.rfind("privelet+", 0) == 0) return 2;
  if (id == "hay") return 3;
  return 4;
}

// Same 4-sigma sampling band as tests/statistical_test_util.h, keyed on
// the seed count: answers within one publish share noise, so the seed
// count is the conservative effective sample size.
double Tolerance(std::size_t trials) {
  return std::max(0.05, 4.0 * std::sqrt(5.0 / static_cast<double>(trials)));
}

query::RangeQuery MakeRange1D(const data::Schema& schema, std::size_t lo,
                              std::size_t hi) {
  query::RangeQuery q(1);
  auto status = q.SetRange(schema, 0, lo, hi);
  PRIVELET_CHECK(status.ok(), status.ToString());
  return q;
}

// Mean squared answer over `trials` publishes of the zero table — every
// answer is pure noise, so this estimates the mean per-query variance the
// planner predicts.
double MeasuredMse(const data::Schema& schema, const mechanism::Mechanism& mech,
                   const std::vector<query::RangeQuery>& workload,
                   double epsilon, std::size_t trials) {
  const matrix::FrequencyMatrix zeros(schema.DomainSizes());
  double total = 0.0;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    auto release =
        query::PublishingSession::Publish(schema, mech, zeros, epsilon, seed);
    PRIVELET_CHECK(release.ok(), release.status().ToString());
    for (const double x : release->AnswerAll(workload)) total += x * x;
  }
  return total / static_cast<double>(trials * workload.size());
}

// Fourier releases marginals, not a matrix, so it is measured by sampling
// the marginal entry each point-constrained query reads (binary schemas
// only; mirrors tests/planner_accuracy_test.cc).
double MeasuredFourierMse(const data::Schema& schema,
                          const std::vector<query::RangeQuery>& workload,
                          double epsilon, std::size_t trials) {
  std::vector<std::vector<std::size_t>> sets;
  std::vector<std::size_t> entries;
  for (const query::RangeQuery& q : workload) {
    std::vector<std::size_t> attrs;
    std::size_t entry = 0;
    for (std::size_t a = 0; a < q.num_attributes(); ++a) {
      if (!q.range(a).has_value()) continue;
      PRIVELET_CHECK(q.range(a)->width() == 1,
                     "fourier measurement needs point constraints");
      entry |= q.range(a)->lo << attrs.size();  // attributes[0] is the LSB
      attrs.push_back(a);
    }
    sets.push_back(std::move(attrs));
    entries.push_back(entry);
  }
  const mechanism::FourierMarginalMechanism fourier(sets);
  const matrix::FrequencyMatrix zeros(schema.DomainSizes());
  double total = 0.0;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    auto marginals = fourier.Publish(zeros, epsilon, seed);
    PRIVELET_CHECK(marginals.ok(), marginals.status().ToString());
    for (std::size_t q = 0; q < workload.size(); ++q) {
      const mechanism::Marginal* marginal = nullptr;
      for (const mechanism::Marginal& candidate : *marginals) {
        if (candidate.attributes == sets[q]) marginal = &candidate;
      }
      PRIVELET_CHECK(marginal != nullptr, "released marginal missing");
      const double x = marginal->counts[entries[q]];
      total += x * x;
    }
  }
  return total / static_cast<double>(trials * workload.size());
}

// The mechanism behind a publishable candidate (the CLI's --auto-plan
// dispatch).
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

struct Shape {
  const char* label;
  data::Schema schema;
  std::vector<query::RangeQuery> workload;
};

std::vector<Shape> MakeShapes() {
  std::vector<Shape> shapes;
  const std::size_t domain = 256;
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", domain));
  const data::Schema one_d(std::move(attrs));

  {  // shape 0: short ranges across the domain (fig. 6-9 low coverage).
    Shape s{"1-D short ranges", one_d, {}};
    for (std::size_t lo = 0; lo + 7 < domain; lo += 17) {
      s.workload.push_back(MakeRange1D(one_d, lo, lo + 7));
    }
    shapes.push_back(std::move(s));
  }
  {  // shape 1: long ranges (high coverage).
    Shape s{"1-D long ranges", one_d, {}};
    for (std::size_t lo = 0; lo < 12; ++lo) {
      s.workload.push_back(MakeRange1D(one_d, lo, domain - 1 - lo));
    }
    shapes.push_back(std::move(s));
  }
  {  // shape 2: point queries.
    Shape s{"1-D point queries", one_d, {}};
    for (std::size_t v = 3; v < domain; v += 23) {
      s.workload.push_back(MakeRange1D(one_d, v, v));
    }
    shapes.push_back(std::move(s));
  }
  {  // shape 3: mixed random workload (the guarded rows).
    Shape s{"1-D mixed random", one_d, {}};
    query::WorkloadOptions options;
    options.num_queries = 32;
    options.seed = 19;
    auto random = query::GenerateWorkload(one_d, options);
    PRIVELET_CHECK(random.ok(), random.status().ToString());
    s.workload = std::move(*random);
    shapes.push_back(std::move(s));
  }
  {  // shape 4: binary cube, point constraints — the Fourier regime.
    std::vector<data::Attribute> bits;
    for (const char* name : {"B0", "B1", "B2", "B3"}) {
      bits.push_back(data::Attribute::Ordinal(name, 2));
    }
    data::Schema cube(std::move(bits));
    Shape s{"binary-cube marginal points", std::move(cube), {}};
    const std::vector<std::pair<std::vector<std::size_t>,
                                std::vector<std::size_t>>> specs = {
        {{0}, {1}},
        {{1}, {0}},
        {{3}, {1}},
        {{0, 1}, {1, 0}},
        {{2, 3}, {0, 1}},
        {{0, 1, 2}, {1, 1, 0}},
    };
    for (const auto& [attrs_in_query, values] : specs) {
      query::RangeQuery q(4);
      for (std::size_t i = 0; i < attrs_in_query.size(); ++i) {
        auto status =
            q.SetRange(s.schema, attrs_in_query[i], values[i], values[i]);
        PRIVELET_CHECK(status.ok(), status.ToString());
      }
      s.workload.push_back(std::move(q));
    }
    shapes.push_back(std::move(s));
  }
  return shapes;
}

// Returns false when a smoke tripwire fired.
bool RunPlannerAccuracy(bench::BenchReport& report, bool smoke) {
  const double epsilon = 1.0;
  const std::size_t trials = smoke ? 250 : 800;
  const double tolerance = Tolerance(trials);
  bool ok = true;

  std::printf("=== Mechanism-planner accuracy (predicted vs empirical) ===\n");
  std::printf("# %zu publish trials per candidate; sampling band +-%.0f%%\n",
              trials, 100.0 * tolerance);

  const std::vector<Shape> shapes = MakeShapes();
  for (std::size_t shape_id = 0; shape_id < shapes.size(); ++shape_id) {
    const Shape& shape = shapes[shape_id];
    auto plan = analysis::PlanMechanismForWorkload(shape.schema,
                                                   shape.workload, epsilon);
    PRIVELET_CHECK(plan.ok(), plan.status().ToString());

    std::printf("\n-- shape %zu: %s (%zu queries) --\n", shape_id, shape.label,
                shape.workload.size());
    std::printf("%-28s %14s %14s %8s\n", "mechanism", "predicted", "measured",
                "ratio");

    double chosen_mse = 0.0;
    double best_alternative_mse = 0.0;
    for (std::size_t rank = 0; rank < plan->ranked.size(); ++rank) {
      const analysis::MechanismCandidate& candidate = plan->ranked[rank];
      double measured;
      if (candidate.publishable) {
        const auto mech = MechanismFor(candidate);
        measured = MeasuredMse(shape.schema, *mech, shape.workload, epsilon,
                               trials);
      } else {
        measured = MeasuredFourierMse(shape.schema, shape.workload, epsilon,
                                      trials);
      }
      const double ratio = measured / candidate.expected_variance;
      const bool chosen = candidate.id == plan->chosen.id;
      if (chosen) {
        chosen_mse = measured;
      } else if (candidate.publishable &&
                 (best_alternative_mse == 0.0 ||
                  measured < best_alternative_mse)) {
        best_alternative_mse = measured;
      }
      std::printf("%-28s %14.4e %14.4e %8.3f%s%s\n", candidate.id.c_str(),
                  candidate.expected_variance, measured, ratio,
                  chosen ? "  <- chosen" : "",
                  candidate.publishable ? "" : " (rank-only)");
      report.AddRow({{"shape", static_cast<double>(shape_id)},
                     {"rank", static_cast<double>(rank + 1)},
                     {"mech", MechCode(candidate.id)},
                     {"chosen", chosen ? 1.0 : 0.0},
                     {"predicted", candidate.expected_variance},
                     {"measured", measured},
                     {"ratio", ratio},
                     {"inverse_ratio", 1.0 / ratio}});
      if (smoke && std::fabs(ratio - 1.0) > tolerance) {
        std::fprintf(stderr,
                     "SMOKE FAIL: shape %zu %s predicted %.4e vs measured "
                     "%.4e (ratio %.3f outside 1 +- %.3f)\n",
                     shape_id, candidate.id.c_str(),
                     candidate.expected_variance, measured, ratio, tolerance);
        ok = false;
      }
    }

    // The pick must be empirically sound: no publishable alternative beats
    // it beyond the sampling band.
    const double regret = best_alternative_mse > 0.0
                              ? chosen_mse / best_alternative_mse
                              : 1.0;
    std::printf("chosen %s regret vs best alternative: %.3f\n",
                plan->chosen.id.c_str(), regret);
    report.AddRow({{"shape", static_cast<double>(shape_id)},
                   {"summary", 1.0},
                   {"chosen_mech", MechCode(plan->chosen.id)},
                   {"regret", regret}});
    if (smoke && regret > 1.0 + tolerance) {
      std::fprintf(stderr,
                   "SMOKE FAIL: shape %zu chosen %s empirically beaten "
                   "(regret %.3f > 1 + %.3f)\n",
                   shape_id, plan->chosen.id.c_str(), regret, tolerance);
      ok = false;
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Part 2: SA-subset planning vs. the paper's heuristic (full run only).

// Measured mean square error of a mechanism over the workload, averaged
// over seeds.
double Measured(const std::vector<std::string>& sa, const data::Schema& schema,
                const matrix::FrequencyMatrix& m,
                const std::vector<query::RangeQuery>& workload,
                const std::vector<double>& acts, double epsilon) {
  const mechanism::PriveletPlusMechanism mech(sa);
  double total = 0.0;
  constexpr std::size_t kSeeds = 25;
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    auto release =
        query::PublishingSession::Publish(schema, mech, m, epsilon, seed);
    PRIVELET_CHECK(release.ok(), release.status().ToString());
    const std::vector<double> answers = release->AnswerAll(workload);
    for (std::size_t i = 0; i < workload.size(); ++i) {
      const double diff = answers[i] - acts[i];
      total += diff * diff;
    }
  }
  return total / static_cast<double>(kSeeds * workload.size());
}

double Predicted(const std::vector<std::string>& sa,
                 const data::Schema& schema,
                 const std::vector<query::RangeQuery>& workload,
                 double epsilon) {
  double total = 0.0;
  for (const auto& q : workload) {
    total += analysis::PriveletPlusQueryVariance(schema, sa, epsilon, q)
                 .value();
  }
  return total / static_cast<double>(workload.size());
}

void RunSaPlanning() {
  const double epsilon = 1.0;

  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Small", 8));
  attrs.push_back(data::Attribute::Ordinal("Wide", 512));
  attrs.push_back(data::Attribute::Nominal(
      "Cat", data::Hierarchy::Balanced({4, 8}).value()));
  const data::Schema schema(std::move(attrs));

  matrix::FrequencyMatrix m(schema.DomainSizes());
  rng::Xoshiro256pp gen(1);
  for (int i = 0; i < 500'000; ++i) {
    const std::size_t coords[3] = {gen.NextUint64InRange(0, 7),
                                   gen.NextUint64InRange(0, 511),
                                   gen.NextUint64InRange(0, 31)};
    m.At(coords) += 1.0;
  }

  std::printf("\n=== Workload-aware SA planning (future-work extension) ===\n");
  std::printf("# schema: Small(8, ordinal) Wide(512, ordinal) Cat(32, "
              "nominal h=3); heuristic SA = %s\n",
              JoinNames(analysis::AdviseSa(schema)).c_str());

  struct Scenario {
    const char* label;
    query::WorkloadOptions options;
  };
  std::vector<Scenario> scenarios;
  {
    Scenario generic{"generic (1-3 predicates, all attrs)", {}};
    generic.options.num_queries = 400;
    generic.options.min_predicates = 1;
    generic.options.max_predicates = 3;
    scenarios.push_back(generic);
    Scenario wide{"point-heavy (3 predicates each)", {}};
    wide.options.num_queries = 400;
    wide.options.min_predicates = 3;
    wide.options.max_predicates = 3;
    scenarios.push_back(wide);
    Scenario single{"single-predicate roll-ups", {}};
    single.options.num_queries = 400;
    single.options.min_predicates = 1;
    single.options.max_predicates = 1;
    scenarios.push_back(single);
  }

  for (const Scenario& scenario : scenarios) {
    auto workload = query::GenerateWorkload(schema, scenario.options);
    PRIVELET_CHECK(workload.ok(), workload.status().ToString());
    auto truth = query::PublishingSession::FromMatrix(schema, m);
    PRIVELET_CHECK(truth.ok(), truth.status().ToString());
    const std::vector<double> acts = truth->AnswerAll(*workload);

    auto plan = analysis::PlanSaForWorkload(schema, *workload, epsilon);
    PRIVELET_CHECK(plan.ok(), plan.status().ToString());
    const auto heuristic = analysis::AdviseSa(schema);

    std::printf("\n-- workload: %s --\n", scenario.label);
    std::printf("%-24s %-22s %14s %14s\n", "strategy", "SA", "predicted",
                "measured");
    std::printf("%-24s %-22s %14.4e %14.4e\n", "heuristic (paper rule)",
                JoinNames(heuristic).c_str(),
                Predicted(heuristic, schema, *workload, epsilon),
                Measured(heuristic, schema, m, *workload, acts, epsilon));
    std::printf("%-24s %-22s %14.4e %14.4e\n", "planner (exact-variance)",
                JoinNames(plan->sa_names).c_str(), plan->expected_variance,
                Measured(plan->sa_names, schema, m, *workload, acts,
                         epsilon));
  }
  std::printf("\n# the planner's prediction column is exact (closed form); "
              "measured values should match it within sampling noise.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bool ok;
  {
    // Scoped so the report flushes even when a tripwire fails the run.
    privelet::bench::BenchReport report("planner_accuracy");
    ok = RunPlannerAccuracy(report, smoke);
  }
  if (!smoke) RunSaPlanning();
  if (!ok) return 1;
  if (smoke) std::printf("\nplanner accuracy smoke: OK\n");
  return 0;
}
