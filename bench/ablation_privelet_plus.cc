// Ablation for paper Sec. VI-D: the Privelet+ hybrid and the SA-selection
// rule. Prints (i) the worked small-domain example (|A| = 16: Privelet
// 600/ε² vs Basic 128/ε²), and (ii) a sweep of SA subsets on the Brazil
// census schema showing the Eq. 7 bound and the measured average square
// error of a shared workload for each choice — including SA = ∅ (Privelet),
// the paper's SA = {Age, Gender}, and SA = all (Basic-equivalent).
#include <cstdio>
#include <vector>

#include "privelet/analysis/bounds.h"
#include "privelet/analysis/sa_advisor.h"
#include "privelet/data/census_generator.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/basic.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/metrics.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/workload.h"

namespace {

using namespace privelet;

std::string JoinNames(const std::vector<std::string>& names) {
  if (names.empty()) return "{} (Privelet)";
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ",";
    out += names[i];
  }
  return out + "}";
}

}  // namespace

int main() {
  const double epsilon = 1.0;

  // Part 1: the Sec. VI-D worked example.
  {
    std::vector<data::Attribute> attrs;
    attrs.push_back(data::Attribute::Ordinal("A", 16));
    const data::Schema schema(std::move(attrs));
    const double privelet_bound =
        analysis::PriveletPlusVarianceBound(schema, {}, epsilon).value();
    const double basic_bound = analysis::BasicVarianceBound(schema, epsilon);
    std::printf("=== Sec. VI-D worked example: |A| = 16, epsilon = 1 ===\n");
    std::printf("Privelet bound: %.0f/eps^2   Basic bound: %.0f/eps^2 "
                "(paper: 600 vs 128 -> Basic wins on small domains)\n\n",
                privelet_bound, basic_bound);
  }

  // Part 2: SA sweep on the (reduced-scale) Brazil census schema.
  data::CensusConfig census =
      data::DefaultCensusConfig(data::CensusCountry::kBrazil);
  census.num_tuples = 400'000;
  auto table = data::GenerateCensus(census);
  PRIVELET_CHECK(table.ok(), table.status().ToString());
  const data::Schema& schema = table->schema();
  const auto m = matrix::FrequencyMatrix::FromTable(*table);

  query::WorkloadOptions wopts;
  wopts.num_queries = 2'000;
  auto workload = query::GenerateWorkload(schema, wopts);
  PRIVELET_CHECK(workload.ok(), workload.status().ToString());
  auto truth = query::PublishingSession::FromMatrix(schema, m);
  PRIVELET_CHECK(truth.ok(), truth.status().ToString());
  const std::vector<double> acts = truth->AnswerAll(*workload);

  const std::vector<std::vector<std::string>> sa_choices = {
      {},
      {"Gender"},
      {"Age"},
      {"Age", "Gender"},                           // the paper's choice
      {"Age", "Gender", "Income"},
      {"Age", "Gender", "Occupation", "Income"},   // == Basic
  };

  std::printf("=== Eq. 7 SA sweep on Brazil census (n=%zu, m=%zu, eps=1) "
              "===\n", table->num_rows(), m.size());
  std::printf("# advisor rule |A| <= P^2*H selects SA = %s\n",
              JoinNames(analysis::AdviseSa(schema)).c_str());
  std::printf("%-36s %16s %18s\n", "SA", "Eq.7 bound", "avg sq err");

  for (const auto& sa : sa_choices) {
    const double bound =
        analysis::PriveletPlusVarianceBound(schema, sa, epsilon).value();
    const mechanism::PriveletPlusMechanism mech(sa);
    auto release = query::PublishingSession::Publish(schema, mech, m, epsilon,
                                                     /*seed=*/77);
    PRIVELET_CHECK(release.ok(), release.status().ToString());
    const std::vector<double> answers = release->AnswerAll(*workload);
    double total_sq = 0.0;
    for (std::size_t i = 0; i < workload->size(); ++i) {
      total_sq += query::SquareError(answers[i], acts[i]);
    }
    std::printf("%-36s %16.3e %18.4e\n", JoinNames(sa).c_str(), bound,
                total_sq / static_cast<double>(workload->size()));
  }
  return 0;
}
