// Quickstart: publish a small table under ε-differential privacy with
// Privelet and answer range-count queries from the noisy output.
//
//   build/examples/quickstart
//
// Walks through the full pipeline on the paper's introductory example
// (Table I: ages and a diabetes flag): table -> frequency matrix ->
// Privelet+ -> noisy matrix -> range-count queries.
#include <cstdio>

#include "privelet/data/attribute.h"
#include "privelet/data/table.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/basic.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/range_query.h"
#include "privelet/rng/distributions.h"
#include "privelet/rng/xoshiro256pp.h"

using namespace privelet;

int main() {
  // 1. Describe the schema: Age is ordinal (we use single years 0..63 here
  //    rather than the paper's coarse groups); the diabetes flag is a flat
  //    nominal attribute.
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("Age", 64));
  attrs.push_back(data::Attribute::Nominal(
      "HasDiabetes", data::Hierarchy::Flat(2).value()));
  const data::Schema schema(std::move(attrs));

  // 2. Load the microdata: a 50,000-patient cohort in the shape of the
  //    paper's Table I (diabetes prevalence rising with age). With only a
  //    handful of tuples the ε = 1 noise would drown the counts — that is
  //    the privacy guarantee working as intended, not a bug.
  data::Table table(schema);
  const std::uint32_t kYes = 1;
  rng::Xoshiro256pp gen(2026);
  for (int i = 0; i < 50'000; ++i) {
    const auto age = static_cast<std::uint32_t>(
        gen.NextUint64InRange(0, 63));
    const double prevalence = 0.02 + 0.004 * static_cast<double>(age);
    const std::uint32_t diabetes =
        rng::SampleBernoulli(gen, prevalence) ? 1 : 0;
    const Status st = table.AppendRow({age, diabetes});
    if (!st.ok()) {
      std::fprintf(stderr, "append failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // 3. Build the frequency matrix (the lowest level of the data cube).
  const auto m = matrix::FrequencyMatrix::FromTable(table);
  std::printf("frequency matrix: %zu x %zu = %zu cells, %g tuples\n",
              m.dim(0), m.dim(1), m.size(), m.Total());

  // 4. Publish with Privelet under ε = 1 differential privacy. (For such a
  //    tiny domain the Basic mechanism would actually be the better choice
  //    — see the ablation bench — but this is the API tour.)
  const mechanism::PriveletMechanism privelet;
  const double epsilon = 1.0;
  auto release =
      query::PublishingSession::Publish(schema, privelet, m, epsilon,
                                        /*seed=*/42);
  if (!release.ok()) {
    std::fprintf(stderr, "publish failed: %s\n",
                 release.status().ToString().c_str());
    return 1;
  }
  std::printf("published a noisy matrix satisfying %.1f-differential "
              "privacy\n\n", epsilon);

  // 5. Answer a range-count query from the noisy matrix: how many diabetes
  //    patients are younger than 50?
  query::RangeQuery q(schema.num_attributes());
  (void)q.SetRange(schema, 0, 0, 49);
  (void)q.SetHierarchyNode(
      schema, 1, schema.attribute(1).hierarchy().leaf_node(kYes));

  const double truth =
      query::PublishingSession::FromMatrix(schema, m)->Answer(q);
  const double private_answer = release->Answer(q);
  std::printf("COUNT(*) WHERE Age < 50 AND HasDiabetes = yes\n");
  std::printf("  true answer:    %.0f\n", truth);
  std::printf("  private answer: %.2f\n", private_answer);

  // 6. The theoretical quality guarantee for this schema at this ε.
  auto bound = privelet.NoiseVarianceBound(schema, epsilon);
  std::printf("\nworst-case noise variance of any range-count query: %.0f\n",
              bound.value());
  return 0;
}
