// OLAP roll-up / drill-down scenario over a hierarchy (paper Fig. 1): a
// sales-style table with a geographic hierarchy Country -> Region -> Any,
// published once under ε-DP with Privelet's nominal wavelet transform.
// The example walks the hierarchy level by level, comparing private
// answers to the truth — demonstrating why subtree queries have bounded
// noise (Lemma 5) at every granularity.
//
//   build/examples/olap_drilldown
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "privelet/data/attribute.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/query/publishing_session.h"
#include "privelet/query/range_query.h"
#include "privelet/rng/distributions.h"
#include "privelet/rng/xoshiro256pp.h"

using namespace privelet;

int main() {
  // Geography: 4 regions x 6 countries each (a Fig. 1-style hierarchy),
  // plus an ordinal "order size" attribute.
  auto geography = data::Hierarchy::Balanced({4, 6});
  if (!geography.ok()) return 1;
  const std::size_t num_countries = geography->num_leaves();

  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Nominal("Country", *geography));
  attrs.push_back(data::Attribute::Ordinal("OrderSize", 32));
  const data::Schema schema(std::move(attrs));

  // Synthesize order counts: regional mix + Zipf across countries.
  matrix::FrequencyMatrix m(schema.DomainSizes());
  rng::Xoshiro256pp gen(7);
  rng::ZipfSampler country_sampler(num_countries, 0.8);
  rng::DiscretizedLogNormal size_sampler(32, 1.8, 0.7);
  const std::size_t kOrders = 200'000;
  for (std::size_t i = 0; i < kOrders; ++i) {
    const std::size_t coords[2] = {country_sampler.Sample(gen),
                                   size_sampler.Sample(gen)};
    m.At(coords) += 1.0;
  }

  const double epsilon = 0.75;
  const mechanism::PriveletMechanism privelet;
  auto released =
      query::PublishingSession::Publish(schema, privelet, m, epsilon,
                                        /*seed=*/3);
  if (!released.ok()) {
    std::fprintf(stderr, "%s\n", released.status().ToString().c_str());
    return 1;
  }
  std::printf("published %zu orders over %zu countries at epsilon=%.2f\n\n",
              kOrders, num_countries, epsilon);

  auto truth = query::PublishingSession::FromMatrix(schema, m);
  if (!truth.ok()) return 1;
  const data::Hierarchy& h = schema.attribute(0).hierarchy();

  auto report = [&](const std::string& label, std::size_t node) {
    query::RangeQuery q(2);
    (void)q.SetHierarchyNode(schema, 0, node);
    const double act = truth->Answer(q);
    const double priv = released->Answer(q);
    std::printf("  %-24s true=%8.0f  private=%9.1f  (err %+7.1f)\n",
                label.c_str(), act, priv, priv - act);
  };

  // Roll-up: every region (level 2).
  std::printf("regional roll-up (level-2 nodes):\n");
  const auto regions = h.NodesAtLevel(2);
  for (std::size_t r = 0; r < regions.size(); ++r) {
    report("Region " + std::to_string(r), regions[r]);
  }

  // Drill-down into the largest region's countries.
  std::printf("\ndrill-down into Region 0 (its 6 countries):\n");
  for (std::size_t child : h.node(regions[0]).children) {
    report("Country " + std::to_string(h.node(child).leaf_begin), child);
  }

  // Cross-dimensional slice: large orders in Region 0.
  std::printf("\nslice: Region 0 AND OrderSize >= 16:\n");
  query::RangeQuery q(2);
  (void)q.SetHierarchyNode(schema, 0, regions[0]);
  (void)q.SetRange(schema, 1, 16, 31);
  std::printf("  true=%8.0f  private=%9.1f\n", truth->Answer(q),
              released->Answer(q));

  std::printf("\nnoise variance bound for every query above: %.0f "
              "(stddev ~%.0f orders of %zu)\n",
              privelet.NoiseVarianceBound(schema, epsilon).value(),
              std::sqrt(privelet.NoiseVarianceBound(schema, epsilon).value()),
              kOrders);
  return 0;
}
