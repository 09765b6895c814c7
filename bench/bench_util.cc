#include "bench_util.h"

#include <memory>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "privelet/common/stopwatch.h"
#include "privelet/simd/dispatch.h"

// Short git sha of the configured source tree, injected by
// bench/CMakeLists.txt at configure time; "unknown" outside a git
// checkout.
#ifndef PRIVELET_GIT_SHA
#define PRIVELET_GIT_SHA "unknown"
#endif

namespace privelet::bench {

namespace {

const char* CountryName(data::CensusCountry country) {
  return country == data::CensusCountry::kBrazil ? "Brazil" : "US";
}

// "Figure 6" -> "figure_6": lowercase with non-alphanumerics collapsed to
// underscores, so printed figure names double as report file names.
std::string SlugOf(const char* text) {
  std::string slug;
  for (const char* p = text; *p != '\0'; ++p) {
    const char c = *p;
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      slug.push_back(c);
    } else if (c >= 'A' && c <= 'Z') {
      slug.push_back(static_cast<char>(c - 'A' + 'a'));
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

}  // namespace

void StabilizeAllocator() {
#if defined(__GLIBC__)
  // Keep 8-64 MB matrix intermediates on the retained heap: without this,
  // glibc alternates between mmap-backed chunks and trimming the heap
  // top, so every transform call re-faults its working set.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 512 << 20);
#endif
}

std::size_t PeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  std::size_t peak_kib = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &peak_kib) == 1) break;
  }
  std::fclose(f);
  return peak_kib * 1024;
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

BenchReport::~BenchReport() {
  const std::string path = "BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "# warning: cannot write %s\n", path.c_str());
    return;
  }
  const std::string isa_active(simd::IsaLevelName(simd::ResolveIsa()));
  const std::string isa_best(simd::IsaLevelName(simd::DetectBestIsa()));
  const std::string cpu_features(simd::CpuFeatureString());
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"meta\": {\"isa_active\": \"%s\", \"isa_best\": \"%s\", "
               "\"cpu_features\": \"%s\", \"git_sha\": \"%s\"},\n",
               isa_active.c_str(), isa_best.c_str(), cpu_features.c_str(),
               PRIVELET_GIT_SHA);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    std::fprintf(f, "    {");
    for (std::size_t i = 0; i < rows_[r].size(); ++i) {
      std::fprintf(f, "%s\"%s\": %.17g", i == 0 ? "" : ", ",
                   rows_[r][i].first.c_str(), rows_[r][i].second);
    }
    std::fprintf(f, "}%s\n", r + 1 == rows_.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("# wrote %s (%zu rows)\n", path.c_str(), rows_.size());
}

void BenchReport::AddRow(std::vector<std::pair<std::string, double>> fields) {
  rows_.push_back(std::move(fields));
}

void RunErrorExperiment(const ErrorExperimentConfig& config,
                        const char* figure_name) {
  const bool full = FullScale();

  data::CensusConfig census = full
                                  ? data::PaperScaleCensusConfig(config.country)
                                  : data::DefaultCensusConfig(config.country);
  query::WorkloadOptions wopts;
  wopts.num_queries = full ? 40'000 : 4'000;

  std::printf("=== %s: average %s vs query %s (%s, %s scale) ===\n",
              figure_name,
              config.bucket_by_coverage ? "square error" : "relative error",
              config.bucket_by_coverage ? "coverage" : "selectivity",
              CountryName(config.country), full ? "paper" : "reduced");
  std::printf("# dataset: n=%zu tuples, income domain=%zu; %zu queries\n",
              census.num_tuples,
              census.income_domain == 0 ? std::size_t{0} : census.income_domain,
              wopts.num_queries);

  Stopwatch total_timer;
  auto table = data::GenerateCensus(census);
  PRIVELET_CHECK(table.ok(), table.status().ToString());
  const data::Schema& schema = table->schema();
  const matrix::FrequencyMatrix m = matrix::FrequencyMatrix::FromTable(*table);
  std::printf("# frequency matrix: m=%zu entries (built in %.1fs)\n",
              m.size(), total_timer.ElapsedSeconds());

  auto workload = query::GenerateWorkload(schema, wopts);
  PRIVELET_CHECK(workload.ok(), workload.status().ToString());

  // True answers, coverages, selectivities — computed once.
  const double n = static_cast<double>(table->num_rows());
  auto truth = query::PublishingSession::FromMatrix(schema, m);
  PRIVELET_CHECK(truth.ok(), truth.status().ToString());
  const std::vector<double> acts = truth->AnswerAll(*workload);
  std::vector<double> keys;
  keys.reserve(workload->size());
  for (std::size_t i = 0; i < workload->size(); ++i) {
    keys.push_back(config.bucket_by_coverage ? (*workload)[i].Coverage(schema)
                                             : acts[i] / n);
  }
  const double sanity = 0.001 * n;

  const mechanism::BasicMechanism basic;
  const mechanism::PriveletPlusMechanism plus({"Age", "Gender"});
  const std::vector<const mechanism::Mechanism*> mechanisms = {&basic, &plus};

  BenchReport report(SlugOf(figure_name));
  for (double epsilon : PaperEpsilons()) {
    std::printf("\n-- epsilon = %.2f --\n", epsilon);
    std::printf("%-14s", config.bucket_by_coverage ? "avg-coverage"
                                                   : "avg-selectivity");
    for (const auto* mech : mechanisms) {
      std::printf(" %16s", std::string(mech->name()).c_str());
    }
    std::printf("\n");

    // One publish per mechanism, as in the paper; the error columns are
    // bucket averages over the shared workload.
    std::vector<std::vector<query::BucketStat>> columns;
    for (const auto* mech : mechanisms) {
      auto release = query::PublishingSession::Publish(schema, *mech, m,
                                                       epsilon, /*seed=*/2010);
      PRIVELET_CHECK(release.ok(), release.status().ToString());
      const std::vector<double> approx = release->AnswerAll(*workload);
      std::vector<double> errors;
      errors.reserve(workload->size());
      for (std::size_t i = 0; i < workload->size(); ++i) {
        errors.push_back(
            config.bucket_by_coverage
                ? query::SquareError(approx[i], acts[i])
                : query::RelativeError(approx[i], acts[i], sanity));
      }
      columns.push_back(
          query::EqualCountBuckets(keys, errors, config.num_buckets));
    }

    for (std::size_t b = 0; b < config.num_buckets; ++b) {
      std::printf("%-14.3e", columns[0][b].avg_key);
      for (const auto& column : columns) {
        std::printf(" %16.4e", column[b].avg_value);
      }
      std::printf("\n");

      std::vector<std::pair<std::string, double>> row = {
          {"epsilon", epsilon},
          {"bucket", static_cast<double>(b)},
          {"avg_key", columns[0][b].avg_key},
      };
      for (std::size_t c = 0; c < mechanisms.size(); ++c) {
        row.emplace_back("err_" + std::string(mechanisms[c]->name()),
                         columns[c][b].avg_value);
      }
      report.AddRow(std::move(row));
    }
  }
  std::printf("\n# total time: %.1fs\n\n", total_timer.ElapsedSeconds());
}

}  // namespace privelet::bench
