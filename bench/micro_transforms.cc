// google-benchmark micro-benchmarks backing the paper's O(n + m) complexity
// claims (Secs. IV-B, V-C, VI-C): per-transform forward/inverse costs,
// prefix-sum construction, Laplace sampling, and end-to-end Publish calls.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/synthetic_generator.h"
#include "privelet/matrix/engine.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/matrix/prefix_sum.h"
#include "privelet/mechanism/basic.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/rng/distributions.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/wavelet/haar.h"
#include "privelet/wavelet/hn_transform.h"
#include "privelet/wavelet/nominal.h"

namespace {

using namespace privelet;

std::vector<double> RandomVector(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256pp gen(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = gen.NextDouble() * 100.0;
  return v;
}

void BM_HaarForward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  wavelet::HaarTransform haar(n);
  const auto input = RandomVector(n, 1);
  std::vector<double> coeffs(haar.coefficient_count());
  for (auto _ : state) {
    haar.Forward(input.data(), coeffs.data());
    benchmark::DoNotOptimize(coeffs.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_HaarForward)->Range(1 << 10, 1 << 20);

// Before/after of the workspace-reuse fix: the default Forward/Inverse now
// reuse a workspace sized at construction; these variants pay a fresh
// heap allocation per call, which is exactly what the old implementation
// did on every transform.
void BM_HaarForwardAllocPerCall(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  wavelet::HaarTransform haar(n);
  const auto input = RandomVector(n, 1);
  std::vector<double> coeffs(haar.coefficient_count());
  for (auto _ : state) {
    std::vector<double> scratch(haar.padded_size());
    haar.Forward(input.data(), coeffs.data(), scratch.data());
    benchmark::DoNotOptimize(coeffs.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_HaarForwardAllocPerCall)->Range(1 << 10, 1 << 20);

void BM_HaarInverse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  wavelet::HaarTransform haar(n);
  auto coeffs = RandomVector(haar.coefficient_count(), 2);
  std::vector<double> output(n);
  for (auto _ : state) {
    haar.Inverse(coeffs.data(), output.data());
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_HaarInverse)->Range(1 << 10, 1 << 20);

void BM_HaarInverseAllocPerCall(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  wavelet::HaarTransform haar(n);
  auto coeffs = RandomVector(haar.coefficient_count(), 2);
  std::vector<double> output(n);
  for (auto _ : state) {
    std::vector<double> scratch(haar.padded_size());
    haar.Inverse(coeffs.data(), output.data(), scratch.data());
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_HaarInverseAllocPerCall)->Range(1 << 10, 1 << 20);

void BM_NominalForward(benchmark::State& state) {
  const auto leaves = static_cast<std::size_t>(state.range(0));
  auto hierarchy = std::make_shared<const data::Hierarchy>(
      data::MakeSqrtGroupHierarchy(leaves).value());
  wavelet::NominalTransform transform(hierarchy);
  const auto input = RandomVector(leaves, 3);
  std::vector<double> coeffs(transform.coefficient_count());
  for (auto _ : state) {
    transform.Forward(input.data(), coeffs.data());
    benchmark::DoNotOptimize(coeffs.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(leaves));
}
BENCHMARK(BM_NominalForward)->Range(1 << 10, 1 << 20);

void BM_NominalInverseWithRefine(benchmark::State& state) {
  const auto leaves = static_cast<std::size_t>(state.range(0));
  auto hierarchy = std::make_shared<const data::Hierarchy>(
      data::MakeSqrtGroupHierarchy(leaves).value());
  wavelet::NominalTransform transform(hierarchy);
  auto coeffs = RandomVector(transform.coefficient_count(), 4);
  std::vector<double> output(leaves);
  std::vector<double> scratch(coeffs.size());
  for (auto _ : state) {
    scratch = coeffs;
    transform.Refine(scratch.data());
    transform.Inverse(scratch.data(), output.data());
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(leaves));
}
BENCHMARK(BM_NominalInverseWithRefine)->Range(1 << 10, 1 << 20);

void BM_HnForward4D(benchmark::State& state) {
  const auto total = static_cast<std::size_t>(state.range(0));
  auto schema = data::MakeScalabilitySchema(total);
  auto transform = wavelet::HnTransform::Create(*schema);
  matrix::FrequencyMatrix m(schema->DomainSizes());
  rng::Xoshiro256pp gen(5);
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = gen.NextDouble();
  for (auto _ : state) {
    auto coeffs = transform->Forward(m);
    benchmark::DoNotOptimize(coeffs->coeffs.values().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m.size()));
}
BENCHMARK(BM_HnForward4D)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// Thread-count sweeps on the ISSUE's 2^22-cell cube: the per-axis line
// fan-out should scale near-linearly with cores (each line transform is
// independent). Wall-clock (real time) is the meaningful metric for
// internally-parallel work.
void BM_HnForward4DThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  auto schema = data::MakeScalabilitySchema(std::size_t{1} << 22);
  auto transform = wavelet::HnTransform::Create(*schema);
  matrix::FrequencyMatrix m(schema->DomainSizes());
  rng::Xoshiro256pp gen(8);
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = gen.NextDouble();
  common::ThreadPool pool(threads);
  for (auto _ : state) {
    auto coeffs = transform->Forward(m, &pool);
    benchmark::DoNotOptimize(coeffs->coeffs.values().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m.size()));
}
BENCHMARK(BM_HnForward4DThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_HnInverse4DThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  auto schema = data::MakeScalabilitySchema(std::size_t{1} << 22);
  auto transform = wavelet::HnTransform::Create(*schema);
  matrix::FrequencyMatrix m(schema->DomainSizes());
  rng::Xoshiro256pp gen(9);
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = gen.NextDouble();
  auto coeffs = transform->Forward(m);
  common::ThreadPool pool(threads);
  for (auto _ : state) {
    auto back = transform->Inverse(*coeffs, &pool);
    benchmark::DoNotOptimize(back->values().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m.size()));
}
BENCHMARK(BM_HnInverse4DThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// End-to-end Publish (transform + sharded noise + inverse) under the same
// sweep; output is bit-identical across the sweep by construction.
void BM_PublishPriveletThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  auto schema = data::MakeScalabilitySchema(std::size_t{1} << 20);
  matrix::FrequencyMatrix m(schema->DomainSizes());
  mechanism::PriveletMechanism mech;
  common::ThreadPool pool(threads);
  mech.set_thread_pool(&pool);
  for (auto _ : state) {
    auto noisy = mech.Publish(*schema, m, 1.0, 1);
    benchmark::DoNotOptimize(noisy->values().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m.size()));
}
BENCHMARK(BM_PublishPriveletThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Tile-size sweep of the tiled line engine on the ISSUE's headline case:
// a 1024x1024 cube whose first axis is Haar-transformed through stride
// 1024. Benchmark arg = lines per panel; 0 selects the naive per-line
// reference.
matrix::EngineOptions TileArgOptions(std::size_t tile) {
  if (tile == 0) {
    return matrix::MakeEngineOptions(matrix::LineEngine::kNaive);
  }
  return matrix::MakeEngineOptions(matrix::LineEngine::kTiled, tile);
}

struct Tile2DCase {
  data::Schema schema;
  wavelet::HnTransform transform;
  matrix::FrequencyMatrix m;
};

Tile2DCase MakeTile2DCase(std::uint64_t seed) {
  std::vector<data::Attribute> attrs;
  attrs.push_back(data::Attribute::Ordinal("A", 1024));
  attrs.push_back(data::Attribute::Ordinal("B", 1024));
  data::Schema schema(std::move(attrs));
  auto transform = wavelet::HnTransform::Create(schema);
  matrix::FrequencyMatrix m(schema.DomainSizes());
  rng::Xoshiro256pp gen(seed);
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = gen.NextDouble();
  return {std::move(schema), std::move(*transform), std::move(m)};
}

void BM_HnForward2DTile(benchmark::State& state) {
  const matrix::EngineOptions options =
      TileArgOptions(static_cast<std::size_t>(state.range(0)));
  Tile2DCase c = MakeTile2DCase(11);
  for (auto _ : state) {
    auto coeffs = c.transform.Forward(c.m, nullptr, options);
    benchmark::DoNotOptimize(coeffs->coeffs.values().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(c.m.size()));
}
BENCHMARK(BM_HnForward2DTile)
    ->Arg(0)->Arg(1)->Arg(8)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_HnInverse2DTile(benchmark::State& state) {
  const matrix::EngineOptions options =
      TileArgOptions(static_cast<std::size_t>(state.range(0)));
  Tile2DCase c = MakeTile2DCase(12);
  auto coeffs = c.transform.Forward(c.m);
  for (auto _ : state) {
    auto back = c.transform.Inverse(*coeffs, nullptr, options);
    benchmark::DoNotOptimize(back->values().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(c.m.size()));
}
BENCHMARK(BM_HnInverse2DTile)
    ->Arg(0)->Arg(1)->Arg(8)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_PrefixSumBuild(benchmark::State& state) {
  const auto total = static_cast<std::size_t>(state.range(0));
  auto schema = data::MakeScalabilitySchema(total);
  matrix::FrequencyMatrix m(schema->DomainSizes());
  rng::Xoshiro256pp gen(6);
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = gen.NextDouble();
  for (auto _ : state) {
    matrix::PrefixSumTable<double> table(m);
    benchmark::DoNotOptimize(&table);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m.size()));
}
BENCHMARK(BM_PrefixSumBuild)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_LaplaceSample(benchmark::State& state) {
  rng::Xoshiro256pp gen(7);
  double acc = 0.0;
  for (auto _ : state) {
    acc += rng::SampleLaplace(gen, 2.0);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LaplaceSample);

void BM_PublishBasic(benchmark::State& state) {
  const auto total = static_cast<std::size_t>(state.range(0));
  auto schema = data::MakeScalabilitySchema(total);
  matrix::FrequencyMatrix m(schema->DomainSizes());
  const mechanism::BasicMechanism mech;
  for (auto _ : state) {
    auto noisy = mech.Publish(*schema, m, 1.0, 1);
    benchmark::DoNotOptimize(noisy->values().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m.size()));
}
BENCHMARK(BM_PublishBasic)->Arg(1 << 16);

void BM_PublishPrivelet(benchmark::State& state) {
  const auto total = static_cast<std::size_t>(state.range(0));
  auto schema = data::MakeScalabilitySchema(total);
  matrix::FrequencyMatrix m(schema->DomainSizes());
  const mechanism::PriveletMechanism mech;
  for (auto _ : state) {
    auto noisy = mech.Publish(*schema, m, 1.0, 1);
    benchmark::DoNotOptimize(noisy->values().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m.size()));
}
BENCHMARK(BM_PublishPrivelet)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
