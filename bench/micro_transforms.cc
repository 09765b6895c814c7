// google-benchmark micro-benchmarks backing the paper's O(n + m) complexity
// claims (Secs. IV-B, V-C, VI-C): per-transform forward/inverse costs,
// prefix-sum construction, Laplace sampling, and end-to-end Publish calls.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "privelet/common/thread_pool.h"
#include "privelet/data/attribute.h"
#include "privelet/data/synthetic_generator.h"
#include "privelet/matrix/frequency_matrix.h"
#include "privelet/matrix/prefix_sum.h"
#include "privelet/mechanism/basic.h"
#include "privelet/mechanism/privelet_mechanism.h"
#include "privelet/rng/laplace.h"
#include "privelet/rng/xoshiro256pp.h"
#include "privelet/simd/dispatch.h"
#include "privelet/simd/kernels.h"
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

// Unit Laplace draws in batches of 4096 through laplace_units, one run per
// ISA level the host supports (levels above it clamp to the best one).
void BM_LaplaceSample(benchmark::State& state) {
  const auto level = static_cast<simd::IsaLevel>(state.range(0));
  if (level > simd::DetectBestIsa()) {
    state.SkipWithError("ISA level not supported by this host");
    return;
  }
  state.SetLabel(std::string(simd::IsaLevelName(level)));
  const simd::KernelTable& kernels = simd::Kernels(level);
  const rng::NoiseKey key = rng::NoiseKey::FromSeed(7);
  std::vector<double> out(4096);
  std::uint64_t first = 0;
  for (auto _ : state) {
    kernels.laplace_units(key, first, out.size(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    first += out.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_LaplaceSample)->DenseRange(0, 2);

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
