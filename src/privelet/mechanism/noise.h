// Counter-based Laplace noise injection shared by the publishing
// mechanisms.
//
// Determinism contract: the noise added at index i is
// magnitude * rng::LaplaceUnitAt(key, i) — a pure function of (key, i),
// computed in batches by the kernel table's laplace_units at every ISA
// level. No stream state is carried between indices, so any split of the
// index range (threads, panels, chunk sizes) and every ISA level give the
// same bits.
//
// The key is expanded from the publish seed (rng::NoiseKey::FromSeed of a
// per-mechanism derived seed). Since PVLS v4 the seed is no longer
// persisted in a snapshot, but it is still the user-chosen `--seed`
// (default 7), so the key is not secret: anyone who guesses the seed can
// regenerate the noise. ROADMAP item 1 replaces it with a secret key.
#ifndef PRIVELET_MECHANISM_NOISE_H_
#define PRIVELET_MECHANISM_NOISE_H_

#include <span>

#include "privelet/common/thread_pool.h"
#include "privelet/rng/laplace.h"

namespace privelet::mechanism {

/// values[i] += magnitude * unit(key, i) — the whole noise step of the
/// Basic and Hay mechanisms, fanned across `pool` (nullptr runs serially,
/// with identical bits). `magnitude` must be finite and > 0; the draws
/// and the scaling run through the kernel table of simd::ResolveIsa().
void AddLaplaceNoise(std::span<double> values, double magnitude,
                     const rng::NoiseKey& key, common::ThreadPool* pool);

}  // namespace privelet::mechanism

#endif  // PRIVELET_MECHANISM_NOISE_H_
