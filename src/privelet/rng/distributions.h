// Distribution samplers built on Xoshiro256pp, driving the synthetic data
// generators and workload builders. The privacy noise is not drawn here:
// see rng/laplace.h.
#ifndef PRIVELET_RNG_DISTRIBUTIONS_H_
#define PRIVELET_RNG_DISTRIBUTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "privelet/rng/xoshiro256pp.h"

namespace privelet::rng {

/// Uniform integer in [lo, hi] inclusive.
std::uint64_t SampleUniformInt(Xoshiro256pp& gen, std::uint64_t lo,
                               std::uint64_t hi);

/// Bernoulli draw: true with probability p (clamped to [0,1]).
bool SampleBernoulli(Xoshiro256pp& gen, double p);

/// Standard normal via Box-Muller (no cached spare: keeps the generator
/// state a pure function of the draw count).
double SampleStandardNormal(Xoshiro256pp& gen);

/// Zipf-distributed index in [0, n): P(k) proportional to 1/(k+1)^s.
/// Precomputes the CDF once (O(n)), then samples by binary search
/// (O(log n)). Used for skewed nominal attributes (e.g. Occupation).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  std::size_t Sample(Xoshiro256pp& gen) const;

  std::size_t domain_size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Log-normal draw discretized onto [0, domain_size): exp(mu + sigma*Z)
/// clamped to the domain. Used for heavy-tailed ordinal attributes
/// (e.g. Income).
class DiscretizedLogNormal {
 public:
  DiscretizedLogNormal(std::size_t domain_size, double mu, double sigma);

  std::size_t Sample(Xoshiro256pp& gen) const;

 private:
  std::size_t domain_size_;
  double mu_;
  double sigma_;
};

/// Draw from an arbitrary discrete distribution given unnormalized,
/// non-negative weights. O(log n) per draw after O(n) setup.
class DiscreteSampler {
 public:
  explicit DiscreteSampler(const std::vector<double>& weights);

  std::size_t Sample(Xoshiro256pp& gen) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace privelet::rng

#endif  // PRIVELET_RNG_DISTRIBUTIONS_H_
