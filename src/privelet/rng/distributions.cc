#include "privelet/rng/distributions.h"

#include <algorithm>
#include <cmath>

#include "privelet/common/check.h"

namespace privelet::rng {

std::uint64_t SampleUniformInt(Xoshiro256pp& gen, std::uint64_t lo,
                               std::uint64_t hi) {
  return gen.NextUint64InRange(lo, hi);
}

bool SampleBernoulli(Xoshiro256pp& gen, double p) {
  p = std::clamp(p, 0.0, 1.0);
  return gen.NextDouble() < p;
}

double SampleStandardNormal(Xoshiro256pp& gen) {
  const double u1 = gen.NextDoubleOpenZero();
  const double u2 = gen.NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  PRIVELET_CHECK(n >= 1, "Zipf domain must be non-empty");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfSampler::Sample(Xoshiro256pp& gen) const {
  const double u = gen.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

DiscretizedLogNormal::DiscretizedLogNormal(std::size_t domain_size, double mu,
                                           double sigma)
    : domain_size_(domain_size), mu_(mu), sigma_(sigma) {
  PRIVELET_CHECK(domain_size >= 1, "domain must be non-empty");
  PRIVELET_CHECK(sigma >= 0.0, "sigma must be >= 0");
}

std::size_t DiscretizedLogNormal::Sample(Xoshiro256pp& gen) const {
  const double x = std::exp(mu_ + sigma_ * SampleStandardNormal(gen));
  const double clamped =
      std::clamp(x, 0.0, static_cast<double>(domain_size_ - 1));
  return static_cast<std::size_t>(clamped);
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  PRIVELET_CHECK(!weights.empty(), "weights must be non-empty");
  cdf_.resize(weights.size());
  double total = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    PRIVELET_CHECK(weights[i] >= 0.0, "weights must be non-negative");
    total += weights[i];
    cdf_[i] = total;
  }
  PRIVELET_CHECK(total > 0.0, "at least one weight must be positive");
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

std::size_t DiscreteSampler::Sample(Xoshiro256pp& gen) const {
  const double u = gen.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

}  // namespace privelet::rng
