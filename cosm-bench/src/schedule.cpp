#include "schedule.h"

#include <algorithm>
#include <cmath>

namespace cosm_bench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  SplitMix64 rng(a ^ (b * 0xd1342543de82ef95ULL));
  rng.next();
  return rng.next();
}

Zipf::Zipf(std::size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(double u) const {
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<std::size_t>(it - cdf_.begin());
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate,
                                      double duration_s) {
  std::vector<Arrival> arrivals;
  if (rate <= 0 || duration_s <= 0) return arrivals;
  arrivals.reserve(static_cast<std::size_t>(rate * duration_s * 1.1) + 16);
  SplitMix64 gaps(mix_seed(seed, 1));
  SplitMix64 draws(mix_seed(seed, 2));
  double t = 0;
  for (;;) {
    t += -std::log1p(-gaps.uniform()) / rate;
    if (t >= duration_s) break;
    arrivals.push_back({t, draws.next()});
  }
  return arrivals;
}

}  // namespace cosm_bench
