#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace cosm_bench {

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

std::optional<double> reportable_quantile(std::vector<double> samples, double q) {
  if (samples_beyond(samples.size(), q) < kMinBeyond) return std::nullopt;
  return quantile(samples, q);
}

double median(std::vector<double> samples) { return quantile(samples, 0.5); }

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

}  // namespace cosm_bench
