// Sample statistics for the benchmark: nearest-rank quantiles with the
// tail rule, medians, and a small summary type.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace cosm_bench {

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
double quantile(std::vector<double>& samples, double q);

/// How many samples lie strictly beyond the nearest-rank q-quantile of n
/// samples (n - ceil(q * n)).
std::size_t samples_beyond(std::size_t n, double q);

/// The tail rule: a quantile is reported only when at least
/// `kMinBeyond` samples lie beyond it (p99 needs n >= 1000).
constexpr std::size_t kMinBeyond = 10;
std::optional<double> reportable_quantile(std::vector<double> samples, double q);

double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

}  // namespace cosm_bench
