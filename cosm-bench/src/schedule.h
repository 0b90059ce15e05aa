// Seeded inputs: a SplitMix64 stream, a Zipf sampler and the Poisson
// arrival schedule.  Everything here is a pure function of the seed, so
// the same seed gives the same arrivals and the same per-arrival draws.
#pragma once

#include <cstdint>
#include <vector>

namespace cosm_bench {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return n ? next() % n : 0; }

 private:
  std::uint64_t state_;
};

/// Mix two words into one (derives independent sub-seeds).
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

/// Zipf(s) over ranks 0..n-1 (rank 0 most popular).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(double u) const;

 private:
  std::vector<double> cdf_;
};

struct Arrival {
  /// Due time in seconds from the start of the phase.
  double due_s = 0;
  /// Per-arrival random word: every choice the operation makes (kind,
  /// constraint, preference, attribute values) is derived from it.
  std::uint64_t draw = 0;
};

/// Poisson arrivals at `rate` per second over `duration_s` seconds.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate,
                                      double duration_s);

}  // namespace cosm_bench
