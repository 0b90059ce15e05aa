// Results: named metrics with unit and sample count, the last-line JSON
// object, the result-schema document and the host fingerprint.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace cosm_bench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// Minimal JSON text building (objects are written in insertion order).
std::string json_string(const std::string& s);
std::string json_number(double v);

struct HostInfo {
  unsigned cores = 0;
  std::string compiler;
  std::string build_type;
  std::string commit;
  std::string kernel;
};
HostInfo host_info(const std::string& commit);

/// Process resources.
double rss_mb();
/// User + system CPU of the process, microseconds.
double cpu_us();
/// Voluntary + involuntary context switches of the process.
double context_switches();
std::size_t thread_count();

}  // namespace cosm_bench
