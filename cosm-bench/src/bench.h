// One benchmark run: set up a workload, drive it open-loop over TCP, check
// its outputs, and report either the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "report.h"

namespace cosm_bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small stores and rates (self-tests); also waives the validity gate.
  bool tiny = false;
  bool inject_wrong = false;
  std::string workdir = ".bench_build/cosm-bench/work";
  /// Result-schema document path ("" = do not write one).
  std::string result_path;
  std::string commit;
};

struct RunResult {
  bool correct = false;
  /// False when the generator fell behind or a reported quantile lacked
  /// samples: such a run is not scored.
  bool valid = true;
  std::string invalid_reason;
  std::string check_failure;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The metrics of the last-line JSON object (end-to-end or per-layer).
  std::vector<Metric> metrics;
  /// Further named metrics recorded in the result document only.
  std::vector<Metric> extra;
  /// Per fixed-rate window figures (untraced run), for the document.
  std::vector<std::vector<Metric>> windows;
  std::string document;
};

/// The metric names each mode reports, in output order.
const std::vector<std::string>& end_to_end_metric_names();
const std::vector<std::string>& per_layer_metric_names();

/// Runs the benchmark.  Throws on set-up errors.
RunResult run_benchmark(const Options& options);

/// The last-line JSON object.
std::string result_line(const RunResult& result);

/// Exit code for a result: 0 scored and correct, 1 an output check
/// failed, 3 invalid (not scored).
int exit_code(const RunResult& result);

}  // namespace cosm_bench
