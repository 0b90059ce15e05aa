// Open-loop load generation.
//
// Arrivals come from a precomputed Poisson schedule.  A fixed pool of
// client threads takes them in order; a thread that is free sleeps until
// the arrival's due time, a thread that is late starts at once.  Latency
// is always measured from the due time, so the wait of an arrival whose
// client thread was busy counts in its latency (no coordinated omission).
// Generator lag is how late a *free* thread woke up; a run where that lag
// is large measured the generator, not the system, and is invalid.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "schedule.h"

namespace cosm_bench {

using Clock = std::chrono::steady_clock;

/// What one operation reports back to the generator.
struct OpResult {
  bool ok = true;
  /// Workload-defined operation kind (e.g. write vs import on churn).
  int kind = 0;
  /// When the operation's Import step returned (cycle only; unset when the
  /// operation has no embedded Import step).
  Clock::time_point import_end{};
};

struct OpRecord {
  double due_s = 0;
  double start_s = 0;
  double end_s = 0;
  /// Import step end (seconds from phase start), negative when absent.
  double import_end_s = -1;
  int kind = 0;
  bool ok = true;
  /// The thread was free before the due time: start_s - due_s is
  /// generator lag, not queueing.
  bool lag_sample = false;

  double latency_ms() const { return (end_s - due_s) * 1e3; }
  double service_ms() const { return (end_s - start_s) * 1e3; }
};

using OpFn = std::function<OpResult(const Arrival&, int thread)>;

struct PhaseResult {
  std::vector<OpRecord> records;
  double wall_s = 0;
};

PhaseResult run_open_loop(const std::vector<Arrival>& arrivals, int threads,
                          const OpFn& op);

/// Latencies (ms from due time) of the operations of `kind` (-1 = all);
/// failed operations are excluded.
std::vector<double> latencies_ms(const PhaseResult& phase, int kind);
/// Import-step latencies (ms from due time) of operations that carry one.
std::vector<double> import_step_latencies_ms(const PhaseResult& phase);
/// Generator lag samples (ms).
std::vector<double> generator_lag_ms(const PhaseResult& phase);

struct CapacityTrial {
  double rate = 0;
  /// Median over the trial's three sub-windows of their p99.
  double p99_ms = 0;
  double tail_wait_ms = 0;
  bool passed = false;
};

struct CapacityResult {
  /// Highest rate that passed.
  double capacity = 0;
  /// Lowest rate that failed (0 when none failed).
  double first_fail = 0;
  std::vector<CapacityTrial> trials;
};

struct CapacityOptions {
  std::uint64_t seed = 1;
  double start_rate = 100;
  double trial_s = 0.5;
  double p99_limit_ms = 10;
  /// Operation kind whose p99 decides (-1 = all).
  int primary_kind = -1;
  /// Stop bisecting once first_fail / capacity <= this.
  double resolution = 1.05;
  int max_trials = 12;
};

/// The highest Poisson rate at which the primary operation meets its p99
/// limit with no growing backlog: expand by 1.5x from `start_rate` until a
/// trial fails, then bisect geometrically to `resolution`.  A trial passes
/// when the median of its three sub-window p99s meets the limit (one stall
/// does not fail it) and the queue wait of its last quarter stays under a
/// quarter of the limit; a rate fails only when two trials in a row fail
/// it.
CapacityResult find_capacity(const CapacityOptions& options, int threads, const OpFn& op);

}  // namespace cosm_bench
