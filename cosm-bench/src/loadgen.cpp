#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "stats.h"

namespace cosm_bench {

PhaseResult run_open_loop(const std::vector<Arrival>& arrivals, int threads,
                          const OpFn& op) {
  PhaseResult phase;
  phase.records.resize(arrivals.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  auto seconds_since = [t0](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  auto worker = [&](int thread) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= arrivals.size()) return;
      const Arrival& a = arrivals[i];
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(a.due_s));
      OpRecord& rec = phase.records[i];
      rec.due_s = a.due_s;
      if (Clock::now() < due) {
        rec.lag_sample = true;
        std::this_thread::sleep_until(due);
      }
      const Clock::time_point start = Clock::now();
      OpResult result;
      try {
        result = op(a, thread);
      } catch (...) {
        result.ok = false;
      }
      const Clock::time_point end = Clock::now();
      rec.start_s = seconds_since(start);
      rec.end_s = seconds_since(end);
      rec.kind = result.kind;
      rec.ok = result.ok;
      if (result.import_end != Clock::time_point{}) {
        rec.import_end_s = seconds_since(result.import_end);
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& th : pool) th.join();
  phase.wall_s = seconds_since(Clock::now());
  return phase;
}

std::vector<double> latencies_ms(const PhaseResult& phase, int kind) {
  std::vector<double> out;
  out.reserve(phase.records.size());
  for (const auto& r : phase.records) {
    if (r.ok && (kind < 0 || r.kind == kind)) out.push_back(r.latency_ms());
  }
  return out;
}

std::vector<double> import_step_latencies_ms(const PhaseResult& phase) {
  std::vector<double> out;
  for (const auto& r : phase.records) {
    if (r.ok && r.import_end_s >= 0) out.push_back((r.import_end_s - r.due_s) * 1e3);
  }
  return out;
}

std::vector<double> generator_lag_ms(const PhaseResult& phase) {
  std::vector<double> out;
  for (const auto& r : phase.records) {
    if (r.lag_sample) out.push_back((r.start_s - r.due_s) * 1e3);
  }
  return out;
}

namespace {

CapacityTrial run_trial(const CapacityOptions& options, int index, double rate, int threads,
                        const OpFn& op) {
  CapacityTrial trial;
  trial.rate = rate;
  const auto arrivals =
      poisson_schedule(mix_seed(options.seed, 1000 + index), rate, options.trial_s);
  const PhaseResult phase = run_open_loop(arrivals, threads, op);
  bool all_ok = true;
  std::vector<double> thirds[3];
  for (const auto& r : phase.records) {
    if (!r.ok) all_ok = false;
    if (options.primary_kind < 0 || r.kind == options.primary_kind) {
      const auto third =
          std::min<std::size_t>(2, static_cast<std::size_t>(3 * r.due_s / options.trial_s));
      thirds[third].push_back(r.latency_ms());
    }
  }
  std::vector<double> p99s;
  for (auto& t : thirds) p99s.push_back(quantile(t, 0.99));
  trial.p99_ms = quantile(p99s, 0.5);
  // Backlog: queue wait of the last quarter of arrivals.  A rate above
  // capacity makes it grow through the trial.
  std::vector<double> tail_wait;
  for (std::size_t i = phase.records.size() * 3 / 4; i < phase.records.size(); ++i) {
    const auto& r = phase.records[i];
    tail_wait.push_back((r.start_s - r.due_s) * 1e3);
  }
  trial.tail_wait_ms = quantile(tail_wait, 0.5);
  trial.passed = all_ok && !thirds[0].empty() && trial.p99_ms <= options.p99_limit_ms &&
                 trial.tail_wait_ms <= options.p99_limit_ms / 4;
  return trial;
}

}  // namespace

CapacityResult find_capacity(const CapacityOptions& options, int threads, const OpFn& op) {
  CapacityResult result;
  double lo = 0, hi = 0;
  double rate = options.start_rate;
  bool confirming = false;
  while (static_cast<int>(result.trials.size()) < options.max_trials &&
         !(lo > 0 && hi > 0 && hi / lo <= options.resolution)) {
    if (lo > 0 && hi > 0 && !confirming) rate = std::sqrt(lo * hi);
    const int index = static_cast<int>(result.trials.size());
    const CapacityTrial trial = run_trial(options, index, rate, threads, op);
    result.trials.push_back(trial);
    // A failure is confirmed by a second trial at the same rate, so a
    // stall of the host does not end the expansion or move the bracket.
    if (!trial.passed && !confirming) {
      confirming = true;
      continue;
    }
    confirming = false;
    if (trial.passed) {
      lo = rate;
      if (hi == 0) rate *= 1.5;
    } else {
      hi = rate;
      if (lo == 0) rate /= 1.5;
    }
  }
  result.capacity = lo;
  result.first_fail = hi;
  return result;
}

}  // namespace cosm_bench
