// The benchmark's workloads (cycle, browse, churn) behind one interface.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/runtime.h"
#include "loadgen.h"
#include "rpc/network.h"
#include "tracing.h"

namespace cosm_bench {

/// Output checks: every workload counts what it checked and what failed.
class Checks {
 public:
  void pass() { performed_.fetch_add(1, std::memory_order_relaxed); }
  void fail(const std::string& what);
  std::uint64_t performed() const { return performed_.load(); }
  std::uint64_t failed() const { return failed_.load(); }
  std::string first_failure() const;

 private:
  std::atomic<std::uint64_t> performed_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mutex_;
  std::string first_;
};

/// Seed of every workload's stores and markets.  They are part of the
/// workload's definition and stay fixed; --seed varies the traffic.
constexpr std::uint64_t kStoreSeed = 1994;

struct WorkloadEnv {
  /// Traffic seed: arrivals and every per-arrival choice.
  std::uint64_t seed = 1;
  /// Small stores and rates, for the self-tests.
  bool tiny = false;
  /// Scratch directory the workload may use (churn's journal).
  std::string workdir = ".";
  /// Corrupt one answer before it is checked (self-test of the checks).
  bool inject_wrong = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Name of the primary operation ("cycle", "import" or "write").
  virtual std::string primary() const = 0;
  /// OpResult::kind of the primary operation.
  virtual int primary_kind() const { return 0; }
  /// Fixed offered rate of the latency phase (ops/s).
  virtual double fixed_rate() const = 0;
  /// The primary operation's p99 limit for the capacity search.
  virtual double p99_limit_ms() const = 0;

  /// Build the runtime(s) on `net` and load the store.  Setup may run
  /// several times; teardown() undoes it.
  virtual void setup(cosm::rpc::Network& net) = 0;
  virtual void teardown() = 0;
  /// Per-client-thread state (generic-client bindings).
  virtual void open_clients(int threads) = 0;
  virtual void close_clients() = 0;

  /// One operation.  `sections` is non-null only in the traced run.
  virtual OpResult run(const Arrival& arrival, int thread, Sections* sections) = 0;

  /// Traced run: exercise, closed-loop, the operations the workload does
  /// not issue itself, so every per-operation layer metric is measured.
  virtual void probe(Sections* sections) = 0;

  /// Output checks that need the finished state (inline checks happen in
  /// run()).
  virtual void verify() {}
  /// churn: rebuild the runtime from its journal, check the recovered
  /// state, and return the rebuild time in seconds; < 0 when not durable.
  virtual double recover() { return -1; }

  /// Live offers the benchmark expects minus live offers found (churn).
  virtual double offer_drift() const { return 0; }

  virtual cosm::core::CosmRuntime& runtime() = 0;
  /// Workload parameters worth recording with the results.
  virtual std::map<std::string, std::string> describe() const = 0;

  Checks checks;
};

std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadEnv& env);

/// Operation kinds shared by the workloads.
enum OpKind : int { kCycle = 0, kImport = 1, kWrite = 2 };

}  // namespace cosm_bench
