#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "loadgen.h"
#include "rpc/message.h"
#include "rpc/replay_cache.h"
#include "rpc/tcp.h"
#include "sidl/parser.h"
#include "sidl/validate.h"
#include "stats.h"
#include "trader/facade.h"
#include "trader/storage/wal_storage.h"
#include "tracing.h"
#include "wire/codec.h"
#include "wire/plan.h"
#include "wire/plan_cache.h"
#include "workload.h"

namespace cosm_bench {

std::unique_ptr<Workload> make_cycle_workload(const WorkloadEnv& env);
std::unique_ptr<Workload> make_browse_workload(const WorkloadEnv& env);
std::unique_ptr<Workload> make_churn_workload(const WorkloadEnv& env);

std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadEnv& env) {
  if (name == "cycle") return make_cycle_workload(env);
  if (name == "browse") return make_browse_workload(env);
  if (name == "churn") return make_churn_workload(env);
  throw std::invalid_argument("unknown workload '" + name + "' (cycle, browse, churn)");
}

void Checks::fail(const std::string& what) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(mutex_);
  if (first_.empty()) first_ = what;
}

std::string Checks::first_failure() const {
  std::lock_guard lock(mutex_);
  return first_;
}

namespace {

/// Operations with their own round-trip and server-time metrics.
const std::vector<std::string>& traced_ops() {
  static const std::vector<std::string> ops = {"Import", "_get_sid", "SelectCar",
                                               "ListModels", "Export", "ExportBatch",
                                               "Modify", "Withdraw"};
  return ops;
}

}  // namespace

const std::vector<std::string>& end_to_end_metric_names() {
  static const std::vector<std::string> names = {
      "cpu_us_per_op", "rss_mb", "setup_s"};
  return names;
}

const std::vector<std::string>& per_layer_metric_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "core.bind_us", "core.invoke_us", "core.import_us", "uims.form_us",
        "sidl.sid_decode_us", "sidl.sid_bytes",
        "wire.args_marshal_us", "wire.result_marshal_us", "wire.result_unmarshal_us",
        "wire.resp_bytes_per_import", "wire.plan_cache_hit_ratio"};
    for (const auto& op : traced_ops()) n.push_back("rpc.rtt_us." + op);
    for (const auto& op : traced_ops()) n.push_back("rpc.server_us." + op);
    for (const char* x : {"rpc.transport_us", "rpc.in_flight_p99", "rpc.frames_per_op",
                          "rpc.bytes_per_op", "rpc.replay_evictions", "rpc.send_retries",
                          "rpc.faults", "trader.import_us", "trader.scanned_per_import",
                          "trader.evaluated_per_import", "trader.index_lookups_per_import",
                          "trader.heap_prunes_per_import", "trader.returned_per_import",
                          "trader.useful_ratio", "trader.constraint_cache_hit_ratio",
                          "trader.preference_cache_hit_ratio", "trader.compile_us_per_import",
                          "trader.replica_resolved_frac", "trader.offer_drift",
                          "storage.records_per_commit", "storage.bytes_per_write",
                          "storage.snapshots", "proc.ctx_switches_per_op", "proc.threads",
                          "gen.lag_p99_ms", "trace.unattributed_frac", "trace.overhead_frac",
                          "error_rate"}) {
      n.push_back(x);
    }
    return n;
  }();
  return names;
}

namespace {

constexpr int kMinSetups = 3;
constexpr std::size_t kMaxSetups = 15;
constexpr double kSetupBudgetS = 2.0;
/// Fixed-rate windows and capacity trials of an untraced run.
constexpr int kWindows = 8;
constexpr int kCapacityTrials = 12;
/// Generator lag p99 beyond this means the generator, not the system,
/// was measured.
constexpr double kMaxLagMs = 20;
/// An operation slower than this (from its due time) failed: the generic
/// client's own call timeout.
constexpr double kDeadlineMs = 5000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Counter readings from the public getters, for deltas over a window.
struct Counters {
  cosm::rpc::NetworkStats net;
  cosm::wire::PlanCache::Stats plans;
  double imports = 0, evaluated = 0, scanned = 0, index_lookups = 0, heap_prunes = 0;
  double cc_hits = 0, cc_misses = 0, cc_compile_ns = 0;
  double pc_hits = 0, pc_misses = 0, pc_compile_ns = 0;
  double replay_evictions = 0, faults = 0;
  double wal_records = 0, wal_commits = 0, wal_bytes = 0, wal_snapshots = 0;
  double cpu_us = 0, ctx_switches = 0;
};

Counters read_counters(Workload& w, const cosm::rpc::Network& net) {
  Counters c;
  c.net = net.stats();
  c.plans = cosm::wire::PlanCache::instance().stats();
  auto& t = w.runtime().trader();
  c.imports = static_cast<double>(t.imports_total());
  c.evaluated = static_cast<double>(t.offers_evaluated());
  c.scanned = static_cast<double>(t.offers_scanned());
  c.index_lookups = static_cast<double>(t.index_lookups());
  c.heap_prunes = static_cast<double>(t.heap_prunes());
  c.cc_hits = static_cast<double>(t.constraint_cache_hits());
  c.cc_misses = static_cast<double>(t.constraint_cache_misses());
  c.cc_compile_ns = static_cast<double>(t.constraint_cache_compile_ns());
  c.pc_hits = static_cast<double>(t.preference_cache_hits());
  c.pc_misses = static_cast<double>(t.preference_cache_misses());
  c.pc_compile_ns = static_cast<double>(t.preference_cache_compile_ns());
  if (const auto* replay = w.runtime().server().replay_cache()) {
    c.replay_evictions = static_cast<double>(replay->evictions());
  }
  c.faults = static_cast<double>(w.runtime().server().faults_returned());
  if (auto* wal = dynamic_cast<cosm::trader::storage::WalStorage*>(&w.runtime().storage())) {
    c.wal_records = static_cast<double>(wal->records_logged());
    c.wal_commits = static_cast<double>(wal->group_commits());
    c.wal_bytes = static_cast<double>(wal->bytes_journalled());
    c.wal_snapshots = static_cast<double>(wal->snapshots_taken());
  }
  c.cpu_us = cpu_us();
  c.ctx_switches = context_switches();
  return c;
}

class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    metrics_.push_back({name, value, unit, samples});
  }
  /// Mean of samples in microseconds.
  void add_mean_us(const std::string& name, const std::vector<double>& us) {
    add(name, mean(us), "us", us.size());
  }
  std::vector<Metric> take() { return std::move(metrics_); }

 private:
  std::vector<Metric> metrics_;
};

std::uint64_t count_failed(const PhaseResult& phase) {
  return static_cast<std::uint64_t>(std::count_if(
      phase.records.begin(), phase.records.end(),
      [](const OpRecord& r) { return !r.ok || r.latency_ms() > kDeadlineMs; }));
}

std::uint64_t count_kind(const PhaseResult& phase, int kind) {
  return static_cast<std::uint64_t>(std::count_if(phase.records.begin(), phase.records.end(),
                                                  [kind](const OpRecord& r) { return r.kind == kind; }));
}

/// A latency quantile, marking the run invalid when the tail rule does
/// not allow it.
double tail_checked_quantile(RunResult& res, const std::string& name,
                             std::vector<double> samples, double q) {
  if (auto v = reportable_quantile(samples, q)) return *v;
  if (res.valid) {
    res.valid = false;
    res.invalid_reason = name + ": fewer than " + std::to_string(kMinBeyond) +
                         " samples beyond the quantile (" + std::to_string(samples.size()) +
                         " samples)";
  }
  return quantile(samples, q);
}

struct WireReplay {
  std::vector<double> args_marshal_us, result_marshal_us, result_unmarshal_us, resp_bytes;
  std::vector<cosm::trader::ImportRequest> requests;
};

/// Replays captured Import frames through the compiled marshal plan.
WireReplay replay_import_frames(const std::vector<TracingNetwork::Capture>& captures) {
  WireReplay out;
  const cosm::sidl::Sid sid = cosm::sidl::parse_sid(cosm::trader::trader_sidl());
  const cosm::wire::OperationPlan plan(*sid.find_operation("Import"));
  for (const auto& cap : captures) {
    const auto req = cosm::rpc::MessageView::decode(view_of(cap.request));
    const auto resp = cosm::rpc::MessageView::decode(view_of(cap.response));
    if (resp.type != cosm::rpc::MsgType::Response) continue;
    const auto args = plan.unmarshal_arguments(req.body);
    auto t0 = Clock::now();
    const cosm::Bytes encoded = plan.marshal_arguments(args);
    out.args_marshal_us.push_back(seconds_since(t0) * 1e6);
    t0 = Clock::now();
    const cosm::wire::Value result = plan.result().unmarshal(resp.body);
    out.result_unmarshal_us.push_back(seconds_since(t0) * 1e6);
    t0 = Clock::now();
    const cosm::Bytes reencoded = plan.result().marshal(result);
    out.result_marshal_us.push_back(seconds_since(t0) * 1e6);
    out.resp_bytes.push_back(static_cast<double>(resp.body.size()));
    cosm::trader::ImportRequest r;
    r.service_type = args.at(0).as_string();
    r.constraint = args.at(1).as_string();
    r.preference = args.at(2).as_string();
    r.max_matches = static_cast<std::size_t>(args.at(3).as_int());
    r.hop_limit = static_cast<int>(args.at(4).as_int());
    out.requests.push_back(std::move(r));
  }
  return out;
}

std::string document(const Options& o, const RunResult& r, Workload& w, double rate,
                     int threads, const cosm::rpc::TransportOptions& transport,
                     const CapacityResult& capacity) {
  const HostInfo host = host_info(o.commit);
  std::ostringstream d;
  d << "{\"schema\": \"cosm-bench/1\", \"workload\": " << json_string(o.workload)
    << ", \"seed\": " << o.seed << ", \"seconds\": " << json_number(o.seconds)
    << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"valid\": " << (r.valid ? "true" : "false")
    << ", \"invalid_reason\": " << json_string(r.invalid_reason)
    << ", \"correct\": " << (r.correct ? "true" : "false")
    << ", \"check_failure\": " << json_string(r.check_failure)
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed;
  d << ", \"host\": {\"cores\": " << host.cores << ", \"compiler\": " << json_string(host.compiler)
    << ", \"build_type\": " << json_string(host.build_type)
    << ", \"commit\": " << json_string(host.commit) << ", \"kernel\": " << json_string(host.kernel)
    << "}";
  d << ", \"threads\": {\"client\": " << threads
    << ", \"client_pool_cap\": " << transport.client_pool_cap
    << ", \"reactor_loops\": " << transport.event_loop_threads
    << ", \"dispatch_workers\": " << transport.dispatch_workers
    << ", \"process\": " << thread_count() << "}";
  d << ", \"fixed_rate_ops\": " << json_number(rate)
    << ", \"p99_limit_ms\": " << json_number(w.p99_limit_ms())
    << ", \"primary\": " << json_string(w.primary()) << ", \"params\": {";
  bool first = true;
  for (const auto& [k, v] : w.describe()) {
    d << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
    first = false;
  }
  d << "}, \"capacity_trials\": [";
  first = true;
  for (const auto& t : capacity.trials) {
    d << (first ? "" : ", ") << "{\"rate\": " << json_number(t.rate)
      << ", \"p99_ms\": " << json_number(t.p99_ms)
      << ", \"tail_wait_ms\": " << json_number(t.tail_wait_ms)
      << ", \"passed\": " << (t.passed ? "true" : "false") << "}";
    first = false;
  }
  auto metrics_object = [&d](const std::vector<const std::vector<Metric>*>& lists) {
    d << "{";
    bool first_metric = true;
    for (const auto* list : lists) {
      for (const auto& m : *list) {
        d << (first_metric ? "" : ", ") << json_string(m.name)
          << ": {\"value\": " << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
          << ", \"samples\": " << m.samples << "}";
        first_metric = false;
      }
    }
    d << "}";
  };
  d << "], \"windows\": [";
  first = true;
  for (const auto& window : r.windows) {
    d << (first ? "" : ", ");
    metrics_object({&window});
    first = false;
  }
  d << "], \"metrics\": ";
  metrics_object({&r.metrics, &r.extra});
  d << "}";
  return d.str();
}

}  // namespace

RunResult run_benchmark(const Options& o) {
  RunResult res;
  const int threads =
      static_cast<int>(std::clamp<unsigned>(std::thread::hardware_concurrency(), 1, 4));
  cosm::rpc::TransportOptions transport;
  transport.event_loop_threads = 2;
  transport.dispatch_workers = static_cast<std::size_t>(threads);
  transport.client_pool_cap = static_cast<std::size_t>(threads);
  cosm::rpc::TcpNetwork tcp(transport);
  std::unique_ptr<TracingNetwork> tracer;
  if (o.trace) tracer = std::make_unique<TracingNetwork>(tcp);
  cosm::rpc::Network& net = tracer ? static_cast<cosm::rpc::Network&>(*tracer) : tcp;

  std::filesystem::create_directories(o.workdir);
  WorkloadEnv env;
  env.seed = o.seed;
  env.tiny = o.tiny;
  env.workdir = o.workdir;
  env.inject_wrong = o.inject_wrong;
  auto w = make_workload(o.workload, env);

  // Set up several times (more when set-up is quick, so its median is
  // steady); the median is setup_s, the last set-up is kept.
  std::vector<double> setup_s, setup_rss;
  double setup_total = 0;
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         (setup_total < kSetupBudgetS && setup_s.size() < kMaxSetups)) {
    if (!setup_s.empty()) {
      w->teardown();
      malloc_trim(0);
    }
    const auto t0 = Clock::now();
    w->setup(net);
    setup_s.push_back(seconds_since(t0));
    setup_total += setup_s.back();
    setup_rss.push_back(rss_mb());
  }
  w->open_clients(threads);

  const double rate = w->fixed_rate();
  const double S = o.seconds;
  const int primary = w->primary_kind();
  const OpFn untraced = [&w](const Arrival& a, int t) { return w->run(a, t, nullptr); };
  // Warm-up: connections, caches, compiled plans.
  run_open_loop(poisson_schedule(mix_seed(o.seed, 7), rate, std::min(1.0, 0.1 * S)), threads,
                untraced);

  MetricSet m, extra;
  CapacityResult capacity;
  PhaseResult phase;
  if (!o.trace) {
    // Fixed-rate windows, then the capacity trials: the trials overload
    // the system and leave work behind (journal snapshots, store merges)
    // that would land in the windows after them.  Per-window figures are
    // combined by their median, so a short stall of the host moves one
    // window rather than the result.
    CapacityOptions search;
    search.seed = o.seed;
    search.start_rate = 2 * rate;
    search.trial_s = 0.5 * S / kCapacityTrials;
    search.p99_limit_ms = w->p99_limit_ms();
    search.primary_kind = primary;
    search.max_trials = kCapacityTrials;
    std::vector<double> op_p50, import_p50, cpu_per_op;
    std::size_t op_n = 0, import_n = 0;
    const Counters run_start = read_counters(*w, tcp);
    for (int i = 0; i < kWindows; ++i) {
      const Counters c0 = read_counters(*w, tcp);
      const PhaseResult window = run_open_loop(
          poisson_schedule(mix_seed(o.seed, 100 + i), rate, 0.5 * S / kWindows), threads, untraced);
      const Counters c1 = read_counters(*w, tcp);
      const auto op_lat = latencies_ms(window, primary);
      const auto import_lat = import_step_latencies_ms(window);
      op_n += op_lat.size();
      import_n += import_lat.size();
      const std::string at = " (window " + std::to_string(i) + ")";
      op_p50.push_back(tail_checked_quantile(res, "op_p50_ms" + at, op_lat, 0.5));
      import_p50.push_back(tail_checked_quantile(res, "import_p50_ms" + at, import_lat, 0.5));
      const auto done = window.records.size() - count_failed(window);
      cpu_per_op.push_back(ratio(c1.cpu_us - c0.cpu_us, static_cast<double>(done)));
      res.windows.push_back({{"op_p50_ms", op_p50.back(), "ms", op_lat.size()},
                             {"import_p50_ms", import_p50.back(), "ms", import_lat.size()},
                             {"cpu_us_per_op", cpu_per_op.back(), "us", done},
                             {"snapshots", c1.wal_snapshots - c0.wal_snapshots, "count", 1}});
      phase.records.insert(phase.records.end(), window.records.begin(), window.records.end());
    }
    capacity = find_capacity(search, threads, untraced);
    const double snapshots = read_counters(*w, tcp).wal_snapshots - run_start.wal_snapshots;
    const auto pooled_op = latencies_ms(phase, primary);
    const double op_p99 = tail_checked_quantile(res, "op_p99_ms", pooled_op, 0.99);

    res.attempted = phase.records.size();
    res.failed = count_failed(phase);
    m.add("cpu_us_per_op", median(cpu_per_op), "us", res.attempted - res.failed);
    m.add("rss_mb", median(setup_rss), "MB", setup_rss.size());
    m.add("setup_s", median(setup_s), "s", setup_s.size());

    // The same figures under the names of the operation they measure, and
    // the pooled tails.
    extra.add("op_p50_ms", median(op_p50), "ms", op_n);
    extra.add("import_p50_ms", median(import_p50), "ms", import_n);
    extra.add("op_p99_ms", op_p99, "ms", op_n);
    if (w->primary() != "import") {
      extra.add(w->primary() + "_p50_ms", median(op_p50), "ms", op_n);
      extra.add(w->primary() + "_p99_ms", op_p99, "ms", op_n);
    }
    const auto pooled_import = import_step_latencies_ms(phase);
    if (auto p99 = reportable_quantile(pooled_import, 0.99)) {
      extra.add("import_p99_ms", *p99, "ms", pooled_import.size());
    }
    if (auto p999 = reportable_quantile(pooled_op, 0.999)) {
      extra.add("op_p999_ms", *p999, "ms", pooled_op.size());
    }
    extra.add("capacity_ops", capacity.capacity, "1/s", capacity.trials.size());
    extra.add("fixed_rate_ops", rate, "1/s", 1);
    extra.add("capacity_first_fail_ops", capacity.first_fail, "1/s", capacity.trials.size());
    auto lag = generator_lag_ms(phase);
    const double lag_p99 = quantile(lag, 0.99);
    extra.add("gen.lag_p99_ms", lag_p99, "ms", lag.size());
    extra.add("storage.snapshots", snapshots, "count", 1);
    extra.add("error_rate", ratio(static_cast<double>(res.failed), static_cast<double>(res.attempted)),
              "ratio", res.attempted);
    if (lag_p99 > kMaxLagMs && res.valid) {
      res.valid = false;
      res.invalid_reason = "generator fell behind: lag p99 " + std::to_string(lag_p99) + " ms";
    }
  } else {
    // Reference phase with the decorator passing through, then the traced
    // phase, then the probe of the operations off the workload's path.
    const auto reference = run_open_loop(
        poisson_schedule(mix_seed(o.seed, 101), rate, 0.3 * S), threads, untraced);
    Sections sections(threads), probe_sections(1);
    const OpFn traced = [&](const Arrival& a, int t) { return w->run(a, t, &sections); };
    const Counters c0 = read_counters(*w, tcp);
    tracer->set_phase(0);
    tracer->set_recording(true);
    InFlightSampler sampler(tcp);
    phase = run_open_loop(poisson_schedule(mix_seed(o.seed, 102), rate, 0.6 * S), threads, traced);
    const auto in_flight = sampler.stop();
    const Counters c1 = read_counters(*w, tcp);
    tracer->set_phase(1);
    w->probe(&probe_sections);
    tracer->set_recording(false);

    res.attempted = phase.records.size();
    res.failed = count_failed(phase);
    const double ops = static_cast<double>(res.attempted);
    auto layer = [&](Layer l) {
      auto s = sections.samples(l);
      return s.empty() ? probe_sections.samples(l) : s;
    };
    m.add_mean_us("core.bind_us", layer(Layer::CoreBind));
    m.add_mean_us("core.invoke_us", layer(Layer::CoreInvoke));
    m.add_mean_us("core.import_us", layer(Layer::CoreImport));
    m.add_mean_us("uims.form_us", layer(Layer::UimsForm));

    // sidl: captured _get_sid replies through decode_value + ensure_valid.
    auto sid_caps = tracer->captures("_get_sid", 0);
    if (sid_caps.empty()) sid_caps = tracer->captures("_get_sid", 1);
    std::vector<double> sid_us, sid_bytes;
    for (const auto& cap : sid_caps) {
      const auto resp = cosm::rpc::MessageView::decode(view_of(cap.response));
      if (resp.type != cosm::rpc::MsgType::Response) continue;
      const auto t0 = Clock::now();
      cosm::ByteReader reader(resp.body);
      const cosm::wire::Value sid = cosm::wire::decode_value(reader);
      cosm::sidl::ensure_valid(*sid.as_sid());
      sid_us.push_back(seconds_since(t0) * 1e6);
      sid_bytes.push_back(static_cast<double>(resp.body.size()));
    }
    m.add_mean_us("sidl.sid_decode_us", sid_us);
    m.add("sidl.sid_bytes", mean(sid_bytes), "B", sid_bytes.size());

    // wire: captured Import frames through the compiled operation plan.
    const WireReplay wire = replay_import_frames(tracer->captures("Import", 0));
    m.add_mean_us("wire.args_marshal_us", wire.args_marshal_us);
    m.add_mean_us("wire.result_marshal_us", wire.result_marshal_us);
    m.add_mean_us("wire.result_unmarshal_us", wire.result_unmarshal_us);
    m.add("wire.resp_bytes_per_import", mean(wire.resp_bytes), "B", wire.resp_bytes.size());
    const double plan_hits = static_cast<double>(c1.plans.hits - c0.plans.hits);
    const double plan_misses = static_cast<double>(c1.plans.misses - c0.plans.misses);
    m.add("wire.plan_cache_hit_ratio", ratio(plan_hits, plan_hits + plan_misses), "ratio",
          static_cast<std::uint64_t>(plan_hits + plan_misses));

    // rpc: the decorator's per-operation samples (probe phase for the
    // operations the workload does not issue).
    const auto live = tracer->samples(0);
    const auto probed = tracer->samples(1);
    auto op_samples = [&](const std::string& op) {
      auto it = live.find(op);
      if (it != live.end() && !it->second.rtt_us.empty()) return it->second;
      auto jt = probed.find(op);
      return jt == probed.end() ? TracingNetwork::OpSamples{} : jt->second;
    };
    for (const auto& op : traced_ops()) m.add_mean_us("rpc.rtt_us." + op, op_samples(op).rtt_us);
    for (const auto& op : traced_ops()) {
      m.add_mean_us("rpc.server_us." + op, op_samples(op).server_us);
    }
    std::vector<double> transport_us;
    for (const auto& [op, s] : live) {
      transport_us.insert(transport_us.end(), s.transport_us.begin(), s.transport_us.end());
    }
    m.add_mean_us("rpc.transport_us", transport_us);
    auto in_flight_copy = in_flight;
    m.add("rpc.in_flight_p99", quantile(in_flight_copy, 0.99), "frames", in_flight.size());
    m.add("rpc.frames_per_op", ratio(static_cast<double>(c1.net.frames - c0.net.frames), ops),
          "frames/op", res.attempted);
    m.add("rpc.bytes_per_op",
          ratio(static_cast<double>((c1.net.bytes_in + c1.net.bytes_out) -
                                    (c0.net.bytes_in + c0.net.bytes_out)),
                ops),
          "B/op", res.attempted);
    m.add("rpc.replay_evictions", c1.replay_evictions - c0.replay_evictions, "count", 1);
    m.add("rpc.send_retries", static_cast<double>(c1.net.send_retries - c0.net.send_retries),
          "count", 1);
    m.add("rpc.faults", c1.faults - c0.faults, "count", 1);

    // trader: captured Import requests through Trader::import_ex, in
    // process, after the timed phase.
    auto& trader = w->runtime().trader();
    const Counters r0 = read_counters(*w, tcp);
    std::vector<double> import_us;
    double returned = 0, replicated = 0;
    for (const auto& request : wire.requests) {
      const auto t0 = Clock::now();
      const auto result = trader.import_ex(request);
      import_us.push_back(seconds_since(t0) * 1e6);
      returned += static_cast<double>(result.offers.size());
      for (const auto& link : result.links) {
        if (link.status == cosm::trader::LinkOutcome::Status::Replicated) {
          replicated += 1;
          break;
        }
      }
    }
    const Counters r1 = read_counters(*w, tcp);
    const double n = static_cast<double>(wire.requests.size());
    const auto nu = static_cast<std::uint64_t>(n);
    m.add_mean_us("trader.import_us", import_us);
    m.add("trader.scanned_per_import", ratio(r1.scanned - r0.scanned, n), "offers", nu);
    m.add("trader.evaluated_per_import", ratio(r1.evaluated - r0.evaluated, n), "offers", nu);
    m.add("trader.index_lookups_per_import", ratio(r1.index_lookups - r0.index_lookups, n),
          "lookups", nu);
    m.add("trader.heap_prunes_per_import", ratio(r1.heap_prunes - r0.heap_prunes, n), "offers",
          nu);
    m.add("trader.returned_per_import", ratio(returned, n), "offers", nu);
    m.add("trader.useful_ratio", ratio(returned, r1.evaluated - r0.evaluated), "ratio", nu);
    const double cc = (c1.cc_hits - c0.cc_hits) + (c1.cc_misses - c0.cc_misses);
    const double pc = (c1.pc_hits - c0.pc_hits) + (c1.pc_misses - c0.pc_misses);
    const double imports = c1.imports - c0.imports;
    m.add("trader.constraint_cache_hit_ratio", ratio(c1.cc_hits - c0.cc_hits, cc), "ratio",
          static_cast<std::uint64_t>(cc));
    m.add("trader.preference_cache_hit_ratio", ratio(c1.pc_hits - c0.pc_hits, pc), "ratio",
          static_cast<std::uint64_t>(pc));
    m.add("trader.compile_us_per_import",
          ratio(((c1.cc_compile_ns - c0.cc_compile_ns) + (c1.pc_compile_ns - c0.pc_compile_ns)) / 1e3,
                imports),
          "us", static_cast<std::uint64_t>(imports));
    m.add("trader.replica_resolved_frac", ratio(replicated, n), "ratio", nu);
    // Filled in after verify() below.
    m.add("trader.offer_drift", 0, "offers", 1);

    const double writes = static_cast<double>(count_kind(phase, kWrite));
    m.add("storage.records_per_commit",
          ratio(c1.wal_records - c0.wal_records, c1.wal_commits - c0.wal_commits), "records",
          static_cast<std::uint64_t>(c1.wal_commits - c0.wal_commits));
    m.add("storage.bytes_per_write", ratio(c1.wal_bytes - c0.wal_bytes, writes), "B",
          static_cast<std::uint64_t>(writes));
    m.add("storage.snapshots", c1.wal_snapshots - c0.wal_snapshots, "count", 1);

    m.add("proc.ctx_switches_per_op", ratio(c1.ctx_switches - c0.ctx_switches, ops), "1/op",
          res.attempted);
    m.add("proc.threads", static_cast<double>(sampler.max_threads()), "threads", 1);
    auto lag = generator_lag_ms(phase);
    m.add("gen.lag_p99_ms", quantile(lag, 0.99), "ms", lag.size());
    double service_us = 0;
    for (const auto& r : phase.records) service_us += r.service_ms() * 1e3;
    m.add("trace.unattributed_frac", 1.0 - ratio(sections.total_us(), service_us), "ratio",
          res.attempted);
    const double p50_traced = median(latencies_ms(phase, primary));
    const double p50_plain = median(latencies_ms(reference, primary));
    m.add("trace.overhead_frac", ratio(p50_traced, p50_plain) - 1.0, "ratio", res.attempted);
    m.add("error_rate", ratio(static_cast<double>(res.failed), ops), "ratio", res.attempted);
    if (quantile(lag, 0.99) > kMaxLagMs) {
      res.valid = false;
      res.invalid_reason = "generator fell behind: lag p99 " +
                           std::to_string(quantile(lag, 0.99)) + " ms";
    }
  }

  w->close_clients();
  w->verify();
  const double recovery = w->recover();

  res.metrics = m.take();
  for (auto& metric : res.metrics) {
    if (metric.name == "trader.offer_drift") metric.value = w->offer_drift();
  }
  res.extra = extra.take();
  if (recovery >= 0) res.extra.push_back({"recovery_s", recovery, "s", 1});
  res.extra.push_back({"checks", static_cast<double>(w->checks.performed()), "count",
                       w->checks.performed()});
  res.correct = w->checks.failed() == 0 && w->checks.performed() > 0;
  res.check_failure = w->checks.first_failure();
  if (o.tiny) {
    res.valid = true;
    res.invalid_reason.clear();
  }
  res.document = document(o, res, *w, rate, threads, transport, capacity);
  w->teardown();
  return res;
}

std::string result_line(const RunResult& r) {
  std::ostringstream line;
  line << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& m : r.metrics) {
    line << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": " << json_number(m.value)
         << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  line << "}}";
  return line.str();
}

int exit_code(const RunResult& r) {
  if (!r.correct) return 1;
  if (!r.valid) return 3;
  return 0;
}

}  // namespace cosm_bench
