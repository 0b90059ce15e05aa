// Self-tests of the benchmark: the percentile rule, schedule determinism,
// and a tiny-scale run of every workload (untraced and traced), including
// a deliberately wrong answer that must trip the output checks.
//
//   cosm_bench_selftest            (also registered with ctest)
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "schedule.h"
#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void percentile_rule() {
  using namespace cosm_bench;
  expect(samples_beyond(1000, 0.99) == 10, "p99 of 1000 samples has 10 beyond");
  expect(samples_beyond(999, 0.99) == 9, "p99 of 999 samples has 9 beyond");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(reportable_quantile(v, 0.99) == 990.0, "p99 of 1..1000 is 990 (nearest rank)");
  v.pop_back();
  expect(!reportable_quantile(v, 0.99).has_value(), "p99 withheld below 10 samples beyond");
  expect(reportable_quantile(std::vector<double>(20, 1.0), 0.5).has_value(),
         "p50 of 20 samples is reportable");
  expect(!reportable_quantile(std::vector<double>(19, 1.0), 0.5).has_value(),
         "p50 of 19 samples is withheld");
}

void schedule_determinism() {
  using namespace cosm_bench;
  const auto a = poisson_schedule(42, 1000, 2.0);
  const auto b = poisson_schedule(42, 1000, 2.0);
  const auto c = poisson_schedule(43, 1000, 2.0);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_s == b[i].due_s && a[i].draw == b[i].draw;
  }
  expect(same, "same seed gives the same schedule");
  expect(a.size() != c.size() || a.front().due_s != c.front().due_s,
         "another seed gives another schedule");
  expect(std::abs(static_cast<double>(a.size()) - 2000.0) < 200.0,
         "arrival count matches the rate (" + std::to_string(a.size()) + ")");
  bool ordered = true;
  for (std::size_t i = 1; i < a.size(); ++i) ordered = ordered && a[i].due_s >= a[i - 1].due_s;
  expect(ordered, "arrivals are in due order");
}

std::set<std::string> names_of(const std::vector<cosm_bench::Metric>& metrics) {
  std::set<std::string> out;
  for (const auto& m : metrics) out.insert(m.name);
  return out;
}

void smoke(const std::string& workload, bool trace, bool inject_wrong) {
  cosm_bench::Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 1.0;
  o.trace = trace;
  o.tiny = true;
  o.inject_wrong = inject_wrong;
  o.workdir = "selftest-work";
  const std::string what =
      workload + (trace ? " traced" : " untraced") + (inject_wrong ? " with a wrong answer" : "");
  try {
    const auto r = cosm_bench::run_benchmark(o);
    if (inject_wrong) {
      expect(!r.correct && cosm_bench::exit_code(r) == 1,
             what + ": output checks trip (" + r.check_failure + ")");
      return;
    }
    expect(r.correct && cosm_bench::exit_code(r) == 0,
           what + ": correct (" + r.check_failure + ")");
    expect(r.attempted > 0 && r.failed == 0, what + ": no failed operation");
    const auto& want = trace ? cosm_bench::per_layer_metric_names()
                             : cosm_bench::end_to_end_metric_names();
    expect(names_of(r.metrics) == std::set<std::string>(want.begin(), want.end()) &&
               r.metrics.size() == want.size(),
           what + ": reports exactly the listed metrics");
  } catch (const std::exception& e) {
    expect(false, what + ": threw " + e.what());
  }
}

}  // namespace

int main() {
  percentile_rule();
  schedule_determinism();
  for (const char* w : {"cycle", "browse", "churn"}) {
    smoke(w, false, false);
    smoke(w, true, false);
    smoke(w, false, true);
  }
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
