// cosm_bench: one run of the trading-cycle benchmark.
//
//   cosm_bench --workload cycle|browse|churn --seed N --seconds S --trace 0|1
//              [--result FILE] [--commit ID] [--workdir DIR]
//
// Prints every metric by name with unit and sample count, then, as the
// last line, one JSON object {correct, attempted, failed, metrics}.  Exit
// code 0 = scored and correct, 1 = an output check failed, 2 = usage or
// set-up error, 3 = invalid run (not scored, no result line).
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "cosm_bench: %s\nusage: cosm_bench --workload cycle|browse|churn --seed N "
               "--seconds S --trace 0|1 [--result FILE] [--commit ID] [--workdir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  cosm_bench::Options o;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = value() != "0";
      } else if (arg == "--result") {
        o.result_path = value();
      } else if (arg == "--commit") {
        o.commit = value();
      } else if (arg == "--workdir") {
        o.workdir = value();
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!have_workload) return usage("--workload is required");
  if (!(o.seconds > 0)) return usage("--seconds must be positive");

  cosm_bench::RunResult r;
  try {
    r = cosm_bench::run_benchmark(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cosm_bench: %s\n", e.what());
    return 2;
  }
  if (!o.result_path.empty()) std::ofstream(o.result_path) << r.document << "\n";

  std::cout << "cosm-bench workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0)
            << " attempted=" << r.attempted << " failed=" << r.failed << "\n";
  for (const auto* list : {&r.metrics, &r.extra}) {
    for (const auto& m : *list) {
      std::cout << "  " << m.name << " = " << cosm_bench::json_number(m.value) << " " << m.unit
                << " (n=" << m.samples << ")\n";
    }
  }
  if (!r.correct) std::cout << "OUTPUT CHECK FAILED: " << r.check_failure << "\n";
  if (!r.valid) {
    std::cout << "INVALID RUN (not scored): " << r.invalid_reason << "\n";
    return cosm_bench::exit_code(r);
  }
  std::cout << cosm_bench::result_line(r) << std::endl;
  return cosm_bench::exit_code(r);
}
