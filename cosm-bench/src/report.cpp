#include "report.h"

#include <sys/resource.h>
#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

namespace cosm_bench {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

HostInfo host_info(const std::string& commit) {
  HostInfo h;
  h.cores = std::thread::hardware_concurrency();
#ifdef COSM_BENCH_COMPILER
  h.compiler = COSM_BENCH_COMPILER;
#endif
#ifdef COSM_BENCH_BUILD_TYPE
  h.build_type = COSM_BENCH_BUILD_TYPE;
#endif
  h.commit = commit.empty() ? "unknown" : commit;
  struct utsname u {};
  if (uname(&u) == 0) h.kernel = std::string(u.sysname) + " " + u.release + " " + u.machine;
  return h;
}

double rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

double cpu_us() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  auto us = [](const timeval& t) { return t.tv_sec * 1e6 + static_cast<double>(t.tv_usec); };
  return us(r.ru_utime) + us(r.ru_stime);
}

double context_switches() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  return static_cast<double>(r.ru_nvcsw + r.ru_nivcsw);
}

std::size_t thread_count() {
  std::size_t n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

}  // namespace cosm_bench
