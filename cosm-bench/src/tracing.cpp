#include "tracing.h"

#include <array>

#include <algorithm>
#include <memory>

#include "report.h"
#include "rpc/message.h"

namespace cosm_bench {

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct FrameKey {
  std::string op;
  std::string key;
  bool ok = false;
};

FrameKey key_of(const cosm::Bytes& frame) {
  FrameKey k;
  try {
    auto view = cosm::rpc::MessageView::decode(view_of(frame));
    k.op = std::string(view.operation);
    k.key = std::string(view.session) + "#" + std::to_string(view.request_id);
    k.ok = true;
  } catch (...) {
  }
  return k;
}

}  // namespace

std::string TracingNetwork::listen(const std::string& hint,
                                   cosm::rpc::FrameHandler handler) {
  auto wrapped = [this, handler = std::move(handler)](const cosm::Bytes& frame) {
    if (!recording()) return handler(frame);
    const auto t0 = Clock::now();
    cosm::Bytes response = handler(frame);
    const double server_us = us_between(t0, Clock::now());
    FrameKey k = key_of(frame);
    if (k.ok) {
      std::lock_guard lock(mutex_);
      samples_[phase_.load(std::memory_order_relaxed)][k.op].server_us.push_back(server_us);
      server_time_[k.key] = server_us;
    }
    return response;
  };
  return inner_.listen(hint, std::move(wrapped));
}

cosm::rpc::PendingCallPtr TracingNetwork::call_async(const std::string& endpoint,
                                                     const cosm::Bytes& request,
                                                     const cosm::rpc::CallContext& ctx) {
  if (!recording()) return inner_.call_async(endpoint, request, ctx);
  FrameKey k = key_of(request);
  const int phase = phase_.load(std::memory_order_relaxed);
  // Keep a copy of the request only while the capture still wants one.
  std::shared_ptr<cosm::Bytes> kept;
  if (k.ok && (k.op == "Import" || k.op == "_get_sid")) {
    std::lock_guard lock(mutex_);
    if (captures_[phase][k.op].size() < capture_cap_) kept = std::make_shared<cosm::Bytes>(request);
  }
  const auto t0 = Clock::now();
  auto pending = inner_.call_async(endpoint, request, ctx);
  pending->on_complete([this, t0, phase, k = std::move(k), kept = std::move(kept)](
                           const cosm::Bytes* response, std::exception_ptr) {
    const double rtt_us = us_between(t0, Clock::now());
    if (!k.ok) return;
    std::lock_guard lock(mutex_);
    OpSamples& s = samples_[phase][k.op];
    s.rtt_us.push_back(rtt_us);
    if (auto it = server_time_.find(k.key); it != server_time_.end()) {
      s.transport_us.push_back(rtt_us - it->second);
      server_time_.erase(it);
    }
    auto& cap = captures_[phase][k.op];
    if (response && kept && cap.size() < capture_cap_) cap.push_back({*kept, *response});
  });
  return pending;
}

std::map<std::string, TracingNetwork::OpSamples> TracingNetwork::samples(int phase) const {
  std::lock_guard lock(mutex_);
  return samples_[phase];
}

std::vector<TracingNetwork::Capture> TracingNetwork::captures(const std::string& op,
                                                              int phase) const {
  std::lock_guard lock(mutex_);
  auto it = captures_[phase].find(op);
  return it == captures_[phase].end() ? std::vector<Capture>{} : it->second;
}

std::vector<double> Sections::samples(Layer layer) const {
  std::vector<double> out;
  for (const auto& t : per_thread_) {
    const auto& v = t[static_cast<int>(layer)];
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

double Sections::total_us() const {
  double total = 0;
  for (const auto& t : per_thread_) {
    for (const auto& v : t) {
      for (double x : v) total += x;
    }
  }
  return total;
}

InFlightSampler::InFlightSampler(const cosm::rpc::Network& network)
    : network_(network), thread_([this] {
        while (!stop_.load(std::memory_order_acquire)) {
          if (samples_.size() % 64 == 0) max_threads_ = std::max(max_threads_, thread_count());
          samples_.push_back(static_cast<double>(network_.stats().in_flight_frames));
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }) {}

InFlightSampler::~InFlightSampler() { stop(); }

std::vector<double> InFlightSampler::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  return samples_;
}

}  // namespace cosm_bench
