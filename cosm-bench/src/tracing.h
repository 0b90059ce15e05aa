// Instruments of the traced run.  Nothing here is linked into the
// untraced runs' data path: those use the bare rpc::TcpNetwork and pass a
// null Sections pointer.
//
//   * TracingNetwork decorates an rpc::Network.  It wraps every server
//     FrameHandler (server time per operation) and every client call_async
//     completion (round trip per operation), keys both by
//     rpc::MessageView::decode (operation, session, request id), and keeps
//     a bounded capture of real Import and _get_sid request/response
//     frames for the offline replays.
//   * Sections times the blocking client-side layer calls a workload makes
//     (generic-client Import, bind, invoke; form editing).
//   * InFlightSampler samples NetworkStats::in_flight_frames.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "rpc/network.h"

namespace cosm_bench {

inline cosm::BytesView view_of(const cosm::Bytes& b) { return cosm::BytesView(b.data(), b.size()); }

class TracingNetwork final : public cosm::rpc::Network {
 public:
  explicit TracingNetwork(cosm::rpc::Network& inner, std::size_t capture_cap = 4096)
      : inner_(inner), capture_cap_(capture_cap) {}

  std::string listen(const std::string& hint, cosm::rpc::FrameHandler handler) override;
  void unlisten(const std::string& endpoint) override { inner_.unlisten(endpoint); }
  cosm::rpc::PendingCallPtr call_async(const std::string& endpoint,
                                       const cosm::Bytes& request,
                                       const cosm::rpc::CallContext& ctx) override;
  std::string scheme() const override { return inner_.scheme(); }
  cosm::rpc::NetworkStats stats() const override { return inner_.stats(); }

  /// Samples are only taken while recording; each is tagged with the
  /// current phase (0 = the workload's traced phase, 1 = layer probe).
  void set_recording(bool on) { recording_.store(on, std::memory_order_release); }
  void set_phase(int phase) { phase_.store(phase, std::memory_order_release); }

  struct OpSamples {
    std::vector<double> rtt_us;
    std::vector<double> server_us;
    std::vector<double> transport_us;
  };
  /// Per-operation samples of one phase.
  std::map<std::string, OpSamples> samples(int phase) const;

  struct Capture {
    cosm::Bytes request;
    cosm::Bytes response;
  };
  /// Captured frame pairs of `op` taken in `phase`.
  std::vector<Capture> captures(const std::string& op, int phase) const;

 private:
  bool recording() const { return recording_.load(std::memory_order_acquire); }

  cosm::rpc::Network& inner_;
  const std::size_t capture_cap_;
  std::atomic<bool> recording_{false};
  std::atomic<int> phase_{0};

  mutable std::mutex mutex_;
  /// (session, request id) -> server time of a request whose response has
  /// not reached its client yet.
  std::unordered_map<std::string, double> server_time_;
  std::map<std::string, OpSamples> samples_[2];
  std::map<std::string, std::vector<Capture>> captures_[2];
};

/// Client-side blocking layer calls, timed per call.
enum class Layer : int {
  CoreImport,  ///< generic-client Import invoke + offer_from_value
  CoreBind,    ///< GenericClient::bind (SID transfer + validation)
  CoreInvoke,  ///< Binding::invoke / invoke_form
  UimsForm,    ///< Binding::edit + FormEditor::set
  CoreWrite,   ///< generic-client Export/ExportBatch/Modify/Withdraw invoke
  Count,
};

class Sections {
 public:
  explicit Sections(int threads) : per_thread_(static_cast<std::size_t>(threads)) {}
  void add(int thread, Layer layer, double us) {
    per_thread_[static_cast<std::size_t>(thread)][static_cast<int>(layer)].push_back(us);
  }
  std::vector<double> samples(Layer layer) const;
  /// Sum of every timed section (us).
  double total_us() const;

 private:
  std::vector<std::array<std::vector<double>, static_cast<int>(Layer::Count)>> per_thread_;
};

/// RAII timer adding one section sample; a no-op on a null Sections.
class Span {
 public:
  Span(Sections* sections, int thread, Layer layer)
      : sections_(sections), thread_(thread), layer_(layer) {
    if (sections_) start_ = std::chrono::steady_clock::now();
  }
  ~Span() {
    if (sections_) {
      sections_->add(thread_, layer_,
                     std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start_)
                         .count());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Sections* sections_;
  int thread_;
  Layer layer_;
  std::chrono::steady_clock::time_point start_{};
};

/// Samples a network's in-flight frame count every millisecond, and the
/// process's thread count every 64 samples.
class InFlightSampler {
 public:
  explicit InFlightSampler(const cosm::rpc::Network& network);
  ~InFlightSampler();
  /// Stop sampling and return the in-flight samples.
  std::vector<double> stop();
  /// Most threads seen (valid after stop()).
  std::size_t max_threads() const { return max_threads_; }

 private:
  const cosm::rpc::Network& network_;
  std::atomic<bool> stop_{false};
  std::vector<double> samples_;
  std::size_t max_threads_ = 0;
  std::thread thread_;
};

}  // namespace cosm_bench
