// cycle: the paper's trading cycle (Fig. 1, Fig. 3) once per arrival —
// Import through a generic-client binding to the trader, bind to the
// returned reference with SID transfer, one SelectCar quote through the
// generated form and one ListModels.  10k offers over 64 live
// heterogeneous providers, at-most-once on.
#include <memory>

#include "market.h"
#include "rpc/network.h"
#include "workload.h"

namespace cosm_bench {
namespace {

using cosm::core::CosmConfig;
using cosm::core::CosmRuntime;

class CycleWorkload final : public Workload {
 public:
  explicit CycleWorkload(const WorkloadEnv& env) : env_(env) {
    providers_ = env.tiny ? 8 : 64;
    offers_ = env.tiny ? 500 : 10000;
  }

  std::string primary() const override { return "cycle"; }
  int primary_kind() const override { return kCycle; }
  double fixed_rate() const override { return env_.tiny ? 100 : 300; }
  double p99_limit_ms() const override { return 50; }

  void setup(cosm::rpc::Network& net) override {
    net_ = &net;
    CosmConfig config;
    config.with_at_most_once(4096);
    runtime_ = std::make_unique<CosmRuntime>(net, config);
    market_ = std::make_unique<CarMarket>(*runtime_, providers_, offers_, kStoreSeed);
    writer_ = make_probe_writer(*runtime_);
  }

  void teardown() override {
    close_clients();
    writer_.reset();
    market_.reset();
    runtime_.reset();
  }

  void open_clients(int threads) override {
    client_ = std::make_unique<cosm::core::GenericClient>(*net_);
    for (int t = 0; t < threads; ++t) bindings_.push_back(client_->bind(runtime_->trader_ref()));
  }
  void close_clients() override {
    bindings_.clear();
    client_.reset();
  }

  OpResult run(const Arrival& arrival, int thread, Sections* sections) override {
    return market_->cycle(bindings_[static_cast<std::size_t>(thread)], *client_, arrival.draw,
                          sections, thread, checks, env_.inject_wrong);
  }

  void probe(Sections* sections) override {
    SplitMix64 rng(mix_seed(env_.seed, 9));
    for (int i = 0; i < 256; ++i) {
      for (auto op : {OfferWriter::Op::Export, OfferWriter::Op::ExportBatch,
                      OfferWriter::Op::Modify, OfferWriter::Op::Withdraw}) {
        writer_->write(op, bindings_[0], rng, sections, 0);
      }
    }
  }

  CosmRuntime& runtime() override { return *runtime_; }

  std::map<std::string, std::string> describe() const override {
    return {{"providers", std::to_string(providers_)},
            {"offers", std::to_string(offers_)},
            {"constraint_texts", std::to_string(market_ ? market_->constraint_count() : 0)},
            {"preference", "min ChargePerDay"},
            {"max_matches", "1"},
            {"at_most_once", "on"},
            {"replay_cache_capacity", "4096"}};
  }

 private:
  WorkloadEnv env_;
  std::size_t providers_ = 64;
  std::size_t offers_ = 10000;
  cosm::rpc::Network* net_ = nullptr;
  std::unique_ptr<CosmRuntime> runtime_;
  std::unique_ptr<CarMarket> market_;
  std::unique_ptr<OfferWriter> writer_;
  std::unique_ptr<cosm::core::GenericClient> client_;
  std::vector<cosm::core::Binding> bindings_;
};

}  // namespace

std::unique_ptr<Workload> make_cycle_workload(const WorkloadEnv& env) {
  return std::make_unique<CycleWorkload>(env);
}

}  // namespace cosm_bench
