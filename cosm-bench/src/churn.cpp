// churn: a write-heavy mix on a durable trader (WAL on, fsync off)
// preloaded with 200k offers, one type above the hot-split threshold.
// 70% writes (Export, ExportBatch of 16, Modify, Withdraw, balanced so the
// live count stays put), 30% selective imports with k=10, at-most-once on.
// The journal snapshots about twice per run; afterwards the runtime is
// rebuilt from the same directory and the recovered offers are checked.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>

#include "common/error.h"
#include "market.h"
#include "workload.h"

namespace cosm_bench {
namespace {

using cosm::core::CosmConfig;
using cosm::core::CosmRuntime;
namespace trader = cosm::trader;

const std::vector<std::string>& churn_types() {
  static const std::vector<std::string> t = {"Hot", "Cold0", "Cold1", "Cold2"};
  return t;
}

class ChurnWorkload final : public Workload {
 public:
  explicit ChurnWorkload(const WorkloadEnv& env) : env_(env) {
    offers_ = env.tiny ? 4000 : 200000;
    directory_ = env.workdir + "/churn-journal";
    config_.with_durability(directory_, /*fsync=*/false).with_at_most_once(4096);
    config_.storage.snapshot_every_bytes = 1u << 20;
    if (env.tiny) config_.trader_tuning.hot_split_threshold = 1000;
    for (int r = 0; r < 8; ++r) {
      for (int p = 5; p <= 50; p += 5) {
        texts_.push_back("region == r" + std::to_string(r) + " && price < " + std::to_string(p));
        constraints_.push_back(trader::Constraint::parse(texts_.back()));
      }
    }
  }

  std::string primary() const override { return "write"; }
  int primary_kind() const override { return kWrite; }
  double fixed_rate() const override { return env_.tiny ? 100 : 700; }
  double p99_limit_ms() const override { return 50; }

  void setup(cosm::rpc::Network& net) override {
    net_ = &net;
    std::filesystem::remove_all(directory_);
    runtime_ = std::make_unique<CosmRuntime>(net, config_);
    for (const auto& type : churn_types()) runtime_->trader().types().add(writer_type(type));
    // 60% of the store in the hot type, the rest split over the cold ones.
    const std::size_t hot = offers_ * 6 / 10;
    std::vector<std::string> ids;
    ids.reserve(offers_);
    std::vector<std::vector<trader::BatchOfferSpec>> pending(churn_types().size());
    auto flush = [&](std::size_t type) {
      for (auto& id : runtime_->trader().export_batch(churn_types()[type], std::move(pending[type]))) {
        ids.push_back(std::move(id));
      }
      pending[type].clear();
    };
    SplitMix64 rng(mix_seed(kStoreSeed, 31));
    for (std::size_t i = 0; i < offers_; ++i) {
      const std::size_t type = i < hot ? 0 : 1 + (i - hot) * 3 / (offers_ - hot);
      trader::BatchOfferSpec spec;
      spec.ref = runtime_->trader_ref();
      spec.attributes = OfferWriter::random_attrs(rng);
      pending[type].push_back(std::move(spec));
      if (pending[type].size() == 4096) flush(type);
    }
    for (std::size_t type = 0; type < pending.size(); ++type) {
      if (!pending[type].empty()) flush(type);
    }
    // Write targets: the hot type gets most of the traffic.
    writer_ = std::make_unique<OfferWriter>(
        std::vector<std::string>{"Hot", "Hot", "Hot", "Hot", "Cold0", "Cold1", "Cold2"},
        runtime_->trader_ref(), std::move(ids));
    // Probe-only: the car market (trading cycle).
    market_ = std::make_unique<CarMarket>(*runtime_, 64, 1000, kStoreSeed);
  }

  void teardown() override {
    close_clients();
    market_.reset();
    writer_.reset();
    runtime_.reset();
    std::filesystem::remove_all(directory_);
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
    SplitMix64 rng(arrival.draw);
    auto& binding = bindings_[static_cast<std::size_t>(thread)];
    if (rng.below(100) < 30) {
      OpResult result;
      result.kind = kImport;
      const std::size_t c = rng.below(texts_.size());
      trader::ImportRequest request;
      request.service_type = churn_types()[rng.below(churn_types().size())];
      request.constraint = texts_[c];
      request.preference = "min price";
      request.max_matches = 10;
      auto offers = import_via(binding, request, sections, thread);
      result.import_end = Clock::now();
      for (const auto& offer : offers) {
        if (constraints_[c].eval(offer.attributes)) {
          checks.pass();
        } else {
          checks.fail("churn: offer " + offer.id + " violates '" + texts_[c] + "'");
          result.ok = false;
        }
      }
      return result;
    }
    // Per 100 writes: 15 Export + 2 ExportBatch x16 add 47, 47 Withdraw
    // remove 47, 36 Modify.
    const auto w = rng.below(100);
    const auto op = w < 15   ? OfferWriter::Op::Export
                    : w < 17 ? OfferWriter::Op::ExportBatch
                    : w < 53 ? OfferWriter::Op::Modify
                             : OfferWriter::Op::Withdraw;
    return writer_->write(op, binding, rng, sections, thread);
  }

  void probe(Sections* sections) override {
    SplitMix64 rng(mix_seed(env_.seed, 9));
    for (int i = 0; i < 256; ++i) {
      market_->cycle(bindings_[0], *client_, rng.next(), sections, 0, checks, false);
    }
  }

  /// Every acknowledged offer not withdrawn is live, and nothing else is.
  void verify() override {
    before_restart_ = live_offers();
    if (env_.inject_wrong && !before_restart_.empty()) {
      before_restart_.erase(before_restart_.begin());
    }
    std::set<std::string> expected;
    for (auto& id : writer_->live_ids()) expected.insert(std::move(id));
    for (const auto& id : market_->offer_ids()) expected.insert(id);
    std::set<std::string> observed = before_restart_;
    for (const auto& id : writer_->uncertain_ids()) {
      expected.erase(id);
      observed.erase(id);
    }
    drift_ = static_cast<double>(observed.size()) - static_cast<double>(expected.size());
    if (observed == expected) {
      checks.pass();
    } else {
      checks.fail("churn: live offers differ from the acknowledged writes (" +
                  std::to_string(observed.size()) + " live, " +
                  std::to_string(expected.size()) + " expected)");
    }
  }

  double recover() override {
    close_clients();
    market_.reset();
    runtime_.reset();
    const auto t0 = Clock::now();
    runtime_ = std::make_unique<CosmRuntime>(*net_, config_);
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    if (live_offers() == before_restart_) {
      checks.pass();
    } else {
      checks.fail("churn: recovered offers differ from the offers live before the restart");
    }
    return seconds;
  }

  double offer_drift() const override { return drift_; }

  CosmRuntime& runtime() override { return *runtime_; }

  std::map<std::string, std::string> describe() const override {
    return {{"offers", std::to_string(offers_)},
            {"types", "Hot (60%), Cold0..2"},
            {"hot_split_threshold", std::to_string(config_.trader_tuning.hot_split_threshold)},
            {"mix", "30% import k=10; writes 15 Export, 2 ExportBatch x16, 36 Modify, 47 Withdraw per 100"},
            {"durable", "WAL on, fsync off"},
            {"snapshot_every_bytes", std::to_string(config_.storage.snapshot_every_bytes)},
            {"at_most_once", "on"}};
  }

 private:
  std::set<std::string> live_offers() {
    std::set<std::string> ids;
    for (const auto& type : churn_types()) {
      for (const auto& offer : runtime_->trader().list_offers(type)) ids.insert(offer.id);
    }
    for (const auto& offer :
         runtime_->trader().list_offers(cosm::services::car_rental_service_type_name())) {
      ids.insert(offer.id);
    }
    return ids;
  }

  WorkloadEnv env_;
  std::size_t offers_ = 0;
  std::string directory_;
  CosmConfig config_;
  std::vector<std::string> texts_;
  std::vector<trader::Constraint> constraints_;
  cosm::rpc::Network* net_ = nullptr;
  std::unique_ptr<CosmRuntime> runtime_;
  std::unique_ptr<OfferWriter> writer_;
  std::unique_ptr<CarMarket> market_;
  std::unique_ptr<cosm::core::GenericClient> client_;
  std::vector<cosm::core::Binding> bindings_;
  std::set<std::string> before_restart_;
  double drift_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_churn_workload(const WorkloadEnv& env) {
  return std::make_unique<ChurnWorkload>(env);
}

}  // namespace cosm_bench
