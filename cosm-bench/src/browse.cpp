// browse: import-only reads.  200k offers over a 3-level subtype
// hierarchy with Zipf type popularity and 8-16 attributes per offer;
// several hundred distinct constraint texts under Zipf skew (the 128-entry
// compiled cache hits only partly); first/min/max/random/score
// preferences; k Zipf-drawn from 10 to 100.  A quarter of the imports
// carry hop_limit=1 and are answered from the synced replica of a second
// trader (50k offers) reached over TCP.  At-most-once off; no bind.
#include <algorithm>
#include <memory>

#include "common/error.h"
#include "market.h"
#include "stats.h"
#include "workload.h"

namespace cosm_bench {
namespace {

using cosm::core::CosmConfig;
using cosm::core::CosmRuntime;
using cosm::wire::Value;
namespace trader = cosm::trader;

constexpr int kExtras = 8;

std::vector<std::string> leaf_types() {
  std::vector<std::string> out;
  for (const char* mid : {"Compute", "Storage", "Network", "Media"}) {
    for (int i = 0; i < 3; ++i) out.push_back(std::string(mid) + "_" + std::to_string(i));
  }
  return out;
}

void register_types(trader::Trader& t) {
  trader::ServiceType root;
  root.name = "Resource";
  using cosm::sidl::TypeDesc;
  root.attributes = {
      {"region", TypeDesc::string_(), true}, {"tier", TypeDesc::int_(), true},
      {"price", TypeDesc::float_(), true},   {"load", TypeDesc::float_(), true},
      {"rating", TypeDesc::float_(), true},  {"vendor", TypeDesc::string_(), true},
      {"zone", TypeDesc::string_(), true},   {"year", TypeDesc::int_(), true},
  };
  for (int i = 0; i < kExtras; ++i) {
    root.attributes.push_back({"x" + std::to_string(i), TypeDesc::float_(), false});
  }
  t.types().add(root);
  for (const char* mid : {"Compute", "Storage", "Network", "Media"}) {
    trader::ServiceType m;
    m.name = mid;
    m.supertype = "Resource";
    t.types().add(m);
    for (int i = 0; i < 3; ++i) {
      trader::ServiceType leaf;
      leaf.name = std::string(mid) + "_" + std::to_string(i);
      leaf.supertype = mid;
      t.types().add(leaf);
    }
  }
}

trader::AttrMap resource_attrs(SplitMix64& rng) {
  trader::AttrMap a = {
      {"region", Value::string("r" + std::to_string(rng.below(8)))},
      {"tier", Value::integer(1 + static_cast<std::int64_t>(rng.below(5)))},
      {"price", Value::real(1.0 + 499.0 * rng.uniform())},
      {"load", Value::real(rng.uniform())},
      {"rating", Value::real(5.0 * rng.uniform())},
      {"vendor", Value::string("v" + std::to_string(rng.below(16)))},
      {"zone", Value::string("z" + std::to_string(rng.below(6)))},
      {"year", Value::integer(1990 + static_cast<std::int64_t>(rng.below(35)))},
  };
  const auto extras = rng.below(kExtras + 1);
  for (std::uint64_t i = 0; i < extras; ++i) {
    a["x" + std::to_string(i)] = Value::real(100.0 * rng.uniform());
  }
  return a;
}

/// Export `count` offers with Zipf-popular leaf types.
void load_store(trader::Trader& t, std::size_t count, std::uint64_t seed,
                const cosm::sidl::ServiceRef& ref) {
  const auto leaves = leaf_types();
  const Zipf popularity(leaves.size(), 1.0);
  SplitMix64 rng(seed);
  std::vector<std::vector<trader::BatchOfferSpec>> pending(leaves.size());
  auto flush = [&](std::size_t leaf) {
    t.export_batch(leaves[leaf], std::move(pending[leaf]));
    pending[leaf].clear();
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t leaf = popularity.sample(rng.uniform());
    trader::BatchOfferSpec spec;
    spec.ref = ref;
    spec.attributes = resource_attrs(rng);
    pending[leaf].push_back(std::move(spec));
    if (pending[leaf].size() == 1u << 20) flush(leaf);
  }
  for (std::size_t leaf = 0; leaf < leaves.size(); ++leaf) {
    if (!pending[leaf].empty()) flush(leaf);
  }
}

/// Every distinct constraint text the templates can produce (383), in a
/// fixed shuffled order so Zipf rank does not follow the template.  Each
/// selects roughly 1/200 to 1/800 of a type's offers.
std::vector<std::string> constraint_texts() {
  std::vector<std::string> out;
  for (int p = 1; p <= 96; p += 5) {
    out.push_back("price >= " + std::to_string(p) + " && price < " + std::to_string(p + 1));
  }
  for (int r = 0; r < 8; ++r) {
    for (int v = 0; v < 16; ++v) {
      for (int t = 1; t <= 2; ++t) {
        out.push_back("region == r" + std::to_string(r) + " && vendor == v" +
                      std::to_string(v) + " && tier <= " + std::to_string(t));
      }
    }
  }
  for (int v = 0; v < 16; ++v) {
    for (const char* x : {"4.6", "4.7", "4.8", "4.9"}) {
      out.push_back("vendor == v" + std::to_string(v) + " && rating > " + x);
    }
  }
  for (int t = 1; t <= 5; ++t) {
    for (const char* l : {"0.01", "0.02", "0.03", "0.04", "0.05"}) {
      out.push_back("tier == " + std::to_string(t) + " && load < " + l);
    }
  }
  for (int z = 0; z < 6; ++z) {
    for (int y : {2000, 2010, 2020}) {
      out.push_back("zone == z" + std::to_string(z) + " && year == " + std::to_string(y));
    }
  }
  SplitMix64 rng(0xb0557);
  for (std::size_t i = out.size(); i > 1; --i) std::swap(out[i - 1], out[rng.below(i)]);
  return out;
}

const std::vector<std::string>& import_types() {
  static const std::vector<std::string> types = {
      "Compute_0", "Compute", "Storage_0", "Resource", "Network_0", "Compute_1",
      "Media_0",   "Storage", "Storage_1", "Network",  "Compute_2", "Media",
      "Network_1", "Media_1", "Storage_2", "Network_2", "Media_2"};
  return types;
}

const std::vector<std::string>& preferences() {
  static const std::vector<std::string> prefs = {
      "first", "min price", "min load", "max rating", "max year", "random",
      "score: rating - price / 100", "score: 2 * rating - load - tier / 2"};
  return prefs;
}

struct Sample {
  trader::ImportRequest request;
  std::vector<std::string> ids;
};

class BrowseWorkload final : public Workload {
 public:
  explicit BrowseWorkload(const WorkloadEnv& env)
      : env_(env),
        texts_(constraint_texts()),
        type_zipf_(import_types().size(), 1.0),
        text_zipf_(texts_.size(), 0.9),
        k_zipf_(91, 1.0) {
    offers_ = env.tiny ? 4000 : 200000;
    replica_offers_ = env.tiny ? 1000 : 10000;
  }

  std::string primary() const override { return "import"; }
  int primary_kind() const override { return kImport; }
  double fixed_rate() const override { return env_.tiny ? 100 : 400; }
  double p99_limit_ms() const override { return 50; }

  void setup(cosm::rpc::Network& net) override {
    net_ = &net;
    // Subscribe while the peer is still empty, then stream its offers as
    // deltas: the initial snapshot travels inside the Subscribe call and
    // must fit its fixed 5 s budget.
    CosmConfig peer_config;
    peer_config.replication.max_batch = 8192;
    peer_ = std::make_unique<CosmRuntime>(net, peer_config);
    register_types(peer_->trader());
    runtime_ = std::make_unique<CosmRuntime>(net, CosmConfig{});
    register_types(runtime_->trader());
    runtime_->link_trader("peer", peer_->trader_ref());
    runtime_->subscribe_trader("peer");
    load_store(peer_->trader(), replica_offers_, mix_seed(kStoreSeed, 21), peer_->trader_ref());
    while (peer_->trader().replication_pending() > 0) {
      if (peer_->trader().flush_replication() == 0) {
        throw cosm::ContractError("browse: replication flush made no progress");
      }
    }
    peer_->trader().anti_entropy_tick();
    const auto replica = runtime_->trader().replica_info("peer");
    if (!replica.synced || replica.offers != replica_offers_) {
      throw cosm::ContractError("browse: replica did not sync (" +
                                std::to_string(replica.offers) + " offers)");
    }
    load_store(runtime_->trader(), offers_, mix_seed(kStoreSeed, 22), runtime_->trader_ref());
    // Probe-only: the car market (trading cycle) and a writable type.
    market_ = std::make_unique<CarMarket>(*runtime_, 64, 1000, kStoreSeed);
    writer_ = make_probe_writer(*runtime_);
  }

  void teardown() override {
    close_clients();
    writer_.reset();
    market_.reset();
    runtime_.reset();
    peer_.reset();
    std::lock_guard lock(samples_mutex_);
    samples_.clear();
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
    OpResult result;
    result.kind = kImport;
    SplitMix64 rng(arrival.draw);
    trader::ImportRequest request;
    request.service_type = import_types()[type_zipf_.sample(rng.uniform())];
    request.constraint = texts_[text_zipf_.sample(rng.uniform())];
    request.preference = preferences()[rng.below(preferences().size())];
    request.max_matches = 10 + k_zipf_.sample(rng.uniform());
    request.hop_limit = rng.uniform() < 0.25 ? 1 : 0;
    const bool sampled = rng.below(16) == 0 && request.preference != "random";
    auto offers = import_via(bindings_[static_cast<std::size_t>(thread)], request, sections,
                             thread);
    result.import_end = Clock::now();
    if (offers.size() > request.max_matches) {
      checks.fail("browse: Import returned more than k offers");
      result.ok = false;
    }
    if (sampled) {
      std::lock_guard lock(samples_mutex_);
      if (samples_.size() < 512) samples_.push_back({request, ids_of(offers)});
    }
    return result;
  }

  void probe(Sections* sections) override {
    SplitMix64 rng(mix_seed(env_.seed, 9));
    for (int i = 0; i < 256; ++i) {
      market_->cycle(bindings_[0], *client_, rng.next(), sections, 0, checks, false);
      for (auto op : {OfferWriter::Op::Export, OfferWriter::Op::ExportBatch,
                      OfferWriter::Op::Modify, OfferWriter::Op::Withdraw}) {
        writer_->write(op, bindings_[0], rng, sections, 0);
      }
    }
  }

  /// A seeded sample of RPC answers must equal in-process Trader::import
  /// of the same request: same ids, same order.
  void verify() override {
    std::lock_guard lock(samples_mutex_);
    if (samples_.empty()) {
      checks.fail("browse: no sampled imports to check");
      return;
    }
    if (env_.inject_wrong) std::reverse(samples_.front().ids.begin(), samples_.front().ids.end());
    if (env_.inject_wrong) samples_.front().ids.push_back("not-an-offer");
    for (const auto& s : samples_) {
      if (ids_of(runtime_->trader().import(s.request)) == s.ids) {
        checks.pass();
      } else {
        checks.fail("browse: RPC answer differs from in-process import for '" +
                    s.request.constraint + "' on " + s.request.service_type);
      }
    }
  }

  CosmRuntime& runtime() override { return *runtime_; }

  std::map<std::string, std::string> describe() const override {
    return {{"offers", std::to_string(offers_)},
            {"replica_offers", std::to_string(replica_offers_)},
            {"types", "17 (Resource > 4 > 12 leaves)"},
            {"constraint_texts", std::to_string(texts_.size())},
            {"constraint_zipf_s", "0.9"},
            {"type_zipf_s", "1.0"},
            {"k", "10..100 zipf s=1.0"},
            {"hop_limit_1_share", "0.25"},
            {"at_most_once", "off"}};
  }

 private:
  WorkloadEnv env_;
  std::vector<std::string> texts_;
  Zipf type_zipf_;
  Zipf text_zipf_;
  Zipf k_zipf_;
  std::size_t offers_ = 0;
  std::size_t replica_offers_ = 0;
  cosm::rpc::Network* net_ = nullptr;
  std::unique_ptr<CosmRuntime> peer_;
  std::unique_ptr<CosmRuntime> runtime_;
  std::unique_ptr<CarMarket> market_;
  std::unique_ptr<OfferWriter> writer_;
  std::unique_ptr<cosm::core::GenericClient> client_;
  std::vector<cosm::core::Binding> bindings_;
  std::mutex samples_mutex_;
  std::vector<Sample> samples_;
};

}  // namespace

std::unique_ptr<Workload> make_browse_workload(const WorkloadEnv& env) {
  return std::make_unique<BrowseWorkload>(env);
}

}  // namespace cosm_bench
