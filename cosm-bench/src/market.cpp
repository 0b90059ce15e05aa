#include "market.h"

#include <algorithm>

#include "common/error.h"
#include "services/market.h"
#include "trader/facade.h"
#include "trader/sid_export.h"

namespace cosm_bench {

using cosm::wire::Value;
namespace trader = cosm::trader;
namespace services = cosm::services;

std::vector<trader::Offer> import_via(cosm::core::Binding& binding,
                                      const trader::ImportRequest& request,
                                      Sections* sections, int thread) {
  Span span(sections, thread, Layer::CoreImport);
  Value result = binding.invoke(
      "Import", {Value::string(request.service_type), Value::string(request.constraint),
                 Value::string(request.preference),
                 Value::integer(static_cast<std::int64_t>(request.max_matches)),
                 Value::integer(request.hop_limit)});
  std::vector<trader::Offer> offers;
  offers.reserve(result.elements().size());
  for (const Value& v : result.elements()) offers.push_back(trader::offer_from_value(v));
  return offers;
}

std::vector<std::string> ids_of(const std::vector<trader::Offer>& offers) {
  std::vector<std::string> ids;
  ids.reserve(offers.size());
  for (const auto& o : offers) ids.push_back(o.id);
  return ids;
}

namespace {

const std::vector<std::string>& currencies() {
  static const std::vector<std::string> c = {"USD", "DEM", "FF", "SFR", "GBP"};
  return c;
}

}  // namespace

CarMarket::CarMarket(cosm::core::CosmRuntime& runtime, std::size_t providers,
                     std::size_t offers, std::uint64_t seed) {
  runtime.trader().types().add(services::canonical_car_rental_type());
  services::MarketConfig config;
  config.providers = providers;
  config.seed = seed;
  providers_ = services::generate_market(config);
  std::vector<cosm::sidl::ServiceRef> refs;
  for (const auto& provider : providers_) {
    auto [ref, id] = runtime.offer_traded(services::make_car_rental_service(provider));
    refs.push_back(ref);
    offer_ids_.push_back(id);
  }
  // The rest of the store: offers over the same live providers, each
  // naming a model its provider actually rents out.
  SplitMix64 rng(mix_seed(seed, 77));
  std::vector<trader::BatchOfferSpec> specs;
  for (std::size_t i = providers_.size(); i < offers; ++i) {
    const std::size_t p = i % providers_.size();
    const auto& models = providers_[p].models;
    trader::BatchOfferSpec spec;
    spec.ref = refs[p];
    spec.attributes = {
        {"CarModel", Value::enumerated("CarModel_t", models[rng.below(models.size())])},
        {"AverageMilage", Value::integer(5000 + static_cast<std::int64_t>(rng.below(35000)))},
        {"ChargePerDay", Value::real(30.0 + 120.0 * rng.uniform())},
        {"ChargeCurrency", Value::string(currencies()[rng.below(currencies().size())])},
    };
    specs.push_back(std::move(spec));
    if (specs.size() == 1024 || i + 1 == offers) {
      for (auto& id : runtime.trader().export_batch(services::car_rental_service_type_name(),
                                                    std::move(specs))) {
        offer_ids_.push_back(std::move(id));
      }
      specs.clear();
    }
  }
  // A few distinct selective constraint texts; every one bounds
  // ChargePerDay so a corrupted price always violates it.
  texts_ = {
      "ChargePerDay < 45 && ChargeCurrency == USD",
      "ChargePerDay < 60 && AverageMilage < 12000",
      "CarModel == VW_Golf && ChargePerDay < 70",
      "ChargeCurrency == DEM && AverageMilage > 30000 && ChargePerDay < 100",
      "ChargePerDay >= 40 && ChargePerDay < 42",
      "ChargeCurrency in {SFR, GBP} && ChargePerDay < 50",
  };
  for (const auto& text : texts_) {
    constraints_.push_back(trader::Constraint::parse(text));
    trader::ImportRequest probe;
    probe.service_type = services::car_rental_service_type_name();
    probe.constraint = text;
    probe.max_matches = 1;
    if (runtime.trader().import(probe).empty()) {
      throw cosm::ContractError("cycle constraint matches no offer: " + text);
    }
  }
}

OpResult CarMarket::cycle(cosm::core::Binding& trader_binding,
                          cosm::core::GenericClient& client, std::uint64_t draw,
                          Sections* sections, int thread, Checks& checks,
                          bool inject_wrong) const {
  OpResult result;
  result.kind = kCycle;
  SplitMix64 rng(draw);
  const std::size_t c = rng.below(texts_.size());
  trader::ImportRequest request;
  request.service_type = services::car_rental_service_type_name();
  request.constraint = texts_[c];
  request.preference = "min ChargePerDay";
  request.max_matches = 1;
  auto offers = import_via(trader_binding, request, sections, thread);
  result.import_end = Clock::now();
  if (offers.size() != 1) {
    checks.fail("cycle: Import returned " + std::to_string(offers.size()) + " offers");
    result.ok = false;
    return result;
  }
  trader::Offer& offer = offers.front();
  if (inject_wrong) offer.attributes["ChargePerDay"] = Value::real(1e9);
  if (constraints_[c].eval(offer.attributes)) {
    checks.pass();
  } else {
    checks.fail("cycle: offer " + offer.id + " violates '" + texts_[c] + "'");
    result.ok = false;
  }

  auto bind = [&] {
    Span span(sections, thread, Layer::CoreBind);
    return client.bind(offer.ref);
  };
  cosm::core::Binding rental = bind();
  // Conformance of the transferred SID to the imported type: it exports
  // the type, implements the cycle's operations, and rents out the
  // offer's model.
  const std::string& model = offer.attributes.at("CarModel").enum_label();
  const auto& sid = *rental.sid();
  const auto exported = trader::trader_export_from_sid(sid);
  const auto model_type = sid.find_type("CarModel_t");
  const bool rents_model =
      model_type && std::count(model_type->labels().begin(), model_type->labels().end(), model);
  if (exported.first == offer.service_type && sid.find_operation("SelectCar") &&
      sid.find_operation("ListModels") && rents_model) {
    checks.pass();
  } else {
    checks.fail("cycle: SID of " + offer.ref.to_string() + " does not conform to " +
                offer.service_type);
    result.ok = false;
    return result;
  }

  auto fill_form = [&] {
    Span span(sections, thread, Layer::UimsForm);
    cosm::uims::FormEditor editor = rental.edit("SelectCar");
    editor.set("selection.model", model);
    editor.set("selection.booking_date", "1994-06-21");
    editor.set("selection.days", std::to_string(1 + rng.below(14)));
    return editor;
  };
  cosm::uims::FormEditor editor = fill_form();
  {
    Span span(sections, thread, Layer::CoreInvoke);
    Value quote = rental.invoke_form(editor);
    if (!quote.at("available").as_bool()) result.ok = false;
  }
  {
    Span span(sections, thread, Layer::CoreInvoke);
    Value models = rental.invoke("ListModels", {});
    if (models.elements().empty()) result.ok = false;
  }
  return result;
}

trader::ServiceType writer_type(const std::string& name) {
  trader::ServiceType type;
  type.name = name;
  type.attributes = {
      {"price", cosm::sidl::TypeDesc::float_(), true},
      {"region", cosm::sidl::TypeDesc::string_(), true},
      {"tier", cosm::sidl::TypeDesc::int_(), true},
      {"stamp", cosm::sidl::TypeDesc::int_(), true},
  };
  return type;
}

OfferWriter::OfferWriter(std::vector<std::string> types, cosm::sidl::ServiceRef ref,
                         std::vector<std::string> live_ids)
    : types_(std::move(types)), ref_(std::move(ref)), pool_(std::move(live_ids)) {}

trader::AttrMap OfferWriter::random_attrs(SplitMix64& rng) {
  return {
      {"price", Value::real(1.0 + 999.0 * rng.uniform())},
      {"region", Value::string("r" + std::to_string(rng.below(8)))},
      {"tier", Value::integer(1 + static_cast<std::int64_t>(rng.below(5)))},
      {"stamp", Value::integer(static_cast<std::int64_t>(rng.below(1u << 30)))},
  };
}

std::string OfferWriter::take(SplitMix64& rng) {
  std::lock_guard lock(mutex_);
  if (pool_.empty()) throw cosm::ContractError("offer writer: no live offer left");
  const std::size_t i = rng.below(pool_.size());
  std::string id = std::move(pool_[i]);
  pool_[i] = std::move(pool_.back());
  pool_.pop_back();
  return id;
}

void OfferWriter::give(std::string id) {
  std::lock_guard lock(mutex_);
  pool_.push_back(std::move(id));
}

OpResult OfferWriter::write(Op op, cosm::core::Binding& trader_binding, SplitMix64& rng,
                            Sections* sections, int thread) {
  OpResult result;
  result.kind = kWrite;
  const std::string& type = types_[rng.below(types_.size())];
  switch (op) {
    case Op::Export: {
      Value id;
      {
        Span span(sections, thread, Layer::CoreWrite);
        id = trader_binding.invoke("Export", {Value::string(type), Value::service_ref(ref_),
                                              trader::attrs_to_value(random_attrs(rng))});
      }
      std::lock_guard lock(mutex_);
      pool_.push_back(id.as_string());
      break;
    }
    case Op::ExportBatch: {
      std::vector<Value> specs;
      for (std::size_t i = 0; i < kBatch; ++i) {
        specs.push_back(Value::structure(
            "OfferSpec_t", {{"ref", Value::service_ref(ref_)},
                            {"attributes", trader::attrs_to_value(random_attrs(rng))},
                            {"dynamics", Value::sequence({})}}));
      }
      Value ids;
      {
        Span span(sections, thread, Layer::CoreWrite);
        ids = trader_binding.invoke("ExportBatch",
                                    {Value::string(type), Value::sequence(std::move(specs))});
      }
      std::lock_guard lock(mutex_);
      for (const Value& id : ids.elements()) pool_.push_back(id.as_string());
      break;
    }
    case Op::Modify: {
      std::string id = take(rng);
      try {
        Span span(sections, thread, Layer::CoreWrite);
        trader_binding.invoke("Modify", {Value::string(id),
                                         trader::attrs_to_value(random_attrs(rng))});
      } catch (...) {
        give(std::move(id));
        throw;
      }
      give(std::move(id));
      break;
    }
    case Op::Withdraw: {
      std::string id = take(rng);
      try {
        Span span(sections, thread, Layer::CoreWrite);
        trader_binding.invoke("Withdraw", {Value::string(id)});
      } catch (...) {
        // Whether the offer is gone is unknown now; the checks skip it.
        std::lock_guard lock(mutex_);
        uncertain_.push_back(std::move(id));
        throw;
      }
      break;
    }
  }
  return result;
}

std::vector<std::string> OfferWriter::live_ids() const {
  std::lock_guard lock(mutex_);
  return pool_;
}

std::vector<std::string> OfferWriter::uncertain_ids() const {
  std::lock_guard lock(mutex_);
  return uncertain_;
}

std::unique_ptr<OfferWriter> make_probe_writer(cosm::core::CosmRuntime& runtime) {
  runtime.trader().types().add(writer_type("ProbeOffer"));
  std::vector<trader::BatchOfferSpec> specs(256);
  SplitMix64 rng(mix_seed(kStoreSeed, 5));
  for (auto& spec : specs) {
    spec.ref = runtime.trader_ref();
    spec.attributes = OfferWriter::random_attrs(rng);
  }
  return std::make_unique<OfferWriter>(std::vector<std::string>{"ProbeOffer"},
                                       runtime.trader_ref(),
                                       runtime.trader().export_batch("ProbeOffer", std::move(specs)));
}

}  // namespace cosm_bench
