// Building blocks the workloads share: the car-rental market and its
// trading cycle, the generic-client Import call, and the offer writer.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/generic_client.h"
#include "core/runtime.h"
#include "schedule.h"
#include "services/car_rental.h"
#include "trader/constraint.h"
#include "trader/trader.h"
#include "tracing.h"
#include "workload.h"

namespace cosm_bench {

/// The Import RPC through a generic-client binding to the trader, decoded
/// with trader::offer_from_value.  Timed as Layer::CoreImport.
std::vector<cosm::trader::Offer> import_via(cosm::core::Binding& trader,
                                            const cosm::trader::ImportRequest& request,
                                            Sections* sections, int thread);

/// Ids of offers, in order.
std::vector<std::string> ids_of(const std::vector<cosm::trader::Offer>& offers);

/// `providers` live heterogeneous car-rental services hosted on a runtime,
/// plus `offers` CarRentalService offers spread over them.
class CarMarket {
 public:
  CarMarket(cosm::core::CosmRuntime& runtime, std::size_t providers,
            std::size_t offers, std::uint64_t seed);

  /// One trading cycle: Import (selective constraint, min ChargePerDay,
  /// k=1) -> bind to the returned reference (SID transfer) -> SelectCar
  /// quote through the generated form -> ListModels.  Checks that the
  /// offer satisfies the constraint and that the bound SID conforms to the
  /// imported type.
  OpResult cycle(cosm::core::Binding& trader, cosm::core::GenericClient& client,
                 std::uint64_t draw, Sections* sections, int thread,
                 Checks& checks, bool inject_wrong) const;

  /// Ids of every offer the market exported.
  const std::vector<std::string>& offer_ids() const { return offer_ids_; }
  std::size_t constraint_count() const { return texts_.size(); }

 private:
  std::vector<cosm::services::CarRentalConfig> providers_;
  std::vector<std::string> offer_ids_;
  std::vector<std::string> texts_;
  std::vector<cosm::trader::Constraint> constraints_;
};

/// Attribute schema of the offers the writer produces.
cosm::trader::ServiceType writer_type(const std::string& name);

/// Writes through a generic-client binding to the trader (Export,
/// ExportBatch, Modify, Withdraw) over a pool of live offer ids.  Ids are
/// checked out of the pool while a Modify or Withdraw is in flight, so
/// concurrent writers never touch the same offer.
class OfferWriter {
 public:
  OfferWriter(std::vector<std::string> types, cosm::sidl::ServiceRef ref,
              std::vector<std::string> live_ids);

  static constexpr std::size_t kBatch = 16;
  enum class Op { Export, ExportBatch, Modify, Withdraw };

  OpResult write(Op op, cosm::core::Binding& trader, SplitMix64& rng,
                 Sections* sections, int thread);

  /// Offers the benchmark believes live: every acknowledged export not
  /// acknowledged withdrawn (call when no write is in flight).
  std::vector<std::string> live_ids() const;
  /// Offers whose Withdraw failed in flight (state unknown).
  std::vector<std::string> uncertain_ids() const;

  /// Random attributes of the writer schema.
  static cosm::trader::AttrMap random_attrs(SplitMix64& rng);
  const std::vector<std::string>& types() const { return types_; }

 private:
  std::string take(SplitMix64& rng);
  void give(std::string id);

  std::vector<std::string> types_;
  cosm::sidl::ServiceRef ref_;
  mutable std::mutex mutex_;
  std::vector<std::string> pool_;
  std::vector<std::string> uncertain_;
};

/// The traced run's write probe on workloads that do not write: a
/// "ProbeOffer" type with 256 offers, and a writer over them.
std::unique_ptr<OfferWriter> make_probe_writer(cosm::core::CosmRuntime& runtime);

}  // namespace cosm_bench
