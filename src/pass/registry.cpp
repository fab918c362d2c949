#include "pass/registry.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "noise/reliability.hpp"
#include "pass/passes.hpp"
#include "route/astar_layer.hpp"
#include "route/bidirectional_placer.hpp"
#include "route/bridge.hpp"
#include "route/exact.hpp"
#include "route/naive.hpp"
#include "route/qmap_router.hpp"
#include "route/sabre.hpp"
#include "route/shuttle.hpp"

namespace qmap {

const std::vector<std::string>& known_placers() {
  static const std::vector<std::string> names = {
      "identity",    "greedy",      "exhaustive",
      "annealing",   "reliability", "bidirectional"};
  return names;
}

const std::vector<std::string>& known_routers() {
  static const std::vector<std::string> names = {
      "naive", "sabre", "sabre+commute", "bridge",      "astar",
      "exact", "qmap",  "reliability",   "shuttle"};
  return names;
}

std::unique_ptr<Placer> make_placer(const std::string& name,
                                    std::uint64_t seed) {
  if (name == "identity") return std::make_unique<IdentityPlacer>();
  if (name == "greedy") return std::make_unique<GreedyPlacer>();
  if (name == "exhaustive") return std::make_unique<ExhaustivePlacer>();
  if (name == "annealing") return std::make_unique<AnnealingPlacer>(seed);
  if (name == "reliability") return std::make_unique<ReliabilityPlacer>();
  if (name == "bidirectional") return std::make_unique<BidirectionalPlacer>();
  throw MappingError("unknown placer: '" + name + "' (valid: " +
                     join(known_placers(), ", ") + ")");
}

std::unique_ptr<Router> make_router(const std::string& name) {
  if (name == "naive") return std::make_unique<NaiveRouter>();
  if (name == "sabre") return std::make_unique<SabreRouter>();
  if (name == "sabre+commute") {
    SabreRouter::Options options;
    options.use_commutation = true;
    return std::make_unique<SabreRouter>(options);
  }
  if (name == "bridge") return std::make_unique<BridgeRouter>();
  if (name == "astar") return std::make_unique<AStarLayerRouter>();
  if (name == "exact") return std::make_unique<ExactRouter>();
  if (name == "qmap") return std::make_unique<QmapRouter>();
  if (name == "reliability") return std::make_unique<ReliabilityRouter>();
  if (name == "shuttle") return std::make_unique<ShuttleRouter>();
  throw MappingError("unknown router: '" + name + "' (valid: " +
                     join(known_routers(), ", ") + ")");
}

const std::vector<std::string>& known_passes() {
  static const std::vector<std::string> names = {
      "decompose", "placer",    "router",
      "token_swap_finisher",    "postroute", "schedule"};
  return names;
}

namespace {

/// The complete option object each pass runs with when none is given: the
/// one place a pass option's default is written. A pass with no options
/// has a null default.
Json default_pass_options(const std::string& pass) {
  Json out;
  if (pass == "placer") {
    out["algorithm"] = Json(std::string("greedy"));
  } else if (pass == "router") {
    out["algorithm"] = Json(std::string("sabre"));
  } else if (pass == "schedule") {
    out["use_control_constraints"] = Json(true);
  }
  return out;
}

}  // namespace

std::string canonical_pass_name(const std::string& name) {
  for (const std::string& canonical : known_passes()) {
    if (name == canonical) return canonical;
  }
  throw MappingError("unknown pass: '" + name +
                     "' (valid: " + join(known_passes(), ", ") + ")");
}

Json resolve_pass_options(const std::string& name, const Json& options) {
  const std::string pass = canonical_pass_name(name);
  Json resolved = default_pass_options(pass);
  if (options.is_null()) return resolved;
  if (!options.is_object()) {
    throw MappingError("pass '" + pass + "': options must be a JSON object");
  }
  // A key without a default is a typo or a removed option: fail with the
  // pass name and the accepted keys instead of ignoring it.
  for (const auto& [key, value] : options.as_object()) {
    if (!resolved.contains(key)) {
      std::string names;
      if (resolved.is_object()) {
        for (const auto& [valid, fallback] : resolved.as_object()) {
          if (!names.empty()) names += ", ";
          names += valid;
        }
      }
      if (names.empty()) names = "none";
      throw MappingError("pass '" + pass + "': unknown option '" + key +
                         "' (valid: " + names + ")");
    }
    resolved[key] = value;
  }
  return resolved;
}

std::unique_ptr<Pass> make_pass(const std::string& name, const Json& options) {
  const std::string pass = canonical_pass_name(name);
  const Json resolved = resolve_pass_options(pass, options);
  if (pass == "decompose") return std::make_unique<DecomposePass>();
  if (pass == "placer") {
    return std::make_unique<PlacePass>(resolved.at("algorithm").as_string());
  }
  if (pass == "router") {
    return std::make_unique<RoutePass>(resolved.at("algorithm").as_string());
  }
  if (pass == "token_swap_finisher") {
    return std::make_unique<TokenSwapFinisherPass>();
  }
  if (pass == "postroute") return std::make_unique<PostRoutePass>();
  // canonical_pass_name() already rejected everything else.
  return std::make_unique<SchedulePass>(
      resolved.at("use_control_constraints").as_bool());
}

}  // namespace qmap
