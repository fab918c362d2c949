// Registries for the three extensible families: placers, routers, passes.
//
// The placer/router factories moved here from core/compiler.cpp so that
// passes, the engine, benches, and tests all resolve strategy names through
// one seam (core/compiler.hpp re-exports them; existing includes keep
// working). The pass registry maps pipeline-spec names to Pass instances
// and is the single list of pass names and option keys the DESIGN.md §9
// table must match (linted by scripts/check_pass_registry.sh).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "layout/placers.hpp"
#include "pass/pass.hpp"
#include "route/router.hpp"

namespace qmap {

/// Factory helpers shared by the compiler, engine, benches and tests.
/// Unknown names throw a MappingError whose message lists every valid name.
/// `seed` feeds stochastic placers (annealing); deterministic placers
/// ignore it.
[[nodiscard]] std::unique_ptr<Placer> make_placer(const std::string& name,
                                                  std::uint64_t seed = 0xC0FFEE);
[[nodiscard]] std::unique_ptr<Router> make_router(const std::string& name);

/// Registered strategy names, in the factories' canonical order. The
/// portfolio engine enumerates these to build/validate its strategy set.
[[nodiscard]] const std::vector<std::string>& known_placers();
[[nodiscard]] const std::vector<std::string>& known_routers();

/// Registered pass names, canonical order: the standard pipeline top to
/// bottom ("decompose", "placer", "router", "postroute", "schedule").
[[nodiscard]] const std::vector<std::string>& known_passes();

/// Returns `name` if it is a registered pass name. Unknown names throw a
/// MappingError listing every valid name.
[[nodiscard]] std::string canonical_pass_name(const std::string& name);

/// The complete option object a pass runs with: every option's default
/// (written once, in registry.cpp) overlaid with `options` (null =
/// defaults). make_pass() builds each pass from it, and
/// PipelineSpec::canonical() materializes it so that option elision
/// cannot split a content-addressed cache: {"pass": "router"} and
/// {"pass": "router", "options": {"algorithm": "sabre"}} canonicalize
/// identically. A pass without options resolves to null. Option keys the
/// pass does not take throw a MappingError naming the key and the valid
/// keys for that pass.
[[nodiscard]] Json resolve_pass_options(const std::string& name,
                                        const Json& options = Json());

/// Builds a pass from its name and a JSON options object (null =
/// defaults), resolved by resolve_pass_options().
[[nodiscard]] std::unique_ptr<Pass> make_pass(const std::string& name,
                                              const Json& options = Json());

}  // namespace qmap
