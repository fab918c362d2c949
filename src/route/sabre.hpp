// SABRE-style heuristic router (Li, Ding, Xie [40] — the "look-ahead"
// heuristic family of Sec. III-B): repeatedly executes every ready gate
// that is already physically adjacent, then picks the SWAP that most
// reduces a weighted distance score over the front layer plus an extended
// lookahead window, with a decay term that discourages ping-ponging the
// same qubits.
#pragma once

#include "route/router.hpp"

namespace qmap {

class SabreRouter final : public Router {
 public:
  struct Options {
    /// Use the commutation-aware dependency graph ([58]): commuting gates
    /// (e.g. the QFT's controlled-phase ladder) may execute in any order,
    /// widening the front layer the router can satisfy.
    bool use_commutation = false;
  };

  SabreRouter() = default;
  explicit SabreRouter(const Options& options) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "sabre"; }
  [[nodiscard]] RoutingResult route(const Circuit& circuit,
                                    const Device& device,
                                    const Placement& initial) override;

  /// Streaming is supported on the sequential DAG only: the
  /// commutation-aware dependency rule needs unbounded lookahead.
  [[nodiscard]] bool supports_streaming() const override {
    return !options_.use_commutation;
  }
  StreamRouteStats route_stream(GateSource& source, const Device& device,
                                const Placement& initial, GateSink& sink,
                                const StreamRouteOptions& options) override;

 private:
  Options options_;
};

}  // namespace qmap
