// The streamed route behind Router::route_stream for the sabre family
// (sabre.cpp, bridge.cpp): the materialized machinery run over a resident
// window of the circuit.
//
// The window is a Circuit holding the gates pulled from a GateSource and
// not yet scheduled. After every window advance that pulled gates, the
// driver (stream_core.cpp) drops the scheduled gates, rewinds the route's
// arena to a marker taken after the loop's route-long buffers, and
// rebuilds a RouteCore over the window — RouteIR::build(Sequential), a
// FrontLayer, and a mirror taken from the emitter's placement. The loop
// core is a MaterializedLoopCore<HopDistance> over that RouteCore. Routed
// output leaves through the RoutingEmitter's sink spill, so peak memory is
// O(window + spill threshold), not O(circuit).
//
// Fidelity contract: a streamed route is byte-identical to route() on the
// materialized circuit. Dropping scheduled gates keeps every dependency
// between unscheduled ones (consecutive gates on a qubit are scheduled in
// program order, so a qubit's last unscheduled toucher is its last
// writer), and window-local node ids are monotone in the global ids, so
// ready order, extended order and tie-breaks are those of the whole
// circuit — provided that, before every flush pass and every swap
// decision, the window contains
//
//   (a) every gate that is ready in the *full* dependency DAG, and
//   (b) at least kSabreExtendedWindow unscheduled non-front two-qubit
//       gates (or the source is dry).
//
// For (a) it suffices that every program qubit has an unscheduled
// in-window gate touching it: while a qubit has one, its last in-window
// toucher is unscheduled, and every beyond-tail gate on that qubit has an
// unscheduled predecessor and cannot be ready. The driver therefore pulls
// while any qubit is "idle" (no unscheduled toucher), counting touchers
// per program qubit. For (b) it pulls while the unscheduled two-qubit
// count is below kSabreExtendedWindow plus the ready-list size (a
// conservative bound on the front layer). The advance runs before every
// flush pass, not once per flush: a beyond-tail gate that becomes ready
// mid-fixpoint is emitted in the same pass as the materialized route
// emits it. Consequence: the resident window is bounded by the circuit's
// qubit-reuse distance — the largest program-order gap between
// consecutive gates on one qubit — which is small for circuits that keep
// all qubits active (QFT, adders, layered random circuits) but degrades
// to the whole circuit for a qubit that goes quiet until the end.
//
// Only DagMode::Sequential is supported: the commutation-aware DAG needs
// unbounded lookahead (any later gate on a shared qubit may or may not
// commute), which has no windowed form.
#pragma once

#include <functional>

#include "arch/device.hpp"
#include "ir/gate_stream.hpp"
#include "layout/placement.hpp"
#include "route/router.hpp"
#include "route/sabre_loop.hpp"

namespace qmap {

/// One streaming sabre/bridge route, start to finish: checks the input,
/// runs the shared loop over the window, drains the emitter into the sink
/// (sink flush included) and assembles the stats. `loop_stats` (optional)
/// receives the loop counters for observability.
StreamRouteStats run_sabre_stream(GateSource& source, const Device& device,
                                  const Placement& initial, GateSink& sink,
                                  const StreamRouteOptions& options,
                                  const SabreLoopParams& params,
                                  const std::function<void()>& check_cancelled,
                                  SabreLoopStats* loop_stats = nullptr);

}  // namespace qmap
