#include "pass/passes.hpp"

#include "decompose/decomposer.hpp"
#include "decompose/peephole.hpp"
#include "obs/obs.hpp"
#include "pass/context.hpp"
#include "pass/registry.hpp"
#include "route/measure_relocation.hpp"
#include "route/token_swap.hpp"
#include "schedule/schedulers.hpp"

namespace qmap {

DecomposeStage::DecomposeStage(const Device& device, int num_qubits)
    : device_(&device),
      lowerer_(device, num_qubits, /*keep_swaps=*/true),
      baseline_lowerer_(device, num_qubits, /*keep_swaps=*/false),
      baseline_(num_qubits, "baseline"),
      sweep_(num_qubits) {}

void DecomposeStage::feed(const std::vector<Gate>& gates, Circuit& out) {
  lowerer_.lower_chunk(gates, out);
  baseline_lowerer_.lower_chunk(gates, baseline_);
  sweep_baseline();
}

void DecomposeStage::finish(Circuit& out) {
  lowerer_.finish(out);
  baseline_lowerer_.finish(baseline_);
  sweep_baseline();
}

void DecomposeStage::sweep_baseline() {
  for (const Gate& gate : baseline_) {
    sweep_.push(gate, device_->cycles_for(gate));
  }
  std::vector<Gate> drained = baseline_.take_gates();
  drained.clear();
  baseline_.set_gates(std::move(drained));
}

void DecomposePass::run(CompileContext& ctx) {
  const Circuit& circuit = ctx.input();
  DecomposeStage decompose(ctx.device(), circuit.num_qubits());
  Circuit lowered(circuit.num_qubits(), circuit.name());
  decompose.feed(circuit.gates(), lowered);
  decompose.finish(lowered);
  ctx.result.lowered = std::move(lowered);
  ctx.result.baseline_cycles = decompose.baseline_cycles();
}

PlacePass::PlacePass(std::string algorithm)
    : algorithm_(std::move(algorithm)) {
  // Validate eagerly so a bad pipeline spec fails at build time, not after
  // earlier passes already ran.
  (void)make_placer(algorithm_);
}

void PlacePass::run(CompileContext& ctx) {
  std::unique_ptr<Placer> placer = make_placer(algorithm_, ctx.seed());
  placer->set_cancel_token(ctx.cancel());
  placer->set_observer(ctx.obs());
  ctx.placement = placer->place(ctx.result.lowered, ctx.device());
  ctx.placed = true;
}

RoutePass::RoutePass(std::string algorithm)
    : algorithm_(std::move(algorithm)) {
  (void)make_router(algorithm_);
}

void RoutePass::run(CompileContext& ctx) {
  if (!ctx.placed) {
    throw MappingError(
        "pass 'router' needs an initial placement: add a 'placer' pass "
        "earlier in the pipeline");
  }
  std::unique_ptr<Router> router = make_router(algorithm_);
  router->set_cancel_token(ctx.cancel());
  router->set_observer(ctx.obs());
  ctx.result.routing =
      router->route(ctx.result.lowered, ctx.device(), ctx.placement);
  ctx.routed = true;
}

void TokenSwapFinisherPass::run(CompileContext& ctx) {
  if (!ctx.routed) {
    throw MappingError(
        "pass 'token_swap_finisher' needs a routing result: add a 'router' "
        "pass earlier in the pipeline");
  }
  if (ctx.postrouted) {
    throw MappingError(
        "pass 'token_swap_finisher' must run before 'postroute': its cleanup "
        "SWAPs are placeholders the postroute pass expands");
  }
  RoutingResult& routing = ctx.result.routing;
  std::vector<Gate> gates = routing.circuit.take_gates();
  const TokenSwapPlan plan = splice_token_swap_cleanup(
      gates, routing.final, routing.initial, ctx.device());
  routing.circuit.set_gates(std::move(gates));
  obs::add(ctx.obs(), "router.bridge.token_swap_rounds", plan.rounds.size());
  obs::add(ctx.obs(), "router.bridge.token_swap_swaps", plan.total_swaps());
  routing.added_swaps += plan.total_swaps();
}

void PostRoutePass::run(CompileContext& ctx) {
  if (!ctx.routed) {
    throw MappingError(
        "pass 'postroute' needs a routing result: add a 'router' pass "
        "earlier in the pipeline");
  }
  // One chain over one gate buffer: relocation makes the single working
  // copy of the routed circuit (which stays in the result), and every
  // later stage rewrites that buffer.
  const Device& device = ctx.device();
  const int num_qubits = device.num_qubits();
  std::vector<Gate> gates =
      relocate_measurements(ctx.result.routing.circuit, device,
                            ctx.result.routing.final)
          .take_gates();
  peephole_optimize(gates, num_qubits);
  finalize_routed(gates, num_qubits, device, /*peephole=*/true);
  Circuit final_circuit(num_qubits, ctx.input().name() + "@" + device.name());
  final_circuit.reserve(gates.size());
  for (Gate& gate : gates) final_circuit.add(std::move(gate));
  ctx.result.final_circuit = std::move(final_circuit);
  ctx.result.final_metrics = compute_metrics(ctx.result.final_circuit);
  ctx.postrouted = true;
}

void SchedulePass::run(CompileContext& ctx) {
  if (!ctx.postrouted) {
    throw MappingError(
        "pass 'schedule' needs a finalized circuit: add a 'postroute' pass "
        "earlier in the pipeline");
  }
  ctx.result.schedule =
      use_control_constraints_
          ? schedule_for_device(ctx.result.final_circuit, ctx.device(),
                                ctx.obs())
          : schedule_asap(ctx.result.final_circuit, ctx.device());
  ctx.result.scheduled_cycles = ctx.result.schedule.total_cycles();
}

}  // namespace qmap
