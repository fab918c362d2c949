// Commutation-aware dependency analysis tests ([58], Sec. IV).
//
// The safety-critical property: gates_commute may return false negatives
// but NEVER false positives — verified here against the actual matrix
// commutator on randomized gate pairs, plus routing equivalence end to end.
#include <gtest/gtest.h>

#include "arch/builtin.hpp"
#include "decompose/decomposer.hpp"
#include "ir/dag.hpp"
#include "layout/placers.hpp"
#include "route/route_ir.hpp"
#include "route/sabre.hpp"
#include "sim/equivalence.hpp"
#include "sim/statevector.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

/// Ground truth: do the two gates commute as operators on 4 qubits?
bool commute_by_matrix(const Gate& a, const Gate& b) {
  Circuit ab(4);
  ab.add(a);
  ab.add(b);
  Circuit ba(4);
  ba.add(b);
  ba.add(a);
  return circuits_equivalent_exact(ab, ba, 1e-9);
}

TEST(Commutation, KnownCommutingPairs) {
  // Two CNOTs sharing their control.
  EXPECT_TRUE(gates_commute(make_gate(GateKind::CX, {0, 1}),
                            make_gate(GateKind::CX, {0, 2})));
  // Two CNOTs sharing their target.
  EXPECT_TRUE(gates_commute(make_gate(GateKind::CX, {0, 2}),
                            make_gate(GateKind::CX, {1, 2})));
  // Rz on a CNOT control.
  EXPECT_TRUE(gates_commute(make_gate(GateKind::Rz, {0}, {0.3}),
                            make_gate(GateKind::CX, {0, 1})));
  // X on a CNOT target.
  EXPECT_TRUE(gates_commute(make_gate(GateKind::X, {1}),
                            make_gate(GateKind::CX, {0, 1})));
  // Controlled-phase gates on overlapping pairs (the QFT ladder).
  EXPECT_TRUE(gates_commute(make_gate(GateKind::CPhase, {0, 1}, {0.5}),
                            make_gate(GateKind::CPhase, {1, 2}, {0.25})));
  // CZ with CZ on any overlap.
  EXPECT_TRUE(gates_commute(make_gate(GateKind::CZ, {0, 1}),
                            make_gate(GateKind::CZ, {1, 2})));
  // Disjoint gates always commute.
  EXPECT_TRUE(gates_commute(make_gate(GateKind::H, {0}),
                            make_gate(GateKind::CX, {1, 2})));
}

TEST(Commutation, KnownNonCommutingPairs) {
  // CNOT chain: target of one is control of the next.
  EXPECT_FALSE(gates_commute(make_gate(GateKind::CX, {0, 1}),
                             make_gate(GateKind::CX, {1, 2})));
  // H orders with everything on its qubit.
  EXPECT_FALSE(gates_commute(make_gate(GateKind::H, {0}),
                             make_gate(GateKind::CX, {0, 1})));
  // X on a CNOT control.
  EXPECT_FALSE(gates_commute(make_gate(GateKind::X, {0}),
                             make_gate(GateKind::CX, {0, 1})));
  // Measurement never commutes.
  EXPECT_FALSE(
      gates_commute(make_measure(0, 0), make_gate(GateKind::Z, {0})));
}

TEST(Commutation, NoFalsePositivesOnRandomPairs) {
  // Exhaustive-ish sweep over the gate zoo on overlapping operand sets.
  Rng rng(5);
  const GateKind kinds[] = {
      GateKind::X,  GateKind::Y,     GateKind::Z,    GateKind::H,
      GateKind::S,  GateKind::T,     GateKind::Rx,   GateKind::Ry,
      GateKind::Rz, GateKind::Phase, GateKind::CX,   GateKind::CZ,
      GateKind::SWAP, GateKind::CPhase, GateKind::CRz, GateKind::CCX};
  int checked_positive = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto pick = [&](GateKind kind) {
      const GateInfo& info = gate_info(kind);
      std::vector<int> qubits;
      while (qubits.size() < static_cast<std::size_t>(info.arity)) {
        const int q = static_cast<int>(rng.index(4));
        if (std::find(qubits.begin(), qubits.end(), q) == qubits.end()) {
          qubits.push_back(q);
        }
      }
      std::vector<double> params(
          static_cast<std::size_t>(info.num_params), rng.uniform(0.1, 1.4));
      return make_gate(kind, qubits, params);
    };
    const Gate a = pick(kinds[rng.index(std::size(kinds))]);
    const Gate b = pick(kinds[rng.index(std::size(kinds))]);
    if (gates_commute(a, b)) {
      ++checked_positive;
      EXPECT_TRUE(commute_by_matrix(a, b))
          << "FALSE POSITIVE: " << a.to_string() << " vs " << b.to_string();
    }
  }
  EXPECT_GT(checked_positive, 30);  // the sweep must actually exercise it
}

std::uint32_t ready_two_qubit_count(const FrontLayer& front,
                                    const RouteIR& ir) {
  std::vector<std::uint32_t> two(ir.num_two_qubit);
  return front.ready_two_qubit(two.data());
}

TEST(CommutationDag, QftFrontLayerWidens) {
  // After the leading H, the whole controlled-phase ladder on qubit 0
  // commutes pairwise and becomes ready at once under the relaxed DAG.
  const Circuit qft = workloads::qft(5, /*with_swaps=*/false);
  RouteArena arena;
  const RouteIR strict_ir = RouteIR::build(qft, DagMode::Sequential, arena);
  const RouteIR relaxed_ir = RouteIR::build(qft, DagMode::Commutation, arena);
  FrontLayer sequential(strict_ir, arena);
  FrontLayer relaxed(relaxed_ir, arena);
  // Both start at {h q0}.
  ASSERT_EQ(sequential.ready_size(), 1u);
  ASSERT_EQ(relaxed.ready_size(), 1u);
  ASSERT_EQ(sequential.ready()[0], relaxed.ready()[0]);
  sequential.mark_scheduled(sequential.ready()[0]);
  relaxed.mark_scheduled(relaxed.ready()[0]);
  EXPECT_EQ(ready_two_qubit_count(sequential, strict_ir), 1u);
  EXPECT_EQ(ready_two_qubit_count(relaxed, relaxed_ir), 4u);  // cp(q1..q4, q0)
}

TEST(CommutationDag, SharedControlCnotsAllReady) {
  Circuit c(4);
  c.cx(0, 1).cx(0, 2).cx(0, 3);
  RouteArena arena;
  const RouteIR relaxed_ir = RouteIR::build(c, DagMode::Commutation, arena);
  EXPECT_EQ(FrontLayer(relaxed_ir, arena).ready_size(), 3u);
  const RouteIR strict_ir = RouteIR::build(c, DagMode::Sequential, arena);
  EXPECT_EQ(FrontLayer(strict_ir, arena).ready_size(), 1u);
}

TEST(CommutationDag, SchedulingAnyReadyOrderPreservesSemantics) {
  // Emit gates in a scrambled-but-DAG-legal order; result must stay
  // equivalent. This is the property routers rely on.
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const Circuit circuit = workloads::random_circuit(4, 30, rng, 0.5);
    RouteArena arena;
    const RouteIR ir = RouteIR::build(circuit, DagMode::Commutation, arena);
    FrontLayer front(ir, arena);
    Circuit reordered(circuit.num_qubits(), "reordered");
    while (!front.all_scheduled()) {
      // Pick the LAST ready node to maximally scramble the order.
      const std::uint32_t node = front.ready()[front.ready_size() - 1];
      reordered.add(circuit.gate(node));
      front.mark_scheduled(node);
    }
    EXPECT_TRUE(circuits_equivalent_exact(circuit, reordered, 1e-7))
        << "trial " << trial;
  }
}

TEST(CommutationRouting, SabreWithCommutationStaysCorrect) {
  SabreRouter::Options options;
  options.use_commutation = true;
  SabreRouter router(options);
  Rng rng(9);
  for (const Device& device : {devices::surface17(), devices::ibm_qx5()}) {
    for (const Circuit& circuit :
         {workloads::qft(5), workloads::random_circuit(5, 40, rng, 0.5)}) {
      const Circuit lowered = lower_to_device(circuit, device, true);
      const Placement initial = GreedyPlacer().place(lowered, device);
      const RoutingResult result = router.route(lowered, device, initial);
      Circuit legal = expand_swaps(result.circuit, device);
      legal = fix_cx_directions(legal, device);
      EXPECT_TRUE(respects_coupling(legal, device));
      Rng verify_rng(10);
      EXPECT_TRUE(mapping_equivalent(circuit, legal,
                                     result.initial.wire_to_phys(),
                                     result.final.wire_to_phys(),
                                     verify_rng, 3));
    }
  }
}

TEST(CommutationRouting, HelpsOnPhaseLadders) {
  // A circuit of mutually commuting CPhase gates on many pairs: with the
  // strict DAG the order forces long SWAP chains; the relaxed DAG lets the
  // router pick whichever pair is local. Aggregate over instances.
  const Device device = devices::linear(6);
  Rng rng(11);
  std::size_t strict_swaps = 0;
  std::size_t relaxed_swaps = 0;
  for (int trial = 0; trial < 4; ++trial) {
    Circuit ladder(6, "ladder");
    for (int i = 0; i < 10; ++i) {
      const int a = static_cast<int>(rng.index(6));
      int b = static_cast<int>(rng.index(5));
      if (b >= a) ++b;
      ladder.cp(rng.uniform(0.1, 1.0), a, b);
    }
    const Circuit lowered = lower_to_device(ladder, device, true);
    const Placement initial = GreedyPlacer().place(lowered, device);
    strict_swaps +=
        SabreRouter().route(lowered, device, initial).added_swaps;
    SabreRouter::Options options;
    options.use_commutation = true;
    relaxed_swaps +=
        SabreRouter(options).route(lowered, device, initial).added_swaps;
  }
  EXPECT_LE(relaxed_swaps, strict_swaps);
}

}  // namespace
}  // namespace qmap
