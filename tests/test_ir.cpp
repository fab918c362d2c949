// Circuit-IR tests: gate model, circuit invariants, the dependency DAG
// (RouteIR) with scheduling colours (Sec. VI-B), metrics, ASCII rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "ir/ascii.hpp"
#include "ir/circuit.hpp"
#include "ir/metrics.hpp"
#include "route/route_ir.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

TEST(GateInfo, NamesAndArities) {
  EXPECT_EQ(gate_info(GateKind::CX).name, "cx");
  EXPECT_EQ(gate_info(GateKind::CX).arity, 2);
  EXPECT_FALSE(gate_info(GateKind::CX).symmetric);
  EXPECT_TRUE(gate_info(GateKind::CZ).symmetric);
  EXPECT_TRUE(gate_info(GateKind::SWAP).symmetric);
  EXPECT_EQ(gate_info(GateKind::U).num_params, 3);
  EXPECT_FALSE(gate_info(GateKind::Measure).unitary);
}

TEST(GateInfo, LookupByNameWithAliases) {
  EXPECT_EQ(gate_kind_from_name("cx"), GateKind::CX);
  EXPECT_EQ(gate_kind_from_name("CNOT"), GateKind::CX);
  EXPECT_EQ(gate_kind_from_name("u3"), GateKind::U);
  EXPECT_EQ(gate_kind_from_name("toffoli"), GateKind::CCX);
  EXPECT_THROW((void)gate_kind_from_name("frobnicate"), ParseError);
}

TEST(Gate, EveryUnitaryKindHasUnitaryMatrix) {
  for (int k = 0; k <= static_cast<int>(GateKind::CSWAP); ++k) {
    const auto kind = static_cast<GateKind>(k);
    const GateInfo& info = gate_info(kind);
    std::vector<int> qubits;
    for (int q = 0; q < info.arity; ++q) qubits.push_back(q);
    std::vector<double> params(static_cast<std::size_t>(info.num_params),
                               0.7);
    const Gate gate = make_gate(kind, qubits, params);
    EXPECT_TRUE(gate.matrix().is_unitary(1e-9))
        << "gate " << info.name << " is not unitary";
  }
}

TEST(Gate, MatrixThrowsForNonUnitary) {
  EXPECT_THROW((void)make_measure(0, 0).matrix(), CircuitError);
  EXPECT_THROW((void)make_barrier({0}).matrix(), CircuitError);
}

TEST(Gate, MakeGateValidatesArityParamsAndDuplicates) {
  EXPECT_THROW((void)make_gate(GateKind::CX, {0}), CircuitError);
  EXPECT_THROW((void)make_gate(GateKind::Rz, {0}), CircuitError);  // no param
  EXPECT_THROW((void)make_gate(GateKind::CX, {1, 1}), CircuitError);
  EXPECT_THROW((void)make_gate(GateKind::H, {0}, {1.0}), CircuitError);
}

TEST(Gate, ToStringFormats) {
  EXPECT_EQ(make_gate(GateKind::CX, {2, 4}).to_string(), "cx q2, q4");
  EXPECT_EQ(make_gate(GateKind::Rz, {1}, {0.5}).to_string(), "rz(0.5) q1");
  EXPECT_EQ(make_measure(3, 2).to_string(), "measure q3 -> c2");
}

TEST(Circuit, BuilderChainsAndValidates) {
  Circuit c(3, "demo");
  c.h(0).cx(0, 1).t(2).measure(2, 0);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.num_cbits(), 1);
  EXPECT_THROW(c.h(3), CircuitError);
  EXPECT_THROW(c.cx(0, 3), CircuitError);
  EXPECT_THROW(c.measure(0, -1), CircuitError);
}

TEST(Circuit, AppendMapped) {
  Circuit inner(2);
  inner.cx(0, 1);
  Circuit outer(4);
  outer.append_mapped(inner, {3, 1});
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer.gate(0).qubits, (std::vector<int>{3, 1}));
  EXPECT_THROW(outer.append_mapped(inner, {0}), CircuitError);
}

TEST(Circuit, InverseReversesAndInverts) {
  Circuit c(2);
  c.h(0).t(0).s(1).cx(0, 1).rz(0.3, 1);
  const Circuit inv = c.inverse();
  ASSERT_EQ(inv.size(), c.size());
  EXPECT_EQ(inv.gate(0).kind, GateKind::Rz);
  EXPECT_NEAR(inv.gate(0).params[0], -0.3, 1e-12);
  EXPECT_EQ(inv.gate(2).kind, GateKind::Sdg);
  EXPECT_EQ(inv.gate(4).kind, GateKind::H);
}

TEST(Circuit, InverseRejectsMeasurement) {
  Circuit c(1);
  c.measure(0, 0);
  EXPECT_THROW((void)c.inverse(), CircuitError);
}

TEST(Circuit, TwoQubitSkeletonDropsSingles) {
  const Circuit example = workloads::fig1_example();
  const Circuit skeleton = example.two_qubit_skeleton();
  EXPECT_EQ(skeleton.size(), 5u);  // the five CNOTs of Fig. 1(b)
  for (const Gate& gate : skeleton) EXPECT_TRUE(gate.is_two_qubit());
}

TEST(Circuit, BarrierDefaultsToAllQubits) {
  Circuit c(3);
  c.barrier();
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.gate(0).qubits.size(), 3u);
}

// The dependency DAG is RouteIR's CSR; these pin its edges and the
// FrontLayer colours on hand-checked circuits.

std::vector<std::uint32_t> successors(const RouteIR& ir, std::uint32_t node) {
  return {ir.succ + ir.succ_offsets[node], ir.succ + ir.succ_offsets[node + 1]};
}

std::vector<std::uint32_t> ready_list(const FrontLayer& front) {
  return {front.ready(), front.ready() + front.ready_size()};
}

TEST(Dag, EdgesFollowQubitOrder) {
  Circuit c(3);
  c.h(0);          // 0
  c.cx(0, 1);      // 1 depends on 0
  c.h(2);          // 2 independent
  c.cx(1, 2);      // 3 depends on 1 and 2
  RouteArena arena;
  const RouteIR ir = RouteIR::build(c, DagMode::Sequential, arena);
  EXPECT_EQ(ir.pred_count[0], 0u);
  EXPECT_EQ(ir.pred_count[1], 1u);
  EXPECT_EQ(ir.pred_count[2], 0u);
  EXPECT_EQ(ir.pred_count[3], 2u);
  EXPECT_EQ(successors(ir, 0), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(successors(ir, 1), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(successors(ir, 2), (std::vector<std::uint32_t>{3}));
  EXPECT_TRUE(successors(ir, 3).empty());
}

TEST(Dag, NoDuplicateEdgeForSharedQubits) {
  Circuit c(2);
  c.cx(0, 1).cx(0, 1);
  RouteArena arena;
  const RouteIR ir = RouteIR::build(c, DagMode::Sequential, arena);
  EXPECT_EQ(ir.pred_count[1], 1u);
  EXPECT_EQ(ir.num_edges(), 1u);
}

TEST(Dag, ColoursFollowSchedulingProtocol) {
  Circuit c(2);
  c.h(0).cx(0, 1).h(1);
  RouteArena arena;
  const RouteIR ir = RouteIR::build(c, DagMode::Sequential, arena);
  FrontLayer front(ir, arena);
  EXPECT_EQ(ready_list(front), (std::vector<std::uint32_t>{0}));  // 1, 2 pending
  front.mark_scheduled(0);
  EXPECT_TRUE(front.scheduled(0));
  EXPECT_EQ(ready_list(front), (std::vector<std::uint32_t>{1}));
  EXPECT_THROW(front.mark_scheduled(2), CircuitError);  // still pending
  front.mark_scheduled(1);
  front.mark_scheduled(2);
  EXPECT_TRUE(front.all_scheduled());
  front.reset();
  EXPECT_EQ(front.num_scheduled(), 0u);
  EXPECT_FALSE(front.scheduled(0));
  EXPECT_EQ(ready_list(front), (std::vector<std::uint32_t>{0}));
}

TEST(Dag, ReadyTwoQubitIsTheFrontLayer) {
  Circuit c(4);
  c.cx(0, 1).cx(2, 3).cx(1, 2);
  RouteArena arena;
  const RouteIR ir = RouteIR::build(c, DagMode::Sequential, arena);
  const FrontLayer front(ir, arena);
  std::vector<std::uint32_t> two(ir.num_two_qubit);
  two.resize(front.ready_two_qubit(two.data()));
  EXPECT_EQ(two, (std::vector<std::uint32_t>{0, 1}));
}

TEST(Dag, DepthMatchesHandComputation) {
  Circuit c(3);
  c.h(0).h(1).cx(0, 1).cx(1, 2).h(2);
  // h -> cx -> cx -> h on the critical path
  EXPECT_EQ(compute_metrics(c).depth, 4);
}

TEST(Dag, WeightedCriticalPath) {
  Circuit c(2);
  c.h(0).cx(0, 1);
  const double latency = circuit_latency(c, [](const Gate& gate) {
    return gate.is_two_qubit() ? 2.0 : 1.0;
  });
  EXPECT_DOUBLE_EQ(latency, 3.0);
}

TEST(Metrics, CountsAndDepth) {
  const CircuitMetrics m = compute_metrics(workloads::fig1_example());
  EXPECT_EQ(m.total_gates, 10u);
  EXPECT_EQ(m.two_qubit_gates, 5u);
  EXPECT_EQ(m.single_qubit_gates, 5u);
  EXPECT_EQ(m.cx_gates, 5u);
  EXPECT_GT(m.depth, 0);
  EXPECT_LE(m.two_qubit_depth, m.depth);
}

TEST(Metrics, OverheadComputation) {
  Circuit before(2);
  before.cx(0, 1);
  Circuit after(2);
  after.swap(0, 1);
  after.cx(0, 1);
  const MappingOverhead overhead = compute_overhead(before, after);
  EXPECT_EQ(overhead.added_gates, 1u);
  EXPECT_EQ(overhead.added_two_qubit_gates, 1u);
  EXPECT_DOUBLE_EQ(overhead.gate_ratio, 2.0);
}

TEST(Metrics, LatencyWithDurations) {
  Circuit c(2);
  c.h(0).cx(0, 1).measure(1, 0);
  const double latency = circuit_latency(c, [](const Gate& g) {
    if (g.kind == GateKind::Measure) return 30.0;
    return g.is_two_qubit() ? 2.0 : 1.0;
  });
  EXPECT_DOUBLE_EQ(latency, 33.0);
}

TEST(Ascii, DrawsExpectedShape) {
  Circuit c(2);
  c.h(0).cx(0, 1);
  const std::string art = draw_ascii(c);
  EXPECT_NE(art.find("[H]"), std::string::npos);
  EXPECT_NE(art.find('*'), std::string::npos);
  EXPECT_NE(art.find('+'), std::string::npos);
  EXPECT_NE(art.find("q0:"), std::string::npos);
}

TEST(Ascii, PhysicalQubitPrefix) {
  Circuit c(1);
  c.x(0);
  AsciiOptions options;
  options.qubit_prefix = 'Q';
  EXPECT_NE(draw_ascii(c, options).find("Q0:"), std::string::npos);
}

TEST(Ascii, ParallelGatesShareAColumn) {
  Circuit c(2);
  c.h(0).h(1);
  const std::string art = draw_ascii(c);
  // Both H gates in the same column implies two lines with [H] at the same
  // offset.
  const auto first = art.find("[H]");
  const auto second = art.find("[H]", first + 1);
  ASSERT_NE(second, std::string::npos);
  const auto line_start_1 = art.rfind('\n', first);
  const auto line_start_2 = art.rfind('\n', second);
  EXPECT_EQ(first - line_start_1, second - line_start_2);
}

}  // namespace
}  // namespace qmap
