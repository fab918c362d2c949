// Cross-module property sweeps (parameterized over random seeds):
// invariants that must hold for *every* circuit/device combination, not
// just hand-picked examples.
#include <gtest/gtest.h>

#include <algorithm>

#include "arch/builtin.hpp"
#include "core/compiler.hpp"
#include "decompose/decomposer.hpp"
#include "ir/metrics.hpp"
#include "naive_dag.hpp"
#include "qasm/openqasm.hpp"
#include "route/route_ir.hpp"
#include "schedule/schedulers.hpp"
#include "sim/equivalence.hpp"
#include "sim/statevector.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

class SeedSweep : public testing::TestWithParam<int> {};

TEST_P(SeedSweep, OpenQasmRoundTripIsSemanticIdentity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Circuit circuit = workloads::random_circuit(4, 35, rng, 0.35);
  const Circuit reparsed = parse_openqasm(to_openqasm(circuit));
  EXPECT_TRUE(circuits_equivalent_exact(circuit, reparsed, 1e-7));
}

TEST_P(SeedSweep, LoweringPreservesSemanticsOnBothNativeSets) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const Circuit circuit = workloads::random_circuit(4, 30, rng, 0.45);
  for (const Device& device : {devices::ibm_qx4(), devices::surface17()}) {
    const Circuit lowered = lower_to_device(circuit, device);
    for (const Gate& gate : lowered) {
      EXPECT_TRUE(device.is_native_kind(gate.kind)) << gate.to_string();
    }
    EXPECT_TRUE(circuits_equivalent_exact(circuit, lowered, 1e-7));
  }
}

TEST_P(SeedSweep, GateInverseRestoresRandomStates) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 200);
  const Circuit circuit = workloads::random_circuit(5, 25, rng, 0.4);
  StateVector state(5);
  state.randomize(rng);
  StateVector original = state;
  state.run(circuit);
  EXPECT_NEAR(state.norm(), 1.0, 1e-9);  // unitarity preserved numerically
  state.run(circuit.inverse());
  EXPECT_TRUE(state.approx_equal(original, 1e-7));
}

TEST_P(SeedSweep, DagEdgesRespectProgramOrder) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 300);
  const Circuit circuit = workloads::random_circuit(5, 40, rng, 0.5);
  for (const DagMode mode : {DagMode::Sequential, DagMode::Commutation}) {
    RouteArena arena;
    const RouteIR ir = RouteIR::build(circuit, mode, arena);
    for (std::uint32_t node = 0; node < ir.num_gates; ++node) {
      for (std::uint32_t e = ir.succ_offsets[node];
           e < ir.succ_offsets[node + 1]; ++e) {
        EXPECT_GT(ir.succ[e], node);
      }
    }
  }
}

TEST_P(SeedSweep, CommutationDagIsSubgraphOfSequential) {
  // Relaxation only removes constraints, never adds them. Relaxed may
  // contain transitively redundant edges, so compare the *reachability*
  // instead: every strict-ready node must be relaxed-ready.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 400);
  const Circuit circuit = workloads::random_circuit(4, 30, rng, 0.5);
  RouteArena arena;
  const RouteIR strict_ir = RouteIR::build(circuit, DagMode::Sequential, arena);
  const RouteIR relaxed_ir =
      RouteIR::build(circuit, DagMode::Commutation, arena);
  const FrontLayer strict(strict_ir, arena);
  const FrontLayer relaxed(relaxed_ir, arena);
  const std::uint32_t* const relaxed_end =
      relaxed.ready() + relaxed.ready_size();
  for (std::uint32_t k = 0; k < strict.ready_size(); ++k) {
    const std::uint32_t node = strict.ready()[k];
    EXPECT_NE(std::find(relaxed.ready(), relaxed_end, node), relaxed_end)
        << node;
  }
}

// Random circuit with measurements and barriers over one qubit, two
// qubits and the full width mixed into the gates.
Circuit depth_circuit(Rng& rng, int num_qubits, int num_gates) {
  const Circuit base =
      workloads::random_circuit(num_qubits, num_gates, rng, 0.5);
  Circuit circuit(num_qubits);
  for (const Gate& gate : base) {
    circuit.add(gate);
    const std::size_t roll = rng.index(12);
    const int a = static_cast<int>(rng.index(static_cast<std::size_t>(num_qubits)));
    const int b = (a + 1 + static_cast<int>(rng.index(
                               static_cast<std::size_t>(num_qubits - 1)))) %
                  num_qubits;
    if (roll == 0) circuit.measure(a, a);
    if (roll == 1) circuit.barrier({a});
    if (roll == 2) circuit.barrier({a, b});
    if (roll == 3) circuit.barrier();
  }
  return circuit;
}

TEST_P(SeedSweep, GraphFreeDepthMatchesNaiveLongestPath) {
  // compute_metrics and circuit_latency sweep per-qubit availability
  // instead of walking a graph; they must equal the longest path over the
  // naive pairwise DAG.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 700);
  const Device s17 = devices::surface17();
  for (int trial = 0; trial < 4; ++trial) {
    const Circuit circuit = depth_circuit(rng, 2 + trial, 60);
    const NaiveDag dag = naive_dag(circuit, DagMode::Sequential);
    const auto unit = [](const Gate& gate) {
      return gate.kind == GateKind::Barrier ? 0.0 : 1.0;
    };
    const auto two_qubit = [](const Gate& gate) {
      return gate.is_two_qubit() ? 1.0 : 0.0;
    };
    const auto device_cycles = [&s17](const Gate& gate) {
      return gate.kind == GateKind::Barrier
                 ? 0.0
                 : static_cast<double>(s17.cycles_for(gate));
    };
    const CircuitMetrics metrics = compute_metrics(circuit);
    EXPECT_EQ(metrics.depth,
              static_cast<int>(naive_longest_path(circuit, dag, unit) + 0.5));
    EXPECT_EQ(metrics.two_qubit_depth,
              static_cast<int>(
                  naive_longest_path(circuit, dag, two_qubit) + 0.5));
    EXPECT_EQ(circuit_latency(circuit, [](const Gate&) { return 1.0; }),
              naive_longest_path(circuit, dag, unit));
    EXPECT_EQ(circuit_latency(circuit,
                              [&s17](const Gate& gate) {
                                return static_cast<double>(
                                    s17.cycles_for(gate));
                              }),
              naive_longest_path(circuit, dag, device_cycles));
  }
}

TEST_P(SeedSweep, SchedulesAreConsistentAndOrdered) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  const Device s17 = devices::surface17();
  Circuit circuit(17);
  // Random gates directly on physical qubits (scheduler input is routed).
  for (int i = 0; i < 25; ++i) {
    if (rng.chance(0.4)) {
      const auto& edge = s17.coupling().edges()[rng.index(
          s17.coupling().edges().size())];
      circuit.cz(edge.a, edge.b);
    } else {
      const int q = static_cast<int>(rng.index(17));
      if (rng.chance(0.5)) circuit.x(q);
      else circuit.ry(rng.uniform(0.1, 1.0), q);
    }
  }
  const Schedule asap = schedule_asap(circuit, s17);
  const Schedule alap = schedule_alap(circuit, s17);
  const Schedule constrained = schedule_for_device(circuit, s17);
  EXPECT_TRUE(asap.is_consistent_with(circuit));
  EXPECT_TRUE(alap.is_consistent_with(circuit));
  EXPECT_TRUE(constrained.is_consistent_with(circuit));
  EXPECT_EQ(asap.total_cycles(), alap.total_cycles());
  EXPECT_GE(constrained.total_cycles(), asap.total_cycles());
}

TEST_P(SeedSweep, EndToEndCompileVerifiesOnEveryDeviceFamily)  {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 600);
  const Circuit circuit = workloads::random_circuit(4, 20, rng, 0.4);
  for (const Device& device :
       {devices::ibm_qx4(), devices::surface17(), devices::trapped_ion(5),
        devices::quantum_dot_array(2, 3)}) {
    CompilerOptions options;
    options.router = device.supports_shuttling() ? "shuttle" : "sabre";
    const Compiler compiler(device, options);
    const CompilationResult result = compiler.compile(circuit);
    EXPECT_TRUE(respects_coupling(result.final_circuit, device))
        << device.name();
    EXPECT_TRUE(Compiler::verify(result)) << device.name();
  }
}

TEST_P(SeedSweep, FusionNeverIncreasesSingleQubitCount) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 700);
  const Circuit circuit = workloads::random_circuit(4, 40, rng, 0.25);
  const CircuitMetrics before = compute_metrics(circuit);
  const CircuitMetrics after = compute_metrics(fuse_single_qubit(circuit));
  EXPECT_LE(after.single_qubit_gates, before.single_qubit_gates);
  EXPECT_EQ(after.two_qubit_gates, before.two_qubit_gates);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, testing::Range(1, 9),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- Workload-family sweep through the default pipeline ---

class WorkloadSweep : public testing::TestWithParam<const char*> {};

Circuit sweep_workload(const std::string& name) {
  Rng rng(55);
  if (name == "ghz6") return workloads::ghz(6);
  if (name == "qft5") return workloads::qft(5);
  if (name == "bv5") {
    return workloads::bernstein_vazirani({1, 1, 0, 1}).unitary_part();
  }
  if (name == "adder1") return workloads::cuccaro_adder(1);
  if (name == "grover3") return workloads::grover(3, 5, 2);
  if (name == "qv6") return workloads::quantum_volume(6, 2, rng);
  throw std::runtime_error("unknown workload");
}

TEST_P(WorkloadSweep, DefaultPipelineOnSurface17) {
  const Compiler compiler(devices::surface17());
  const CompilationResult result =
      compiler.compile(sweep_workload(GetParam()));
  EXPECT_TRUE(respects_coupling(result.final_circuit, devices::surface17()));
  EXPECT_TRUE(result.schedule.is_consistent_with(result.final_circuit));
  EXPECT_TRUE(Compiler::verify(result));
}

INSTANTIATE_TEST_SUITE_P(Families, WorkloadSweep,
                         testing::Values("ghz6", "qft5", "bv5", "adder1",
                                         "grover3", "qv6"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace qmap
