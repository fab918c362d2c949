// Sec. VI device-type feature tests: trapped-ion two-qubit parallelism
// limits and restricted-measurability devices with measurement relocation.
#include <gtest/gtest.h>

#include "arch/builtin.hpp"
#include "arch/config.hpp"
#include "core/compiler.hpp"
#include "route/measure_relocation.hpp"
#include "schedule/constraints.hpp"
#include "schedule/schedulers.hpp"
#include "sim/equivalence.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

TEST(TrappedIon, DeviceShape) {
  const Device ion = devices::trapped_ion(7);
  EXPECT_EQ(ion.artifacts()->diameter(), 1);  // all-to-all
  EXPECT_EQ(ion.max_parallel_two_qubit(), 1);
  EXPECT_TRUE(ion.has_control_constraints());
  EXPECT_EQ(ion.durations().two_qubit_cycles, 10);
}

TEST(TrappedIon, ConfigRoundTrip) {
  const Device decoded =
      device_from_json(device_to_json(devices::trapped_ion(5)));
  EXPECT_EQ(decoded.max_parallel_two_qubit(), 1);
}

TEST(TwoQubitParallelism, ConstraintBlocksConcurrentPairs) {
  const Device ion = devices::trapped_ion(4);
  TwoQubitParallelismConstraint constraint(1);
  const ScheduledGate running{make_gate(GateKind::CX, {0, 1}), 0, 10};
  ControlTable ops(ion);
  const std::uint32_t running_op = ops.add(running);
  const ScheduledGate overlapping{make_gate(GateKind::CX, {2, 3}), 5, 10};
  EXPECT_FALSE(constraint.compatible(ops.add(overlapping),
                                     ControlWindow(ops, {running_op})));
  const ScheduledGate after{make_gate(GateKind::CX, {2, 3}), 10, 10};
  EXPECT_TRUE(constraint.compatible(ops.add(after),
                                    ControlWindow(ops, {running_op})));
  const ScheduledGate single{make_gate(GateKind::X, {2}), 5, 1};
  EXPECT_TRUE(constraint.compatible(ops.add(single),
                                    ControlWindow(ops, {running_op})));
}

TEST(TwoQubitParallelism, HigherLimitsAllowMoreConcurrency) {
  const Device ion = devices::trapped_ion(6);
  TwoQubitParallelismConstraint two(2);
  const ScheduledGate a{make_gate(GateKind::CX, {0, 1}), 0, 10};
  const ScheduledGate b{make_gate(GateKind::CX, {2, 3}), 0, 10};
  const ScheduledGate c{make_gate(GateKind::CX, {4, 5}), 0, 10};
  ControlTable ops(ion);
  const std::uint32_t a_op = ops.add(a);
  const std::uint32_t b_op = ops.add(b);
  EXPECT_TRUE(two.compatible(b_op, ControlWindow(ops, {a_op})));
  EXPECT_FALSE(two.compatible(ops.add(c), ControlWindow(ops, {a_op, b_op})));
}

TEST(TrappedIon, SchedulerSerializesTwoQubitGates) {
  const Device ion = devices::trapped_ion(6);
  Circuit c(6);
  c.cx(0, 1).cx(2, 3).cx(4, 5);  // fully parallel on unconstrained devices
  const Schedule schedule = schedule_for_device(c, ion);
  // One gate at a time: total = 3 * 10 cycles.
  EXPECT_EQ(schedule.total_cycles(), 30);
  const Schedule unconstrained = schedule_asap(c, ion);
  EXPECT_EQ(unconstrained.total_cycles(), 10);
}

TEST(TrappedIon, ZeroSwapsThroughCompiler) {
  const Compiler compiler(devices::trapped_ion(6));
  const CompilationResult result = compiler.compile(workloads::qft(6));
  EXPECT_EQ(result.routing.added_swaps, 0u);  // all-to-all: no routing
  EXPECT_TRUE(Compiler::verify(result));
  // But serialization shows up in the schedule.
  EXPECT_GE(result.scheduled_cycles, result.baseline_cycles);
}

TEST(Measurable, MaskValidation) {
  Device device = devices::linear(3);
  EXPECT_TRUE(device.measurable(0));  // default: everything measurable
  EXPECT_THROW(device.set_measurable({true, false}), DeviceError);
  EXPECT_THROW(device.set_measurable({false, false, false}), DeviceError);
  device.set_measurable({false, true, false});
  EXPECT_FALSE(device.measurable(0));
  EXPECT_TRUE(device.measurable(1));
  EXPECT_FALSE(device.accepts(make_measure(0, 0)));
  EXPECT_TRUE(device.accepts(make_measure(1, 1)));
}

TEST(Measurable, ConfigRoundTrip) {
  Device device = devices::linear(3);
  device.set_measurable({false, true, true});
  const Device decoded = device_from_json(device_to_json(device));
  EXPECT_FALSE(decoded.measurable(0));
  EXPECT_TRUE(decoded.measurable(2));
}

TEST(Relocation, NoOpWhenEverythingMeasurable) {
  const Device line = devices::linear(3);
  Circuit c(3);
  c.h(0).measure_all();
  Placement placement = Placement::identity(3, 3);
  const Circuit out = relocate_measurements(c, line, placement);
  EXPECT_EQ(out.size(), c.size());
}

TEST(Relocation, MovesStateToNearestMeasurableQubit) {
  Device line = devices::linear(4);
  line.set_measurable({false, false, false, true});
  Circuit c(4);
  c.x(0).measure(0, 0);
  Placement placement = Placement::identity(4, 4);
  const Circuit out = relocate_measurements(c, line, placement);
  // 3 SWAPs to walk Q0 -> Q3, then measure Q3.
  std::size_t swaps = 0;
  int measured = -1;
  for (const Gate& gate : out) {
    if (gate.kind == GateKind::SWAP) ++swaps;
    if (gate.kind == GateKind::Measure) measured = gate.qubits[0];
  }
  EXPECT_EQ(swaps, 3u);
  EXPECT_EQ(measured, 3);
  // Placement tracked the relocation: wire 0 now sits on Q3.
  EXPECT_EQ(placement.phys_of_wire(0), 3);
}

TEST(Relocation, MultipleMeasurementsGetDistinctTargets) {
  Device line = devices::linear(4);
  line.set_measurable({false, false, true, true});
  Circuit c(4);
  c.h(0).h(1).measure(0, 0).measure(1, 1);
  Placement placement = Placement::identity(4, 4);
  const Circuit out = relocate_measurements(c, line, placement);
  std::vector<int> targets;
  for (const Gate& gate : out) {
    if (gate.kind == GateKind::Measure) targets.push_back(gate.qubits[0]);
  }
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_NE(targets[0], targets[1]);
  for (const int t : targets) EXPECT_TRUE(line.measurable(t));
}

TEST(Relocation, DefersTerminalMeasurementsPastLaterGates) {
  // A measurement with no later gate on its qubit commutes to the end, so
  // unitaries on *other* qubits after it are fine.
  Device line = devices::linear(3);
  line.set_measurable({false, false, true});
  Circuit c(3);
  c.measure(0, 0).h(1);
  Placement placement = Placement::identity(3, 3);
  const Circuit out = relocate_measurements(c, line, placement);
  EXPECT_EQ(out.gate(0).kind, GateKind::H);  // measure deferred to the end
  EXPECT_EQ(out.gates().back().kind, GateKind::Measure);
  EXPECT_EQ(out.gates().back().qubits[0], 2);
}

TEST(Relocation, RejectsTrueMidCircuitMeasurementOnUnmeasurableQubit) {
  // Here q0 is used again after being measured: the measurement cannot be
  // deferred, and relocating it mid-circuit is unsupported.
  Device line = devices::linear(3);
  line.set_measurable({false, false, true});
  Circuit c(3);
  c.measure(0, 0).h(0);
  Placement placement = Placement::identity(3, 3);
  EXPECT_THROW((void)relocate_measurements(c, line, placement), MappingError);
}

TEST(Relocation, EndToEndEquivalenceThroughCompiler) {
  // Surface-17 where only the paper's feedline-0 qubits are measurable.
  Device device = devices::surface17();
  std::vector<bool> mask(17, false);
  for (const int q : {0, 2, 3, 6, 9, 12}) mask[static_cast<std::size_t>(q)] = true;
  device.set_measurable(std::move(mask));
  Circuit circuit = workloads::ghz(4);
  circuit.measure_all();
  const Compiler compiler(device);
  const CompilationResult result = compiler.compile(circuit);
  for (const Gate& gate : result.final_circuit) {
    if (gate.kind == GateKind::Measure) {
      EXPECT_TRUE(device.measurable(gate.qubits[0]))
          << "measurement on non-measurable Q" << gate.qubits[0];
    }
  }
  EXPECT_TRUE(Compiler::verify(result));
}

}  // namespace
}  // namespace qmap
