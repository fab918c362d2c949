// Peephole-optimizer tests: every rewrite must be unitary-equivalent, and
// the targeted redundancies must actually disappear.
#include <gtest/gtest.h>

#include "arch/builtin.hpp"
#include "common/rng.hpp"
#include "core/compiler.hpp"
#include "decompose/decomposer.hpp"
#include "decompose/peephole.hpp"
#include "sim/equivalence.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(CancelPairs, AdjacentIdenticalCxCancel) {
  Circuit c(2);
  c.cx(0, 1).cx(0, 1);
  EXPECT_EQ(cancel_two_qubit_pairs(c).size(), 0u);
}

TEST(CancelPairs, ReversedCxDoesNotCancel) {
  Circuit c(2);
  c.cx(0, 1).cx(1, 0);
  EXPECT_EQ(cancel_two_qubit_pairs(c).size(), 2u);
}

TEST(CancelPairs, ReversedCzAndSwapCancel) {
  Circuit c(2);
  c.cz(0, 1).cz(1, 0).swap(0, 1).swap(1, 0);
  EXPECT_EQ(cancel_two_qubit_pairs(c).size(), 0u);
}

TEST(CancelPairs, InterveningGateBlocksCancellation) {
  Circuit blocked(2);
  blocked.cx(0, 1).h(1).cx(0, 1);
  EXPECT_EQ(cancel_two_qubit_pairs(blocked).size(), 3u);
  // A gate on an unrelated qubit does not block.
  Circuit unrelated(3);
  unrelated.cx(0, 1).h(2).cx(0, 1);
  EXPECT_EQ(cancel_two_qubit_pairs(unrelated).size(), 1u);
}

TEST(CancelPairs, SingleSidedInterruptionBlocks) {
  Circuit c(2);
  c.cx(0, 1).t(0).cx(0, 1);
  EXPECT_EQ(cancel_two_qubit_pairs(c).size(), 3u);
}

TEST(CancelPairs, ChainsOfFourCancelCompletely) {
  Circuit c(2);
  c.cx(0, 1).cx(0, 1).cx(0, 1).cx(0, 1);
  EXPECT_EQ(cancel_two_qubit_pairs(c).size(), 0u);
}

TEST(MergeRotations, SameAxisRunsCollapse) {
  Circuit c(1);
  c.rz(0.3, 0).rz(0.4, 0).rz(-0.2, 0);
  const Circuit merged = merge_rotations(c);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_NEAR(merged.gate(0).params[0], 0.5, 1e-12);
}

TEST(MergeRotations, OppositeRotationsVanish) {
  Circuit c(1);
  c.rx(0.7, 0).rx(-0.7, 0);
  EXPECT_EQ(merge_rotations(c).size(), 0u);
}

TEST(MergeRotations, DifferentAxesDoNotMerge) {
  Circuit c(1);
  c.rx(0.3, 0).rz(0.3, 0);
  EXPECT_EQ(merge_rotations(c).size(), 2u);
}

TEST(MergeRotations, ControlledRotationsMergeOnIdenticalPairs) {
  Circuit c(2);
  c.cp(0.3, 0, 1).cp(0.2, 0, 1);
  const Circuit merged = merge_rotations(c);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_NEAR(merged.gate(0).params[0], 0.5, 1e-12);
  // Different operand order is conservatively kept separate.
  Circuit reversed(2);
  reversed.cp(0.3, 0, 1).cp(0.2, 1, 0);
  EXPECT_EQ(merge_rotations(reversed).size(), 2u);
}

TEST(MergeRotations, DropsExactIdentityRotations) {
  Circuit c(1);
  c.rz(0.0, 0).p(2.0 * kPi, 0);
  EXPECT_EQ(merge_rotations(c).size(), 0u);
  // Rz(2pi) = -I is a global phase for an uncontrolled rotation, but the
  // conservative period used is 4pi, so it is kept.
  Circuit two_pi(1);
  two_pi.rz(2.0 * kPi, 0);
  EXPECT_EQ(merge_rotations(two_pi).size(), 1u);
}

TEST(Peephole, FixedPointAndEquivalenceOnRandomCircuits) {
  Rng rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    const Circuit circuit = workloads::random_circuit(4, 40, rng, 0.5);
    const Circuit optimized = peephole_optimize(circuit);
    EXPECT_LE(optimized.size(), circuit.size());
    EXPECT_TRUE(circuits_equivalent_exact(circuit, optimized, 1e-7))
        << "trial " << trial;
    // Idempotent at the fixed point.
    EXPECT_EQ(peephole_optimize(optimized).size(), optimized.size());
  }
}

TEST(Peephole, CleansUpRedundantRoutingPatterns) {
  // The classic post-routing pattern: swap there and straight back.
  Circuit c(3);
  c.cx(0, 1).swap(1, 2).swap(1, 2).cx(0, 1).cx(0, 1).rz(0.2, 2).rz(-0.2, 2);
  const Circuit optimized = peephole_optimize(c);
  EXPECT_EQ(optimized.size(), 1u);  // only the first cx survives... paired?
  // cx appears 3 times: #2 and #3 cancel, #1 survives.
  EXPECT_EQ(optimized.gate(0).kind, GateKind::CX);
}

TEST(Peephole, DefaultCompileReducesGateCount) {
  // Every compile runs the peephole; the same routed circuit finalized
  // without it is the comparison. The circuit has no measurements, so
  // postroute's measurement relocation leaves the routed circuit as it is.
  const Device device = devices::ibm_qx4();
  Rng rng(0x9057);
  const CompilationResult with =
      Compiler(device).compile(workloads::random_circuit(5, 80, rng, 0.5));
  CompilationResult without = with;
  without.final_circuit = finalize_routed(with.routing.circuit, device);
  EXPECT_LT(with.final_circuit.size(), without.final_circuit.size());
  EXPECT_TRUE(Compiler::verify(with));
  EXPECT_TRUE(Compiler::verify(without));
}

}  // namespace
}  // namespace qmap
