// Gate-decomposition tests: every lowering pass must be unitarily
// equivalent to its input, the Euler decompositions must reconstruct
// arbitrary single-qubit unitaries, and the decompose stage must equal the
// plain composition of the lowering passes.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/builtin.hpp"
#include "common/rng.hpp"
#include "decompose/decomposer.hpp"
#include "decompose/euler.hpp"
#include "ir/gate_stream.hpp"
#include "pass/manager.hpp"
#include "qasm/openqasm.hpp"
#include "reference_fuser.hpp"
#include "route/sabre.hpp"
#include "schedule/schedulers.hpp"
#include "sim/equivalence.hpp"
#include "sim/statevector.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

constexpr double kPi = 3.14159265358979323846;

Matrix random_unitary_2x2(Rng& rng) {
  // Random U via random ZYZ angles + phase.
  const double theta = rng.uniform(0.0, kPi);
  const double phi = rng.uniform(-kPi, kPi);
  const double lambda = rng.uniform(-kPi, kPi);
  const double phase = rng.uniform(-kPi, kPi);
  return matrix_from_zyz(EulerAngles{theta, phi, lambda, phase});
}

TEST(Euler, ZyzReconstructsRandomUnitaries) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const Matrix u = random_unitary_2x2(rng);
    const EulerAngles angles = zyz_decompose(u);
    EXPECT_TRUE(matrix_from_zyz(angles).approx_equal(u, 1e-8))
        << "trial " << trial;
  }
}

TEST(Euler, YxyReconstructsRandomUnitaries) {
  Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    const Matrix u = random_unitary_2x2(rng);
    const EulerAngles angles = yxy_decompose(u);
    EXPECT_TRUE(matrix_from_yxy(angles).approx_equal(u, 1e-8))
        << "trial " << trial;
  }
}

TEST(Euler, HandlesDiagonalUnitaries) {
  const Matrix z = make_gate(GateKind::Z, {0}).matrix();
  EXPECT_TRUE(matrix_from_zyz(zyz_decompose(z)).approx_equal(z, 1e-9));
  const Matrix t = make_gate(GateKind::T, {0}).matrix();
  EXPECT_TRUE(matrix_from_zyz(zyz_decompose(t)).approx_equal(t, 1e-9));
}

TEST(Euler, HandlesAntiDiagonalUnitaries) {
  const Matrix x = make_gate(GateKind::X, {0}).matrix();
  EXPECT_TRUE(matrix_from_zyz(zyz_decompose(x)).approx_equal(x, 1e-9));
  const Matrix y = make_gate(GateKind::Y, {0}).matrix();
  EXPECT_TRUE(matrix_from_zyz(zyz_decompose(y)).approx_equal(y, 1e-9));
}

TEST(Euler, RejectsNonUnitary) {
  Matrix m(2, 2);
  m.at(0, 0) = 2.0;
  EXPECT_THROW((void)zyz_decompose(m), Error);
}

TEST(Euler, HadamardInYxyBasisUsesTwoRotations) {
  // H decomposes over {Rx, Ry} with one zero angle (cheap on Surface-17).
  const EulerAngles angles =
      yxy_decompose(make_gate(GateKind::H, {0}).matrix());
  int nonzero = 0;
  for (const double a : {angles.theta, angles.phi, angles.lambda}) {
    if (std::abs(a) > 1e-9) ++nonzero;
  }
  EXPECT_LE(nonzero, 2);
}

// --- Lowering passes: unitary equivalence on exhaustive small circuits ---

void expect_lowering_equivalent(const Circuit& circuit, GateKind target) {
  const Circuit lowered = lower_two_qubit(circuit, target);
  for (const Gate& gate : lowered) {
    if (gate.is_two_qubit()) EXPECT_EQ(gate.kind, target);
  }
  EXPECT_TRUE(circuits_equivalent_exact(circuit, lowered, 1e-7))
      << "lowering to " << gate_info(target).name << " broke circuit "
      << circuit.name();
}

TEST(LowerTwoQubit, ToffoliToCx) {
  Circuit c(3, "ccx");
  c.ccx(0, 1, 2);
  expect_lowering_equivalent(c, GateKind::CX);
}

TEST(LowerTwoQubit, ToffoliToCz) {
  Circuit c(3, "ccx");
  c.ccx(0, 1, 2);
  expect_lowering_equivalent(c, GateKind::CZ);
}

TEST(LowerTwoQubit, ToffoliAllOperandOrders) {
  const int perms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                           {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (const auto& p : perms) {
    Circuit c(3, "ccx_perm");
    c.ccx(p[0], p[1], p[2]);
    expect_lowering_equivalent(c, GateKind::CX);
  }
}

TEST(LowerTwoQubit, FredkinToCx) {
  Circuit c(3, "cswap");
  c.cswap(0, 1, 2);
  expect_lowering_equivalent(c, GateKind::CX);
}

TEST(LowerTwoQubit, IswapToCx) {
  Circuit c(2, "iswap");
  c.iswap(0, 1);
  expect_lowering_equivalent(c, GateKind::CX);
}

TEST(LowerTwoQubit, CPhaseToCx) {
  for (const double lambda : {0.3, kPi / 2.0, -1.7, kPi}) {
    Circuit c(2, "cp");
    c.cp(lambda, 0, 1);
    expect_lowering_equivalent(c, GateKind::CX);
  }
}

TEST(LowerTwoQubit, CrzToCx) {
  for (const double lambda : {0.3, -0.9, kPi}) {
    Circuit c(2, "crz");
    c.crz(lambda, 0, 1);
    expect_lowering_equivalent(c, GateKind::CX);
  }
}

TEST(LowerTwoQubit, SwapBecomesThreeCx) {
  Circuit c(2, "swap");
  c.swap(0, 1);
  const Circuit lowered = lower_two_qubit(c, GateKind::CX);
  EXPECT_EQ(lowered.size(), 3u);
  expect_lowering_equivalent(c, GateKind::CX);
}

TEST(LowerTwoQubit, SwapPreservedWhenRequested) {
  Circuit c(2, "swap");
  c.swap(0, 1);
  const Circuit lowered = lower_two_qubit(c, GateKind::CX, /*keep_swaps=*/true);
  ASSERT_EQ(lowered.size(), 1u);
  EXPECT_EQ(lowered.gate(0).kind, GateKind::SWAP);
}

TEST(LowerTwoQubit, CxToCzUsesHadamards) {
  Circuit c(2, "cx");
  c.cx(0, 1);
  const Circuit lowered = lower_two_qubit(c, GateKind::CZ);
  EXPECT_EQ(lowered.size(), 3u);
  expect_lowering_equivalent(c, GateKind::CZ);
}

TEST(LowerTwoQubit, MixedCircuit) {
  Rng rng(7);
  Circuit c(4, "mixed");
  c.h(0).ccx(0, 1, 2).iswap(2, 3).cp(0.7, 0, 3).swap(1, 2).t(3).cswap(3, 0, 1);
  expect_lowering_equivalent(c, GateKind::CX);
  expect_lowering_equivalent(c, GateKind::CZ);
}

// --- Fusion ---

TEST(Fuse, MergesAdjacentSingleQubitGates) {
  Circuit c(1, "run");
  c.h(0).t(0).h(0).s(0);
  const Circuit fused = fuse_single_qubit(c);
  EXPECT_EQ(fused.size(), 1u);
  EXPECT_EQ(fused.gate(0).kind, GateKind::U);
  EXPECT_TRUE(circuits_equivalent_exact(c, fused, 1e-8));
}

TEST(Fuse, DropsIdentityRuns) {
  Circuit c(1, "identity_run");
  c.h(0).h(0);
  EXPECT_EQ(fuse_single_qubit(c).size(), 0u);
  Circuit c2(1, "xx");
  c2.x(0).x(0);
  EXPECT_EQ(fuse_single_qubit(c2).size(), 0u);
}

TEST(Fuse, StopsAtTwoQubitGates) {
  Circuit c(2, "blocked");
  c.h(0).cx(0, 1).h(0);
  const Circuit fused = fuse_single_qubit(c);
  EXPECT_EQ(fused.size(), 3u);
  EXPECT_TRUE(circuits_equivalent_exact(c, fused, 1e-8));
}

TEST(Fuse, PreservesSemanticsOnRandomCircuits) {
  Rng rng(23);
  for (int trial = 0; trial < 5; ++trial) {
    const Circuit c = workloads::random_circuit(4, 60, rng, 0.3);
    EXPECT_TRUE(circuits_equivalent_exact(c, fuse_single_qubit(c), 1e-7));
  }
}

// --- Device-targeted lowering ---

TEST(LowerToDevice, IbmNativeSet) {
  const Device qx4 = devices::ibm_qx4();
  const Circuit c = workloads::fig1_example();
  const Circuit lowered = lower_to_device(c, qx4);
  for (const Gate& gate : lowered) {
    EXPECT_TRUE(qx4.is_native_kind(gate.kind))
        << "non-native gate " << gate.to_string();
  }
  EXPECT_TRUE(circuits_equivalent_exact(c, lowered, 1e-7));
}

TEST(LowerToDevice, SurfaceNativeSet) {
  const Device s17 = devices::surface17();
  const Circuit c = workloads::fig1_example();
  const Circuit lowered = lower_to_device(c, s17);
  for (const Gate& gate : lowered) {
    EXPECT_TRUE(s17.is_native_kind(gate.kind))
        << "non-native gate " << gate.to_string();
  }
  EXPECT_TRUE(circuits_equivalent_exact(c, lowered, 1e-7));
}

TEST(LowerToDevice, SurfaceRejectsNothingFromStandardZoo) {
  Rng rng(5);
  const Device s17 = devices::surface17();
  const Circuit c = workloads::random_circuit(4, 50, rng, 0.4);
  const Circuit lowered = lower_to_device(c, s17);
  EXPECT_TRUE(circuits_equivalent_exact(c, lowered, 1e-7));
}

// --- Direction fixing and swap expansion ---

TEST(FixDirections, InsertsFourHadamards) {
  const Device qx4 = devices::ibm_qx4();
  Circuit c(5, "wrongway");
  c.cx(0, 1);  // only Q1 -> Q0 is allowed on QX4
  const Circuit fixed = fix_cx_directions(c, qx4);
  EXPECT_EQ(fixed.size(), 5u);  // 4 H + reversed CX
  std::size_t h_count = 0;
  for (const Gate& gate : fixed) {
    if (gate.kind == GateKind::H) ++h_count;
  }
  EXPECT_EQ(h_count, 4u);
  EXPECT_TRUE(circuits_equivalent_exact(c, fixed, 1e-8));
}

TEST(FixDirections, LeavesAllowedCxAlone) {
  const Device qx4 = devices::ibm_qx4();
  Circuit c(5, "rightway");
  c.cx(1, 0);
  const Circuit fixed = fix_cx_directions(c, qx4);
  EXPECT_EQ(fixed.size(), 1u);
}

TEST(FixDirections, ThrowsOnUnconnectedPair) {
  const Device qx4 = devices::ibm_qx4();
  Circuit c(5, "disconnected");
  c.cx(0, 4);
  EXPECT_THROW((void)fix_cx_directions(c, qx4), MappingError);
}

TEST(ExpandSwaps, CxDevice) {
  const Device qx4 = devices::ibm_qx4();
  Circuit c(5, "swap");
  c.swap(1, 0);
  const Circuit expanded = expand_swaps(c, qx4);
  EXPECT_EQ(expanded.size(), 3u);
  EXPECT_TRUE(circuits_equivalent_exact(c, expanded, 1e-8));
}

TEST(ExpandSwaps, CzDeviceMatchesFig6Shape) {
  const Device s17 = devices::surface17();
  Circuit c(17, "swap");
  c.swap(1, 5);
  const Circuit expanded = expand_swaps(c, s17);
  std::size_t cz_count = 0;
  for (const Gate& gate : expanded) {
    if (gate.kind == GateKind::CZ) ++cz_count;
  }
  EXPECT_EQ(cz_count, 3u);  // Fig. 6: SWAP = 3 CZ + single-qubit rotations
}

TEST(SwapCost, ThreeTwoQubitGatesOnBothFamilies) {
  EXPECT_EQ(swap_two_qubit_cost(devices::ibm_qx4()), 3);
  EXPECT_EQ(swap_two_qubit_cost(devices::surface17()), 3);
}

// --- The decompose stage against an independent reference ---
//
// Whatever DecomposePass and the streamed pipeline's lowering stage do
// internally, `lowered` must equal the plain three-pass composition below
// and `baseline_cycles` the ASAP latency of the keep_swaps=false lowering,
// materialized and streamed at every chunk size.

Circuit reference_lowering(const Circuit& circuit, const Device& device,
                           bool keep_swaps) {
  const Circuit two_qubit =
      lower_two_qubit(circuit, device.native_two_qubit(), keep_swaps);
  return lower_single_qubit(fuse_single_qubit(two_qubit), device);
}

/// Random circuit over the decomposer's whole input zoo: single-qubit
/// gates, CX, CZ, SWAP, iSWAP, CPhase, mid-circuit measurements and
/// barriers, plus CRz, CCX and CSWAP when `wide`. Routers reject 3-qubit
/// gates and cannot flip a directional non-CX gate on a directed coupling,
/// so a circuit routed without the decompose stage uses the narrow mix.
Circuit reference_circuit(std::uint64_t seed, int num_qubits, int num_gates,
                          bool wide) {
  Rng rng(Rng::derive_stream(0xDEC0, seed));
  Circuit circuit(num_qubits, "decompose_ref" + std::to_string(seed));
  int cbit = 0;
  for (int i = 0; i < num_gates; ++i) {
    // Three distinct operands; each gate uses the first one, two or three.
    std::vector<int> q;
    while (q.size() < 3) {
      const int candidate = rng.integer(0, num_qubits - 1);
      if (std::find(q.begin(), q.end(), candidate) == q.end()) {
        q.push_back(candidate);
      }
    }
    const double angle = rng.uniform(-kPi, kPi);
    switch (rng.integer(0, wide ? 15 : 12)) {
      case 0: circuit.h(q[0]); break;
      case 1: circuit.t(q[0]); break;
      case 2: circuit.rz(angle, q[0]); break;
      case 3: circuit.rx(angle, q[0]); break;
      case 4: circuit.sx(q[0]); break;
      case 5: circuit.cx(q[0], q[1]); break;
      case 6: circuit.cz(q[0], q[1]); break;
      case 7: circuit.swap(q[0], q[1]); break;
      case 8: circuit.iswap(q[0], q[1]); break;
      case 9: circuit.cp(angle, q[0], q[1]); break;
      case 10: circuit.measure(q[0], cbit++); break;
      case 11: circuit.barrier({q[0], q[1]}); break;
      case 12: circuit.barrier(); break;
      case 13: circuit.crz(angle, q[0], q[1]); break;
      case 14: circuit.ccx(q[0], q[1], q[2]); break;
      default: circuit.cswap(q[0], q[1], q[2]); break;
    }
  }
  // No closing measurements: the circuit ends inside open single-qubit
  // runs, which only the lowerers' finish() emits.
  return circuit;
}

PipelineSpec decompose_spec(bool route) {
  PipelineSpec spec;
  spec.append("decompose");
  if (route) {
    Json placer;
    placer["algorithm"] = Json(std::string("identity"));
    spec.append("placer", std::move(placer));
    Json router;
    router["algorithm"] = Json(std::string("sabre"));
    spec.append("router", std::move(router));
  }
  return spec;
}

TEST(DecomposeReference, MaterializedAndStreamedMatchTheComposition) {
  const std::vector<Device> devices_under_test = {
      devices::ibm_qx5(), devices::surface17(), devices::trapped_ion(7)};
  for (const Device& device : devices_under_test) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::string label =
          device.name() + " seed=" + std::to_string(seed);
      const PipelineRuntime runtime;

      // Materialized: DecomposePass on the full zoo.
      const Circuit circuit = reference_circuit(seed, 7, 90, true);
      const Circuit lowered = reference_lowering(circuit, device, true);
      const int baseline =
          schedule_asap(reference_lowering(circuit, device, false), device)
              .total_cycles();
      const CompilationResult materialized =
          PassManager(decompose_spec(false)).run(circuit, device, runtime);
      EXPECT_EQ(to_openqasm(materialized.lowered), to_openqasm(lowered))
          << label;
      EXPECT_EQ(materialized.baseline_cycles, baseline) << label;

      // Streamed: decompose -> identity -> sabre through run_stream; the
      // sink must see the reference lowering routed by sabre.
      const Circuit routed =
          SabreRouter()
              .route(lowered, device,
                     Placement::identity(circuit.num_qubits(),
                                         device.num_qubits()))
              .circuit;
      const PassManager manager(decompose_spec(true));
      for (const std::size_t chunk :
           {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
        CircuitSource source(circuit);
        CircuitSink sink(device.num_qubits(), "streamed");
        StreamPipelineOptions options;
        options.chunk_gates = chunk;
        const StreamReport report =
            manager.run_stream(source, device, sink, runtime, options);
        EXPECT_TRUE(report.stream.streamed_route) << label;
        EXPECT_EQ(report.stream.gates_in, circuit.size()) << label;
        EXPECT_EQ(to_openqasm(std::move(sink).take()), to_openqasm(routed))
            << label << " chunk=" << chunk;
        EXPECT_EQ(report.result.baseline_cycles, baseline)
            << label << " chunk=" << chunk;
      }
    }
  }
}

// --- SingleQubitFuser against the plain per-run synthesis ---
//
// Whatever the fuser keeps between runs, every closed run must leave it
// exactly as tests/reference_fuser.hpp synthesizes that run from scratch:
// the same gates on the same qubits with the same parameter bits, in the
// U basis (QX5) and the {Rx, Ry} basis (Surface-17).

constexpr int kFuserQubits = 5;

/// `run` (gates written on qubit 0) moved onto qubit `q`, then closed by a
/// CX onto the next qubit or, every third run, by a measurement.
void append_run(std::vector<Gate>& input, const std::vector<Gate>& run, int q,
                int cbit) {
  for (Gate gate : run) {
    gate.qubits[0] = q;
    input.push_back(std::move(gate));
  }
  if (cbit % 3 == 2) {
    input.push_back(make_measure(q, cbit));
  } else {
    input.push_back(make_gate(GateKind::CX, {q, (q + 1) % kFuserQubits}));
  }
}

/// `draws` runs picked from `pool` with replacement, each on a random
/// qubit; the last few stay open for finish().
std::vector<Gate> draw_runs(const std::vector<std::vector<Gate>>& pool,
                            int draws, Rng& rng) {
  std::vector<Gate> input;
  for (int i = 0; i < draws; ++i) {
    append_run(input, pool[rng.index(pool.size())],
               rng.integer(0, kFuserQubits - 1), i);
  }
  for (int q = 0; q < kFuserQubits; q += 2) {
    for (Gate gate : pool[rng.index(pool.size())]) {
      gate.qubits[0] = q;
      input.push_back(std::move(gate));
    }
  }
  return input;
}

/// Feeds `input` to a SingleQubitFuser and to the reference on QX5 and
/// Surface-17; both outputs must match gate for gate.
void expect_fuser_matches_reference(const std::vector<Gate>& input,
                                    const std::string& label) {
  for (const Device& device : {devices::ibm_qx5(), devices::surface17()}) {
    SingleQubitFuser fuser(kFuserQubits, &device);
    ReferenceFuser reference(kFuserQubits,
                             !device.is_native_kind(GateKind::U));
    std::vector<Gate> got;
    std::vector<Gate> want;
    for (const Gate& gate : input) {
      fuser.push(gate, got);
      reference.push(gate, want);
    }
    fuser.finish(got);
    reference.finish(want);
    EXPECT_EQ(first_gate_difference(got, want), "")
        << label << " on " << device.name();
  }
}

Gate rotation(GateKind kind, double angle) {
  return make_gate(kind, {0}, {angle});
}

TEST(FuserReference, RepeatedCliffordRunsMatch) {
  const std::vector<GateKind> cliffords = {
      GateKind::H, GateKind::S,  GateKind::Sdg, GateKind::X,
      GateKind::Y, GateKind::Z,  GateKind::SX,  GateKind::SXdg};
  Rng rng(0xF05E);
  std::vector<std::vector<Gate>> pool;
  for (int i = 0; i < 24; ++i) {
    std::vector<Gate> run;
    const int length = rng.integer(1, 4);
    for (int k = 0; k < length; ++k) {
      run.push_back(make_gate(cliffords[rng.index(cliffords.size())], {0}));
    }
    pool.push_back(std::move(run));
  }
  // Exact and near identities among the repeats: H H, X X, S Sdg.
  pool.push_back({make_gate(GateKind::H, {0}), make_gate(GateKind::H, {0})});
  pool.push_back({make_gate(GateKind::X, {0}), make_gate(GateKind::X, {0})});
  pool.push_back({make_gate(GateKind::S, {0}), make_gate(GateKind::Sdg, {0})});
  expect_fuser_matches_reference(draw_runs(pool, 2000, rng), "clifford");
}

TEST(FuserReference, RandomRunsBeyondTheSlotCountMatch) {
  // Three times 256 distinct runs drawn 4000 times: most runs are seen
  // again after many others, so a bounded table has evicted them or
  // handed their slot to another run in between.
  Rng rng(0xF05F);
  std::vector<std::vector<Gate>> pool;
  for (int i = 0; i < 3 * 256; ++i) {
    std::vector<Gate> run;
    const int length = rng.integer(1, 3);
    for (int k = 0; k < length; ++k) {
      const double angle = rng.uniform(-kPi, kPi);
      switch (rng.integer(0, 3)) {
        case 0: run.push_back(rotation(GateKind::Rx, angle)); break;
        case 1: run.push_back(rotation(GateKind::Ry, angle)); break;
        case 2: run.push_back(rotation(GateKind::Rz, angle)); break;
        default:
          run.push_back(make_gate(GateKind::U, {0},
                                  {angle, rng.uniform(-kPi, kPi),
                                   rng.uniform(-kPi, kPi)}));
      }
    }
    pool.push_back(std::move(run));
  }
  expect_fuser_matches_reference(draw_runs(pool, 4000, rng), "random");
}

TEST(FuserReference, RunsSharingAMemoSlotMatch) {
  // Pairs of distinct runs that map to one memo slot, fed in turn on
  // different qubits: each evicts the other before it comes back.
  Rng rng(0xF063);
  std::vector<std::vector<Gate>> by_slot(SingleQubitFuser::kMemoSlots);
  std::vector<Gate> input;
  int pairs = 0;
  for (int i = 0; i < 4 * 256 && pairs < 16; ++i) {
    const std::vector<Gate> run = {
        rotation(GateKind::Rz, rng.uniform(-kPi, kPi)),
        rotation(GateKind::Rx, rng.uniform(-kPi, kPi))};
    const Mat2 matrix = run[1].matrix2() * run[0].matrix2();
    std::vector<Gate>& other = by_slot[SingleQubitFuser::memo_slot(matrix)];
    if (other.empty()) {
      other = run;
      continue;
    }
    for (int round = 0; round < 3; ++round) {
      append_run(input, other, round % kFuserQubits, round);
      append_run(input, run, (round + 2) % kFuserQubits, round + 1);
    }
    other.clear();
    ++pairs;
  }
  ASSERT_EQ(pairs, 16);
  expect_fuser_matches_reference(input, "shared slot");
}

TEST(FuserReference, NearIdentityAndNearTwinRunsMatch) {
  // Runs on both sides of the 1e-10 identity test, and pairs of runs whose
  // matrices differ in the last bits: each must be synthesized from its own
  // bits, never from a neighbour's.
  Rng rng(0xF060);
  std::vector<std::vector<Gate>> pool = {
      {rotation(GateKind::Rz, 1e-11)},
      {rotation(GateKind::Rx, -4e-11)},
      {rotation(GateKind::Ry, 1e-10)},
      {rotation(GateKind::Rz, 3e-10)},
      {rotation(GateKind::Rx, 1e-9)},
      {rotation(GateKind::Ry, 1e-13)},
      {make_gate(GateKind::I, {0})},
  };
  for (int i = 0; i < 12; ++i) {
    const double a = rng.uniform(-kPi, kPi);
    const double b = rng.uniform(-kPi, kPi);
    // a then -a: the identity up to rounding.
    pool.push_back({rotation(GateKind::Rz, a), rotation(GateKind::Rz, -a)});
    pool.push_back({rotation(GateKind::Rx, a), rotation(GateKind::Rx, -a),
                    rotation(GateKind::Ry, b), rotation(GateKind::Ry, -b)});
    // Twins one ulp and 1e-13 apart.
    pool.push_back({rotation(GateKind::Rz, a), rotation(GateKind::Rx, b)});
    pool.push_back({rotation(GateKind::Rz, std::nextafter(a, 4.0)),
                    rotation(GateKind::Rx, b)});
    pool.push_back({rotation(GateKind::Ry, b + 1e-13),
                    rotation(GateKind::Rz, a)});
    pool.push_back({rotation(GateKind::Ry, b), rotation(GateKind::Rz, a)});
  }
  expect_fuser_matches_reference(draw_runs(pool, 1500, rng), "near");
}

TEST(FuserReference, NegativeZeroEntriesMatch) {
  // Y, Sdg and every Rx carry -0.0 real parts; a -0.0 angle leaves -0.0
  // entries too. Each comes with a +0.0 twin of equal value.
  Rng rng(0xF061);
  std::vector<std::vector<Gate>> pool = {
      {make_gate(GateKind::Y, {0})},
      {make_gate(GateKind::Sdg, {0})},
      {rotation(GateKind::Rx, -0.0)},
      {rotation(GateKind::Rx, 0.0)},
      {rotation(GateKind::Rz, -0.0)},
      {rotation(GateKind::Rz, 0.0)},
      {rotation(GateKind::Ry, -0.0)},
      {rotation(GateKind::Phase, -0.0)},
      {make_gate(GateKind::U, {0}, {0.0, -0.0, -0.0})},
      {make_gate(GateKind::U, {0}, {kPi, 0.0, -0.0})},
      {make_gate(GateKind::U, {0}, {kPi, 0.0, 0.0})},
      {rotation(GateKind::Rx, kPi)},
      {rotation(GateKind::Rx, -kPi)},
      {rotation(GateKind::Rx, kPi / 2)},
      {make_gate(GateKind::Y, {0}), rotation(GateKind::Rz, -0.0)},
      {make_gate(GateKind::Sdg, {0}), rotation(GateKind::Rx, -0.0)},
  };
  expect_fuser_matches_reference(draw_runs(pool, 600, rng), "negative zero");
}

TEST(FuserReference, ChunkedLoweringMatches) {
  // StreamingLowerer holds its fuser across chunks: chunks of 1 and 7 must
  // give lower_two_qubit followed by the reference fuser, gate for gate.
  for (const Device& device : {devices::ibm_qx5(), devices::surface17()}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Circuit circuit = reference_circuit(seed, 7, 300, true);
      Rng rng(Rng::derive_stream(0xF062, seed));
      for (int i = 0; i < 200; ++i) {
        const int q = rng.integer(0, 6);
        circuit.h(q).s(q);
        if (i % 2 == 0) circuit.sx(q);
        circuit.cz(q, (q + 3) % 7);
      }
      const Circuit two_qubit =
          lower_two_qubit(circuit, device.native_two_qubit(), true);
      ReferenceFuser reference(circuit.num_qubits(),
                               !device.is_native_kind(GateKind::U));
      std::vector<Gate> want;
      for (const Gate& gate : two_qubit) reference.push(gate, want);
      reference.finish(want);
      for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}}) {
        StreamingLowerer lowerer(device, circuit.num_qubits(), true);
        Circuit got(circuit.num_qubits(), "chunked");
        for (std::size_t begin = 0; begin < circuit.size(); begin += chunk) {
          const std::size_t end = std::min(circuit.size(), begin + chunk);
          lowerer.lower_chunk(
              std::vector<Gate>(circuit.gates().begin() +
                                    static_cast<std::ptrdiff_t>(begin),
                                circuit.gates().begin() +
                                    static_cast<std::ptrdiff_t>(end)),
              got);
        }
        lowerer.finish(got);
        EXPECT_EQ(first_gate_difference(got.gates(), want), "")
            << device.name() << " seed=" << seed << " chunk=" << chunk;
      }
    }
  }
}

TEST(FuserReference, FinalizeRoutedMatches) {
  // Postroute's native tail: the fusing stage must equal the reference
  // fuser run over the tail's output without it.
  for (const Device& device : {devices::ibm_qx5(), devices::surface17()}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Circuit lowered = lower_to_device(
          reference_circuit(seed, 7, 300, false), device, true);
      const std::vector<Gate> routed =
          SabreRouter()
              .route(lowered, device,
                     Placement::identity(lowered.num_qubits(),
                                         device.num_qubits()))
              .circuit.gates();
      std::vector<Gate> unfused = routed;
      finalize_routed(unfused, device.num_qubits(), device, true, false);
      ReferenceFuser reference(device.num_qubits(),
                               !device.is_native_kind(GateKind::U));
      std::vector<Gate> want;
      for (const Gate& gate : unfused) reference.push(gate, want);
      reference.finish(want);
      std::vector<Gate> got = routed;
      finalize_routed(got, device.num_qubits(), device, true, true);
      EXPECT_EQ(first_gate_difference(got, want), "")
          << device.name() << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace qmap
