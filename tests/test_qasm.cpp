// QASM front-end tests: OpenQASM 2.0 and cQASM parsing, writing, round
// trips, angle expressions, broadcast semantics, and diagnostics.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "qasm/cqasm.hpp"
#include "qasm/expr.hpp"
#include "qasm/openqasm.hpp"
#include "sim/equivalence.hpp"
#include "workloads/workloads.hpp"

namespace qmap {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(Expr, EvaluatesArithmetic) {
  EXPECT_DOUBLE_EQ(eval_expression("1+2*3"), 7.0);
  EXPECT_DOUBLE_EQ(eval_expression("(1+2)*3"), 9.0);
  EXPECT_DOUBLE_EQ(eval_expression("-4/2"), -2.0);
  EXPECT_DOUBLE_EQ(eval_expression("2^10"), 1024.0);
  EXPECT_NEAR(eval_expression("pi/2"), kPi / 2.0, 1e-12);
  EXPECT_NEAR(eval_expression("-3*pi/4"), -3.0 * kPi / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(eval_expression("1.5e2"), 150.0);
}

TEST(Expr, RejectsMalformedInput) {
  EXPECT_THROW((void)eval_expression("1+"), ParseError);
  EXPECT_THROW((void)eval_expression("foo"), ParseError);
  EXPECT_THROW((void)eval_expression("(1"), ParseError);
  EXPECT_THROW((void)eval_expression("1/0"), ParseError);
  EXPECT_THROW((void)eval_expression("1 2"), ParseError);
}

TEST(OpenQasm, ParsesBasicProgram) {
  const Circuit c = parse_openqasm(R"(
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[3];
    creg c[3];
    h q[0];
    cx q[0], q[1];
    rz(pi/4) q[2];
    u3(0.1, 0.2, 0.3) q[1];
    measure q[0] -> c[0];
    barrier q[1], q[2];
  )");
  EXPECT_EQ(c.num_qubits(), 3);
  EXPECT_EQ(c.num_cbits(), 3);
  ASSERT_EQ(c.size(), 6u);
  EXPECT_EQ(c.gate(0).kind, GateKind::H);
  EXPECT_EQ(c.gate(1).kind, GateKind::CX);
  EXPECT_EQ(c.gate(2).kind, GateKind::Rz);
  EXPECT_NEAR(c.gate(2).params[0], kPi / 4.0, 1e-12);
  EXPECT_EQ(c.gate(3).kind, GateKind::U);
  EXPECT_EQ(c.gate(4).kind, GateKind::Measure);
  EXPECT_EQ(c.gate(5).kind, GateKind::Barrier);
}

TEST(OpenQasm, MultipleRegistersAreFlattened) {
  const Circuit c = parse_openqasm(R"(
    OPENQASM 2.0;
    qreg a[2];
    qreg b[2];
    cx a[1], b[0];
  )");
  EXPECT_EQ(c.num_qubits(), 4);
  EXPECT_EQ(c.gate(0).qubits, (std::vector<int>{1, 2}));
}

TEST(OpenQasm, BroadcastSemantics) {
  const Circuit c = parse_openqasm(R"(
    OPENQASM 2.0;
    qreg q[3];
    creg c[3];
    h q;
    measure q -> c;
  )");
  EXPECT_EQ(c.size(), 6u);
  EXPECT_EQ(c.gate(0).kind, GateKind::H);
  EXPECT_EQ(c.gate(2).qubits[0], 2);
  EXPECT_EQ(c.gate(5).cbit, 2);
}

TEST(OpenQasm, U2Alias) {
  const Circuit c = parse_openqasm(
      "OPENQASM 2.0; qreg q[1]; u2(0.5, 0.25) q[0];");
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.gate(0).kind, GateKind::U);
  EXPECT_NEAR(c.gate(0).params[0], kPi / 2.0, 1e-12);
  EXPECT_NEAR(c.gate(0).params[1], 0.5, 1e-12);
}

TEST(OpenQasm, GateDefinitionsExpand) {
  const Circuit c = parse_openqasm(R"(
    OPENQASM 2.0;
    qreg q[3];
    gate bell a, b { h a; cx a, b; }
    bell q[0], q[1];
    bell q[1], q[2];
  )");
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c.gate(0).kind, GateKind::H);
  EXPECT_EQ(c.gate(1).kind, GateKind::CX);
  EXPECT_EQ(c.gate(1).qubits, (std::vector<int>{0, 1}));
  EXPECT_EQ(c.gate(3).qubits, (std::vector<int>{1, 2}));
}

TEST(OpenQasm, ParameterizedGateDefinitions) {
  const Circuit c = parse_openqasm(R"(
    OPENQASM 2.0;
    qreg q[2];
    gate cphase(theta) a, b { rz(theta/2) a; cx a, b; rz(-theta/2) b; cx a, b; rz(theta/2) b; }
    cphase(pi/2) q[0], q[1];
  )");
  ASSERT_EQ(c.size(), 5u);
  EXPECT_EQ(c.gate(0).kind, GateKind::Rz);
  EXPECT_NEAR(c.gate(0).params[0], kPi / 4.0, 1e-9);
  // Semantically a controlled phase.
  Circuit reference(2);
  reference.cp(kPi / 2.0, 0, 1);
  EXPECT_TRUE(circuits_equivalent_exact(c, reference, 1e-7));
}

TEST(OpenQasm, NestedGateDefinitions) {
  const Circuit c = parse_openqasm(R"(
    OPENQASM 2.0;
    qreg q[2];
    gate mycx a, b { cx a, b; }
    gate double_cx a, b { mycx a, b; mycx a, b; }
    double_cx q[0], q[1];
  )");
  EXPECT_EQ(c.size(), 2u);
}

TEST(OpenQasm, GateDefinitionDiagnostics) {
  // Wrong arity at the call site.
  EXPECT_THROW((void)parse_openqasm(
                   "OPENQASM 2.0; qreg q[2]; gate g a, b { cx a, b; } "
                   "g q[0];"),
               ParseError);
  // Wrong parameter count.
  EXPECT_THROW((void)parse_openqasm(
                   "OPENQASM 2.0; qreg q[1]; gate g(t) a { rz(t) a; } "
                   "g q[0];"),
               ParseError);
  // Duplicate definition.
  EXPECT_THROW((void)parse_openqasm(
                   "OPENQASM 2.0; qreg q[1]; gate g a { x a; } "
                   "gate g a { y a; } g q[0];"),
               ParseError);
  // Recursive definition hits the depth guard.
  EXPECT_THROW(
      (void)parse_openqasm("OPENQASM 2.0; qreg q[2]; "
                           "gate g a, b { g b, a; } g q[0], q[1];"),
      ParseError);
  // Unterminated body.
  EXPECT_THROW((void)parse_openqasm(
                   "OPENQASM 2.0; qreg q[1]; gate g a { x a;"),
               ParseError);
}

TEST(OpenQasm, Diagnostics) {
  EXPECT_THROW((void)parse_openqasm("qreg q[1];"), ParseError);  // no header
  EXPECT_THROW((void)parse_openqasm("OPENQASM 2.0; h q[0];"), ParseError);
  EXPECT_THROW(
      (void)parse_openqasm("OPENQASM 2.0; qreg q[2]; cx q[0], q[5];"),
      ParseError);
  EXPECT_THROW(
      (void)parse_openqasm("OPENQASM 2.0; qreg q[2]; frob q[0];"),
      ParseError);
  EXPECT_THROW((void)parse_openqasm("OPENQASM 2.0; qreg q[2]; h q[0]"),
               ParseError);  // missing semicolon
  EXPECT_THROW(
      (void)parse_openqasm("OPENQASM 2.0; qreg q[2]; if (c == 1) x q[0];"),
      ParseError);  // unsupported construct is reported, not ignored
}

TEST(OpenQasm, LineNumbersInErrors) {
  try {
    (void)parse_openqasm("OPENQASM 2.0;\nqreg q[2];\nbadgate q[0];\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(OpenQasm, CommentsAreIgnored) {
  const Circuit c = parse_openqasm(
      "OPENQASM 2.0; // header\nqreg q[1];\n// a comment; with semicolon is "
      "tricky\nh q[0]; // trailing\n");
  EXPECT_EQ(c.size(), 1u);
}

TEST(OpenQasm, RoundTripPreservesSemantics) {
  Rng rng(31);
  const Circuit original = workloads::random_circuit(4, 40, rng, 0.35);
  const Circuit reparsed = parse_openqasm(to_openqasm(original));
  EXPECT_EQ(reparsed.num_qubits(), original.num_qubits());
  EXPECT_TRUE(circuits_equivalent_exact(original, reparsed, 1e-7));
}

TEST(OpenQasm, RoundTripWithMeasurementsAndQft) {
  Circuit original = workloads::qft(4);
  original.measure_all();
  const Circuit reparsed = parse_openqasm(to_openqasm(original));
  EXPECT_EQ(reparsed.size(), original.size());
  EXPECT_TRUE(circuits_equivalent_exact(original.unitary_part(),
                                        reparsed.unitary_part(), 1e-7));
}

TEST(Cqasm, ParsesBasicProgram) {
  const Circuit c = parse_cqasm(R"(
version 1.0
# the paper's Fig. 2 input language
qubits 3

prep_z q[0]
h q[0]
cnot q[0], q[1]
rz q[2], 3.14159/2
toffoli q[0], q[1], q[2]
measure q[2]
)");
  EXPECT_EQ(c.num_qubits(), 3);
  ASSERT_EQ(c.size(), 5u);  // prep_z on fresh register is a no-op
  EXPECT_EQ(c.gate(0).kind, GateKind::H);
  EXPECT_EQ(c.gate(1).kind, GateKind::CX);
  EXPECT_EQ(c.gate(2).kind, GateKind::Rz);
  EXPECT_EQ(c.gate(3).kind, GateKind::CCX);
  EXPECT_EQ(c.gate(4).kind, GateKind::Measure);
}

TEST(Cqasm, ParallelBundlesAreFlattened) {
  const Circuit c = parse_cqasm(
      "version 1.0\nqubits 3\n{ h q[0] | h q[1] | x q[2] }\ncz q[0], q[1]\n");
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.gate(2).kind, GateKind::X);
}

TEST(Cqasm, RotationShorthands) {
  const Circuit c = parse_cqasm(
      "version 1.0\nqubits 1\nx90 q[0]\nmy90 q[0]\nsdag q[0]\n");
  EXPECT_EQ(c.gate(0).kind, GateKind::Rx);
  EXPECT_NEAR(c.gate(0).params[0], kPi / 2.0, 1e-9);
  EXPECT_EQ(c.gate(1).kind, GateKind::Ry);
  EXPECT_NEAR(c.gate(1).params[0], -kPi / 2.0, 1e-9);
  EXPECT_EQ(c.gate(2).kind, GateKind::Sdg);
}

TEST(Cqasm, Diagnostics) {
  EXPECT_THROW((void)parse_cqasm("version 1.0\nh q[0]\n"), ParseError);
  EXPECT_THROW((void)parse_cqasm("version 1.0\nqubits 2\nh q[7]\n"),
               ParseError);
  EXPECT_THROW((void)parse_cqasm("version 1.0\nqubits 2\nbork q[0]\n"),
               ParseError);
  EXPECT_THROW((void)parse_cqasm("version 1.0\nqubits 2\n{ h q[0] | x q[1]\n"),
               ParseError);
}

TEST(Cqasm, RoundTripPreservesSemantics) {
  Circuit original(3, "rt");
  original.h(0).cx(0, 1).rz(0.7, 2).swap(1, 2).t(0).cz(0, 2);
  const Circuit reparsed = parse_cqasm(to_cqasm(original));
  EXPECT_TRUE(circuits_equivalent_exact(original, reparsed, 1e-8));
}

TEST(Cqasm, WriterRejectsInexpressibleGates) {
  Circuit c(1);
  c.u(0.1, 0.2, 0.3, 0);
  EXPECT_THROW((void)to_cqasm(c), ParseError);
}

TEST(CrossFormat, OpenQasmToCqasm) {
  const Circuit c = parse_openqasm(
      "OPENQASM 2.0; qreg q[2]; h q[0]; cx q[0], q[1];");
  const Circuit again = parse_cqasm(to_cqasm(c));
  EXPECT_TRUE(circuits_equivalent_exact(c, again, 1e-9));
}

TEST(Files, SaveAndLoadRoundTrip) {
  const std::string path = testing::TempDir() + "/qmap_roundtrip.qasm";
  const Circuit original = workloads::ghz(3);
  save_openqasm(original, path);
  const Circuit loaded = load_openqasm(path);
  EXPECT_TRUE(circuits_equivalent_exact(original, loaded, 1e-9));
  const std::string cpath = testing::TempDir() + "/qmap_roundtrip.cq";
  save_cqasm(original, cpath);
  EXPECT_TRUE(circuits_equivalent_exact(original, load_cqasm(cpath), 1e-9));
}

/// One gate of every GateKind on multi-digit operands, then a measure and
/// a barrier. The angles stress the number writer: a negative zero, a
/// tiny and a huge value, and multiples of pi.
Circuit every_kind_circuit() {
  const std::vector<double> angles = {-0.0,     1e-13,          1e13,
                                      kPi,      -kPi / 2,       3 * kPi / 4,
                                      2 * kPi,  -5 * kPi / 16,  7 * kPi};
  const std::vector<int> operands = {11, 3, 10};
  std::size_t next = 0;
  Circuit circuit(12, "every_kind");
  for (std::size_t k = 0; k < static_cast<std::size_t>(GateKind::Measure);
       ++k) {
    const auto kind = static_cast<GateKind>(k);
    const GateInfo& info = gate_info(kind);
    std::vector<double> params;
    for (int p = 0; p < info.num_params; ++p) {
      params.push_back(angles[next++ % angles.size()]);
    }
    circuit.add(make_gate(
        kind, std::vector<int>(operands.begin(), operands.begin() + info.arity),
        std::move(params)));
  }
  circuit.add(make_measure(10, 2));
  circuit.add(make_barrier({0, 11, 3}));
  return circuit;
}

/// The cQASM-expressible subset, with the same angle list.
Circuit every_cqasm_kind_circuit() {
  Circuit circuit(12, "every_cqasm_kind");
  for (const Gate& gate : every_kind_circuit()) {
    switch (gate.kind) {
      case GateKind::SX: case GateKind::SXdg: case GateKind::Phase:
      case GateKind::U: case GateKind::ISWAP: case GateKind::CPhase:
      case GateKind::CRz: case GateKind::CSWAP:
        break;
      default:
        circuit.add(gate);
    }
  }
  circuit.add(make_gate(GateKind::Rz, {11}, {-0.0}));
  circuit.add(make_gate(GateKind::Rx, {3}, {1e13}));
  circuit.add(make_gate(GateKind::Ry, {10}, {1e-13}));
  return circuit;
}

std::string gate_strings(const Circuit& circuit) {
  std::string out;
  for (const Gate& gate : circuit) out += gate.to_string() + "\n";
  return out;
}

// The writers' exact bytes, pinned as literals: a change to the number
// writer or to the emitters that alters one character fails here.
TEST(WriterPins, OpenQasmText) {
  EXPECT_EQ(to_openqasm(every_kind_circuit()),
            "OPENQASM 2.0;\n"
            "include \"qelib1.inc\";\n"
            "qreg q[12];\n"
            "creg c[3];\n"
            "id q[11];\n"
            "x q[11];\n"
            "y q[11];\n"
            "z q[11];\n"
            "h q[11];\n"
            "s q[11];\n"
            "sdg q[11];\n"
            "t q[11];\n"
            "tdg q[11];\n"
            "sx q[11];\n"
            "sxdg q[11];\n"
            "rx(-0) q[11];\n"
            "ry(1e-13) q[11];\n"
            "rz(1e+13) q[11];\n"
            "u1(3.14159265359) q[11];\n"
            "u3(-1.57079632679,2.35619449019,6.28318530718) q[11];\n"
            "cx q[11],q[3];\n"
            "cz q[11],q[3];\n"
            "swap q[11],q[3];\n"
            "iswap q[11],q[3];\n"
            "cp(-0.981747704247) q[11],q[3];\n"
            "crz(21.9911485751) q[11],q[3];\n"
            "move q[11],q[3];\n"
            "ccx q[11],q[3],q[10];\n"
            "cswap q[11],q[3],q[10];\n"
            "measure q[10] -> c[2];\n"
            "barrier q[0],q[11],q[3];\n");
}

TEST(WriterPins, CqasmText) {
  EXPECT_EQ(to_cqasm(every_cqasm_kind_circuit()),
            "version 1.0\n"
            "qubits 12\n"
            "i q[11]\n"
            "x q[11]\n"
            "y q[11]\n"
            "z q[11]\n"
            "h q[11]\n"
            "s q[11]\n"
            "sdag q[11]\n"
            "t q[11]\n"
            "tdag q[11]\n"
            "rx q[11], -0\n"
            "ry q[11], 1e-13\n"
            "rz q[11], 1e+13\n"
            "cnot q[11], q[3]\n"
            "cz q[11], q[3]\n"
            "swap q[11], q[3]\n"
            "swap q[11], q[3]\n"
            "toffoli q[11], q[3], q[10]\n"
            "measure q[10]\n"
            "rz q[11], -0\n"
            "rx q[3], 1e+13\n"
            "ry q[10], 1e-13\n");
}

TEST(WriterPins, GateToString) {
  EXPECT_EQ(gate_strings(every_kind_circuit()),
            "id q11\n"
            "x q11\n"
            "y q11\n"
            "z q11\n"
            "h q11\n"
            "s q11\n"
            "sdg q11\n"
            "t q11\n"
            "tdg q11\n"
            "sx q11\n"
            "sxdg q11\n"
            "rx(-0) q11\n"
            "ry(1e-13) q11\n"
            "rz(1e+13) q11\n"
            "p(3.14159265359) q11\n"
            "u(-1.57079632679, 2.35619449019, 6.28318530718) q11\n"
            "cx q11, q3\n"
            "cz q11, q3\n"
            "swap q11, q3\n"
            "iswap q11, q3\n"
            "cp(-0.981747704247) q11, q3\n"
            "crz(21.9911485751) q11, q3\n"
            "move q11, q3\n"
            "ccx q11, q3, q10\n"
            "cswap q11, q3, q10\n"
            "measure q10 -> c2\n"
            "barrier q0, q11, q3\n");
}

}  // namespace
}  // namespace qmap
