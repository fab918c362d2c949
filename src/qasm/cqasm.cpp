#include "qasm/cqasm.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "qasm/expr.hpp"

namespace qmap {
namespace {

constexpr double kPi = 3.14159265358979323846;

class CqasmParser {
 public:
  explicit CqasmParser(std::string_view source) : source_(source) {}

  Circuit parse() {
    int line_number = 0;
    for (const std::string& raw_line : split(std::string(source_), '\n')) {
      ++line_number;
      std::string line = raw_line;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      const std::string_view text = trim(line);
      if (text.empty()) continue;
      handle_line(text, line_number);
    }
    if (!circuit_initialized_) {
      throw ParseError("cQASM: missing 'qubits N' declaration");
    }
    return std::move(circuit_);
  }

 private:
  [[noreturn]] void fail(const std::string& message, int line) const {
    throw ParseError("cQASM: " + message, line, 1);
  }

  void handle_line(std::string_view text, int line) {
    if (starts_with(text, "version")) return;
    if (starts_with(text, "qubits")) {
      if (circuit_initialized_) fail("duplicate 'qubits' declaration", line);
      int n = 0;
      try {
        n = static_cast<int>(eval_expression(text.substr(6)));
      } catch (const ParseError&) {
        fail("malformed qubit count", line);
      }
      if (n <= 0) fail("qubit count must be positive", line);
      circuit_ = Circuit(n, "cqasm");
      circuit_initialized_ = true;
      return;
    }
    if (!circuit_initialized_) {
      fail("instruction before 'qubits N' declaration", line);
    }
    if (text.front() == '{') {
      // Parallel bundle: { g1 | g2 | ... }. Parallelism is re-derived from
      // the dependency DAG, so flattening preserves semantics.
      if (text.back() != '}') fail("unterminated parallel bundle", line);
      const std::string_view inner = text.substr(1, text.size() - 2);
      for (const std::string& part : split(inner, '|')) {
        const std::string_view instruction = trim(part);
        if (!instruction.empty()) handle_instruction(instruction, line);
      }
      return;
    }
    handle_instruction(text, line);
  }

  int parse_qubit(std::string_view token, int line) const {
    const std::string_view spec = trim(token);
    const std::size_t open = spec.find('[');
    const std::size_t close = spec.find(']');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open || trim(spec.substr(0, open)) != "q") {
      fail("malformed qubit operand '" + std::string(spec) + "'", line);
    }
    int index = 0;
    try {
      index = static_cast<int>(
          eval_expression(spec.substr(open + 1, close - open - 1)));
    } catch (const ParseError&) {
      fail("malformed qubit index", line);
    }
    if (index < 0 || index >= circuit_.num_qubits()) {
      fail("qubit index out of range: " + std::to_string(index), line);
    }
    return index;
  }

  void handle_instruction(std::string_view text, int line) {
    // Mnemonic, then comma-separated operands (angles come last in cQASM).
    std::size_t name_end = 0;
    while (name_end < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[name_end])) ||
            text[name_end] == '_')) {
      ++name_end;
    }
    const std::string name = to_lower(text.substr(0, name_end));
    std::vector<std::string> args;
    for (const std::string& token : split(text.substr(name_end), ',')) {
      if (!trim(token).empty()) args.emplace_back(trim(token));
    }

    const auto one_qubit = [&](GateKind kind) {
      if (args.size() != 1) fail(name + " expects 1 operand", line);
      circuit_.add(make_gate(kind, {parse_qubit(args[0], line)}));
    };
    const auto two_qubit = [&](GateKind kind) {
      if (args.size() != 2) fail(name + " expects 2 operands", line);
      circuit_.add(make_gate(kind, {parse_qubit(args[0], line),
                                    parse_qubit(args[1], line)}));
    };
    const auto rotation = [&](GateKind kind) {
      if (args.size() != 2) fail(name + " expects qubit, angle", line);
      double angle = 0.0;
      try {
        angle = eval_expression(args[1]);
      } catch (const ParseError&) {
        fail("malformed angle", line);
      }
      circuit_.add(make_gate(kind, {parse_qubit(args[0], line)}, {angle}));
    };
    const auto fixed_rotation = [&](GateKind kind, double angle) {
      if (args.size() != 1) fail(name + " expects 1 operand", line);
      circuit_.add(make_gate(kind, {parse_qubit(args[0], line)}, {angle}));
    };

    if (name == "i") one_qubit(GateKind::I);
    else if (name == "x") one_qubit(GateKind::X);
    else if (name == "y") one_qubit(GateKind::Y);
    else if (name == "z") one_qubit(GateKind::Z);
    else if (name == "h") one_qubit(GateKind::H);
    else if (name == "s") one_qubit(GateKind::S);
    else if (name == "sdag") one_qubit(GateKind::Sdg);
    else if (name == "t") one_qubit(GateKind::T);
    else if (name == "tdag") one_qubit(GateKind::Tdg);
    else if (name == "x90") fixed_rotation(GateKind::Rx, kPi / 2.0);
    else if (name == "mx90") fixed_rotation(GateKind::Rx, -kPi / 2.0);
    else if (name == "y90") fixed_rotation(GateKind::Ry, kPi / 2.0);
    else if (name == "my90") fixed_rotation(GateKind::Ry, -kPi / 2.0);
    else if (name == "rx") rotation(GateKind::Rx);
    else if (name == "ry") rotation(GateKind::Ry);
    else if (name == "rz") rotation(GateKind::Rz);
    else if (name == "cnot") two_qubit(GateKind::CX);
    else if (name == "cz") two_qubit(GateKind::CZ);
    else if (name == "swap") two_qubit(GateKind::SWAP);
    else if (name == "toffoli") {
      if (args.size() != 3) fail("toffoli expects 3 operands", line);
      circuit_.add(make_gate(
          GateKind::CCX, {parse_qubit(args[0], line),
                          parse_qubit(args[1], line),
                          parse_qubit(args[2], line)}));
    } else if (name == "measure" || name == "measure_z") {
      if (args.size() != 1) fail("measure expects 1 operand", line);
      const int q = parse_qubit(args[0], line);
      circuit_.measure(q, q);
    } else if (name == "measure_all") {
      circuit_.measure_all();
    } else if (name == "prep_z" || name == "prep") {
      // Qubits start in |0>; an explicit prep on a fresh register is a
      // no-op for the unitary pipeline, so accept and ignore it.
      if (args.size() != 1) fail("prep expects 1 operand", line);
      (void)parse_qubit(args[0], line);
    } else if (name == "display") {
      // Debug directive; ignored.
    } else {
      fail("unknown instruction '" + name + "'", line);
    }
  }

  std::string_view source_;
  Circuit circuit_;
  bool circuit_initialized_ = false;
};

}  // namespace

Circuit parse_cqasm(std::string_view source) {
  return CqasmParser(source).parse();
}

Circuit load_cqasm(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  Circuit circuit = parse_cqasm(buffer.str());
  circuit.set_name(path);
  return circuit;
}

namespace {

/// The cQASM v1 mnemonic of `kind`; empty for a barrier (cQASM v1 has
/// none: parallelism is re-derived). Throws ParseError for a kind cQASM
/// cannot express.
std::string_view cqasm_mnemonic(GateKind kind) {
  switch (kind) {
    case GateKind::I: return "i";
    case GateKind::X: return "x";
    case GateKind::Y: return "y";
    case GateKind::Z: return "z";
    case GateKind::H: return "h";
    case GateKind::S: return "s";
    case GateKind::Sdg: return "sdag";
    case GateKind::T: return "t";
    case GateKind::Tdg: return "tdag";
    case GateKind::Rx: return "rx";
    case GateKind::Ry: return "ry";
    case GateKind::Rz: return "rz";
    case GateKind::CX: return "cnot";
    case GateKind::CZ: return "cz";
    case GateKind::SWAP:
    case GateKind::Move:  // exported as its SWAP wire semantics
      return "swap";
    case GateKind::CCX: return "toffoli";
    case GateKind::Measure: return "measure";
    case GateKind::Barrier: return {};
    default:
      throw ParseError("to_cqasm: gate '" +
                       std::string(gate_info(kind).name) +
                       "' is not expressible in cQASM v1");
  }
}

/// Appends cqasm_instruction(gate) to `out`; returns false (appending
/// nothing) for a barrier.
bool append_cqasm_instruction(std::string& out, const Gate& gate) {
  const std::string_view mnemonic = cqasm_mnemonic(gate.kind);
  if (mnemonic.empty()) return false;
  out += mnemonic;
  for (std::size_t i = 0; i < gate.qubits.size(); ++i) {
    out += i == 0 ? " q[" : ", q[";
    append_int(out, gate.qubits[i]);
    out += ']';
  }
  for (const double param : gate.params) {
    out += ", ";
    append_double(out, param);
  }
  return true;
}

}  // namespace

std::string cqasm_instruction(const Gate& gate) {
  std::string out;
  append_cqasm_instruction(out, gate);
  return out;
}

std::string to_cqasm(const Circuit& circuit) {
  std::string out = "version 1.0\n";
  out += "qubits " + std::to_string(circuit.num_qubits()) + "\n";
  for (const Gate& gate : circuit) {
    if (append_cqasm_instruction(out, gate)) out += '\n';
  }
  return out;
}

void save_cqasm(const Circuit& circuit, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw ParseError("cannot write file: " + path);
  out << to_cqasm(circuit);
}

}  // namespace qmap
