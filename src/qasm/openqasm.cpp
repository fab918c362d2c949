#include "qasm/openqasm.hpp"

#include <cctype>
#include <fstream>
#include <istream>
#include <streambuf>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "qasm/expr.hpp"
#include "qasm/openqasm_parser.hpp"

namespace qmap {
namespace qasm_detail {

// ---------------------------------------------------------------------------
// StatementLexer

int StatementLexer::raw_get() {
  const int c = in_->get();
  if (c == std::char_traits<char>::eof()) return c;
  char_line_ = line_;
  char_column_ = column_;
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

int StatementLexer::get() {
  int c = raw_get();
  if (c == '/' && in_->peek() == '/') {
    // Line comment: consume to (and including) the newline so a ';'
    // inside a comment cannot split statements. The newline is returned
    // as the comment's whitespace residue, keeping line counts exact.
    while (c != std::char_traits<char>::eof() && c != '\n') c = raw_get();
  }
  return c;
}

bool StatementLexer::next(std::string& statement, int& line, int& column) {
  statement.clear();
  constexpr int kEof = std::char_traits<char>::eof();
  int brace_depth = 0;
  bool has_content = false;
  for (;;) {
    const int c = get();
    if (c == kEof) {
      if (brace_depth != 0) {
        throw ParseError("OpenQASM: unterminated gate definition", line_,
                         column_);
      }
      if (has_content) {
        throw ParseError("OpenQASM: missing ';' after final statement", line,
                         column);
      }
      return false;
    }
    if (c == '{') ++brace_depth;
    if (c == '}') {
      if (--brace_depth < 0) {
        throw ParseError("OpenQASM: unbalanced '}'", char_line_, char_column_);
      }
      if (brace_depth == 0) {
        // End of a gate-definition block.
        statement += '}';
        return true;
      }
    }
    if (c == ';' && brace_depth == 0) {
      if (has_content) return true;
      continue;  // stray ';' — matches the old parser's empty statement
    }
    if (!has_content && !std::isspace(static_cast<unsigned char>(c))) {
      has_content = true;
      line = char_line_;
      column = char_column_;
    }
    if (has_content) statement += static_cast<char>(c);
  }
}

// ---------------------------------------------------------------------------
// OpenQasmParser

void OpenQasmParser::fail(const std::string& message, int line) const {
  throw ParseError("OpenQASM: " + message, line, column_);
}

void OpenQasmParser::handle_statement(std::string_view raw, int line,
                                      int column) {
  column_ = column;
  const std::string_view statement = trim(raw);
  if (statement.empty()) return;
  if (starts_with(statement, "OPENQASM")) {
    saw_header_ = true;
    return;
  }
  if (starts_with(statement, "include")) return;  // qelib1.inc is built in
  if (starts_with(statement, "qreg")) {
    declare_register(statement.substr(4), line, /*quantum=*/true);
    return;
  }
  if (starts_with(statement, "creg")) {
    declare_register(statement.substr(4), line, /*quantum=*/false);
    return;
  }
  if (starts_with(statement, "gate ")) {
    define_gate(statement.substr(5), line);
    return;
  }
  if (starts_with(statement, "opaque") || starts_with(statement, "if") ||
      starts_with(statement, "reset")) {
    fail("unsupported construct: '" + std::string(statement) + "'", line);
  }
  if (starts_with(statement, "measure")) {
    handle_measure(statement.substr(7), line);
    return;
  }
  if (starts_with(statement, "barrier")) {
    handle_barrier(statement.substr(7), line);
    return;
  }
  handle_gate(statement, line);
}

void OpenQasmParser::declare_register(std::string_view rest, int line,
                                      bool quantum) {
  const std::string_view spec = trim(rest);
  const std::size_t open = spec.find('[');
  const std::size_t close = spec.find(']');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    fail("malformed register declaration", line);
  }
  const std::string name(trim(spec.substr(0, open)));
  int size = 0;
  try {
    size = static_cast<int>(
        eval_expression(spec.substr(open + 1, close - open - 1)));
  } catch (const ParseError&) {
    fail("malformed register size", line);
  }
  if (size <= 0) fail("register size must be positive", line);
  auto& table = quantum ? qregs_ : cregs_;
  if (table.count(name) != 0) fail("duplicate register '" + name + "'", line);
  int& total = quantum ? num_qubits_ : num_cbits_;
  table[name] = Register{total, size};
  total += size;
}

OpenQasmParser::Operand OpenQasmParser::parse_operand(std::string_view text,
                                                      int line,
                                                      bool quantum) const {
  const std::string_view spec = trim(text);
  const auto& table = quantum ? qregs_ : cregs_;
  const std::size_t open = spec.find('[');
  std::string name;
  int element = -1;
  if (open == std::string_view::npos) {
    name = std::string(spec);
  } else {
    const std::size_t close = spec.find(']');
    if (close == std::string_view::npos || close < open) {
      fail("malformed operand '" + std::string(spec) + "'", line);
    }
    name = std::string(trim(spec.substr(0, open)));
    try {
      element = static_cast<int>(
          eval_expression(spec.substr(open + 1, close - open - 1)));
    } catch (const ParseError&) {
      fail("malformed operand index", line);
    }
  }
  const auto it = table.find(name);
  if (it == table.end()) {
    fail("unknown register '" + name + "'", line);
  }
  if (element >= it->second.size) {
    fail("index " + std::to_string(element) + " out of range for register '" +
             name + "'",
         line);
  }
  return Operand{it->second, element};
}

void OpenQasmParser::ensure_circuit() {
  if (!circuit_initialized_) {
    circuit_ = Circuit(num_qubits_, "openqasm");
    circuit_initialized_ = true;
  }
  circuit_.declare_cbits(num_cbits_);
}

std::vector<Gate> OpenQasmParser::drain_gates() {
  if (!circuit_initialized_) return {};
  return circuit_.take_gates();
}

void OpenQasmParser::handle_measure(std::string_view rest, int line) {
  ensure_circuit();
  const std::size_t arrow = rest.find("->");
  if (arrow == std::string_view::npos) {
    fail("measure requires '->'", line);
  }
  const Operand qubit = parse_operand(rest.substr(0, arrow), line, true);
  const Operand cbit = parse_operand(rest.substr(arrow + 2), line, false);
  if ((qubit.element < 0) != (cbit.element < 0)) {
    fail("measure operands must both be registers or both elements", line);
  }
  if (qubit.element < 0) {
    if (qubit.reg.size != cbit.reg.size) {
      fail("measure register size mismatch", line);
    }
    for (int i = 0; i < qubit.reg.size; ++i) {
      circuit_.measure(qubit.reg.offset + i, cbit.reg.offset + i);
    }
  } else {
    circuit_.measure(qubit.reg.offset + qubit.element,
                     cbit.reg.offset + cbit.element);
  }
}

void OpenQasmParser::handle_barrier(std::string_view rest, int line) {
  ensure_circuit();
  std::vector<int> qubits;
  for (const std::string& token : split(rest, ',')) {
    if (trim(token).empty()) continue;
    const Operand operand = parse_operand(token, line, true);
    if (operand.element < 0) {
      for (int i = 0; i < operand.reg.size; ++i) {
        qubits.push_back(operand.reg.offset + i);
      }
    } else {
      qubits.push_back(operand.reg.offset + operand.element);
    }
  }
  if (qubits.empty()) fail("barrier requires operands", line);
  circuit_.barrier(std::move(qubits));
}

void OpenQasmParser::define_gate(std::string_view rest, int line) {
  const std::size_t open_brace = rest.find('{');
  const std::size_t close_brace = rest.rfind('}');
  if (open_brace == std::string_view::npos ||
      close_brace == std::string_view::npos || close_brace < open_brace) {
    fail("malformed gate definition", line);
  }
  std::string_view header = trim(rest.substr(0, open_brace));
  const std::string_view body_text =
      rest.substr(open_brace + 1, close_brace - open_brace - 1);

  GateDefinition definition;
  // Name.
  std::size_t name_end = 0;
  while (name_end < header.size() &&
         (std::isalnum(static_cast<unsigned char>(header[name_end])) ||
          header[name_end] == '_')) {
    ++name_end;
  }
  const std::string name = to_lower(header.substr(0, name_end));
  if (name.empty()) fail("gate definition without a name", line);
  header = trim(header.substr(name_end));
  // Optional parameter list.
  if (!header.empty() && header.front() == '(') {
    const std::size_t close = header.find(')');
    if (close == std::string_view::npos) fail("missing ')'", line);
    for (const std::string& p : split(header.substr(1, close - 1), ',')) {
      if (!trim(p).empty()) definition.params.emplace_back(trim(p));
    }
    header = trim(header.substr(close + 1));
  }
  // Formal qubit arguments.
  for (const std::string& a : split(header, ',')) {
    if (!trim(a).empty()) definition.args.emplace_back(trim(a));
  }
  if (definition.args.empty()) {
    fail("gate definition needs at least one qubit argument", line);
  }
  // Body statements.
  for (const std::string& s : split(body_text, ';')) {
    if (!trim(s).empty()) definition.body.emplace_back(trim(s));
  }
  if (gate_definitions_.count(name) != 0) {
    fail("duplicate gate definition '" + name + "'", line);
  }
  gate_definitions_[name] = std::move(definition);
}

namespace {

/// Identifier-boundary-aware substitution of formal names.
std::string substitute(std::string_view text,
                       const std::map<std::string, std::string>& replacements) {
  std::string out;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t end = i;
      while (end < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[end])) ||
              text[end] == '_')) {
        ++end;
      }
      const std::string word(text.substr(i, end - i));
      const auto it = replacements.find(word);
      out += it != replacements.end() ? it->second : word;
      i = end;
    } else {
      out += c;
      ++i;
    }
  }
  return out;
}

}  // namespace

void OpenQasmParser::expand_definition(
    const std::string& name, const GateDefinition& definition,
    const std::vector<double>& params,
    const std::vector<std::string>& operand_texts, int line) {
  if (params.size() != definition.params.size()) {
    fail("gate '" + name + "' expects " +
             std::to_string(definition.params.size()) + " parameters",
         line);
  }
  if (operand_texts.size() != definition.args.size()) {
    fail("gate '" + name + "' expects " +
             std::to_string(definition.args.size()) + " operands",
         line);
  }
  if (++expansion_depth_ > 64) {
    fail("gate definitions nested too deeply (recursive definition?)", line);
  }
  std::map<std::string, std::string> replacements;
  for (std::size_t i = 0; i < params.size(); ++i) {
    replacements[definition.params[i]] = format_double(params[i]);
  }
  for (std::size_t i = 0; i < operand_texts.size(); ++i) {
    replacements[definition.args[i]] = operand_texts[i];
  }
  const int column = column_;
  for (const std::string& body_statement : definition.body) {
    handle_statement(substitute(body_statement, replacements), line, column);
  }
  --expansion_depth_;
}

void OpenQasmParser::handle_gate(std::string_view statement, int line) {
  ensure_circuit();
  // Split mnemonic(+params) from operands.
  std::size_t name_end = 0;
  while (name_end < statement.size() &&
         (std::isalnum(static_cast<unsigned char>(statement[name_end])) ||
          statement[name_end] == '_')) {
    ++name_end;
  }
  std::string name = to_lower(statement.substr(0, name_end));
  if (name.empty()) fail("malformed statement", line);
  std::string_view rest = statement.substr(name_end);

  std::vector<double> params;
  const std::string_view rest_trimmed = trim(rest);
  if (!rest_trimmed.empty() && rest_trimmed.front() == '(') {
    int depth = 0;
    std::size_t close = std::string_view::npos;
    for (std::size_t i = 0; i < rest_trimmed.size(); ++i) {
      if (rest_trimmed[i] == '(') ++depth;
      if (rest_trimmed[i] == ')' && --depth == 0) {
        close = i;
        break;
      }
    }
    if (close == std::string_view::npos) fail("missing ')'", line);
    const std::string_view param_text = rest_trimmed.substr(1, close - 1);
    // Split params on top-level commas.
    int nesting = 0;
    std::string current;
    const auto flush = [&] {
      if (!trim(current).empty()) {
        try {
          params.push_back(eval_expression(current));
        } catch (const ParseError& e) {
          fail(e.what(), line);
        }
      }
      current.clear();
    };
    for (const char c : param_text) {
      if (c == '(') ++nesting;
      if (c == ')') --nesting;
      if (c == ',' && nesting == 0) {
        flush();
      } else {
        current += c;
      }
    }
    flush();
    rest = rest_trimmed.substr(close + 1);
  }

  // User-defined gates expand by substitution before builtin lookup.
  const auto definition = gate_definitions_.find(name);
  if (definition != gate_definitions_.end()) {
    std::vector<std::string> operand_texts;
    for (const std::string& token : split(rest, ',')) {
      if (!trim(token).empty()) operand_texts.emplace_back(trim(token));
    }
    expand_definition(name, definition->second, params, operand_texts, line);
    return;
  }

  std::vector<Operand> operands;
  for (const std::string& token : split(rest, ',')) {
    if (trim(token).empty()) continue;
    operands.push_back(parse_operand(token, line, true));
  }
  if (operands.empty()) fail("gate without operands", line);

  // u2(phi, lambda) = U(pi/2, phi, lambda) is the only alias that also
  // rewrites parameters.
  GateKind kind{};
  if (name == "u2") {
    if (params.size() != 2) fail("u2 expects 2 parameters", line);
    kind = GateKind::U;
    params = {3.14159265358979323846 / 2.0, params[0], params[1]};
  } else {
    try {
      kind = gate_kind_from_name(name);
    } catch (const ParseError&) {
      fail("unknown gate '" + name + "'", line);
    }
  }

  // Broadcast semantics: whole-register operands expand element-wise; all
  // broadcast registers must have the same length.
  int broadcast = 1;
  for (const Operand& operand : operands) {
    if (operand.element < 0) {
      if (broadcast != 1 && broadcast != operand.reg.size) {
        fail("broadcast register size mismatch", line);
      }
      broadcast = operand.reg.size;
    }
  }
  for (int rep = 0; rep < broadcast; ++rep) {
    std::vector<int> qubits;
    qubits.reserve(operands.size());
    for (const Operand& operand : operands) {
      qubits.push_back(operand.element < 0
                           ? operand.reg.offset + rep
                           : operand.reg.offset + operand.element);
    }
    try {
      circuit_.add(make_gate(kind, std::move(qubits), params));
    } catch (const Error& e) {
      fail(e.what(), line);
    }
  }
}

void OpenQasmParser::finalize() {
  ensure_circuit();  // also declares trailing creg bits
  if (!saw_header_) {
    throw ParseError("OpenQASM: missing 'OPENQASM 2.0;' header", 1, 1);
  }
}

void append_openqasm_gate(std::string& out, const Gate& gate) {
  if (gate.kind == GateKind::Measure) {
    out += "measure q[";
    append_int(out, gate.qubits[0]);
    out += "] -> c[";
    append_int(out, gate.cbit);
    out += "];\n";
    return;
  }
  // u3/u1 rather than u/p: the widest-compatible qelib1 names.
  out += gate.kind == GateKind::U       ? std::string_view("u3")
         : gate.kind == GateKind::Phase ? std::string_view("u1")
                                        : gate_info(gate.kind).name;
  if (!gate.params.empty()) {
    out += '(';
    for (std::size_t i = 0; i < gate.params.size(); ++i) {
      if (i != 0) out += ',';
      append_double(out, gate.params[i]);
    }
    out += ')';
  }
  out += ' ';
  for (std::size_t i = 0; i < gate.qubits.size(); ++i) {
    out += i == 0 ? "q[" : ",q[";
    append_int(out, gate.qubits[i]);
    out += ']';
  }
  out += ";\n";
}

}  // namespace qasm_detail

namespace {

/// A zero-copy streambuf over a string_view, so the string_view overload
/// of parse_openqasm shares the incremental istream code path without
/// duplicating the source text.
class ViewBuf final : public std::streambuf {
 public:
  explicit ViewBuf(std::string_view view) {
    char* data = const_cast<char*>(view.data());
    setg(data, data, data + view.size());
  }
};

}  // namespace

Circuit parse_openqasm(std::istream& in) {
  qasm_detail::StatementLexer lexer(in);
  qasm_detail::OpenQasmParser parser;
  std::string statement;
  int line = 1;
  int column = 1;
  while (lexer.next(statement, line, column)) {
    parser.handle_statement(statement, line, column);
  }
  parser.finalize();
  return std::move(parser).take();
}

Circuit parse_openqasm(std::string_view source) {
  ViewBuf buffer(source);
  std::istream in(&buffer);
  return parse_openqasm(in);
}

Circuit load_openqasm(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open file: " + path);
  Circuit circuit = parse_openqasm(in);
  circuit.set_name(path);
  return circuit;
}

std::string to_openqasm(const Circuit& circuit) {
  std::string out = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  out += "qreg q[" + std::to_string(circuit.num_qubits()) + "];\n";
  if (circuit.num_cbits() > 0) {
    out += "creg c[" + std::to_string(circuit.num_cbits()) + "];\n";
  }
  // ~31 bytes per gate on routed output; one reserve instead of log2(n)
  // reallocations of a multi-megabyte string.
  out.reserve(out.size() + 32 * circuit.size());
  for (const Gate& gate : circuit) {
    qasm_detail::append_openqasm_gate(out, gate);
  }
  return out;
}

void save_openqasm(const Circuit& circuit, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw ParseError("cannot write file: " + path);
  out << to_openqasm(circuit);
}

}  // namespace qmap
