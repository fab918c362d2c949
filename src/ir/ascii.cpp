#include "ir/ascii.hpp"

#include <algorithm>
#include <vector>

#include "common/strings.hpp"

namespace qmap {
namespace {

/// Column content for one gate occurrence.
struct Cell {
  int column = 0;
  int qubit = 0;
  std::string label;  // what to draw on this wire
  int span_min = 0;   // vertical extent of the gate (for connector bars)
  int span_max = 0;
};

std::string gate_label(const Gate& gate, int operand_index) {
  switch (gate.kind) {
    case GateKind::CX:
      return operand_index == 0 ? "*" : "+";
    case GateKind::CZ:
      return "*";
    case GateKind::SWAP:
    case GateKind::ISWAP:
      return "x";
    case GateKind::CPhase:
    case GateKind::CRz:
      return operand_index == 0
                 ? "*"
                 : "[" + std::string(gate_info(gate.kind).name) + "(" +
                       format_double(gate.params[0]) + ")]";
    case GateKind::CCX:
      return operand_index < 2 ? "*" : "+";
    case GateKind::CSWAP:
      return operand_index == 0 ? "*" : "x";
    case GateKind::Measure:
      return "[M]";
    case GateKind::Barrier:
      return "|";
    default: {
      std::string name(gate_info(gate.kind).name);
      // Upper-case the mnemonic for figure-style boxes ("[H]", "[T]").
      for (char& c : name) c = static_cast<char>(std::toupper(c));
      if (!gate.params.empty()) {
        std::string args;
        for (std::size_t i = 0; i < gate.params.size(); ++i) {
          if (i != 0) args += ",";
          append_double(args, gate.params[i]);
        }
        return "[" + name + "(" + args + ")]";
      }
      return "[" + name + "]";
    }
  }
}

}  // namespace

std::string draw_ascii(const Circuit& circuit, const AsciiOptions& options) {
  const int n = circuit.num_qubits();
  if (n == 0) return "(empty register)\n";

  // ASAP column assignment. A multi-qubit gate occupies its own column for
  // every wire it spans (including pass-through wires) so connectors are
  // unobstructed.
  std::vector<int> next_free(static_cast<std::size_t>(n), 0);
  std::vector<Cell> cells;
  int num_columns = 0;
  for (const Gate& gate : circuit) {
    if (gate.qubits.empty()) continue;
    const auto [lo_it, hi_it] =
        std::minmax_element(gate.qubits.begin(), gate.qubits.end());
    const int lo = *lo_it;
    const int hi = *hi_it;
    int column = 0;
    for (int q = lo; q <= hi; ++q) {
      column = std::max(column, next_free[static_cast<std::size_t>(q)]);
    }
    for (std::size_t k = 0; k < gate.qubits.size(); ++k) {
      Cell cell;
      cell.column = column;
      cell.qubit = gate.qubits[k];
      cell.label = gate_label(gate, static_cast<int>(k));
      cell.span_min = lo;
      cell.span_max = hi;
      cells.push_back(std::move(cell));
    }
    for (int q = lo; q <= hi; ++q) {
      next_free[static_cast<std::size_t>(q)] = column + 1;
    }
    num_columns = std::max(num_columns, column + 1);
  }

  // Column widths.
  std::vector<std::size_t> width(static_cast<std::size_t>(num_columns), 1);
  for (const Cell& cell : cells) {
    width[static_cast<std::size_t>(cell.column)] =
        std::max(width[static_cast<std::size_t>(cell.column)],
                 cell.label.size());
  }

  // Grid of labels: wire rows (2*q) and connector rows (2*q+1).
  const int rows = 2 * n - 1;
  std::vector<std::vector<std::string>> grid(
      static_cast<std::size_t>(rows),
      std::vector<std::string>(static_cast<std::size_t>(num_columns)));
  for (const Cell& cell : cells) {
    grid[static_cast<std::size_t>(2 * cell.qubit)]
        [static_cast<std::size_t>(cell.column)] = cell.label;
    // Vertical connector through spanned rows.
    for (int q = cell.span_min; q < cell.span_max; ++q) {
      auto& bar = grid[static_cast<std::size_t>(2 * q + 1)]
                      [static_cast<std::size_t>(cell.column)];
      if (bar.empty()) bar = "|";
      // Pass-through wires also get a connector mark.
      if (q > cell.span_min) {
        auto& wire = grid[static_cast<std::size_t>(2 * q)]
                         [static_cast<std::size_t>(cell.column)];
        if (wire.empty()) wire = "|";
      }
    }
  }

  // Render.
  std::size_t label_width = 0;
  if (options.show_qubit_labels) {
    label_width = std::to_string(n - 1).size() + 3;  // "qN: "
  }
  std::string out;
  for (int row = 0; row < rows; ++row) {
    const bool is_wire = (row % 2) == 0;
    std::string line;
    if (options.show_qubit_labels) {
      if (is_wire) {
        std::string label;
        label += options.qubit_prefix;
        label += std::to_string(row / 2);
        label += ": ";
        line += label;
        line.append(label_width > label.size() ? label_width - label.size()
                                               : 0,
                    ' ');
      } else {
        line.append(label_width, ' ');
      }
    }
    const char filler = is_wire ? '-' : ' ';
    for (int col = 0; col < num_columns; ++col) {
      const std::string& content =
          grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)];
      const std::size_t w = width[static_cast<std::size_t>(col)];
      line += filler;  // inter-column spacing
      const std::size_t pad = w - std::min(w, content.size());
      const std::size_t left = pad / 2;
      line.append(left, filler);
      line += content.empty() ? std::string(1, filler) : content;
      if (!content.empty()) {
        line.append(pad - left, filler);
      } else {
        line.append(w - 1 - left, filler);
      }
      line += filler;
    }
    // Trim trailing spaces on connector rows.
    while (!line.empty() && line.back() == ' ') line.pop_back();
    out += line + "\n";
  }
  return out;
}

}  // namespace qmap
