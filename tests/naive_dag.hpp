// Naive pairwise reference for the gate dependency DAG, written from the
// rule rather than from the production code (RouteIR::build):
//
//   an edge u -> v exists when u < v and the two gates share a qubit q;
//   under Sequential, no gate strictly between them touches q;
//   under Commutation, !gates_commute(u, v).
//
// Tests compare RouteIR's CSR, FrontLayer's ready lists, the scheduler and
// the graph-free depth sweeps against it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "ir/circuit.hpp"
#include "ir/dag.hpp"

namespace qmap {

struct NaiveDag {
  std::vector<std::vector<int>> preds;  // ascending
  std::vector<std::vector<int>> succs;  // ascending
};

inline bool shares_qubit(const Gate& a, const Gate& b) {
  for (const int qa : a.qubits) {
    for (const int qb : b.qubits) {
      if (qa == qb) return true;
    }
  }
  return false;
}

inline NaiveDag naive_dag(const Circuit& circuit, DagMode mode) {
  const std::size_t n = circuit.size();
  NaiveDag dag;
  dag.preds.resize(n);
  dag.succs.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const Gate& gate_v = circuit.gate(v);
    // Walking u downwards, `touched` holds v's qubits used by some gate
    // strictly between u and v.
    std::vector<int> touched;
    for (std::size_t u = v; u-- > 0;) {
      const Gate& gate_u = circuit.gate(u);
      bool edge = false;
      if (mode == DagMode::Commutation) {
        edge = shares_qubit(gate_u, gate_v) && !gates_commute(gate_u, gate_v);
      } else {
        for (const int q : gate_v.qubits) {
          const bool on_u = std::find(gate_u.qubits.begin(),
                                      gate_u.qubits.end(),
                                      q) != gate_u.qubits.end();
          const bool blocked =
              std::find(touched.begin(), touched.end(), q) != touched.end();
          if (on_u && !blocked) edge = true;
        }
        for (const int q : gate_u.qubits) {
          if (std::find(gate_v.qubits.begin(), gate_v.qubits.end(), q) !=
                  gate_v.qubits.end() &&
              std::find(touched.begin(), touched.end(), q) == touched.end()) {
            touched.push_back(q);
          }
        }
      }
      if (edge) dag.preds[v].push_back(static_cast<int>(u));
    }
    std::sort(dag.preds[v].begin(), dag.preds[v].end());
    for (const int u : dag.preds[v]) {
      dag.succs[static_cast<std::size_t>(u)].push_back(static_cast<int>(v));
    }
  }
  return dag;
}

/// Ready set under `scheduled`: unscheduled gates whose predecessors are
/// all scheduled, ascending.
inline std::vector<int> naive_ready(const NaiveDag& dag,
                                    const std::vector<bool>& scheduled) {
  std::vector<int> ready;
  for (std::size_t v = 0; v < dag.preds.size(); ++v) {
    if (scheduled[v]) continue;
    bool all = true;
    for (const int u : dag.preds[v]) {
      all = all && scheduled[static_cast<std::size_t>(u)];
    }
    if (all) ready.push_back(static_cast<int>(v));
  }
  return ready;
}

/// Longest weighted path: a gate finishes weight(gate) after its latest
/// predecessor finishes.
inline double naive_longest_path(
    const Circuit& circuit, const NaiveDag& dag,
    const std::function<double(const Gate&)>& weight) {
  std::vector<double> finish(circuit.size(), 0.0);
  double best = 0.0;
  for (std::size_t v = 0; v < circuit.size(); ++v) {
    double start = 0.0;
    for (const int u : dag.preds[v]) {
      start = std::max(start, finish[static_cast<std::size_t>(u)]);
    }
    finish[v] = start + weight(circuit.gate(v));
    best = std::max(best, finish[v]);
  }
  return best;
}

}  // namespace qmap
