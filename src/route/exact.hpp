// Exact router — minimal SWAP/direction-fix mapping in the spirit of
// Wille, Burgholzer, Zulehner [57] (used for Fig. 3(d)).
//
// Runs A* over the state space
//     (next two-qubit gate to execute, placement of program qubits)
// with SWAP transitions weighted 1000 and gate executions weighted 1 when
// the CX orientation must be inverted (0 otherwise). This minimizes the
// number of SWAPs and, among SWAP-minimal solutions, the number of
// inverted CNOTs — the "minimal number of SWAP and H operations"
// objective of [57].
//
// Heuristic, after Zulehner, Paler and Wille (arXiv 1712.04722):
//     h = 1000 * max(0, max over remaining two-qubit gates k of
//                       dist(pi(a_k), pi(b_k)) - 1)
// where dist is the device's hop distance (ArchArtifacts) and pi the
// state's placement.
//   - Admissible: every remaining gate must find its operands adjacent
//     before it runs, and one SWAP moves each of two qubits by one hop, so
//     it changes any one distance by at most 1. Gate k alone therefore
//     needs at least dist - 1 more SWAPs.
//   - Consistent: a SWAP changes every term, hence the max, by at most 1,
//     so h changes by at most 1000, the SWAP's own cost. Executing gate k
//     (cost 0 or 1) drops its term, which is 0 because its operands are
//     adjacent, and leaves the others: h cannot rise.
//   - So A* expands every state at most once, with its final cost, and
//     the first goal state it pops is optimal.
//
// State storage:
//   - Key: the gate index in the low bits of word 0, then ceil(log2(m))
//     bits of physical index per program qubit (m physical qubits),
//     packed into 64-bit words without a field straddling two words. A
//     6-qubit, 40-gate circuit on Surface-17 takes 6 + 6 * 5 = 36 bits;
//     wider placements take more words, so any circuit fits.
//   - Records: one append-only table, record i = (key, g-cost, parent
//     id), 16 bytes when the key is one word. The action needs no field:
//     a step that advances the gate index executes that gate, any other
//     step is the SWAP between the two physical qubits some program qubit
//     moved between.
//   - Index: a flat linear-probing table of 32-bit record ids at load
//     factor at most 1/2.
//   - Open list: 12-byte (f, g, id) entries, popped by smallest f, then
//     largest g, then smallest id, so ties break deterministically.
//   - SWAPs on edges where neither endpoint holds a program qubit are
//     skipped: they lead back to the state being expanded.
//
// The state space is (#physical)! / (#free)! placements per gate, so this
// is still limited to small devices (Sec. IV: exact approaches "are not
// scalable"); the scalability wall is itself one of the paper's talking
// points and is measured in bench_exact_scalability.
//
// Optimality caveat (shared with [57]): the result is minimal with respect
// to the circuit's *given total gate order*. DAG-based heuristic routers
// may reorder independent gates and can therefore occasionally use fewer
// SWAPs on circuits with much commuting freedom; on a fixed gate sequence
// this router lower-bounds every SWAP-inserting strategy.
//
// Observability: each successful route() flushes router.exact.routes,
// router.exact.expanded (states popped and expanded), router.exact.stored
// (records created) and the route.swaps_inserted histogram.
#pragma once

#include "route/router.hpp"

namespace qmap {

class ExactRouter final : public Router {
 public:
  struct Options {
    /// Budget of stored search states; throws MappingError when exceeded.
    std::size_t max_states = 4'000'000;
  };

  ExactRouter() = default;
  explicit ExactRouter(const Options& options) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "exact"; }
  [[nodiscard]] RoutingResult route(const Circuit& circuit,
                                    const Device& device,
                                    const Placement& initial) override;

 private:
  Options options_;
};

}  // namespace qmap
