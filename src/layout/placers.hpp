// Initial-placement algorithms (Sec. III-A task 2).
//
// Qmap (Sec. V) uses an ILP for this step; we provide an exhaustive placer
// with the same optimality guarantee for the paper-scale instances, plus
// greedy and simulated-annealing placers for larger circuits (see
// DESIGN.md, substitutions).
#pragma once

#include <string>
#include <vector>

#include "arch/device.hpp"
#include "common/rng.hpp"
#include "engine/cancel.hpp"
#include "ir/circuit.hpp"
#include "layout/placement.hpp"
#include "obs/obs.hpp"

namespace qmap {

/// Weighted program-qubit interaction graph: entry (i, j) counts the
/// two-qubit gates between program qubits i and j.
class InteractionGraph {
 public:
  explicit InteractionGraph(const Circuit& circuit);

  [[nodiscard]] int num_qubits() const noexcept { return n_; }
  [[nodiscard]] int weight(int a, int b) const;
  /// Row `a` of the weight matrix, unchecked: row(a)[b] == weight(a, b)
  /// for a, b in [0, num_qubits()). Placer inner loops index this.
  [[nodiscard]] const int* row(int a) const noexcept {
    return weights_.data() +
           static_cast<std::size_t>(a) * static_cast<std::size_t>(n_);
  }
  /// Total two-qubit gates touching qubit q.
  [[nodiscard]] int degree(int q) const;
  /// Pairs with non-zero weight.
  [[nodiscard]] std::vector<std::pair<int, int>> edges() const;

 private:
  int n_ = 0;
  std::vector<int> weights_;  // row-major n x n, symmetric
};

/// Placement objective: sum over interacting pairs of
/// weight(i, j) * (device distance between their physical locations - 1),
/// i.e. 0 when every interacting pair is adjacent. Lower is better.
[[nodiscard]] long placement_cost(const InteractionGraph& interactions,
                                  const Placement& placement,
                                  const Device& device);

/// Interface shared by all initial placers.
class Placer {
 public:
  virtual ~Placer() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Computes an initial placement of `circuit` onto `device`.
  /// Throws MappingError when the circuit does not fit.
  [[nodiscard]] virtual Placement place(const Circuit& circuit,
                                        const Device& device) = 0;

  /// Attaches a cooperative cancellation token (engine/cancel.hpp, header
  /// only — no dependency on the engine library), mirroring
  /// Router::set_cancel_token so deadlines bound placement search loops
  /// too, not just routing. Not owned; null detaches.
  void set_cancel_token(const CancelToken* token) noexcept { cancel_ = token; }

  /// Attaches an observer for per-placement search counters (obs/),
  /// mirroring Router::set_observer. Counters are flushed once, when a
  /// placement is returned; a cancelled or failed search records nothing.
  /// Not owned; null (the default) detaches.
  void set_observer(obs::Observer* observer) noexcept { observer_ = observer; }

 protected:
  /// Cancellation checkpoint for placer search loops. Implementations with
  /// superlinear loops (exhaustive DFS, annealing sweeps) must poll this
  /// often enough that a deadline interrupts them promptly; throws
  /// CancelledError when the token fired.
  void check_cancelled() const {
    if (cancel_ != nullptr) cancel_->check();
  }

  /// Maybe-null observability sink for implementations.
  [[nodiscard]] obs::Observer* observer() const noexcept { return observer_; }

 private:
  const CancelToken* cancel_ = nullptr;
  obs::Observer* observer_ = nullptr;
};

/// Trivial placement: program qubit k -> physical qubit k.
class IdentityPlacer final : public Placer {
 public:
  [[nodiscard]] std::string name() const override { return "identity"; }
  [[nodiscard]] Placement place(const Circuit& circuit,
                                const Device& device) override;
};

/// Greedy: most-interacting program qubit at the device's graph center,
/// then each next program qubit (by interaction degree) at the free
/// physical qubit minimizing weighted distance to its placed partners.
class GreedyPlacer final : public Placer {
 public:
  [[nodiscard]] std::string name() const override { return "greedy"; }
  [[nodiscard]] Placement place(const Circuit& circuit,
                                const Device& device) override;
};

/// Exhaustive search over all placements (optimal for the
/// placement_cost objective). Guarded by a work limit; throws ResourceError
/// (ErrorClass::ResourceExhausted — fall back to a cheaper placer, do not
/// retry) when the instance is too large (use the annealing placer instead).
class ExhaustivePlacer final : public Placer {
 public:
  explicit ExhaustivePlacer(long max_assignments = 5'000'000)
      : max_assignments_(max_assignments) {}
  [[nodiscard]] std::string name() const override { return "exhaustive"; }
  [[nodiscard]] Placement place(const Circuit& circuit,
                                const Device& device) override;

 private:
  long max_assignments_;
};

/// Simulated annealing over placements, seeded by the greedy placer.
///
/// Each iteration proposes exchanging the wires on two random physical
/// qubits and prices it incrementally: only the interaction edges of the
/// (at most two) program qubits that move change length, so the delta is
/// summed over their adjacency lists in a CSR copy of the interaction
/// graph built once per call. The result equals a full placement_cost()
/// recomputation: the finite part and the number of disconnected edges are
/// tracked separately, so a placement with any disconnected pair still
/// costs the maximum, and accept decisions (and so the RNG stream) match.
class AnnealingPlacer final : public Placer {
 public:
  explicit AnnealingPlacer(std::uint64_t seed = 0xC0FFEE, int iterations = 20000)
      : seed_(seed), iterations_(iterations) {}
  [[nodiscard]] std::string name() const override { return "annealing"; }
  [[nodiscard]] Placement place(const Circuit& circuit,
                                const Device& device) override;

 private:
  std::uint64_t seed_;
  int iterations_;
};

}  // namespace qmap
