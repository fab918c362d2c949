// The five standard passes — Fig. 2's pipeline, one class per stage.
//
// Each pass replicates exactly what the pre-refactor Compiler::compile did
// for its stage (pinned by the parity suite in tests/test_pass.cpp), with
// prerequisites checked explicitly so a mis-ordered pipeline fails with a
// message naming the missing stage instead of crashing downstream.
#pragma once

#include <string>
#include <vector>

#include "arch/device.hpp"
#include "decompose/decomposer.hpp"
#include "pass/pass.hpp"
#include "schedule/schedulers.hpp"

namespace qmap {

/// The decompose stage's work as a chunk-fed object: the keep-SWAPs
/// lowering that feeds routing and the keep_swaps=false lowering whose
/// ASAP latency is the paper's "before mapping" baseline (Sec. V).
/// DecomposePass feeds it the whole input as one chunk; run_stream feeds
/// it the source chunk by chunk. Either way the output and the baseline
/// are the same bytes.
class DecomposeStage {
 public:
  DecomposeStage(const Device& device, int num_qubits);

  /// Appends the lowering of `gates` to `out` and advances the baseline
  /// sweep. Trailing single-qubit runs stay buffered until a later chunk
  /// or finish() closes them.
  void feed(const std::vector<Gate>& gates, Circuit& out);
  /// End of input: flushes the open single-qubit runs into `out`.
  void finish(Circuit& out);

  /// Valid after finish().
  [[nodiscard]] int baseline_cycles() const noexcept {
    return sweep_.total_cycles();
  }

 private:
  void sweep_baseline();

  const Device* device_;
  StreamingLowerer lowerer_;  // SWAPs kept as routing placeholders
  StreamingLowerer baseline_lowerer_;
  Circuit baseline_;  // per-chunk baseline lowering, recycled
  AsapSweep sweep_;
};

/// Gate decomposition: lowers the input to the device's native set with
/// SWAPs kept as routing placeholders, and records the paper's "before
/// mapping" baseline latency (dependency-only ASAP latency of the fully
/// lowered circuit). Not a stage boundary: the facade never
/// hooked/spanned decomposition, and keeping it silent preserves hook
/// sequences and golden traces.
class DecomposePass final : public Pass {
 public:
  [[nodiscard]] std::string name() const override { return "decompose"; }
  [[nodiscard]] bool is_stage_boundary() const override { return false; }
  void run(CompileContext& ctx) override;
};

/// Initial placement. `algorithm` is any known_placers() name; stochastic
/// placers draw from the context's seed. Cooperatively cancellable inside
/// the placer search loops.
class PlacePass final : public Pass {
 public:
  explicit PlacePass(std::string algorithm);
  [[nodiscard]] std::string name() const override { return "placer"; }
  [[nodiscard]] const std::string& algorithm() const noexcept {
    return algorithm_;
  }
  void run(CompileContext& ctx) override;

 private:
  std::string algorithm_;
};

/// Routing (SWAP insertion). `algorithm` is any known_routers() name.
/// Requires a placement from an earlier placer pass.
class RoutePass final : public Pass {
 public:
  explicit RoutePass(std::string algorithm);
  [[nodiscard]] std::string name() const override { return "router"; }
  [[nodiscard]] const std::string& algorithm() const noexcept {
    return algorithm_;
  }
  void run(CompileContext& ctx) override;

 private:
  std::string algorithm_;
};

/// Final-permutation cleanup by greedy token swapping (Cowtan et al., "On
/// the qubit routing problem"): appends rounds of disjoint SWAPs to the
/// routed circuit until every program wire is back on the physical qubit
/// the initial placement gave it, so the mapped circuit computes the bare
/// unitary with no trailing relabeling. Runs between 'router' and
/// 'postroute' — the cleanup SWAPs are placeholders the postroute pass
/// expands to native gates like any routing SWAP.
class TokenSwapFinisherPass final : public Pass {
 public:
  [[nodiscard]] std::string name() const override {
    return "token_swap_finisher";
  }
  void run(CompileContext& ctx) override;
};

/// Post-routing clean-up: measurement relocation (Sec. VI-A), which makes
/// the one working copy of the routed circuit, then peephole and
/// finalize_routed (SWAP expansion, CX direction repair, peephole, final
/// native lowering) over that gate buffer, and the final metrics.
/// Requires a routing result.
class PostRoutePass final : public Pass {
 public:
  [[nodiscard]] std::string name() const override { return "postroute"; }
  void run(CompileContext& ctx) override;
};

/// Operation scheduling (control constraints included when the device
/// declares them and `use_control_constraints` is set). Requires the
/// postroute pass's final circuit.
class SchedulePass final : public Pass {
 public:
  explicit SchedulePass(bool use_control_constraints)
      : use_control_constraints_(use_control_constraints) {}
  [[nodiscard]] std::string name() const override { return "schedule"; }
  void run(CompileContext& ctx) override;

 private:
  bool use_control_constraints_;
};

}  // namespace qmap
