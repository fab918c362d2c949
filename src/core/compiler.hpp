// Compiler facade: the full Fig. 2 pipeline as a thin preset over the
// composable pass layer (src/pass/).
//
//   quantum circuit (program qubits)          device description
//        |                                        |
//        +---> gate decomposition  <--------------+
//        +---> initial placement
//        +---> qubit routing (SWAP insertion, direction fixes)
//        +---> SWAP expansion + re-lowering to native gates
//        +---> operation scheduling (control constraints included)
//        |
//        v
//   scheduled native circuit on physical qubits
//
// CompilerOptions describes the classic pipeline; Compiler::pipeline()
// expands it into a PipelineSpec and compile() hands it to a PassManager.
// Custom pipelines (reordered stages, dropped scheduler, ...) go through
// compile(circuit, spec) with a spec built in code or parsed from JSON.
//
// CompilationResult and the make_placer/make_router factories live in the
// pass layer now (pass/context.hpp, pass/registry.hpp); this header
// re-exports them so existing includes keep working.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/artifacts.hpp"
#include "arch/device.hpp"
#include "common/json.hpp"
#include "ir/circuit.hpp"
#include "ir/metrics.hpp"
#include "layout/placers.hpp"
#include "obs/obs.hpp"
#include "pass/context.hpp"
#include "pass/registry.hpp"
#include "pass/spec.hpp"
#include "route/router.hpp"
#include "schedule/schedule.hpp"

namespace qmap {

class CancelToken;  // engine/cancel.hpp

/// The classic pipeline's settings. Every compile lowers to the device's
/// native gate set and runs the peephole clean-up: a device runs only its
/// native gates, so neither is optional.
struct CompilerOptions {
  std::string placer = "greedy";   // see known_placers()
  std::string router = "sabre";    // see known_routers()
  bool run_scheduler = true;
  bool use_control_constraints = true;  // when the device declares them
  /// Seed for stochastic placers (annealing). The portfolio engine derives
  /// a distinct stream per strategy so parallel runs stay reproducible.
  std::uint64_t seed = 0xC0FFEE;
  /// Cooperative cancellation (engine/cancel.hpp): checked between pipeline
  /// stages and inside the placer/router main loops. Not owned; may be null.
  const CancelToken* cancel = nullptr;
  /// Observability sink (obs/): a compile span with one child span per
  /// pipeline stage, plus router/scheduler counters. Not owned; null (the
  /// default) disables all recording at the cost of one pointer compare.
  obs::Observer* obs = nullptr;
};

class Compiler {
 public:
  Compiler(Device device, CompilerOptions options = {});

  [[nodiscard]] const Device& device() const noexcept { return device_; }
  [[nodiscard]] const CompilerOptions& options() const noexcept {
    return options_;
  }
  /// The device's distance tables (Device::artifacts()).
  [[nodiscard]] const std::shared_ptr<const ArchArtifacts>& artifacts()
      const noexcept {
    return device_.artifacts();
  }

  /// The options expanded into pipeline-as-data (decompose, placer,
  /// router, postroute[, schedule]).
  [[nodiscard]] PipelineSpec pipeline() const;

  /// Compiles with the standard preset — equivalent to
  /// compile(circuit, pipeline()).
  [[nodiscard]] CompilationResult compile(const Circuit& circuit) const;

  /// Compiles with an explicit pipeline (built in code or parsed from
  /// JSON via PipelineSpec::from_json). Seed/cancel/obs still come from
  /// this compiler's options.
  [[nodiscard]] CompilationResult compile(const Circuit& circuit,
                                          const PipelineSpec& spec) const;

  /// Randomized end-to-end correctness check of a compilation result
  /// (state-vector equivalence under the reported placements).
  [[nodiscard]] static bool verify(const CompilationResult& result,
                                   int trials = 3,
                                   std::uint64_t seed = 0xC0FFEE);

 private:
  Device device_;
  CompilerOptions options_;
};

}  // namespace qmap
