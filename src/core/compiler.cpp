#include "core/compiler.hpp"

#include "common/rng.hpp"
#include "pass/manager.hpp"
#include "sim/equivalence.hpp"
#include "sim/stabilizer.hpp"

namespace qmap {

Compiler::Compiler(Device device, CompilerOptions options)
    : device_(std::move(device)), options_(std::move(options)) {}

PipelineSpec Compiler::pipeline() const {
  return PipelineSpec::standard(options_.placer, options_.router,
                                options_.run_scheduler,
                                options_.use_control_constraints);
}

CompilationResult Compiler::compile(const Circuit& circuit) const {
  return compile(circuit, pipeline());
}

CompilationResult Compiler::compile(const Circuit& circuit,
                                    const PipelineSpec& spec) const {
  const PassManager manager(spec);
  PipelineRuntime runtime;
  runtime.seed = options_.seed;
  runtime.cancel = options_.cancel;
  runtime.obs = options_.obs;
  return manager.run(circuit, device_, runtime);
}

bool Compiler::verify(const CompilationResult& result, int trials,
                      std::uint64_t seed) {
  // Clifford circuits get the exact tableau check, which scales to any
  // width; everything else uses randomized state-vector equivalence.
  if (is_clifford_circuit(result.original) &&
      is_clifford_circuit(result.final_circuit)) {
    return clifford_mapping_equivalent(
        result.original, result.final_circuit,
        result.routing.initial.wire_to_phys(),
        result.routing.final.wire_to_phys());
  }
  Rng rng(seed);
  return mapping_equivalent(result.original, result.final_circuit,
                            result.routing.initial.wire_to_phys(),
                            result.routing.final.wire_to_phys(), rng, trials);
}

}  // namespace qmap
