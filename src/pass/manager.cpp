#include "pass/manager.hpp"

#include <chrono>

namespace qmap {

PassManager::PassManager(const PipelineSpec& spec)
    : spec_(spec),
      passes_(spec.build()),
      placer_label_(spec.placer_name()),
      router_label_(spec.router_name()) {}

void PassManager::run(CompileContext& ctx) const {
  obs::Observer* obs = ctx.obs();
  obs::Span compile_span(obs, "compile", "core");
  if (compile_span.active()) {
    compile_span.arg("circuit", ctx.input().name());
    if (!placer_label_.empty()) compile_span.arg("placer", placer_label_);
    if (!router_label_.empty()) compile_span.arg("router", router_label_);
  }
  obs::add(obs, "compile.runs");
  // Per-stage spans auto-parent under compile_span (same thread).
  obs::Span stage_span;
  for (const std::unique_ptr<Pass>& pass : passes_) {
    run_stage(ctx, stage_span, pass->name(), pass->is_stage_boundary(),
              [&] { pass->run(ctx); });
  }
  stage_span.end();
  obs::observe(obs, "compile.final_two_qubit_gates",
               static_cast<double>(ctx.result.final_metrics.two_qubit_gates));
}

void PassManager::run_stage(CompileContext& ctx, obs::Span& stage_span,
                            const std::string& name, bool stage_boundary,
                            const std::function<void()>& work) {
  if (stage_boundary) {
    ctx.checkpoint();
    if (ctx.runtime().stage_hook) ctx.runtime().stage_hook(name.c_str());
    // End the previous stage before opening the next — otherwise the new
    // span would nest under the still-open old one instead of under the
    // compile span.
    stage_span.end();
    stage_span = obs::Span(ctx.obs(), name, "stage");
  }
  const auto start = std::chrono::steady_clock::now();
  work();
  const auto elapsed = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - start);
  ctx.timings.push_back({name, elapsed.count()});
}

CompilationResult PassManager::run(const Circuit& circuit,
                                   const Device& device,
                                   const PipelineRuntime& runtime) const {
  CompileContext ctx(circuit, device, runtime);
  run(ctx);
  return std::move(ctx.result);
}

}  // namespace qmap
