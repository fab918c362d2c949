#include "schedule/schedulers.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "route/route_ir.hpp"

namespace qmap {

Schedule schedule_asap(const Circuit& circuit, const Device& device) {
  Schedule schedule(circuit.num_qubits());
  AsapSweep sweep(circuit.num_qubits());
  for (const Gate& gate : circuit) {
    const int duration = device.cycles_for(gate);
    schedule.add(ScheduledGate{gate, sweep.push(gate, duration), duration});
  }
  return schedule;
}

Schedule schedule_alap(const Circuit& circuit, const Device& device) {
  // ALAP = mirrored ASAP of the reversed gate list.
  AsapSweep sweep(circuit.num_qubits());
  std::vector<ScheduledGate> reversed;
  reversed.reserve(circuit.size());
  for (auto it = circuit.gates().rbegin(); it != circuit.gates().rend();
       ++it) {
    const int duration = device.cycles_for(*it);
    reversed.push_back(ScheduledGate{*it, sweep.push(*it, duration), duration});
  }
  const int total = sweep.total_cycles();
  Schedule schedule(circuit.num_qubits());
  for (auto it = reversed.rbegin(); it != reversed.rend(); ++it) {
    ScheduledGate op = std::move(*it);
    op.start_cycle = total - op.end_cycle();
    schedule.add(std::move(op));
  }
  return schedule;
}

std::vector<std::uint64_t> critical_path_ranks(const RouteIR& ir,
                                               const ControlTable& table) {
  const std::uint32_t num_nodes = ir.num_gates;
  // Downstream critical path, own duration included. A path's cycle count
  // stays below 2^31 whenever its schedule's cycles fit an int, so it fits
  // the key's upper half.
  std::vector<std::uint64_t> priority(num_nodes, 0);
  std::uint64_t longest = 0;
  for (std::uint32_t i = num_nodes; i-- > 0;) {
    std::uint64_t downstream = 0;
    for (std::uint32_t e = ir.succ_offsets[i]; e < ir.succ_offsets[i + 1];
         ++e) {
      downstream = std::max(downstream, priority[ir.succ[e]]);
    }
    priority[i] = downstream + static_cast<std::uint64_t>(table[i].duration);
    longest = std::max(longest, priority[i]);
  }
  std::vector<std::uint64_t> rank(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    rank[i] = (longest - priority[i]) << 32 | i;
  }
  return rank;
}

Schedule schedule_constrained(const Circuit& circuit, const Device& device,
                              const ConstraintStack& constraints,
                              obs::Observer* obs) {
  RouteArena& arena = RouteArena::scratch();
  const ArenaScope scope(arena);
  const RouteIR ir = RouteIR::build(circuit, DagMode::Sequential, arena);
  const std::uint32_t num_nodes = ir.num_gates;

  // Facts once per node: duration and control facts, then rank.
  ControlTable table(device);
  table.reserve(num_nodes);
  for (const Gate& gate : circuit) table.add(gate, 0, device.cycles_for(gate));
  const std::vector<std::uint64_t> rank = critical_path_ranks(ir, table);
  const auto by_rank = [&rank](std::uint32_t a, std::uint32_t b) {
    return rank[a] < rank[b];
  };

  // Unscheduled predecessors per node, and the ready nodes in rank order.
  std::vector<std::uint32_t> waiting(ir.pred_count, ir.pred_count + num_nodes);
  std::vector<std::uint32_t> ready;
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    if (waiting[i] == 0) ready.push_back(i);
  }
  std::sort(ready.begin(), ready.end(), by_rank);
  std::vector<std::uint32_t> deferred;  // ready, not admitted this cycle
  std::vector<std::uint32_t> enabled;   // made ready by this cycle's admits
  std::vector<std::uint32_t> admitted;  // admission order: the Schedule's
  admitted.reserve(num_nodes);
  // Latest end cycle of each node's admitted predecessors. Every
  // predecessor is the previous gate on one of the node's qubits, and no
  // other gate on those qubits can be admitted while the node waits, so
  // this is also when its operands fall idle.
  std::vector<int> operands_idle(num_nodes, 0);
  // Running window: admitted nodes that may still overlap a candidate.
  // Every candidate starts at `cycle`, which only moves forward, and every
  // constraint ignores non-overlapping ops, so a node that ended at or
  // before `cycle` can never matter again and is dropped on each advance.
  ControlWindow running(table);
  std::size_t window_size = 0;
  std::size_t window_peak = 0;

  int cycle = 0;
  std::uint64_t cycle_advances = 0;
  std::uint64_t constraint_deferrals = 0;
  while (admitted.size() < num_nodes) {
    // The ready set as of this cycle's start, highest rank first; nodes
    // that admissions enable wait for the next cycle.
    deferred.clear();
    enabled.clear();
    for (const std::uint32_t node : ready) {
      if (operands_idle[node] > cycle) {
        deferred.push_back(node);
        continue;
      }
      table.set_start(node, cycle);
      if (!admits(constraints, node, running)) {
        ++constraint_deferrals;
        deferred.push_back(node);
        continue;
      }
      // Admit.
      running.add(node);
      window_peak = std::max(window_peak, ++window_size);
      admitted.push_back(node);
      for (std::uint32_t e = ir.succ_offsets[node];
           e < ir.succ_offsets[node + 1]; ++e) {
        const std::uint32_t succ = ir.succ[e];
        operands_idle[succ] =
            std::max(operands_idle[succ], table[node].end());
        if (--waiting[succ] == 0) enabled.push_back(succ);
      }
    }
    if (admitted.size() == num_nodes) break;
    // Advance: next cycle at which anything can change. Without an
    // admission that is the first end among the running gates, all of
    // which end after `cycle`.
    int next = cycle + 1;
    if (deferred.size() == ready.size() && window_size > 0) {
      next = running.first_end();
    }
    std::sort(enabled.begin(), enabled.end(), by_rank);
    ready.resize(deferred.size() + enabled.size());
    std::merge(deferred.begin(), deferred.end(), enabled.begin(),
               enabled.end(), ready.begin(), by_rank);
    cycle = next;
    ++cycle_advances;
    running.drop_ended(cycle);
    window_size = running.size();
  }

  Schedule schedule(circuit.num_qubits());
  schedule.reserve(num_nodes);
  for (const std::uint32_t node : admitted) {
    const ControlOp& op = table[node];
    schedule.add(ScheduledGate{*op.gate, op.start, op.duration});
  }
  obs::add(obs, "schedule.constrained_runs");
  obs::add(obs, "schedule.cycle_advances", cycle_advances);
  obs::add(obs, "schedule.constraint_deferrals", constraint_deferrals);
  obs::observe(obs, "schedule.window_peak", static_cast<double>(window_peak));
  obs::observe(obs, "schedule.depth",
               static_cast<double>(schedule.total_cycles()));
  return schedule;
}

Schedule schedule_for_device(const Circuit& circuit, const Device& device,
                             obs::Observer* obs) {
  if (!device.has_control_constraints()) {
    obs::add(obs, "schedule.asap_runs");
    Schedule schedule = schedule_asap(circuit, device);
    obs::observe(obs, "schedule.depth",
                 static_cast<double>(schedule.total_cycles()));
    return schedule;
  }
  return schedule_constrained(circuit, device, constraints_for_device(device),
                              obs);
}

}  // namespace qmap
