#include "schedule/schedulers.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "route/route_ir.hpp"

namespace qmap {

Schedule schedule_asap(const Circuit& circuit, const Device& device) {
  Schedule schedule(circuit.num_qubits());
  std::vector<int> available(static_cast<std::size_t>(circuit.num_qubits()),
                             0);
  for (const Gate& gate : circuit) {
    const int duration = device.cycles_for(gate);
    int start = 0;
    for (const int q : gate.qubits) {
      start = std::max(start, available[static_cast<std::size_t>(q)]);
    }
    for (const int q : gate.qubits) {
      available[static_cast<std::size_t>(q)] = start + duration;
    }
    schedule.add(ScheduledGate{gate, start, duration});
  }
  return schedule;
}

Schedule schedule_alap(const Circuit& circuit, const Device& device) {
  // ALAP = mirrored ASAP of the reversed gate list.
  std::vector<int> deadline(static_cast<std::size_t>(circuit.num_qubits()),
                            0);
  std::vector<ScheduledGate> reversed;
  reversed.reserve(circuit.size());
  for (auto it = circuit.gates().rbegin(); it != circuit.gates().rend();
       ++it) {
    const Gate& gate = *it;
    const int duration = device.cycles_for(gate);
    int start = 0;
    for (const int q : gate.qubits) {
      start = std::max(start, deadline[static_cast<std::size_t>(q)]);
    }
    for (const int q : gate.qubits) {
      deadline[static_cast<std::size_t>(q)] = start + duration;
    }
    reversed.push_back(ScheduledGate{gate, start, duration});
  }
  int total = 0;
  for (const ScheduledGate& op : reversed) {
    total = std::max(total, op.end_cycle());
  }
  Schedule schedule(circuit.num_qubits());
  for (auto it = reversed.rbegin(); it != reversed.rend(); ++it) {
    ScheduledGate op = *it;
    op.start_cycle = total - op.end_cycle();
    schedule.add(std::move(op));
  }
  return schedule;
}

Schedule schedule_constrained(
    const Circuit& circuit, const Device& device,
    const std::vector<std::unique_ptr<ResourceConstraint>>& constraints,
    obs::Observer* obs) {
  RouteArena& arena = RouteArena::scratch();
  const ArenaScope scope(arena);
  const RouteIR ir = RouteIR::build(circuit, DagMode::Sequential, arena);
  FrontLayer front(ir, arena);
  const std::size_t num_nodes = ir.num_gates;
  Schedule schedule(circuit.num_qubits());

  // Priority: downstream critical path (including own duration).
  std::vector<double> priority(num_nodes, 0.0);
  for (std::size_t i = num_nodes; i-- > 0;) {
    double downstream = 0.0;
    for (std::uint32_t e = ir.succ_offsets[i]; e < ir.succ_offsets[i + 1];
         ++e) {
      downstream = std::max(downstream, priority[ir.succ[e]]);
    }
    priority[i] = downstream + device.cycles_for(circuit.gate(i));
  }

  // Operand availability. Every predecessor of a gate is an admitted gate
  // on one of its qubits, so an idle operand set also means every
  // dependency has finished.
  std::vector<int> qubit_busy(static_cast<std::size_t>(circuit.num_qubits()),
                              0);
  // Running window: admitted gates that may still overlap a candidate.
  // Every candidate starts at `cycle`, which only moves forward, and every
  // constraint ignores non-overlapping gates, so a gate that ended at or
  // before `cycle` can never matter again and is dropped on each advance.
  std::vector<ScheduledGate> running;
  std::size_t window_peak = 0;

  int cycle = 0;
  std::size_t scheduled = 0;
  std::uint64_t cycle_advances = 0;
  std::uint64_t constraint_deferrals = 0;
  while (scheduled < num_nodes) {
    // Ready nodes, highest priority first (stable on node index).
    std::vector<int> ready(front.ready(), front.ready() + front.ready_size());
    std::stable_sort(ready.begin(), ready.end(), [&](int a, int b) {
      return priority[static_cast<std::size_t>(a)] >
             priority[static_cast<std::size_t>(b)];
    });
    bool progressed = false;
    for (const int node : ready) {
      const Gate& gate = circuit.gate(static_cast<std::size_t>(node));
      const int duration = device.cycles_for(gate);
      // Operands must be idle.
      bool startable = true;
      for (const int q : gate.qubits) {
        if (qubit_busy[static_cast<std::size_t>(q)] > cycle) {
          startable = false;
          break;
        }
      }
      if (!startable) continue;
      const ScheduledGate candidate{gate, cycle, duration};
      bool allowed = true;
      for (const auto& constraint : constraints) {
        if (!constraint->compatible(candidate, running, device)) {
          allowed = false;
          break;
        }
      }
      if (!allowed) {
        ++constraint_deferrals;
        continue;
      }
      // Admit.
      running.push_back(candidate);
      window_peak = std::max(window_peak, running.size());
      schedule.add(candidate);
      for (const int q : gate.qubits) {
        qubit_busy[static_cast<std::size_t>(q)] =
            std::max(qubit_busy[static_cast<std::size_t>(q)],
                     cycle + duration);
      }
      front.mark_scheduled(static_cast<std::uint32_t>(node));
      ++scheduled;
      progressed = true;
    }
    if (scheduled == num_nodes) break;
    // Advance: next cycle at which anything can change.
    int next = cycle + 1;
    if (!progressed) {
      int earliest_event = std::numeric_limits<int>::max();
      for (const int busy : qubit_busy) {
        if (busy > cycle) earliest_event = std::min(earliest_event, busy);
      }
      if (earliest_event != std::numeric_limits<int>::max()) {
        next = std::max(next, earliest_event);
      }
    }
    cycle = next;
    ++cycle_advances;
    std::erase_if(running, [cycle](const ScheduledGate& op) {
      return op.end_cycle() <= cycle;
    });
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
