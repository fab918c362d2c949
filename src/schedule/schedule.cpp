#include "schedule/schedule.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace qmap {

std::vector<LaneOverlap> lane_overlaps(const std::vector<ScheduledGate>& ops,
                                       const std::vector<std::size_t>& lane) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<LaneOverlap> overlaps;
  // latest[m]: the op ending last among lane[0, m), kNone for m == 0.
  std::vector<std::size_t> latest{kNone};
  latest.reserve(lane.size() + 1);
  for (std::size_t k = 0; k < lane.size(); ++k) {
    const ScheduledGate& op = ops[lane[k]];
    const auto first_after = std::partition_point(
        lane.begin(), lane.begin() + static_cast<std::ptrdiff_t>(k),
        [&](std::size_t i) { return ops[i].start_cycle < op.end_cycle(); });
    const std::size_t earlier =
        latest[static_cast<std::size_t>(first_after - lane.begin())];
    if (earlier != kNone && ops[earlier].end_cycle() > op.start_cycle) {
      overlaps.push_back({lane[k], earlier});
    }
    const std::size_t last = latest.back();
    latest.push_back(last == kNone || op.end_cycle() > ops[last].end_cycle()
                         ? lane[k]
                         : last);
  }
  return overlaps;
}

int Schedule::total_cycles() const {
  int latest = 0;
  for (const ScheduledGate& op : operations_) {
    latest = std::max(latest, op.end_cycle());
  }
  return latest;
}

Circuit Schedule::to_circuit(const std::string& name) const {
  std::vector<std::size_t> order(operations_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](std::size_t a,
                                                      std::size_t b) {
    return operations_[a].start_cycle < operations_[b].start_cycle;
  });
  Circuit out(num_qubits_, name);
  for (const std::size_t i : order) out.add(operations_[i].gate);
  return out;
}

bool Schedule::is_consistent_with(const Circuit& source) const {
  if (operations_.size() != source.size()) return false;
  std::vector<std::size_t> order(operations_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](std::size_t a,
                                                      std::size_t b) {
    return operations_[a].start_cycle < operations_[b].start_cycle;
  });
  // Per-qubit lanes of operation indices, in start order.
  std::map<int, std::vector<std::size_t>> lanes;
  for (const std::size_t i : order) {
    for (const int q : operations_[i].gate.qubits) lanes[q].push_back(i);
  }
  // 1. No two overlapping operations share a qubit.
  for (const auto& [q, lane] : lanes) {
    if (!lane_overlaps(operations_, lane).empty()) return false;
  }
  // 2. Same multiset of gates and same per-qubit order as the source.
  std::map<int, std::vector<const Gate*>> source_per_qubit;
  for (const Gate& gate : source) {
    for (const int q : gate.qubits) source_per_qubit[q].push_back(&gate);
  }
  if (lanes.size() != source_per_qubit.size()) return false;
  for (const auto& [q, gates] : source_per_qubit) {
    const auto it = lanes.find(q);
    if (it == lanes.end() || it->second.size() != gates.size()) {
      return false;
    }
    for (std::size_t i = 0; i < gates.size(); ++i) {
      if (!(*gates[i] == operations_[it->second[i]].gate)) return false;
    }
  }
  return true;
}

std::string Schedule::to_table() const {
  const int cycles = total_cycles();
  // label per (cycle, qubit)
  std::vector<std::vector<std::string>> cells(
      static_cast<std::size_t>(cycles),
      std::vector<std::string>(static_cast<std::size_t>(num_qubits_)));
  for (const ScheduledGate& op : operations_) {
    std::string label{gate_info(op.gate.kind).name};
    for (const int q : op.gate.qubits) {
      for (int c = op.start_cycle; c < op.end_cycle(); ++c) {
        cells[static_cast<std::size_t>(c)][static_cast<std::size_t>(q)] =
            c == op.start_cycle ? label : "|";
      }
    }
  }
  std::size_t width = 3;
  for (const auto& row : cells) {
    for (const auto& cell : row) width = std::max(width, cell.size());
  }
  std::string out = "cycle";
  for (int q = 0; q < num_qubits_; ++q) {
    std::string header = " Q" + std::to_string(q);
    header.resize(width + 1, ' ');
    out += header;
  }
  out += "\n";
  for (int c = 0; c < cycles; ++c) {
    std::string row = std::to_string(c);
    row.resize(5, ' ');
    for (int q = 0; q < num_qubits_; ++q) {
      std::string cell =
          " " +
          cells[static_cast<std::size_t>(c)][static_cast<std::size_t>(q)];
      cell.resize(width + 1, ' ');
      row += cell;
    }
    while (!row.empty() && row.back() == ' ') row.pop_back();
    out += row + "\n";
  }
  return out;
}

}  // namespace qmap
