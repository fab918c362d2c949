#include "route/exact.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <queue>

#include "common/error.hpp"

namespace qmap {
namespace {

constexpr std::uint32_t kCostPerSwap = 1000;  // primary objective
constexpr std::uint32_t kCostPerDirectionFix = 1;  // tie-breaker (4 H gates)
constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();

/// Where each field of a state key lives (see the header): the gate index
/// in the low bits of word 0, then one `bits`-wide physical index per
/// program qubit, no field straddling a word boundary.
struct KeyLayout {
  KeyLayout(int num_program, int num_physical, int num_targets)
      : bits(std::max(1, static_cast<int>(std::bit_width(
                             static_cast<unsigned>(num_physical - 1))))),
        word(static_cast<std::size_t>(num_program)),
        shift(static_cast<std::size_t>(num_program)) {
    int offset = std::max(1, static_cast<int>(std::bit_width(
                                 static_cast<unsigned>(num_targets))));
    gate_mask = (std::uint64_t{1} << offset) - 1;
    std::size_t w = 0;
    for (std::size_t q = 0; q < word.size(); ++q) {
      if (offset + bits > 64) {
        ++w;
        offset = 0;
      }
      word[q] = w;
      shift[q] = offset;
      offset += bits;
    }
    words = w + 1;
  }

  void encode(int gate_index, const std::vector<int>& phys,
              std::uint64_t* key) const {
    std::fill(key, key + words, 0);
    key[0] = static_cast<std::uint64_t>(gate_index);
    for (std::size_t q = 0; q < word.size(); ++q) {
      key[word[q]] |= static_cast<std::uint64_t>(phys[q]) << shift[q];
    }
  }

  [[nodiscard]] int gate_index(const std::uint64_t* key) const {
    return static_cast<int>(key[0] & gate_mask);
  }

  void decode(const std::uint64_t* key, std::vector<int>& phys) const {
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    for (std::size_t q = 0; q < word.size(); ++q) {
      phys[q] = static_cast<int>((key[word[q]] >> shift[q]) & mask);
    }
  }

  /// Moves program qubit q from physical a to physical b in place.
  void relocate(std::uint64_t* key, int q, int a, int b) const {
    const auto k = static_cast<std::size_t>(q);
    key[word[k]] ^= static_cast<std::uint64_t>(a ^ b) << shift[k];
  }

  int bits;
  std::uint64_t gate_mask = 0;
  std::vector<std::size_t> word;  // per program qubit
  std::vector<int> shift;         // per program qubit
  std::size_t words = 1;
};

/// Append-only state store: record i is keys[i * words, (i + 1) * words)
/// plus links[i] = (g-cost, parent id), indexed by a linear-probing table
/// of 32-bit slots (id + 1; 0 = empty) kept at load factor <= 1/2.
class StateTable {
 public:
  struct Link {
    std::uint32_t g;
    std::uint32_t parent;
  };

  explicit StateTable(std::size_t words) : words_(words), slots_(1024, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return links_.size(); }
  [[nodiscard]] const std::uint64_t* key(std::uint32_t id) const {
    return keys_.data() + static_cast<std::size_t>(id) * words_;
  }
  [[nodiscard]] Link& link(std::uint32_t id) { return links_[id]; }

  /// The id of `key`, stored now with `link` when absent (second = true).
  std::pair<std::uint32_t, bool> find_or_insert(const std::uint64_t* key,
                                                Link link) {
    if ((links_.size() + 1) * 2 > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      const std::uint32_t slot = slots_[i];
      if (slot == 0) {
        const auto id = static_cast<std::uint32_t>(links_.size());
        keys_.insert(keys_.end(), key, key + words_);
        links_.push_back(link);
        slots_[i] = id + 1;
        return {id, true};
      }
      if (std::equal(key, key + words_, this->key(slot - 1))) {
        return {slot - 1, false};
      }
    }
  }

 private:
  [[nodiscard]] std::size_t hash(const std::uint64_t* key) const {
    std::uint64_t h = 0x9E3779B97F4A7C15ull;
    for (std::size_t w = 0; w < words_; ++w) {
      h = (h ^ key[w]) * 0xBF58476D1CE4E5B9ull;
      h ^= h >> 31;
    }
    h *= 0x94D049BB133111EBull;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }

  void grow() {
    std::vector<std::uint32_t> slots(slots_.size() * 2, 0);
    const std::size_t mask = slots.size() - 1;
    for (std::uint32_t id = 0; id < links_.size(); ++id) {
      std::size_t i = hash(key(id)) & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = id + 1;
    }
    slots_ = std::move(slots);
  }

  std::size_t words_;
  std::vector<std::uint64_t> keys_;
  std::vector<Link> links_;
  std::vector<std::uint32_t> slots_;
};

/// Open-list entry, popped by smallest f, then largest g (deepest), then
/// smallest id: a total order, so the search is deterministic.
struct OpenEntry {
  std::uint32_t f;
  std::uint32_t g;
  std::uint32_t id;
};
struct PopsLater {
  bool operator()(const OpenEntry& x, const OpenEntry& y) const {
    if (x.f != y.f) return x.f > y.f;
    if (x.g != y.g) return x.g < y.g;
    return x.id > y.id;
  }
};

/// A program-qubit pair some two-qubit gate acts on, with the index of the
/// last such gate.
struct GatePair {
  int a;
  int b;
  int last_use;
};

}  // namespace

RoutingResult ExactRouter::route(const Circuit& circuit, const Device& device,
                                 const Placement& initial) {
  const auto start_time = std::chrono::steady_clock::now();
  check_routable(circuit, device);
  const CouplingGraph& coupling = device.coupling();
  const int n = circuit.num_qubits();
  const int m = device.num_qubits();
  const int* dist = device.artifacts()->distance_data();

  // The two-qubit gates in program order drive the search.
  std::vector<int> two_qubit_nodes;
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    if (circuit.gate(i).is_two_qubit()) {
      two_qubit_nodes.push_back(static_cast<int>(i));
    }
  }
  const int num_targets = static_cast<int>(two_qubit_nodes.size());

  // The heuristic's terms: each distinct operand pair once, ordered by
  // last use descending, so the pairs still ahead of gate k are the prefix
  // with last_use >= k.
  std::vector<GatePair> pairs;
  for (int k = 0; k < num_targets; ++k) {
    const Gate& gate = circuit.gate(
        static_cast<std::size_t>(two_qubit_nodes[static_cast<std::size_t>(k)]));
    const int a = std::min(gate.qubits[0], gate.qubits[1]);
    const int b = std::max(gate.qubits[0], gate.qubits[1]);
    const auto it = std::find_if(pairs.begin(), pairs.end(),
                                 [&](const GatePair& p) {
                                   return p.a == a && p.b == b;
                                 });
    if (it == pairs.end()) {
      pairs.push_back({a, b, k});
    } else {
      it->last_use = k;
    }
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const GatePair& x, const GatePair& y) {
                     return x.last_use > y.last_use;
                   });
  const auto heuristic = [&](int gate_index, const std::vector<int>& phys) {
    int worst = 0;
    for (const GatePair& p : pairs) {
      if (p.last_use < gate_index) break;
      worst = std::max(
          worst, dist[phys[static_cast<std::size_t>(p.a)] * m +
                      phys[static_cast<std::size_t>(p.b)]] - 1);
    }
    return kCostPerSwap * static_cast<std::uint32_t>(worst);
  };

  const KeyLayout layout(n, m, num_targets);
  StateTable table(layout.words);
  std::priority_queue<OpenEntry, std::vector<OpenEntry>, PopsLater> open;
  std::vector<int> phys(static_cast<std::size_t>(n));  // program -> physical
  std::vector<int> occupant(static_cast<std::size_t>(m), -1);
  std::vector<std::uint64_t> key(layout.words);
  std::vector<std::uint64_t> child(layout.words);

  for (int k = 0; k < n; ++k) {
    phys[static_cast<std::size_t>(k)] = initial.phys_of_program(k);
  }
  layout.encode(0, phys, key.data());
  table.find_or_insert(key.data(), {0, kNoParent});
  open.push({heuristic(0, phys), 0, 0});

  const auto budget_exceeded = [&] {
    return MappingError("exact router: state budget exceeded (" +
                        std::to_string(options_.max_states) +
                        " states); use a heuristic router");
  };
  std::uint32_t current = 0;
  std::uint32_t current_g = 0;
  const auto relax = [&](std::uint32_t cost, std::uint32_t h) {
    const std::uint64_t g = std::uint64_t{current_g} + cost;
    if (g + h > std::numeric_limits<std::uint32_t>::max()) {
      throw budget_exceeded();
    }
    const auto child_g = static_cast<std::uint32_t>(g);
    const auto [id, inserted] =
        table.find_or_insert(child.data(), {child_g, current});
    if (!inserted) {
      StateTable::Link& link = table.link(id);
      if (link.g <= child_g) return;
      link = {child_g, current};
    }
    open.push({child_g + h, child_g, id});
  };

  std::uint32_t goal = kNoParent;
  std::size_t pops = 0;
  std::size_t expanded = 0;
  while (!open.empty()) {
    // Poll the cancellation token every few hundred expansions: often
    // enough for ms-scale deadlines, rare enough to stay off the profile.
    if ((++pops & 0xFF) == 0) check_cancelled();
    const OpenEntry top = open.top();
    open.pop();
    if (top.g != table.link(top.id).g) continue;  // superseded entry
    current = top.id;
    current_g = top.g;
    std::copy_n(table.key(current), layout.words, key.begin());
    const int gate_index = layout.gate_index(key.data());
    if (gate_index == num_targets) {
      goal = current;
      break;
    }
    // Ids are 32-bit, and one expansion stores at most #edges + 1 states.
    if (table.size() > options_.max_states ||
        table.size() >= kNoParent - coupling.num_edges() - 1) {
      throw budget_exceeded();
    }
    ++expanded;
    layout.decode(key.data(), phys);
    for (int k = 0; k < n; ++k) {
      occupant[static_cast<std::size_t>(phys[static_cast<std::size_t>(k)])] = k;
    }

    // Execute the pending gate when its operands are adjacent.
    const Gate& gate =
        circuit.gate(static_cast<std::size_t>(
            two_qubit_nodes[static_cast<std::size_t>(gate_index)]));
    const int pa = phys[static_cast<std::size_t>(gate.qubits[0])];
    const int pb = phys[static_cast<std::size_t>(gate.qubits[1])];
    if (coupling.connected(pa, pb)) {
      const bool needs_fix =
          gate.is_directional() && !coupling.orientation_allowed(pa, pb);
      child = key;
      ++child[0];
      relax(needs_fix ? kCostPerDirectionFix : 0,
            heuristic(gate_index + 1, phys));
    }

    // Or apply a SWAP that moves at least one program qubit (swapping two
    // free sites leads back to this same state).
    for (const auto& edge : coupling.edges()) {
      const int qa = occupant[static_cast<std::size_t>(edge.a)];
      const int qb = occupant[static_cast<std::size_t>(edge.b)];
      if (qa < 0 && qb < 0) continue;
      child = key;
      if (qa >= 0) {
        layout.relocate(child.data(), qa, edge.a, edge.b);
        phys[static_cast<std::size_t>(qa)] = edge.b;
      }
      if (qb >= 0) {
        layout.relocate(child.data(), qb, edge.b, edge.a);
        phys[static_cast<std::size_t>(qb)] = edge.a;
      }
      const std::uint32_t h = heuristic(gate_index, phys);  // then undo
      if (qa >= 0) phys[static_cast<std::size_t>(qa)] = edge.a;
      if (qb >= 0) phys[static_cast<std::size_t>(qb)] = edge.b;
      relax(kCostPerSwap, h);
    }
    for (const int p : phys) occupant[static_cast<std::size_t>(p)] = -1;
  }

  if (goal == kNoParent) {
    throw MappingError("exact router: no solution found");
  }

  // The path from the start state to the goal, first state first.
  std::vector<std::uint32_t> path;
  for (std::uint32_t id = goal; id != kNoParent; id = table.link(id).parent) {
    path.push_back(id);
  }
  std::reverse(path.begin(), path.end());

  // Replay: interleave the original gates with the found SWAPs. A step
  // that leaves the gate index unchanged is a SWAP of the two physical
  // qubits some program qubit moved between.
  RoutingEmitter emitter(device, initial,
                         circuit.name() + "@" + device.name());
  std::size_t next_gate = 0;  // index into circuit gates
  std::size_t target_index = 0;
  const auto emit_up_to_next_target = [&] {
    const std::size_t stop =
        target_index < two_qubit_nodes.size()
            ? static_cast<std::size_t>(
                  two_qubit_nodes[target_index])
            : circuit.size();
    while (next_gate < stop) {
      emitter.emit_program_gate(circuit.gate(next_gate));
      ++next_gate;
    }
  };
  std::vector<int> next_phys(static_cast<std::size_t>(n));
  for (std::size_t step = 1; step < path.size(); ++step) {
    emit_up_to_next_target();
    const std::uint64_t* before = table.key(path[step - 1]);
    const std::uint64_t* after = table.key(path[step]);
    if (layout.gate_index(after) != layout.gate_index(before)) {
      emitter.emit_program_gate(circuit.gate(next_gate));  // the 2q gate
      ++next_gate;
      ++target_index;
      continue;
    }
    layout.decode(before, phys);
    layout.decode(after, next_phys);
    const auto moved = static_cast<std::size_t>(
        std::mismatch(phys.begin(), phys.end(), next_phys.begin()).first -
        phys.begin());
    emitter.emit_swap(std::min(phys[moved], next_phys[moved]),
                      std::max(phys[moved], next_phys[moved]));
  }
  emit_up_to_next_target();  // trailing single-qubit gates

  obs::add(observer(), "router.exact.routes");
  obs::add(observer(), "router.exact.expanded", expanded);
  obs::add(observer(), "router.exact.stored", table.size());
  obs::observe(observer(), "route.swaps_inserted",
               static_cast<double>(emitter.added_swaps()));

  const double runtime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_time)
          .count();
  return std::move(emitter).finish(initial, runtime_ms);
}

}  // namespace qmap
