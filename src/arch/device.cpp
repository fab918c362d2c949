#include "arch/device.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qmap {

Device::Device() {
  // Every default-constructed Device has the same empty graph, so they
  // share one empty bundle.
  static const std::shared_ptr<const ArchArtifacts> empty =
      std::make_shared<const ArchArtifacts>(
          ArchArtifacts::build(CouplingGraph{}));
  artifacts_ = empty;
}

Device::Device(std::string name, CouplingGraph coupling)
    : name_(std::move(name)),
      coupling_(std::move(coupling)),
      artifacts_(std::make_shared<const ArchArtifacts>(
          ArchArtifacts::build(coupling_))) {}

void Device::set_native_two_qubit(GateKind kind) {
  if (gate_info(kind).arity != 2) {
    throw DeviceError("native two-qubit gate must have arity 2");
  }
  native_two_qubit_ = kind;
}

bool Device::is_native_kind(GateKind kind) const {
  const GateInfo& info = gate_info(kind);
  if (kind == GateKind::Measure || kind == GateKind::Barrier) return true;
  if (kind == GateKind::Move) return supports_shuttling_;
  if (info.arity == 2) return kind == native_two_qubit_;
  if (info.arity != 1) return false;
  if (native_single_qubit_.empty()) return true;  // unrestricted device
  return std::find(native_single_qubit_.begin(), native_single_qubit_.end(),
                   kind) != native_single_qubit_.end();
}

bool Device::accepts(const Gate& gate) const {
  if (gate.kind == GateKind::Measure) return measurable(gate.qubits[0]);
  if (gate.kind == GateKind::Barrier) return true;
  if (!is_native_kind(gate.kind)) return false;
  if (gate.is_two_qubit()) {
    const int a = gate.qubits[0];
    const int b = gate.qubits[1];
    if (gate.is_directional()) return coupling_.orientation_allowed(a, b);
    return coupling_.connected(a, b);
  }
  return true;
}

int Device::cycles_for(const Gate& gate) const {
  switch (gate.kind) {
    case GateKind::Barrier:
      return 0;
    case GateKind::Measure:
      return durations_.measure_cycles;
    case GateKind::Move:
      return durations_.move_cycles;
    default:
      break;
  }
  const int arity = gate_info(gate.kind).arity;
  if (arity == 1) return durations_.single_qubit_cycles;
  if (gate.kind == GateKind::SWAP) {
    // A SWAP is not native on either paper device; it costs its
    // decomposition: 3 CX back-to-back (IBM) or 3 CZ + interleaved Ry
    // (Surface-17, Fig. 6) — both serialize three two-qubit gates, plus
    // the surrounding single-qubit layers on the CZ device.
    if (native_two_qubit_ == GateKind::CX) {
      return 3 * durations_.two_qubit_cycles;
    }
    return 3 * durations_.two_qubit_cycles + 4 * durations_.single_qubit_cycles;
  }
  if (arity == 2) return durations_.two_qubit_cycles;
  // Three-qubit gates are never native; charge their standard 6-CX
  // decomposition depth as a conservative estimate.
  return 6 * durations_.two_qubit_cycles + 8 * durations_.single_qubit_cycles;
}

void Device::set_frequency_groups(std::vector<int> groups) {
  if (!groups.empty() &&
      groups.size() != static_cast<std::size_t>(num_qubits())) {
    throw DeviceError("frequency group vector size mismatch");
  }
  frequency_group_ = std::move(groups);
  grouped_neighbours_.clear();
  neighbour_offsets_.clear();
  if (frequency_group_.empty()) return;
  neighbour_offsets_.push_back(0);
  for (int q = 0; q < num_qubits(); ++q) {
    const auto begin = static_cast<std::ptrdiff_t>(grouped_neighbours_.size());
    for (const int n : coupling_.neighbors(q)) {
      if (frequency_group_[static_cast<std::size_t>(n)] >= 0) {
        grouped_neighbours_.push_back(n);
      }
    }
    std::stable_sort(grouped_neighbours_.begin() + begin,
                     grouped_neighbours_.end(), [this](int x, int y) {
                       return frequency_group(x) < frequency_group(y);
                     });
    neighbour_offsets_.push_back(
        static_cast<std::uint32_t>(grouped_neighbours_.size()));
  }
}

int Device::frequency_group(int qubit) const {
  if (frequency_group_.empty()) return -1;
  if (qubit < 0 || qubit >= num_qubits()) {
    throw DeviceError("frequency_group: qubit out of range");
  }
  return frequency_group_[static_cast<std::size_t>(qubit)];
}

void Device::set_feedlines(std::vector<int> lines) {
  if (!lines.empty() &&
      lines.size() != static_cast<std::size_t>(num_qubits())) {
    throw DeviceError("feedline vector size mismatch");
  }
  feedline_ = std::move(lines);
}

int Device::feedline(int qubit) const {
  if (feedline_.empty()) return -1;
  if (qubit < 0 || qubit >= num_qubits()) {
    throw DeviceError("feedline: qubit out of range");
  }
  return feedline_[static_cast<std::size_t>(qubit)];
}

std::span<const int> Device::parking_neighbours_(int a, int b,
                                                 int& low) const {
  const int ga = frequency_group(a);
  const int gb = frequency_group(b);
  if (ga < 0 || gb < 0 || ga == gb) return {};
  // Convention: smaller group index = higher frequency (f1 > f2 > f3).
  const int high = ga < gb ? a : b;
  low = ga < gb ? b : a;
  const int group = std::max(ga, gb);
  const auto first = grouped_neighbours_.begin() +
                     neighbour_offsets_[static_cast<std::size_t>(high)];
  const auto last = grouped_neighbours_.begin() +
                    neighbour_offsets_[static_cast<std::size_t>(high) + 1];
  const auto group_of = [this](int n) {
    return frequency_group_[static_cast<std::size_t>(n)];
  };
  const auto from = std::partition_point(
      first, last, [&](int n) { return group_of(n) < group; });
  const auto to = std::partition_point(
      from, last, [&](int n) { return group_of(n) == group; });
  return {from, to};
}

bool Device::parks(int a, int b, int q) const {
  if (frequency_group_.empty() || q < 0 || q >= num_qubits()) return false;
  int low = -1;
  const std::span<const int> neighbours = parking_neighbours_(a, b, low);
  return q != low &&
         std::find(neighbours.begin(), neighbours.end(), q) != neighbours.end();
}

void Device::append_parked_qubits(int a, int b, std::vector<int>& out) const {
  if (frequency_group_.empty()) return;
  int low = -1;
  for (const int n : parking_neighbours_(a, b, low)) {
    if (n != low) out.push_back(n);
  }
}

std::vector<int> Device::parked_qubits(int a, int b) const {
  std::vector<int> parked;
  append_parked_qubits(a, b, parked);
  return parked;
}

void Device::set_max_parallel_two_qubit(int limit) {
  if (limit < 0) throw DeviceError("parallelism limit must be >= 0");
  max_parallel_two_qubit_ = limit;
}

bool Device::measurable(int qubit) const {
  if (qubit < 0 || qubit >= num_qubits()) {
    throw DeviceError("measurable: qubit out of range");
  }
  if (measurable_.empty()) return true;
  return measurable_[static_cast<std::size_t>(qubit)];
}

void Device::set_measurable(std::vector<bool> mask) {
  if (!mask.empty() && mask.size() != static_cast<std::size_t>(num_qubits())) {
    throw DeviceError("measurable mask size mismatch");
  }
  if (!mask.empty() &&
      std::find(mask.begin(), mask.end(), true) == mask.end()) {
    throw DeviceError("device must have at least one measurable qubit");
  }
  measurable_ = std::move(mask);
}

const NoiseModel& Device::noise() const {
  if (!noise_.has_value()) {
    throw DeviceError("device '" + name_ + "' has no noise model attached");
  }
  return *noise_;
}

void Device::set_noise(NoiseModel noise) {
  if (noise.num_qubits() != num_qubits()) {
    throw DeviceError("noise model size does not match device");
  }
  noise_ = std::move(noise);
}

bool Device::has_control_constraints() const {
  return !frequency_group_.empty() || !feedline_.empty() ||
         max_parallel_two_qubit_ > 0;
}

std::string Device::summary() const {
  std::string out = name_ + ": " + std::to_string(num_qubits()) + " qubits, " +
                    std::to_string(coupling_.num_edges()) + " edges\n";
  out += "  native 2q: " + std::string(gate_info(native_two_qubit_).name);
  bool symmetric = true;
  for (const auto& edge : coupling_.edges()) {
    if (!edge.a_to_b || !edge.b_to_a) symmetric = false;
  }
  out += symmetric ? " (symmetric)\n" : " (directed edges)\n";
  out += "  native 1q: ";
  if (native_single_qubit_.empty()) {
    out += "(unrestricted)";
  } else {
    for (std::size_t i = 0; i < native_single_qubit_.size(); ++i) {
      if (i != 0) out += ", ";
      out += gate_info(native_single_qubit_[i]).name;
    }
  }
  out += "\n";
  if (!frequency_group_.empty()) {
    int groups = 0;
    for (const int g : frequency_group_) groups = std::max(groups, g + 1);
    out += "  frequency groups: " + std::to_string(groups) + "\n";
  }
  if (!feedline_.empty()) {
    int lines = 0;
    for (const int f : feedline_) lines = std::max(lines, f + 1);
    out += "  measurement feedlines: " + std::to_string(lines) + "\n";
  }
  return out;
}

}  // namespace qmap
