// Device model: everything the compiler's "machine description" input
// (right-hand input of Fig. 2 in the paper) contains.
//
// A Device bundles:
//   * the coupling graph (connectivity + CNOT orientation restrictions),
//   * the native gate set (Sec. IV: {U(theta,phi,lambda), CX} for IBM;
//     Sec. V: {Rx, Ry, CZ} for Surface-17),
//   * gate durations discretized into clock cycles,
//   * the classical-control resources of Sec. V: microwave frequency groups
//     (qubits sharing an AWG), measurement feedlines, and the CZ "parking"
//     rule for frequency-adjacent neighbours.
//
// The constructor also derives the distance tables routing reads
// (arch/artifacts.hpp). The coupling graph cannot change afterwards, so
// the tables never go stale; copies of a Device share them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/artifacts.hpp"
#include "arch/noise.hpp"
#include "arch/topology.hpp"
#include "ir/gate.hpp"

namespace qmap {

/// Gate durations in device clock cycles.
struct Durations {
  double cycle_ns = 20.0;     // Surface-17 runs a 20 ns cycle (Sec. V)
  int single_qubit_cycles = 1;
  int two_qubit_cycles = 2;   // CZ is a 40 ns flux pulse
  int measure_cycles = 30;    // "measurement takes several cycles" (600 ns)
  int move_cycles = 2;        // shuttle move (quantum-dot devices, Sec. VI-C)
};

class Device {
 public:
  Device();
  Device(std::string name, CouplingGraph coupling);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const CouplingGraph& coupling() const noexcept {
    return coupling_;
  }
  [[nodiscard]] int num_qubits() const noexcept {
    return coupling_.num_qubits();
  }

  /// Hop distances and shortest paths over the coupling graph, built once
  /// by the constructor and shared by every copy. Never null.
  [[nodiscard]] const std::shared_ptr<const ArchArtifacts>& artifacts()
      const noexcept {
    return artifacts_;
  }

  // --- Native gate set ---

  /// The device's native two-qubit gate (CX for IBM, CZ for Surface-17).
  [[nodiscard]] GateKind native_two_qubit() const noexcept {
    return native_two_qubit_;
  }
  void set_native_two_qubit(GateKind kind);

  /// Native single-qubit gate kinds. Parameterized kinds admit any angle.
  [[nodiscard]] const std::vector<GateKind>& native_single_qubit() const {
    return native_single_qubit_;
  }
  void set_native_single_qubit(std::vector<GateKind> kinds) {
    native_single_qubit_ = std::move(kinds);
  }

  /// True when `gate` is executable as-is: native kind, and for two-qubit
  /// gates the operand pair/orientation is allowed by the coupling graph.
  /// Measurements and barriers are always accepted.
  [[nodiscard]] bool accepts(const Gate& gate) const;

  /// True when `kind` is in the native set (ignores operand placement).
  [[nodiscard]] bool is_native_kind(GateKind kind) const;

  // --- Durations ---

  [[nodiscard]] const Durations& durations() const noexcept {
    return durations_;
  }
  void set_durations(const Durations& d) { durations_ = d; }
  /// Duration of one gate in cycles (barrier: 0). SWAP costs what its
  /// decomposition into native gates costs on the critical path.
  [[nodiscard]] int cycles_for(const Gate& gate) const;
  [[nodiscard]] double duration_ns(const Gate& gate) const {
    return cycles_for(gate) * durations_.cycle_ns;
  }

  // --- Shuttling (Sec. VI-C, silicon quantum dots) ---

  /// True when the device supports Move operations (relocating a qubit to
  /// an adjacent empty site) as a native alternative to SWAP routing.
  [[nodiscard]] bool supports_shuttling() const noexcept {
    return supports_shuttling_;
  }
  void set_supports_shuttling(bool enabled) {
    supports_shuttling_ = enabled;
  }

  // --- Two-qubit gate parallelism (Sec. VI-C, trapped ions) ---

  /// Maximum number of two-qubit gates that may execute concurrently
  /// (0 = unlimited). Trapped-ion modules pay for their all-to-all
  /// connectivity with serialized two-qubit gates on the shared motional
  /// bus: "this desirable property comes at the price of reduced two-qubit
  /// gate parallelism."
  [[nodiscard]] int max_parallel_two_qubit() const noexcept {
    return max_parallel_two_qubit_;
  }
  void set_max_parallel_two_qubit(int limit);

  // --- Measurement availability (Sec. VI-A) ---

  /// True when `qubit` can be measured directly. Devices where "not all
  /// qubits can be directly measured" require moving the state towards
  /// measurable qubits (see relocate_measurements). Default: all qubits.
  [[nodiscard]] bool measurable(int qubit) const;
  /// Empty = every qubit measurable.
  [[nodiscard]] const std::vector<bool>& measurable_mask() const {
    return measurable_;
  }
  void set_measurable(std::vector<bool> mask);

  // --- Classical-control constraints (Sec. V) ---

  /// Frequency group of each qubit (0-based; -1 = unconstrained). Qubits in
  /// the same group share a microwave generator: in any cycle they may only
  /// run the *same* single-qubit gate.
  [[nodiscard]] const std::vector<int>& frequency_groups() const {
    return frequency_group_;
  }
  void set_frequency_groups(std::vector<int> groups);
  [[nodiscard]] int frequency_group(int qubit) const;

  /// Measurement feedline of each qubit (-1 = dedicated line). Measurements
  /// on one feedline must start in the same cycle or not overlap at all.
  [[nodiscard]] const std::vector<int>& feedlines() const {
    return feedline_;
  }
  void set_feedlines(std::vector<int> lines);
  [[nodiscard]] int feedline(int qubit) const;

  /// Qubits that must be parked (detuned, unusable) while CZ(a, b) runs.
  ///
  /// Model (Sec. V): the higher-frequency qubit h of the pair is lowered to
  /// the frequency of the lower one l; any *other* neighbour of h whose
  /// frequency group equals l's would be dragged into resonance and is
  /// parked for the duration of the CZ. Returns empty when the device has
  /// no frequency groups. Read from a per-qubit table of neighbours by
  /// frequency group that set_frequency_groups builds.
  [[nodiscard]] std::vector<int> parked_qubits(int a, int b) const;
  /// Appends parked_qubits(a, b) to `out`, in the same order.
  void append_parked_qubits(int a, int b, std::vector<int>& out) const;
  /// True when `q` is parked while CZ(a, b) runs.
  [[nodiscard]] bool parks(int a, int b, int q) const;

  [[nodiscard]] bool has_control_constraints() const;

  // --- Optional calibration data (Sec. III-B reliability cost function) ---

  [[nodiscard]] bool has_noise() const noexcept {
    return noise_.has_value();
  }
  /// Throws DeviceError when no noise model is attached.
  [[nodiscard]] const NoiseModel& noise() const;
  void set_noise(NoiseModel noise);
  void clear_noise() { noise_.reset(); }

  // --- Optional drawing coordinates (row, column) ---

  void set_coordinates(std::vector<std::pair<double, double>> coords) {
    coordinates_ = std::move(coords);
  }
  [[nodiscard]] const std::vector<std::pair<double, double>>& coordinates()
      const {
    return coordinates_;
  }

  // --- Load diagnostics ---

  /// Non-fatal problems recorded while constructing this device, e.g. a
  /// mistyped optional field in a JSON config that fell back to its
  /// documented default (arch/config.cpp). Empty for built-in devices and
  /// for cleanly loaded configs.
  [[nodiscard]] const std::vector<std::string>& load_warnings() const {
    return load_warnings_;
  }
  void add_load_warning(std::string warning) {
    load_warnings_.push_back(std::move(warning));
  }

  /// Multi-line summary (qubit count, edges, native set, constraints).
  [[nodiscard]] std::string summary() const;

 private:
  /// The neighbours of CZ(a, b)'s higher-frequency qubit that share the
  /// lower one's frequency group, lower one included; sets `low` to it.
  [[nodiscard]] std::span<const int> parking_neighbours_(int a, int b,
                                                         int& low) const;

  std::string name_ = "device";
  CouplingGraph coupling_;
  std::shared_ptr<const ArchArtifacts> artifacts_;
  GateKind native_two_qubit_ = GateKind::CZ;
  std::vector<GateKind> native_single_qubit_;
  bool supports_shuttling_ = false;
  int max_parallel_two_qubit_ = 0;
  std::vector<bool> measurable_;
  Durations durations_;
  std::vector<int> frequency_group_;
  // Each qubit's grouped neighbours (frequency group >= 0), stably sorted
  // by group: qubit q's run is [neighbour_offsets_[q],
  // neighbour_offsets_[q + 1]). Empty when the device has no groups.
  std::vector<int> grouped_neighbours_;
  std::vector<std::uint32_t> neighbour_offsets_;
  std::vector<int> feedline_;
  std::optional<NoiseModel> noise_;
  std::vector<std::pair<double, double>> coordinates_;
  std::vector<std::string> load_warnings_;
};

}  // namespace qmap
