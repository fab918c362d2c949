// Gate-decomposition passes (task 1 of the compiler in Sec. III-A).
//
// The passes are deliberately split so the mapping pipeline can interleave
// them with routing the way Sec. VI-A describes: lowering to the native
// two-qubit gate and fusing single-qubit runs is placement-independent and
// happens before routing; fixing CNOT directions on directed-coupling
// devices (extra Hadamards, Sec. IV) can only happen at routing time when
// the placement is known.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/device.hpp"
#include "common/matrix.hpp"
#include "ir/circuit.hpp"

namespace qmap {

/// Rewrites every gate of arity >= 3 and every non-`target` two-qubit gate
/// into single-qubit gates plus `target` (CX or CZ) two-qubit gates.
/// SWAPs are preserved when `keep_swaps` is set (routers insert SWAPs as
/// placeholders that are lowered at the end).
[[nodiscard]] Circuit lower_two_qubit(const Circuit& circuit, GateKind target,
                                      bool keep_swaps = false);

/// Merges maximal runs of adjacent single-qubit gates on each qubit into a
/// single U(theta, phi, lambda) gate; exact identities are dropped.
[[nodiscard]] Circuit fuse_single_qubit(const Circuit& circuit);

/// Single-qubit fusion and native lowering as one per-gate stage, shared by
/// the streamed decompose (StreamingLowerer) and postroute
/// (finalize_routed). A run of single-qubit gates is held as an accumulated
/// 2x2 unitary per qubit and emitted, identities dropped, only when a
/// multi-qubit or non-unitary gate closes the run, or at finish(), which
/// flushes every open run in qubit order. Without a device a run leaves as
/// one U(theta, phi, lambda): fuse_single_qubit. With a device it leaves in
/// the native basis, exactly as lower_single_qubit rewrites that U. The
/// output does not depend on how the gate sequence was chunked.
///
/// Closed runs repeat (Clifford runs take few distinct values), so each
/// fuser memoizes their synthesis in a direct-mapped table of kMemoSlots
/// entries, allocated by its first flush and owned by it alone. The key is
/// the exact bits of the run's accumulated matrix; the value is what the
/// synthesis emits for it (nothing, one U, or up to three rotations),
/// re-emitted on the qubit being flushed. The emitted gates are a pure
/// function of those bits, so the output is byte-identical to
/// synthesizing every run; a colliding run overwrites its slot.
class SingleQubitFuser {
 public:
  /// Entries of the synthesis memo; a power of two.
  static constexpr std::size_t kMemoSlots = 256;

  /// Throws MappingError for unsupported native sets, like
  /// lower_single_qubit would.
  explicit SingleQubitFuser(int num_qubits, const Device* device = nullptr);

  /// Consumes one gate; appends any closed runs (and pass-through gates)
  /// to `out`.
  void push(Gate gate, std::vector<Gate>& out);

  /// End of stream: flushes the open run of every qubit, lowest index
  /// first.
  void finish(std::vector<Gate>& out);

  /// The memo entry a closed run with this accumulated matrix maps to.
  [[nodiscard]] static std::size_t memo_slot(const Mat2& run);

 private:
  using MemoKey = std::array<std::uint64_t, 8>;  // a Mat2's bits

  /// What flush emits for the run whose matrix has the bits `key`: `count`
  /// gates, in the U basis one U(angles), in the {Rx, Ry} basis the
  /// rotations kinds[i](angles[i]).
  struct MemoSlot {
    MemoKey key;
    std::array<double, 3> angles;
    std::array<GateKind, 3> kinds;
    std::uint8_t count;
    bool valid = false;  // the only member set before the slot is filled
  };

  static std::size_t slot_of(const MemoKey& key);
  void flush(int qubit, std::vector<Gate>& out);
  void synthesize(const Mat2& run, MemoSlot& slot) const;

  std::vector<Mat2> pending_;
  std::vector<char> open_;
  std::unique_ptr<MemoSlot[]> memo_;  // kMemoSlots entries once allocated
  bool rotations_ = false;  // runs leave as Ry Rx Ry (YXY), not as one U
};

/// The placement-independent lowering (two-qubit target + single-qubit
/// fusion + native single-qubit basis) as a stateful object fed a bounded
/// chunk at a time. The per-gate stages are stateless, and cross-chunk
/// fusion state lives in a SingleQubitFuser, so the concatenated output of
/// lower_chunk()/finish() does not depend on the chunking: it is
/// byte-for-byte lower_two_qubit -> fuse_single_qubit -> lower_single_qubit
/// of the whole circuit. lower_to_device is this object fed one chunk.
/// Peak memory is O(chunk), not O(circuit).
class StreamingLowerer {
 public:
  /// Throws MappingError for unsupported native sets, like the batch
  /// passes would.
  StreamingLowerer(const Device& device, int num_qubits,
                   bool keep_swaps = false);

  /// Lowers `gates` in order, appending the result to `out`. Trailing
  /// single-qubit runs stay buffered in the fuser until a later chunk (or
  /// finish()) closes them.
  void lower_chunk(const std::vector<Gate>& gates, Circuit& out);

  /// End of stream: flushes the fuser's open runs into `out`.
  void finish(Circuit& out);

 private:
  void drain(Circuit& out);

  GateKind target_;
  bool keep_swaps_;
  SingleQubitFuser fuser_;
  Circuit stage_a_;             // recycled per-chunk scratch
  std::vector<Gate> lowered_;
};

/// Re-expresses every single-qubit gate in the device's native basis:
///  * IBM-style ({U}): one U gate via ZYZ;
///  * Surface-style ({Rx, Ry}): up to three rotations via YXY, with
///    zero-angle rotations skipped;
///  * unrestricted: gates pass through unchanged.
[[nodiscard]] Circuit lower_single_qubit(const Circuit& circuit,
                                         const Device& device);

/// Full placement-independent lowering: lower_two_qubit to the device's
/// native two-qubit gate, fuse, then lower_single_qubit, run as one
/// StreamingLowerer pass over the whole circuit.
[[nodiscard]] Circuit lower_to_device(const Circuit& circuit,
                                      const Device& device,
                                      bool keep_swaps = false);

/// Replaces CX gates whose orientation the coupling graph forbids with the
/// 4-Hadamard inversion H H . CX(reversed) . H H (Sec. IV / Fig. 3(c)).
/// Throws MappingError if some CX connects qubits that are not coupled at
/// all (that is a routing failure, not a direction issue).
[[nodiscard]] Circuit fix_cx_directions(const Circuit& circuit,
                                        const Device& device);

/// Expands every SWAP into the device-native sequence: 3 CX (CX devices)
/// or 3 (H-wrapped) CZ (CZ devices, Fig. 6). Other gates pass through.
[[nodiscard]] Circuit expand_swaps(const Circuit& circuit,
                                   const Device& device);

/// Postroute's native tail over one gate buffer, rewritten in place:
/// SWAP expansion and CX direction repair as one per-gate stage, then (with
/// `peephole`) the exact peephole fixpoint, then (with `lower_to_native`)
/// single-qubit fusion and native lowering as one per-gate stage. The
/// result is byte-identical to expand_swaps -> fix_cx_directions ->
/// [peephole_optimize] -> [fuse_single_qubit -> lower_single_qubit], and
/// it throws what they throw.
void finalize_routed(std::vector<Gate>& gates, int num_qubits,
                     const Device& device, bool peephole = false,
                     bool lower_to_native = true);

/// The same chain, without peephole, on a routed circuit; the result keeps
/// the routed circuit's name.
[[nodiscard]] Circuit finalize_routed(const Circuit& routed,
                                      const Device& device);

/// Number of native two-qubit gates one routing SWAP costs on this device.
[[nodiscard]] int swap_two_qubit_cost(const Device& device);

}  // namespace qmap
