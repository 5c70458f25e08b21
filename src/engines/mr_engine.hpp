// Moment-representation engine (Algorithm 2 of the paper).
//
// Global memory holds only the M = 1 + D + D(D+1)/2 moments {rho, u, Pi} per
// node — the regularized schemes make this a lossless representation of the
// simulation state. Each timestep, per column of the domain (one thread
// block on a real GPU):
//
//   phase A  read the moments of the current tile plus a one-node-wide halo
//            in the non-axial (cross) directions, collide in moment space
//            (Eq. 10), map to distribution space with the projective (MR-P,
//            Eq. 11) or recursive (MR-R, Eq. 14) reconstruction, and scatter
//            the post-collision populations into a shared-memory ring that
//            covers the tile plus two extra layers along the sweep axis;
//
//   phase B  once a tile's layers have received every streamed population
//            (one level later), re-project them to moments (Eqs. 1-3) and
//            write those M values back to global memory.
//
// The sweep walks the column bottom-to-top (sliding window). Columns run
// concurrently; the simulator's level-synchronized launcher bounds the
// inter-column skew that a real GPU bounds with the circular array shift
// (see DESIGN.md §3).
//
// Two global storage policies are provided:
//  * kPingPong      — two moment lattices, read t / write t+1 (2M per node;
//                     matches the memory footprints the paper reports);
//  * kCircularShift — a single moment lattice with S+2 layers along the
//                     sweep axis; layer s of timestep t lives at physical
//                     layer (s - 2t) mod (S+2), so the write of layer s at
//                     t+1 lands exactly in the slot vacated by layer s+2 of
//                     timestep t (Dethier-style constant-time shifting;
//                     M per node plus two layers).
// Both move 2M storage elements of global traffic per fluid lattice update
// (Table 2).
//
// `ST` is the storage-precision policy: the element type of the *global*
// moment lattices. The shared-memory ring stays in the compute precision
// (real_t) — on a real GPU the ring lives on-chip where capacity, not
// DRAM bandwidth, is the constraint, and keeping it wide means the only
// rounding an FP32 run adds is at the global load/store boundary.
//
// Sparse geometries (Geometry::sparse()): the moment lattice is
// column-compressed — the natural granule of the MR sweep is the
// cross-section column (a (x[, y]) stack of sweep layers), so columns whose
// every layer is solid allocate no moment storage and a counted int32 column
// map supplies the compressed column id (-1 for the unallocated ones). Each
// block loads the map entries of its tile plus cross halo once per step
// (make_state), the same stash discipline as the ST/AA tile kernels. Phase A
// skips solid source nodes and bounces populations streamed into solid
// destinations back into the source's ring word (half-way bounceback,
// exactly the wall-face path); phase B skips solid nodes, so their ring
// words and moment slots are never touched. Mixed columns keep per-node
// solid flags in registers (on hardware they ride in the column map's spare
// bits). Dense geometries never touch the map and keep the flat addressing
// bit-identically, fields and traffic counters.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/regularization.hpp"
#include "engines/engine.hpp"
#include "gpusim/global_array.hpp"
#include "gpusim/profiler.hpp"

namespace mlbm {

enum class MomentStorage {
  kPingPong,
  kCircularShift,
};

inline const char* to_string(MomentStorage s) {
  return s == MomentStorage::kPingPong ? "ping-pong" : "circular-shift";
}

struct MrConfig {
  int tile_x = 32;  ///< tile extent along x (cross axis 0)
  int tile_y = 8;   ///< tile extent along y (cross axis 1; 3D only)
  int tile_s = 1;   ///< tile thickness along the sweep axis (paper: 1 in 3D)
  MomentStorage storage = MomentStorage::kPingPong;
};

template <class L, class ST = real_t>
class MrEngine final : public Engine<L> {
 public:
  using StorageT = ST;

  /// One kernel body walks its nodes in panels; `exec` selects the panel
  /// width (1, or kLaneWidth nodes in SoA lanes) and with it only the moment
  /// arithmetic: phase A's reconstruction and phase B's re-projection
  /// (bit-identical; same traffic).
  MrEngine(Geometry geo, real_t tau, Regularization scheme,
           MrConfig config = {}, ExecMode exec = default_exec_mode());

  [[nodiscard]] const char* pattern_name() const override {
    return scheme_ == Regularization::kProjective ? "MR-P" : "MR-R";
  }
  [[nodiscard]] Moments<L> moments_at(int x, int y, int z) const override;
  void impose(int x, int y, int z, const Moments<L>& m) override;
  [[nodiscard]] std::size_t state_bytes() const override;
  [[nodiscard]] StoragePrecision storage_precision() const override {
    return precision_of_v<ST>;
  }

  [[nodiscard]] gpusim::Profiler* profiler() override { return &prof_; }
  [[nodiscard]] const gpusim::Profiler* profiler() const override {
    return &prof_;
  }

  [[nodiscard]] Regularization scheme() const { return scheme_; }
  [[nodiscard]] const MrConfig& config() const { return config_; }
  [[nodiscard]] ExecMode exec_mode() const { return exec_; }

  /// Declared sweep-kernel discipline: tile geometry, cross halo, shared
  /// ring capacity and the circular-shift write-behind/shift parameters.
  /// Reflects any installed FaultMutation, so a mutated engine declares the
  /// (broken) discipline it actually executes and the static analyzer must
  /// flag it — the same kill-rate contract the dynamic sanitizer satisfies.
  [[nodiscard]] analysis::EngineContract access_contract() const override {
    return analysis::mr_contract(
        analysis::make_lattice_desc<L>(), sizeof(ST),
        scheme_ == Regularization::kProjective,
        config_.storage == MomentStorage::kCircularShift, config_.tile_x,
        config_.tile_y, config_.tile_s, batched_io_, mutation_.write_behind,
        mutation_.ring_shift_bias, !mutation_.skip_phase_sync,
        mutation_.shrink_cross_halo ? 0 : 1);
  }

  /// Binds the sanitizer to the profiler and the moment lattice(s). Both
  /// storage policies satisfy the sliding-window freshness contract — a
  /// ping-pong read side was fully written by the previous step, and with
  /// the circular shift every slot phase A reads at step t was written as a
  /// t-layer by step t-1's phase B — so the lattices opt into the staleness
  /// check (which is exactly what catches a broken ring shift). Kernel-side
  /// shared-ring accesses are reported from do_step when a sanitizer is
  /// bound to the block context.
  void set_sanitizer(gpusim::SanitizerHook* san) override {
    prof_.set_sanitizer_hook(san);
    mom_[0].set_sanitizer(san, "mom0", /*sliding_window=*/true);
    if (mom_[1].allocated()) {
      mom_[1].set_sanitizer(san, "mom1", /*sliding_window=*/true);
    }
    if (sparse_) {
      // Read-only index data, written at construction: replay the host
      // writes so initcheck accepts them (see TileIndexDev::set_sanitizer).
      colmap_.set_sanitizer(san, "mr_colmap", /*sliding_window=*/false);
      if (san != nullptr) {
        for (std::size_t i = 0; i < colmap_.size(); ++i) {
          const auto v = std::as_const(colmap_).raw(static_cast<index_t>(i));
          colmap_.raw(static_cast<index_t>(i)) = v;
        }
      }
    }
  }

  /// Seeded fault mutations for sanitizer kill-rate tests. These deliberately
  /// corrupt the kernel's addressing/barrier discipline; the sanitizer must
  /// flag every one of them (tests/test_sanitizer.cpp). Not for normal use.
  struct FaultMutation {
    /// Added to the physical write layer (circular shift only): an
    /// off-by-one ring shift leaves one logical plane un-refreshed per step.
    int ring_shift_bias = 0;
    /// Write-behind distance (paper value 2): writing only 1 behind targets
    /// slots the window has not yet vacated.
    int write_behind = 2;
    /// Run phase B inside phase A's barrier epoch (models deleting the
    /// __syncthreads between collide/stream and write-back).
    bool skip_phase_sync = false;
    /// Drop the one-node cross halo from phase A's source loop (models a
    /// shrunken halo: edge ring words are never streamed into).
    bool shrink_cross_halo = false;
  };
  void set_fault_mutation_for_test(const FaultMutation& m) { mutation_ = m; }

  void set_unique_read_tracking(bool on) override {
    mom_[0].set_unique_read_tracking(on);
    if (mom_[1].allocated()) mom_[1].set_unique_read_tracking(on);
  }
  void clear_unique_reads() override {
    mom_[0].clear_unique_reads();
    if (mom_[1].allocated()) mom_[1].clear_unique_reads();
  }
  [[nodiscard]] std::uint64_t unique_read_bytes() const override {
    return mom_[0].unique_read_bytes() +
           (mom_[1].allocated() ? mom_[1].unique_read_bytes() : 0);
  }

  /// Soft-error surface: the global moment lattice(s) — the only
  /// device-resident state of the MR pattern.
  [[nodiscard]] std::uint64_t fault_sites() const override {
    return mom_[0].size() + (mom_[1].allocated() ? mom_[1].size() : 0);
  }
  void inject_storage_bitflip(std::uint64_t site, unsigned bit) override {
    const std::uint64_t n0 = mom_[0].size();
    const std::uint64_t s = site % fault_sites();
    if (s < n0) {
      mom_[0].flip_bit(static_cast<std::size_t>(s), bit);
    } else {
      mom_[1].flip_bit(static_cast<std::size_t>(s - n0), bit);
    }
  }

  /// Validation hook: scalar per-component moment I/O instead of batched
  /// spans. Bytes identical; transactions differ by the batch width M.
  void set_batched_io(bool on) { batched_io_ = on; }
  [[nodiscard]] bool batched_io() const { return batched_io_; }

  /// Thread-block geometry of the column kernel: (tile_x + 2) x tile_s in 2D,
  /// (tile_x + 2) x (tile_y + 2) x tile_s in 3D (halo threads included).
  [[nodiscard]] int threads_per_block() const;
  /// Shared-memory ring size per block: cross-section x (tile_s + 2) x Q.
  [[nodiscard]] std::size_t shared_bytes_per_block() const;

  /// Ping-pong columns are independent (the read lattice is read-only, the
  /// write lattice is tile-disjoint), so the step splits exactly into
  /// x-tile-range launches. The circular shift relies on the launch-wide
  /// level barrier to bound inter-column skew — separate launches would
  /// break the slot-reuse analysis — so it keeps the whole-step-as-frontier
  /// fallback.
  [[nodiscard]] bool supports_frontier_split() const override {
    return config_.storage == MomentStorage::kPingPong;
  }

 protected:
  void do_step() override;
  void do_step_split(const FrontierSpec& fs,
                     const typename Engine<L>::FrontierDoneFn& on_frontier)
      override;

 private:
  static constexpr int kSweepAxis = (L::D == 2) ? 1 : 2;
  static constexpr int NP = Moments<L>::NP;
  static constexpr int M = L::M;

  /// Flat element of moment `m` of the node with compressed column id `col`
  /// at physical layer `sp` — the one node-address function of the moment
  /// lattice, used by the host accessors and the kernel alike.
  struct MomentIndex {
    index_t layers;
    index_t ncols;
    [[nodiscard]] index_t operator()(int m, index_t col, int sp) const {
      return (static_cast<index_t>(m) * layers + sp) * ncols + col;
    }
    /// Element stride between consecutive moments of one node.
    [[nodiscard]] index_t stride() const { return layers * ncols; }
  };

  /// Sweep-axis extent.
  [[nodiscard]] int sweep_extent() const;
  /// Physical sweep layers of one moment lattice: S (ping-pong) or the
  /// circular shift's S + 2.
  [[nodiscard]] int layers() const;
  [[nodiscard]] MomentIndex moment_index() const { return {layers(), ncols_}; }
  /// Physical sweep layer of logical layer `s` at timestep `t`.
  [[nodiscard]] int phys_layer(int s, long long t) const;
  /// Compressed column id (the flat cross index when dense, the column-map
  /// entry when sparse) and physical layer of in-domain node (x, y, z) at
  /// the current step. Host-side (uncounted).
  [[nodiscard]] std::pair<index_t, int> host_node(int x, int y, int z) const;

  void ensure_records();
  void ensure_frontier_record();
  /// One level-synced launch covering column tiles [c0_begin,
  /// c0_begin + c0_count) along x; the full range is the monolithic step.
  /// Does not flip the ping-pong side.
  void step_tiles(int c0_begin, int c0_count, gpusim::KernelRecord& rec);

  Regularization scheme_;
  MrConfig config_;
  ExecMode exec_;
  gpusim::Profiler prof_;
  /// kPingPong: both allocated, cur_ is the read side. kCircularShift: only
  /// mom_[0] is allocated (with S+2 sweep layers).
  gpusim::GlobalArray<ST> mom_[2];
  int cur_ = 0;
  bool batched_io_ = true;
  /// Column compression (sparse only): number of allocated cross-section
  /// columns and the counted cross -> column map. Dense: ncols_ is the full
  /// cross-section and colmap_ stays unallocated.
  index_t ncols_ = 0;
  bool sparse_ = false;
  gpusim::GlobalArray<std::int32_t> colmap_;
  FaultMutation mutation_{};
  /// Cached kernel records (scheme and lattice are fixed per engine, plus a
  /// frontier variant for split steps) — no string lookup per step.
  gpusim::KernelRecord* krec_ = nullptr;
  gpusim::KernelRecord* krec_frontier_ = nullptr;
};

extern template class MrEngine<D2Q9, double>;
extern template class MrEngine<D3Q19, double>;
extern template class MrEngine<D3Q27, double>;
extern template class MrEngine<D3Q15, double>;
extern template class MrEngine<D2Q9, float>;
extern template class MrEngine<D3Q19, float>;
extern template class MrEngine<D3Q27, float>;
extern template class MrEngine<D3Q15, float>;

}  // namespace mlbm
