// Multi-device domain decomposition (slab partitioning with ghost exchange).
//
// The paper's group runs LBM across many GPUs (refs [9], [11]: multi-GPU and
// petascale LBM solvers); a production release of the moment representation
// must therefore compose with domain decomposition. This module splits a
// channel-type domain into slabs along x, runs one engine per slab (each
// standing in for one GPU, with its own profiler), and exchanges one-node
// ghost planes between neighbours after every step — exactly the
// halo-exchange cycle of a distributed LBM code:
//
//   step all slabs  ->  exchange interface planes  ->  apply global BCs.
//
// The exchange moves the *moment* state {rho, u, Pi}, which every engine can
// produce and accept exactly; this mirrors the moment representation's
// communication advantage (M values per face node instead of the
// distribution representation's Q) and keeps the decomposition
// representation-agnostic: a decomposed MR run reproduces the monolithic
// run to round-off (tested), for any mix of engines per slab.
//
// Communication volume is metered per step so the scaling bench can combine
// it with per-link bandwidth models (NVLink / PCIe) into parallel-efficiency
// estimates.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "engines/engine.hpp"
#include "gpusim/device.hpp"
#include "gpusim/profiler.hpp"
#include "gpusim/timeline.hpp"
#include "util/types.hpp"

namespace mlbm {

/// How the per-step ghost exchange is scheduled.
///
///  * kLockstep  — step every slab to completion, then exchange. All
///                 modeled communication time is exposed.
///  * kOverlap   — split every slab's step into frontier and interior
///                 launches (Engine::step_split); the interface planes are
///                 captured into double-buffered staging as soon as the
///                 frontier completes, so the modeled transfers run
///                 concurrently with the interior compute and only the
///                 residual (arrival after interior completion) is exposed.
/// Both modes produce bit-identical fields and traffic totals — overlap
/// reorders the modeled schedule, not the dataflow.
enum class ExchangeMode {
  kLockstep,
  kOverlap,
};

inline const char* to_string(ExchangeMode m) {
  return m == ExchangeMode::kLockstep ? "lockstep" : "overlap";
}

/// One slab of the decomposition: global x-range [x_begin, x_end) plus
/// `ghost_depth` ghost planes on each interior side.
struct SlabInfo {
  int x_begin = 0;      ///< first owned global x
  int x_end = 0;        ///< one past the last owned global x
  bool has_left = false;   ///< ghost band at local x in [0, ghost_depth)
  bool has_right = false;  ///< ghost band ending at local x = local_nx - 1
  /// Ghost band width per interior side. Depth 1 suffices for the one-node
  /// stencils (ST, MR, reference); the AA pattern's in-place odd step lets a
  /// ghost node's corrupted scatter reach one plane inward, so AA slabs need
  /// depth 2 — the outer ghost plane absorbs the corruption and the per-step
  /// exchange re-imposes both planes before it propagates into owned nodes.
  int ghost_depth = 1;
  /// Local extent including ghost planes.
  [[nodiscard]] int local_nx() const {
    return x_end - x_begin +
           ((has_left ? 1 : 0) + (has_right ? 1 : 0)) * ghost_depth;
  }
  /// Local x of global coordinate gx.
  [[nodiscard]] int local_x(int gx) const {
    return gx - x_begin + (has_left ? ghost_depth : 0);
  }
};

/// Splits `nx` columns into `ndev` contiguous slabs (remainder spread over
/// the first slabs) and computes ghost plane placement. Throws
/// mlbm::ConfigError for degenerate decompositions: ndev < 1, ndev > nx
/// (zero-width slabs), ghost_depth < 1, or slabs narrower than the ghost
/// depth (an exchange would have to read a neighbour's ghost band).
std::vector<SlabInfo> make_slabs(int nx, int ndev, int ghost_depth = 1);

/// Builds the local geometry of one slab from the global geometry: interior
/// interfaces become kOpen faces (their planes are ghost nodes rebuilt by
/// the exchange), outer faces keep the global behaviour.
Geometry slab_geometry(const Geometry& global, const SlabInfo& slab);

/// Implements the full Engine<L> interface on the global coordinate system,
/// so workloads, boundary passes, checkpoints and tests compose with a
/// decomposed run exactly as with a monolithic engine.
///
/// Exactness note: the ghost exchange carries {rho, u, Pi}, which describes
/// the regularized schemes' state losslessly — a decomposed MR-P/MR-R (or
/// projective-ST) run is bit-comparable to the monolithic one. For plain
/// BGK, whose populations carry higher-order non-equilibrium content beyond
/// Pi, the moment exchange is a (tiny, O(Ma^3)) projection at the interface
/// — the distribution representation would need all Q values per face node
/// to be exact. This asymmetry is itself a selling point of the moment
/// representation for multi-GPU runs.
template <class L>
class MultiDomainEngine final : public Engine<L> {
 public:
  using EngineFactory =
      std::function<std::unique_ptr<Engine<L>>(Geometry, int /*slab*/)>;

  /// Decomposes `global` into `ndev` slabs (each with `ghost_depth` ghost
  /// planes per interior side) and creates one engine per slab.
  MultiDomainEngine(Geometry global, real_t tau, int ndev,
                    const EngineFactory& factory, int ghost_depth = 1);

  [[nodiscard]] const char* pattern_name() const override { return "MULTI"; }
  void initialize(const typename Engine<L>::InitFn& init) override;
  /// Reads each node from its owning slab.
  void read_moments(const NodeRange& r,
                    std::span<Moments<L>> out) const override;
  /// Writes each node to its owning slab and to any neighbour ghost copy of
  /// its plane.
  void write_moments(const NodeRange& r,
                     std::span<const Moments<L>> in) override;
  [[nodiscard]] std::size_t state_bytes() const override;
  /// Storage precision of the slab engines (the factory builds them
  /// uniformly; mixed-precision decompositions report the first slab).
  /// state_bytes() needs no adjustment: it sums the slab engines, which
  /// already size themselves by their own storage type.
  [[nodiscard]] StoragePrecision storage_precision() const override {
    if (engines_.empty()) {
      throw ConfigError(
          "MultiDomainEngine: no slab engines (moved-from or degenerate "
          "decomposition)");
    }
    return engines_.front()->storage_precision();
  }

  /// One sanitizer observes every slab engine ("device"). The per-array
  /// launch-touch counters in the sanitizer keep the slabs' interleaved
  /// launches independent, and the ghost exchange's host-side plane
  /// writes re-stamp every ghost plane fresh each step — so a decomposed
  /// run is hazard-free exactly when its slabs are, and a *skipped*
  /// exchange surfaces as stale ghost reads.
  void set_sanitizer(gpusim::SanitizerHook* san) override {
    for (auto& e : engines_) e->set_sanitizer(san);
  }

  /// Seeded fault mutation: drop the ghost exchange after each step. The
  /// slab kernels still *write* their ghost nodes (open-face placeholder
  /// values), so this is the one seeded fault that memory-shadow checks
  /// cannot see — exactly as compute-sanitizer cannot see a dropped MPI
  /// message on a device-computed halo. The sanitizer tests use it to pin
  /// that boundary: the run stays hazard-clean while the physics diverges
  /// from the monolithic reference (the receive-buffer initcheck tests
  /// cover the detectable variant of this fault). Not for normal use.
  void set_skip_exchange_for_test(bool skip) { skip_exchange_ = skip; }

  /// Soft-error surface: the union of the slab engines' fault sites, routed
  /// by global site index (slab order).
  [[nodiscard]] std::uint64_t fault_sites() const override;
  void inject_storage_bitflip(std::uint64_t site, unsigned bit) override;

  [[nodiscard]] int devices() const { return static_cast<int>(slabs_.size()); }
  [[nodiscard]] int ghost_depth() const { return ghost_depth_; }
  [[nodiscard]] const SlabInfo& slab(int d) const {
    return slabs_[static_cast<std::size_t>(d)];
  }

  /// Exchange scheduling (see ExchangeMode). Switchable between steps; the
  /// fields and traffic counters are identical either way.
  void set_exchange_mode(ExchangeMode m) { mode_ = m; }
  [[nodiscard]] ExchangeMode exchange_mode() const { return mode_; }

  /// Installs the performance model used to attribute communication time:
  /// kernel durations derive from the device spec's bandwidth and the
  /// launches' measured bytes, transfer durations from the link's latency
  /// and bandwidth. Without a model, stepping is unchanged and the per-slab
  /// CommStats stay zero.
  void set_timeline_model(const gpusim::DeviceSpec& dev,
                          const gpusim::LinkSpec& link) {
    dev_spec_ = dev;
    link_spec_ = link;
    have_model_ = true;
  }
  [[nodiscard]] bool has_timeline_model() const { return have_model_; }

  /// Aggregated exposed/hidden communication attribution across the slab
  /// profilers (zero until set_timeline_model). Per-device numbers live in
  /// device_engine(d).profiler()->comm_stats().
  [[nodiscard]] gpusim::CommStats comm_stats() const;

  /// The stream/event schedule of the most recent overlapped step (empty
  /// before the first overlap step or in lockstep mode).
  [[nodiscard]] const gpusim::Timeline& last_step_timeline() const {
    return last_tl_;
  }

  /// Modeled bytes crossing one interface in one direction per step.
  [[nodiscard]] std::uint64_t ghost_bytes_per_direction() const {
    const Box& b = this->geo_.box;
    return static_cast<std::uint64_t>(ghost_depth_) *
           static_cast<std::uint64_t>(b.ny) * static_cast<std::uint64_t>(b.nz) *
           static_cast<std::uint64_t>(L::M) * sizeof(real_t);
  }
  [[nodiscard]] Engine<L>& device_engine(int d) {
    return *engines_[static_cast<std::size_t>(d)];
  }
  [[nodiscard]] const Engine<L>& device_engine(int d) const {
    return *engines_[static_cast<std::size_t>(d)];
  }

  /// Moment values exchanged across all interfaces in one step (both
  /// directions). The exchange crosses the link in the *compute* precision
  /// (values pass through Moments<L>, i.e. real_t), so modelled link bytes
  /// are this x sizeof(real_t) regardless of the slabs' storage precision —
  /// only device-resident state shrinks under FP32 storage.
  [[nodiscard]] std::uint64_t exchanged_values_per_step() const;
  /// Total values exchanged since construction.
  [[nodiscard]] std::uint64_t exchanged_values_total() const {
    return exchanged_total_;
  }
  /// Restores the exchange-volume counter to a checkpointed value (rollback
  /// support: a replayed window must re-count, not double-count).
  void set_exchanged_total(std::uint64_t v) { exchanged_total_ = v; }

  /// Raw snapshot surface: the concatenation of the slab engines' raw states
  /// (each length-prefixed), ghost planes included — so a rollback erases
  /// in-flight halo corruption along with everything else. Non-empty only
  /// when every slab engine supports raw serialization.
  [[nodiscard]] std::string raw_state_tag() const override;
  void serialize_raw_state(std::vector<real_t>& out) const override;
  void restore_raw_state(const std::vector<real_t>& in) override;
  /// Slab engines step in lockstep with the global clock, so re-timing the
  /// decomposition re-times every slab.
  void set_time(int t) override;

 protected:
  /// One global timestep. Lockstep: step every slab, then exchange ghost
  /// planes. Overlap: split-step every slab (capturing interface planes into
  /// parity-indexed staging), then apply the staged ghosts — same dataflow,
  /// with the modeled transfers scheduled against the interior compute.
  /// (The base class then runs the global post-step boundary pass.)
  void do_step() override;

 private:
  /// Splits global box `r` by slab: calls fn(d, local, at, n) per slab d
  /// holding part of it, `local` being that part in d's coordinates and
  /// [at, at + n) its nodes in r's walk order (one call per slab when the
  /// slab holds all of r's x-extent, else one per row). `held` = false
  /// visits owned planes only; true adds the ghost-band copies.
  template <class Fn>
  void split(const NodeRange& r, bool held, Fn&& fn) const;
  void step_lockstep();
  void step_overlapped();
  /// Reads slab d's owned interface planes into the staging buffer for
  /// step parity `par`.
  void capture_interface_planes(int d, int par);
  /// Writes the staged interface planes into the neighbouring ghost bands
  /// and counts the exchanged values. Lockstep and overlap both exchange
  /// through this pair; they differ only in when the capture happens.
  void apply_staged_ghosts(int par);
  /// Builds the per-step stream/event schedule from the measured frontier /
  /// interior bytes and accumulates exposed/hidden attribution into the
  /// slab profilers.
  void account_overlap(const std::vector<std::uint64_t>& frontier_bytes,
                       const std::vector<std::uint64_t>& interior_bytes);

  std::vector<SlabInfo> slabs_;
  std::vector<std::unique_ptr<Engine<L>>> engines_;
  std::uint64_t exchanged_total_ = 0;
  bool skip_exchange_ = false;
  int ghost_depth_ = 1;
  ExchangeMode mode_ = ExchangeMode::kLockstep;
  bool have_model_ = false;
  gpusim::DeviceSpec dev_spec_{};
  gpusim::LinkSpec link_spec_{};
  gpusim::Timeline last_tl_;
  /// Double-buffered interface staging, indexed by step parity: the capture
  /// of step t never overwrites the buffer a (modeled) in-flight transfer of
  /// step t-1 would still be reading. Layout per buffer: one block of
  /// depth x ny x nz nodes per (interface * 2 + dir), in the x-fastest walk
  /// order of the block's planes, where dir 0 carries left-slab planes
  /// rightward and dir 1 right-slab planes leftward.
  std::vector<Moments<L>> stage_[2];
};

/// Calls fn(p) for every profiler `eng` owns, in a stable order: one per
/// slab of a decomposition (a MultiDomainEngine has none of its own), else
/// the engine's own; a host engine has none. `Eng` is Engine<L> or
/// const Engine<L>, and `p` carries its const-ness.
template <class Eng, class Fn>
void for_each_profiler(Eng& eng, Fn&& fn) {
  using L = typename Eng::Lattice;
  using Multi = std::conditional_t<std::is_const_v<Eng>,
                                   const MultiDomainEngine<L>,
                                   MultiDomainEngine<L>>;
  if (auto* md = dynamic_cast<Multi*>(&eng)) {
    for (int d = 0; d < md->devices(); ++d) {
      if (auto* p = md->device_engine(d).profiler()) fn(*p);
    }
  } else if (auto* p = eng.profiler()) {
    fn(*p);
  }
}

extern template class MultiDomainEngine<D2Q9>;
extern template class MultiDomainEngine<D3Q19>;
extern template class MultiDomainEngine<D3Q27>;
extern template class MultiDomainEngine<D3Q15>;

}  // namespace mlbm
