// Common interface of all propagation-pattern engines.
//
// Engines own the simulation state of one lattice Boltzmann run and advance
// it by whole timesteps. The implementations mirror the paper's propagation
// patterns:
//
//   ReferenceEngine — plain host two-lattice pull; ground truth for physics
//                     and for the MR engines' equivalence tests.
//   StEngine        — Algorithm 1 (standard distribution representation,
//                     pull or push) on the gpusim execution model, with
//                     counted global-memory traffic; AaEngine and EpEngine
//                     are its in-place relatives. All three are one chassis
//                     with different addressing (dist_engine.hpp).
//   MrEngine        — Algorithm 2 (moment representation with shared-memory
//                     streaming and a sliding window), projective or
//                     recursive regularization.
//
// The interface is deliberately moment-centric: `moments_at`/`impose`
// exchange the *full* hydrodynamic state {rho, u, Pi}, which every
// representation can produce and accept exactly. Boundary-condition passes
// and tests are written once against this interface.
#pragma once

#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/static/contract.hpp"
#include "geometry/geometry.hpp"
#include "core/moments.hpp"
#include "gpusim/profiler.hpp"
#include "util/error.hpp"
#include "util/precision.hpp"
#include "util/types.hpp"

namespace mlbm {

/// How a gpusim engine's kernels traverse the nodes of a thread block.
enum class ExecMode {
  kScalar,  ///< one node per simulated thread, as written (reference path)
  kLanes,   ///< fixed-width SoA lane panels with SIMD inner loops
};

inline const char* to_string(ExecMode m) {
  return m == ExecMode::kScalar ? "scalar" : "lanes";
}

/// Session-wide default execution mode: `MLBM_EXEC=lanes` forces the
/// lane-batched backend on every engine constructed without an explicit
/// ExecMode (how CI runs the full tier-1 suite against the lane path).
/// Read once; anything other than "lanes" means scalar.
inline ExecMode default_exec_mode() {
  static const ExecMode mode = [] {
    const char* e = std::getenv("MLBM_EXEC");
    return (e != nullptr && std::string_view(e) == "lanes") ? ExecMode::kLanes
                                                            : ExecMode::kScalar;
  }();
  return mode;
}

/// Frontier extent of a split step: how many x-planes adjacent to each
/// domain edge must be fully stepped before the frontier callback fires.
/// `left` covers planes [0, left), `right` covers [nx - right, nx); either
/// may be 0 (no interface on that side).
struct FrontierSpec {
  int left = 0;
  int right = 0;

  [[nodiscard]] bool empty() const { return left <= 0 && right <= 0; }
};

template <class L>
class Engine {
 public:
  using Lattice = L;
  using InitFn = std::function<Moments<L>(int x, int y, int z)>;
  using PostStepFn = std::function<void(Engine&)>;
  using FrontierDoneFn = std::function<void()>;

  Engine(Geometry geo, real_t tau) : geo_(std::move(geo)), tau_(tau) {
    if (tau <= real_t(0.5)) {
      throw ConfigError("Engine: tau must exceed 1/2 for stability");
    }
  }
  virtual ~Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] virtual const char* pattern_name() const = 0;

  /// Sets the full state of every node; `pi` of the returned moments is the
  /// complete second moment (use rho*u*u for an equilibrium start). Solid
  /// nodes hold no state and are skipped.
  virtual void initialize(const InitFn& init) {
    const Box& b = geo_.box;
    const bool solids = geo_.has_solids();
    for (int z = 0; z < b.nz; ++z) {
      for (int y = 0; y < b.ny; ++y) {
        for (int x = 0; x < b.nx; ++x) {
          if (solids && geo_.solid(x, y, z)) continue;
          impose(x, y, z, init(x, y, z));
        }
      }
    }
  }

  /// Full hydrodynamic state of one node at the current time.
  [[nodiscard]] virtual Moments<L> moments_at(int x, int y, int z) const = 0;

  /// Overwrites the state of one node (used by inlet/outlet passes).
  virtual void impose(int x, int y, int z, const Moments<L>& m) = 0;

  /// Bytes of simulation state resident in (simulated) device memory; basis
  /// of the paper's memory-footprint comparison.
  [[nodiscard]] virtual std::size_t state_bytes() const = 0;

  /// Precision in which this engine *stores* device-resident state. Compute
  /// is always real_t (FP64); gpusim engines may store FP32, in which case
  /// every counted byte, state_bytes() and checkpoints use 4-byte elements.
  [[nodiscard]] virtual StoragePrecision storage_precision() const {
    return StoragePrecision::kFP64;
  }

  /// Advances one timestep, then applies the post-step boundary pass.
  void step() {
    do_step();
    ++t_;
    if (post_step_) post_step_(*this);
  }

  /// Frontier/interior split step (async multi-domain overlap). Advances one
  /// timestep exactly like step(), but invokes `on_frontier` at the point
  /// where the frontier planes — [0, fs.left) and [nx - fs.right, nx) — hold
  /// their FINAL post-step values and no remaining work of this step writes
  /// them. The caller may then start the (modeled-async) ghost exchange while
  /// the engine finishes the interior. The split is a pure scheduling change:
  /// the stepped state is bit-identical to step() for every engine, whether
  /// or not it supports a genuine split (the default implementation runs the
  /// whole step as frontier). `on_frontier` must not mutate engine state.
  void step_split(const FrontierSpec& fs, const FrontierDoneFn& on_frontier) {
    do_step_split(fs, on_frontier);
    ++t_;
    if (post_step_) post_step_(*this);
  }

  /// True when do_step_split genuinely defers interior work past the
  /// frontier callback (i.e. overlap can hide communication). Engines
  /// falling back to whole-step-as-frontier return false.
  [[nodiscard]] virtual bool supports_frontier_split() const { return false; }

  void run(int steps) {
    for (int i = 0; i < steps; ++i) step();
  }

  /// Registers the inlet/outlet (or other) pass executed after each step.
  void set_post_step(PostStepFn fn) { post_step_ = std::move(fn); }

  [[nodiscard]] const Geometry& geometry() const { return geo_; }
  [[nodiscard]] real_t tau() const { return tau_; }
  /// Kinematic viscosity implied by tau: nu = cs2 (tau - 1/2).
  [[nodiscard]] real_t viscosity() const {
    return L::cs2 * (tau_ - real_t(0.5));
  }
  [[nodiscard]] int time() const { return t_; }

  /// Symbolic access contract of this engine's kernels (analysis/static/):
  /// what every kernel promises to read and write, as affine descriptors the
  /// static analyzer proves race-free and traffic-exact for all domain
  /// sizes. Reflects the engine's live configuration (storage width, batched
  /// I/O, any seeded fault mutation). Engines without gpusim backing return
  /// an empty contract (nothing launches, nothing to verify).
  [[nodiscard]] virtual analysis::EngineContract access_contract() const {
    return {};
  }

  /// Non-null for gpusim-backed engines (ST, MR): per-kernel traffic stats.
  [[nodiscard]] virtual gpusim::Profiler* profiler() { return nullptr; }
  [[nodiscard]] virtual const gpusim::Profiler* profiler() const {
    return nullptr;
  }

  /// Installs (or clears, with nullptr) a sanitizer on the engine: binds the
  /// hook to the engine's profiler (launch lifecycle, synccheck) and to
  /// every device-resident state array (memcheck/initcheck/staleness
  /// shadows). No-op for engines without gpusim backing. The uninstrumented
  /// path stays zero-cost: all hot paths test one nullable pointer.
  virtual void set_sanitizer(gpusim::SanitizerHook* /*san*/) {}

  /// Unique-address DRAM read modelling (gpusim engines; no-ops otherwise):
  /// with tracking enabled, `unique_read_bytes` counts distinct global
  /// elements loaded since the last clear — what reaches DRAM when re-reads
  /// (MR column halos) hit in L2.
  virtual void set_unique_read_tracking(bool /*on*/) {}
  virtual void clear_unique_reads() {}
  [[nodiscard]] virtual std::uint64_t unique_read_bytes() const { return 0; }

  /// Fault-injection surface (resilience subsystem): the number of storage
  /// elements addressable by an ECC-style soft-error bit flip, across every
  /// device-resident allocation the engine owns. 0 = unsupported.
  [[nodiscard]] virtual std::uint64_t fault_sites() const { return 0; }
  /// Flips one bit of storage element `site` (interpreted modulo
  /// fault_sites(); `bit` modulo the element width). No-op when the engine
  /// reports no fault sites. Deliberately uncounted and un-synchronized with
  /// stepping: the injector calls it between steps, like a soft error
  /// landing between kernel launches.
  virtual void inject_storage_bitflip(std::uint64_t /*site*/,
                                      unsigned /*bit*/) {}

  /// Exact raw-state snapshot surface (resilience rollback). The moment
  /// interface is portable but *projecting* on distribution engines: impose()
  /// rebuilds populations from {rho, u, Pi} and discards higher-order
  /// non-equilibrium content, so a moment round trip is only equal to
  /// ~1e-16. Engines that can serialize their device-resident state
  /// losslessly return a non-empty layout tag here (pattern, extents, and
  /// storage parity where addressing depends on it); a snapshot restores
  /// through the raw path only when source and target tags match, and falls
  /// back to the moment interface otherwise (cross-engine restores, e.g. the
  /// degraded-precision retry path). An empty tag means moment-only.
  [[nodiscard]] virtual std::string raw_state_tag() const { return {}; }
  /// Appends the live state to `out` in compute precision. Exact for both
  /// storage policies: float -> double widening is lossless, and narrowing
  /// back on restore recovers the identical float.
  virtual void serialize_raw_state(std::vector<real_t>& /*out*/) const {}
  /// Restores state previously serialized under an identical raw_state_tag.
  virtual void restore_raw_state(const std::vector<real_t>& /*in*/) {}
  /// Restores the step counter to `t` (rollback). Buffer parity (AA's
  /// swapped phase) and circular-shift layer addressing follow the step
  /// count, so a restored state must be re-timed to the step it was captured
  /// at *before* any state is written back. Virtual so decomposed engines
  /// forward to their slab engines.
  virtual void set_time(int t) { t_ = t; }

 protected:
  virtual void do_step() = 0;

  /// Split-step hook. The default runs the entire step as "frontier": every
  /// plane is final when the callback fires, so correctness (and
  /// bit-identity) hold for engines without a native split — they simply
  /// expose all communication time. Overriders must preserve the contract
  /// documented on step_split().
  virtual void do_step_split(const FrontierSpec& /*fs*/,
                             const FrontierDoneFn& on_frontier) {
    do_step();
    if (on_frontier) on_frontier();
  }

  Geometry geo_;
  real_t tau_;
  int t_ = 0;
  PostStepFn post_step_;
};

/// Canonical moments every engine reports for a solid node: all zero
/// (solid nodes carry no state — rho = 0 marks them "blanked" in IO and
/// makes a solid read visually unmistakable in dumps).
template <class L>
Moments<L> solid_moments() {
  Moments<L> m;
  m.rho = 0;
  return m;
}

/// Equilibrium-state helper for initialize(): pi = rho u u.
template <class L>
Moments<L> equilibrium_moments(real_t rho, const std::array<real_t, L::D>& u) {
  Moments<L> m;
  m.rho = rho;
  m.u = u;
  for (int p = 0; p < Moments<L>::NP; ++p) {
    const auto [a, b] = Moments<L>::pair(p);
    m.pi[static_cast<std::size_t>(p)] =
        rho * u[static_cast<std::size_t>(a)] * u[static_cast<std::size_t>(b)];
  }
  return m;
}

}  // namespace mlbm
