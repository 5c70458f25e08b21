// The distribution-engine chassis: one stream-collide engine for every
// pattern that stores populations (ST pull/push, AA, Esoteric Pull).
//
// The chassis owns everything those patterns share, written once:
//   * storage — up to two SoA lattices in instrumented global memory, the EP
//     boundary rim, and the dense-or-tile element mapping (Layout);
//   * the device tile index (TileIndexDev) and the cached KernelRecords;
//   * the whole/split/sparse step scheduler: a whole step, a frontier/
//     interior split step over plane ranges (dense) or tx-sorted tile-list
//     ranges (sparse), each as one LaunchGroup;
//   * the launch loops — one plane-range walk over panels of W nodes, and a
//     tile loop (one thread per 64-node tile; sparse launches always run it,
//     whatever the ExecMode) — each generic over the per-node flavour of the
//     addressing policy `A` (addressing.hpp). The plane-range walk visits
//     each block as x-runs and runs a run's all-interior nodes on the
//     interior fast path (docs/algorithms.md §16); the ExecMode picks only
//     its panel width W, which only the collision arithmetic depends on;
//   * the moment convention built from the policy's population map, and the
//     sanitizer, unique-read, fault-site and raw-state surfaces.
//
// `ST` is the storage-precision policy: the element type of the lattices.
// All per-node arithmetic runs in real_t registers; values convert at the
// load/store boundary, so with ST = float every counted byte halves.
//
// Dense geometries address the box cell; sparse ones (Geometry::sparse())
// are tile-compressed (tile_kernels.hpp) and each step issues one launch
// over the all-fluid tile list and one over the occupancy-masked mixed
// tiles, so the profiler attributes traffic per tile class.
//
// StEngine, AaEngine and EpEngine are thin classes over this chassis that
// keep the historical constructors. Member definitions live in
// dist_engine_impl.hpp and are instantiated per lattice, one TU each
// (dist_engine_<lattice>.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/collision.hpp"
#include "engines/addressing.hpp"
#include "engines/engine.hpp"
#include "engines/tile_kernels.hpp"
#include "gpusim/global_array.hpp"
#include "gpusim/profiler.hpp"

namespace mlbm {

/// One dense plane-range launch: thread r of [0, cells) covers node
/// (rx0 + r % nxr, (r / nxr) % ny, r / (nxr ny)) — for the full range, the
/// flat cell index.
template <class L>
struct DenseRange {
  Box b;
  int rx0 = 0;
  index_t nxr = 0;
  index_t cells = 0;
  /// The launch may run interior nodes on the fast path at all.
  bool fast = false;

  /// Walks threads [start, end) as x-runs, decoding (x, y, z) once and then
  /// advancing with a carry: calls fn(xa, fa, fb, xb, y, z) per run
  /// [xa, xb) of row (y, z), whose all-interior nodes are [fa, fb) (empty,
  /// fa = fb = xb, when the launch or the row has none).
  template <class Fn>
  void runs(index_t start, index_t end, Fn&& fn) const;
};

template <class L, class ST, class A>
class DistEngine : public Engine<L> {
 public:
  using StorageT = ST;

  [[nodiscard]] const char* pattern_name() const override {
    return addr_.name();
  }
  [[nodiscard]] Moments<L> moments_at(int x, int y, int z) const override;
  void impose(int x, int y, int z, const Moments<L>& m) override;
  [[nodiscard]] std::size_t state_bytes() const override {
    return f_[0].size_bytes() + f_[1].size_bytes() + rim_.size_bytes() +
           (layout_.sparse ? tdev_.bytes() : 0);
  }
  [[nodiscard]] StoragePrecision storage_precision() const override {
    return precision_of_v<ST>;
  }

  [[nodiscard]] gpusim::Profiler* profiler() override { return &prof_; }
  [[nodiscard]] const gpusim::Profiler* profiler() const override {
    return &prof_;
  }

  /// The policy's declared kernel accesses (analysis/static/contract.hpp).
  [[nodiscard]] analysis::EngineContract access_contract() const override {
    return addr_.contract(analysis::make_lattice_desc<L>(), sizeof(ST));
  }

  /// Every policy splits cleanly by x-plane: pull-style maps partition by
  /// destination node, the others by source node with the policy's
  /// frontier extension. Disjoint source ranges touch disjoint words
  /// (unique reader == writer per word for the in-place patterns), so the
  /// launches commute.
  [[nodiscard]] bool supports_frontier_split() const override { return true; }

  [[nodiscard]] CollisionScheme scheme() const { return scheme_; }
  [[nodiscard]] int threads_per_block() const { return threads_per_block_; }

  /// Binds the sanitizer to the profiler, the lattices, the rim and the
  /// tile index. Every lattice and rim word a step reads was written by the
  /// previous step or the host, so all of them opt into the staleness
  /// check; EP's dead words behind blocked links are never read.
  void set_sanitizer(gpusim::SanitizerHook* san) override {
    prof_.set_sanitizer_hook(san);
    if constexpr (A::kLattices == 2) {
      f_[0].set_sanitizer(san, "f0", /*sliding_window=*/true);
      f_[1].set_sanitizer(san, "f1", /*sliding_window=*/true);
    } else {
      f_[0].set_sanitizer(san, "f", /*sliding_window=*/true);
    }
    if constexpr (A::kRim) rim_.set_sanitizer(san, "rim", true);
    if (layout_.sparse) tdev_.set_sanitizer(san);
  }

  void set_unique_read_tracking(bool on) override {
    f_[0].set_unique_read_tracking(on);
    f_[1].set_unique_read_tracking(on);
    rim_.set_unique_read_tracking(on);
  }
  void clear_unique_reads() override {
    f_[0].clear_unique_reads();
    f_[1].clear_unique_reads();
    rim_.clear_unique_reads();
  }
  [[nodiscard]] std::uint64_t unique_read_bytes() const override {
    return f_[0].unique_read_bytes() + f_[1].unique_read_bytes() +
           rim_.unique_read_bytes();
  }

  /// Soft-error surface: every lattice plus the rim (a flip in the ST
  /// lattice about to be overwritten is harmless, exactly as on hardware).
  [[nodiscard]] std::uint64_t fault_sites() const override {
    return f_[0].size() + f_[1].size() + rim_.size();
  }
  void inject_storage_bitflip(std::uint64_t site, unsigned bit) override {
    std::uint64_t s = site % fault_sites();
    if (s < f_[0].size()) return f_[0].flip_bit(s, bit);
    s -= f_[0].size();
    if (s < f_[1].size()) return f_[1].flip_bit(s, bit);
    rim_.flip_bit(s - f_[1].size(), bit);
  }

  /// Raw snapshot surface: the current lattice, then the rim. ST's other
  /// lattice is pure scratch for the next step. The tag carries the policy's
  /// parity where the slot mapping depends on it — a blob only restores
  /// into an engine re-timed to the same parity, which restore_state
  /// guarantees by calling set_time() first — and the geometry hash when
  /// sparse, since the compressed-element order depends on the flag field.
  [[nodiscard]] std::string raw_state_tag() const override {
    const Box& b = this->geo_.box;
    std::string tag = std::string(pattern_name()) + addr_.phase_tag(phase()) +
                      std::to_string(b.nx) + "x" + std::to_string(b.ny) + "x" +
                      std::to_string(b.nz);
    if (layout_.sparse) tag += "|sparse:" + std::to_string(this->geo_.hash());
    return tag;
  }
  void serialize_raw_state(std::vector<real_t>& out) const override {
    const auto& f = f_[cur_];
    out.reserve(out.size() + f.size() + rim_.size());
    for (std::size_t i = 0; i < f.size(); ++i) {
      out.push_back(static_cast<real_t>(f.raw(static_cast<index_t>(i))));
    }
    for (std::size_t i = 0; i < rim_.size(); ++i) {
      out.push_back(rim_.raw(static_cast<index_t>(i)));
    }
  }
  void restore_raw_state(const std::vector<real_t>& in) override {
    auto& f = f_[cur_];
    if (in.size() != f.size() + rim_.size()) {
      throw ConfigError(std::string(pattern_name()) +
                        ": raw snapshot does not match state size");
    }
    for (std::size_t i = 0; i < f.size(); ++i) {
      f.raw(static_cast<index_t>(i)) = static_cast<ST>(in[i]);
    }
    for (std::size_t i = 0; i < rim_.size(); ++i) {
      rim_.raw(static_cast<index_t>(i)) = in[f.size() + i];
    }
  }

 protected:
  /// `threads_per_block` is the 1D block size of the stream-collide kernel;
  /// `exec` selects the dense walk's panel width, and with it only the
  /// collision arithmetic (bit-identical results, identical traffic; see
  /// core/lanes.hpp).
  DistEngine(Geometry geo, real_t tau, CollisionScheme scheme,
             int threads_per_block, ExecMode exec, A addressing);

  void do_step() override { schedule(0, 0, nullptr); }
  void do_step_split(const FrontierSpec& fs,
                     const typename Engine<L>::FrontierDoneFn& on_frontier)
      override;

  [[nodiscard]] const A& addressing() const { return addr_; }

 private:
  using View = LatticeView<L, ST>;

  [[nodiscard]] int phase() const { return this->t_ % A::kPhases; }
  [[nodiscard]] View view(int ph);

  void build_rim_index();
  void ensure_records();
  /// One step over frontier planes [0, fl) and [nx - fr, nx) first (then
  /// `on_frontier`), the rest after; fl = fr = 0 runs the whole step.
  void schedule(int fl, int fr,
                const typename Engine<L>::FrontierDoneFn& on_frontier);
  void step_sparse(int ph, int fl, int fr,
                   const typename Engine<L>::FrontierDoneFn& on_frontier);
  /// One launch over planes [rx0, rx1); the full range degenerates to the
  /// flat cell index.
  void run_range(int ph, int rx0, int rx1, gpusim::KernelRecord& rec);
  /// One launch over tile-list entries [begin, begin + count) of the fluid
  /// or the (occupancy-masked) mixed list.
  void run_tiles(int ph, bool mixed, int begin, int count,
                 gpusim::KernelRecord& rec);
  /// One launch over planes [rx0, rx1), a block per threads_per_block_
  /// threads: calls run(xa, fa, fb, xb, y, z) per x-run (DenseRange::runs),
  /// with an empty interior body whenever the launch needs per-access facts.
  template <class Run>
  void dense_launch(int rx0, int rx1, gpusim::KernelRecord& rec, Run&& run);
  /// The dense walk of flavour F in panels of W nodes (1: scalar execution,
  /// kLaneWidth: lane-batched): boundary heads and tails on the
  /// instrumented path, all-interior runs on the fast path.
  template <class F, int W>
  void range(const View& v, int rx0, int rx1, gpusim::KernelRecord& rec);
  /// Nodes [x0, x1) of one row through links `links` and accessor `io`;
  /// `scheme` is compile-time (interior runs) or runtime (boundary nodes).
  template <class F, int W, class Links, class Io, class Sc>
  void sweep(const View& v, const Links& links, Io& io, index_t row, int x0,
             int x1, Sc scheme, real_t tau);
  template <class F>
  void tiles(const View& v, bool mixed, int begin, int count,
             gpusim::KernelRecord& rec);

  CollisionScheme scheme_;
  int threads_per_block_;
  ExecMode exec_;
  A addr_;
  gpusim::Profiler prof_;
  /// Lattices: ST ping-pongs between both (f_[cur_] is current); in-place
  /// patterns allocate f_[0] only.
  gpusim::GlobalArray<ST> f_[2];
  int cur_ = 0;
  /// EP boundary rim: [value, density] per blocked link, real_t words
  /// holding already-narrowed values. Empty for the other policies and on
  /// wall-free periodic domains.
  gpusim::GlobalArray<real_t> rim_;
  RimIndex rim_index_;
  Layout<L> layout_;
  TileIndexDev tdev_;
  /// Cached records per phase: whole-step and frontier launches over the
  /// plane range (dense) or the fluid tile list, then the mixed-tile pair.
  gpusim::KernelRecord* rec_[A::kPhases][4] = {};
};

extern template class DistEngine<D2Q9, double, StAddressing>;
extern template class DistEngine<D3Q19, double, StAddressing>;
extern template class DistEngine<D3Q27, double, StAddressing>;
extern template class DistEngine<D3Q15, double, StAddressing>;
extern template class DistEngine<D2Q9, float, StAddressing>;
extern template class DistEngine<D3Q19, float, StAddressing>;
extern template class DistEngine<D3Q27, float, StAddressing>;
extern template class DistEngine<D3Q15, float, StAddressing>;
extern template class DistEngine<D2Q9, double, AaAddressing>;
extern template class DistEngine<D3Q19, double, AaAddressing>;
extern template class DistEngine<D3Q27, double, AaAddressing>;
extern template class DistEngine<D3Q15, double, AaAddressing>;
extern template class DistEngine<D2Q9, float, AaAddressing>;
extern template class DistEngine<D3Q19, float, AaAddressing>;
extern template class DistEngine<D3Q27, float, AaAddressing>;
extern template class DistEngine<D3Q15, float, AaAddressing>;
extern template class DistEngine<D2Q9, double, EpAddressing>;
extern template class DistEngine<D3Q19, double, EpAddressing>;
extern template class DistEngine<D3Q27, double, EpAddressing>;
extern template class DistEngine<D3Q15, double, EpAddressing>;
extern template class DistEngine<D2Q9, float, EpAddressing>;
extern template class DistEngine<D3Q19, float, EpAddressing>;
extern template class DistEngine<D3Q27, float, EpAddressing>;
extern template class DistEngine<D3Q15, float, EpAddressing>;

}  // namespace mlbm
