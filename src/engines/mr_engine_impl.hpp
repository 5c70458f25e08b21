// Member definitions of the moment-representation engine (mr_engine.hpp).
//
// Included only by the per-lattice instantiation TUs
// (mr_engine_<lattice>.cpp), so each lattice's two storage precisions
// compile — and are inlined — on their own.
#pragma once

#include <algorithm>
#include <cassert>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "engines/mr_engine.hpp"

#include "core/collision.hpp"
#include "core/lanes.hpp"
#include "engines/streaming.hpp"
#include "gpusim/launch.hpp"
#include "util/error.hpp"

namespace mlbm {

namespace detail {

/// Velocity component along the sweep axis (y in 2D, z in 3D).
template <class L>
constexpr int c_sweep(int i) {
  return L::c[static_cast<std::size_t>(i)][L::D == 2 ? 1 : 2];
}

}  // namespace detail

template <class L, class ST>
MrEngine<L, ST>::MrEngine(Geometry geo, real_t tau, Regularization scheme,
                          MrConfig config, ExecMode exec)
    : Engine<L>(std::move(geo), tau),
      scheme_(scheme),
      config_(config),
      exec_(exec) {
  if (config_.tile_x < 1 || config_.tile_y < 1 || config_.tile_s < 1) {
    throw ConfigError("MrEngine: tile extents must be positive");
  }
  const Box& b = this->geo_.box;
  if constexpr (L::D == 2) {
    if (b.nz != 1) throw ConfigError("MrEngine<2D>: nz must be 1");
  }
  const auto ncx0 = static_cast<std::size_t>(b.nx);
  const auto ncx1 = static_cast<std::size_t>(L::D == 2 ? 1 : b.ny);
  sparse_ = this->geo_.sparse();
  if (sparse_) {
    // Column compression: a cross-section column whose every sweep layer is
    // solid allocates no moment storage. Ids are assigned in row-major cross
    // order, so an all-fluid (forced-sparse) geometry gets the identity map
    // and the dense addressing bit-for-bit.
    const int S = sweep_extent();
    colmap_.allocate(ncx0 * ncx1, &prof_.counter());
    index_t next = 0;
    for (std::size_t c1 = 0; c1 < ncx1; ++c1) {
      for (std::size_t c0 = 0; c0 < ncx0; ++c0) {
        bool any_fluid = false;
        for (int s = 0; s < S && !any_fluid; ++s) {
          const int x = static_cast<int>(c0);
          const int y = L::D == 2 ? s : static_cast<int>(c1);
          const int z = L::D == 2 ? 0 : s;
          any_fluid = !this->geo_.solid(x, y, z);
        }
        colmap_.raw(static_cast<index_t>(c1 * ncx0 + c0)) =
            any_fluid ? static_cast<std::int32_t>(next++)
                      : std::int32_t{-1};
      }
    }
    ncols_ = next;
  } else {
    ncols_ = static_cast<index_t>(ncx0 * ncx1);
  }
  const std::size_t n = static_cast<std::size_t>(M) *
                        static_cast<std::size_t>(ncols_) *
                        static_cast<std::size_t>(layers());
  mom_[0].allocate(n, &prof_.counter());
  if (config_.storage == MomentStorage::kPingPong) {
    mom_[1].allocate(n, &prof_.counter());
  }
}

template <class L, class ST>
int MrEngine<L, ST>::sweep_extent() const {
  return L::D == 2 ? this->geo_.box.ny : this->geo_.box.nz;
}

template <class L, class ST>
int MrEngine<L, ST>::layers() const {
  return config_.storage == MomentStorage::kPingPong ? sweep_extent()
                                                     : sweep_extent() + 2;
}

template <class L, class ST>
int MrEngine<L, ST>::phys_layer(int s, long long t) const {
  if (config_.storage == MomentStorage::kPingPong) return s;
  const long long r = layers();
  const long long p = (static_cast<long long>(s) - 2 * t) % r;
  return static_cast<int>(p < 0 ? p + r : p);
}

template <class L, class ST>
template <class Fn>
void MrEngine<L, ST>::host_walk(const NodeRange& r, Fn&& fn) const {
  const bool solids = this->geo_.has_solids();
  const index_t nx = this->geo_.box.nx;
  for (int z = r.z0; z < r.z1; ++z) {
    for (int y = r.y0; y < r.y1; ++y) {
      const int sp = phys_layer(L::D == 2 ? y : z, this->t_);
      const index_t row = static_cast<index_t>(L::D == 2 ? 0 : y) * nx;
      for (int x = r.x0; x < r.x1; ++x) {
        const bool solid = solids && this->geo_.solid(x, y, z);
        fn(solid     ? index_t{-1}
           : sparse_ ? index_t{std::as_const(colmap_).raw(row + x)}
                     : row + x,
           sp);
      }
    }
  }
}

template <class L, class ST>
void MrEngine<L, ST>::read_moments(const NodeRange& r,
                                   std::span<Moments<L>> out) const {
  this->check_range(r, out.size());
  const MomentIndex at = moment_index();
  const auto& mom = mom_[cur_];
  Moments<L>* m = out.data();
  host_walk(r, [&](index_t col, int sp) {
    if (col < 0) {
      *m++ = solid_moments<L>();
      return;
    }
    const auto get = [&](int k) {
      return static_cast<real_t>(mom.raw(at(k, col, sp)));
    };
    m->rho = get(0);
    for (int a = 0; a < L::D; ++a) {
      m->u[static_cast<std::size_t>(a)] = get(1 + a);
    }
    for (int p = 0; p < NP; ++p) {
      m->pi[static_cast<std::size_t>(p)] = get(1 + L::D + p);
    }
    ++m;
  });
}

template <class L, class ST>
void MrEngine<L, ST>::write_moments(const NodeRange& r,
                                    std::span<const Moments<L>> in) {
  this->check_range(r, in.size());
  const MomentIndex at = moment_index();
  auto& mom = mom_[cur_];
  const Moments<L>* m = in.data();
  host_walk(r, [&](index_t col, int sp) {
    const Moments<L>& mn = *m++;
    if (col < 0) return;
    const auto put = [&](int k, real_t v) {
      mom.raw(at(k, col, sp)) = static_cast<ST>(v);
    };
    put(0, mn.rho);
    for (int a = 0; a < L::D; ++a) {
      put(1 + a, mn.u[static_cast<std::size_t>(a)]);
    }
    for (int p = 0; p < NP; ++p) {
      put(1 + L::D + p, mn.pi[static_cast<std::size_t>(p)]);
    }
  });
}

template <class L, class ST>
std::size_t MrEngine<L, ST>::state_bytes() const {
  // kPingPong: two full moment lattices. kCircularShift: only mom_[0]
  // exists, sized S+2 sweep layers (M per node plus two layers — the
  // paper's footprint claim); the never-allocated mom_[1] is not touched.
  std::size_t n = mom_[0].size_bytes();
  if (mom_[1].allocated()) n += mom_[1].size_bytes();
  if (sparse_) n += colmap_.size_bytes();
  return n;
}

template <class L, class ST>
int MrEngine<L, ST>::threads_per_block() const {
  if constexpr (L::D == 2) {
    return (config_.tile_x + 2) * config_.tile_s;
  } else {
    return (config_.tile_x + 2) * (config_.tile_y + 2) * config_.tile_s;
  }
}

template <class L, class ST>
std::size_t MrEngine<L, ST>::shared_bytes_per_block() const {
  const std::size_t cross =
      static_cast<std::size_t>(config_.tile_x) *
      static_cast<std::size_t>(L::D == 2 ? 1 : config_.tile_y);
  return cross * static_cast<std::size_t>(config_.tile_s + 2) *
         static_cast<std::size_t>(L::Q) * sizeof(real_t);
}

template <class L, class ST>
void MrEngine<L, ST>::ensure_records() {
  if (krec_ == nullptr) {
    const std::string base =
        std::string(scheme_ == Regularization::kProjective ? "mr_p_"
                                                           : "mr_r_") +
        L::name();
    krec_ = &prof_.record(base);
    krec_->contract = "mr.sweep";
  }
}

// Registered separately from ensure_records() so engines that never take a
// split step keep a single kernel record (the profiler reports registered
// kernels even before their first launch).
template <class L, class ST>
void MrEngine<L, ST>::ensure_frontier_record() {
  if (krec_frontier_ == nullptr) {
    krec_frontier_ = &prof_.record(std::string(krec_->name) + "_frontier");
    krec_frontier_->contract = "mr.sweep";
  }
}

template <class L, class ST>
void MrEngine<L, ST>::do_step() {
  do_step_split(FrontierSpec{}, {});
}

template <class L, class ST>
void MrEngine<L, ST>::do_step_split(
    const FrontierSpec& fs,
    const typename Engine<L>::FrontierDoneFn& on_frontier) {
  ensure_records();
  const bool ping_pong = config_.storage == MomentStorage::kPingPong;
  const int ncx0 = this->geo_.box.nx;
  const int tx = std::min(config_.tile_x, ncx0);
  const int nc0 = (ncx0 + tx - 1) / tx;
  // Finalizing planes [0, left) needs every tile that owns one of them:
  // phase B writes a node's moments only from its own column, so whole
  // tiles are the split granule. No ext — columns read the ping-pong read
  // side only, which this step never writes.
  const int lt = fs.left > 0 ? (fs.left + tx - 1) / tx : 0;
  const int rt = fs.right > 0 ? (fs.right + tx - 1) / tx : 0;
  if (!ping_pong || fs.empty() || lt + rt >= nc0) {
    step_tiles(0, nc0, *krec_);
    if (on_frontier) on_frontier();
  } else {
    ensure_frontier_record();
    gpusim::LaunchGroup group(prof_);
    if (lt > 0) step_tiles(0, lt, *krec_frontier_);
    if (rt > 0) step_tiles(nc0 - rt, rt, *krec_frontier_);
    if (on_frontier) on_frontier();
    step_tiles(lt, nc0 - lt - rt, *krec_);
  }
  if (ping_pong) cur_ = 1 - cur_;
}

template <class L, class ST>
void MrEngine<L, ST>::step_tiles(int c0_begin, int c0_count,
                                 gpusim::KernelRecord& rec) {
  using detail::c_sweep;
  const Box& b = this->geo_.box;
  const Geometry& geo = this->geo_;
  const real_t tau = this->tau_;
  const real_t inv_cs2 = real_t(1) / L::cs2;
  const real_t relax = real_t(1) - real_t(1) / tau;
  const long long tt = this->t_;
  const Regularization scheme = scheme_;
  const bool ping_pong = config_.storage == MomentStorage::kPingPong;

  const int ncx0 = b.nx;
  const int ncx1 = (L::D == 2) ? 1 : b.ny;
  const int S = sweep_extent();
  const int tx = std::min(config_.tile_x, ncx0);
  const int ty = (L::D == 2) ? 1 : std::min(config_.tile_y, ncx1);
  const int ts = std::min(config_.tile_s, S);
  const int nc1 = (ncx1 + ty - 1) / ty;
  const int ntiles = (S + ts - 1) / ts;
  const int ring_w = ts + 2;

  const bool sweep_periodic = geo.bc.periodic(kSweepAxis);
  const bool cx0_periodic = geo.bc.periodic(0);
  const bool cx1_periodic = (L::D == 3) && geo.bc.periodic(1);
  if (sweep_periodic && S < ts + 3) {
    throw ConfigError(
        "MrEngine: periodic sweep axis requires extent >= tile_s + 3");
  }
  const bool sparse = sparse_;
  const bool solids = geo.has_solids();
  const gpusim::GlobalArray<std::int32_t>& colmap = colmap_;
  // Link i, by the streaming rule every engine shares, of the in-domain
  // node at cross position (cx0, cx1) on sweep layer s.
  const auto resolve = [&](int cx0, int cx1, int s, int i) {
    return resolve_stream<L>(geo, cx0, L::D == 2 ? s : cx1, L::D == 2 ? 0 : s,
                             i);
  };
  const auto face_is = [&](int axis, int side, FaceBC type) {
    return geo.bc.face[static_cast<std::size_t>(axis)]
                      [static_cast<std::size_t>(side)].type == type;
  };
  // True iff every link of that node is interior — no solids, and the node
  // sits one cell inside every face that does not wrap (|c| <= 1) — so
  // resolve_stream would return kInterior for each and need not run.
  const auto inside = [&](int axis, int v, int n) {
    return (v > 0 || face_is(axis, 0, FaceBC::kPeriodic)) &&
           (v < n - 1 || face_is(axis, 1, FaceBC::kPeriodic));
  };
  const auto all_interior = [&](int cx0, int cx1, int s) {
    return !solids && inside(0, cx0, ncx0) &&
           (L::D == 2 || inside(1, cx1, ncx1)) && inside(kSweepAxis, s, S);
  };

  const gpusim::GlobalArray<ST>& rbuf = mom_[ping_pong ? cur_ : 0];
  gpusim::GlobalArray<ST>& wbuf = mom_[ping_pong ? 1 - cur_ : 0];

  // Sanitizer plumbing. The phase bodies are generic lambdas over a
  // bool_constant `sanc`, dispatched once at the launch site — the
  // un-instrumented instantiation contains no shared-access reporting at
  // all (`if constexpr`), so attaching the hook costs the null path
  // nothing. The kernel reports its shared-ring accesses itself because
  // the ring is a raw span (the conceptual GPU thread ids are the kernel's
  // to define: phase A's source-halo threads and phase B's per-node writer
  // threads get disjoint id ranges).
  gpusim::SanitizerHook* const sanh = prof_.sanitizer_hook();
  constexpr int kPhaseBTid = 1 << 20;
  auto note_shared = [&](gpusim::BlockCtx& blk, const real_t* addr, int tid,
                         bool write) {
    sanh->shared_access(blk.linear_block(), addr, tid, write, blk.epoch());
  };

  // Seeded-mutation offsets (sanitizer kill-rate tests): a broken ring shift
  // or shortened write-behind distance is one slot offset on the circular
  // write layer. 0 in normal operation.
  const int wmut = ping_pong ? 0
                             : (2 - mutation_.write_behind) +
                                   mutation_.ring_shift_bias;
  const bool skip_phase_sync = mutation_.skip_phase_sync;
  const bool shrink_halo = mutation_.shrink_cross_halo;
  // Counted moment I/O of one node: its M moments leave and arrive as one
  // span transaction at the moment stride. `ncols` is the full cross-section
  // when dense, so the dense addresses are the flat ones.
  const MomentIndex at = moment_index();
  const auto load_node = [&](index_t col, int sp,
                             real_t (&mom)[M]) MLBM_ALWAYS_INLINE {
    rbuf.template load_span_as<real_t>(at(0, col, sp), at.stride(), M, mom);
  };
  const auto store_node = [&](index_t col, int sp,
                              const real_t (&mom)[M]) MLBM_ALWAYS_INLINE {
    wbuf.template store_span_as<real_t>(at(0, col, sp), at.stride(), M, mom);
  };

  struct ColState {
    int x0, x1, y0, y1;  // cross-section ranges of the column
    // Per-column invariants, hoisted out of the per-call addressing helpers:
    // cross-section extents, node count and the ring's per-slot element
    // stride depend only on the column, not on the node being addressed.
    int cax = 0;                  // x1 - x0
    int cay = 0;                  // y1 - y0
    std::size_t cross = 0;        // cax * cay
    std::size_t slot_stride = 0;  // cross * Q
    std::span<real_t> ring;
    std::span<real_t> stash_lo;  // populations streamed to layer -1 == S-1
    std::span<real_t> stash_hi;  // populations streamed to layer S == 0
    std::span<real_t> snap0;     // layer-0 ring snapshot (periodic sweep)
    int next_write = 0;          // first layer not yet written back
    // Sparse only: column ids of the tile's cross section plus halo, loaded
    // (counted) from the column map once per step; -1 for all-solid columns
    // and positions beyond a non-periodic face.
    std::vector<std::int32_t> cmap;
  };

  // Domain coordinate of halo coordinate h along a cross axis of extent n:
  // h itself, wrapped across a periodic face, or -1 beyond any other face
  // (no node there).
  const auto halo_wrap = [](int h, int n, bool periodic) {
    if (h >= 0 && h < n) return h;
    return periodic ? Box::wrap(h, n) : -1;
  };
  // Moment column id of the node at halo position (hx, hy), wrapped
  // (px, py), on layer s; -1 for a solid node or an unallocated column.
  // Sparse ids come from the block's stash, valid for hx in [x0-1, x1] and
  // (3D) hy in [y0-1, y1].
  auto col_at = [&](ColState& st, int hx, int hy, int px, int py,
                    int s) -> index_t {
    if (!sparse) return static_cast<index_t>(py) * ncx0 + px;
    const int row = (L::D == 3) ? hy - (st.y0 - 1) : 0;
    const std::int32_t cm =
        st.cmap[static_cast<std::size_t>(row) *
                    static_cast<std::size_t>(st.cax + 2) +
                static_cast<std::size_t>(hx - st.x0 + 1)];
    if (cm < 0) return -1;
    if (solids && geo.solid(px, L::D == 2 ? s : py, L::D == 2 ? 0 : s)) {
      return -1;
    }
    return cm;
  };

  auto make_state = [&](gpusim::BlockCtx& blk) {
    ColState st;
    // Tile-range launches (frontier split) offset the block's x-tile index;
    // the full range (c0_begin 0) is the monolithic grid.
    st.x0 = (blk.block_idx().x + c0_begin) * tx;
    st.x1 = std::min(ncx0, st.x0 + tx);
    st.y0 = blk.block_idx().y * ty;
    st.y1 = std::min(ncx1, st.y0 + ty);
    st.cax = st.x1 - st.x0;
    st.cay = st.y1 - st.y0;
    st.cross = static_cast<std::size_t>(st.cax) *
               static_cast<std::size_t>(st.cay);
    st.slot_stride = st.cross * static_cast<std::size_t>(L::Q);
    st.ring = blk.alloc_shared<real_t>(static_cast<std::size_t>(ring_w) *
                                       st.cross * L::Q);
    if (sweep_periodic) {
      st.stash_lo = blk.alloc_shared<real_t>(st.cross * L::Q);
      st.stash_hi = blk.alloc_shared<real_t>(st.cross * L::Q);
      st.snap0 = blk.alloc_shared<real_t>(st.cross * L::Q);
    }
    if (sparse) {
      // Load the tile's (cross + halo) column-map entries once per step —
      // the MR analogue of the ST/AA neighbour-slot stash, and like it part
      // of the measured byte budget.
      const int w = st.cax + 2;
      const int hy_lo = (L::D == 3) ? st.y0 - 1 : 0;
      const int hy_hi = (L::D == 3) ? st.y1 : 0;
      st.cmap.assign(
          static_cast<std::size_t>(w) *
              static_cast<std::size_t>(hy_hi - hy_lo + 1),
          -1);
      for (int hy = hy_lo; hy <= hy_hi; ++hy) {
        const int py = halo_wrap(hy, ncx1, cx1_periodic);
        if (py < 0) continue;
        for (int hx = st.x0 - 1; hx <= st.x1; ++hx) {
          const int px = halo_wrap(hx, ncx0, cx0_periodic);
          if (px < 0) continue;
          st.cmap[static_cast<std::size_t>(hy - hy_lo) *
                      static_cast<std::size_t>(w) +
                  static_cast<std::size_t>(hx - st.x0 + 1)] =
              colmap.load(static_cast<index_t>(py) * ncx0 + px);
        }
      }
    }
    return st;
  };

  // Ring addressing: slot (s+1) mod (tile_s + 2) holds layer s while the
  // sliding window covers it. The hot phase-A/phase-B loops below hoist the
  // modulo and the node arithmetic out of the per-population loop.
  auto slot_base = [&](ColState& st, int s) -> std::size_t {
    return static_cast<std::size_t>((s + 1) % ring_w) * st.slot_stride;
  };
  // The shared word phase B reads population i of layer s from, at element
  // e = node * Q + i: the ring slot at `base`, or — on a periodic sweep
  // axis — the stash holding an edge layer's wrap-crossing populations.
  auto landing = [&](ColState& st, int s, std::size_t base, int i,
                     std::size_t e) -> real_t* {
    if (sweep_periodic && s == 0 && c_sweep<L>(i) > 0) return &st.stash_hi[e];
    if (sweep_periodic && s == S - 1 && c_sweep<L>(i) < 0) {
      return &st.stash_lo[e];
    }
    return &st.ring[base + e];
  };

  // Streams the Q reconstructed populations `fv` of one phase-A source node
  // into the shared ring (Algorithm 2, lines 29-33). (hx, hy) is the
  // source's position relative to the column (halo sources lie outside
  // it), (px, py) the same node wrapped into the domain; links resolve from
  // the wrapped node, destinations are tested against the column with the
  // unwrapped one.
  auto scatter_source = [&](auto sanc, gpusim::BlockCtx& blk, ColState& st,
                            const std::size_t (&dst_base)[3], int s, int hx,
                            int hy, int px, int py, long long cross_src,
                            int tid_a, real_t rho,
                            const real_t (&fv)[L::Q]) MLBM_ALWAYS_INLINE {
    constexpr bool kSan = decltype(sanc)::value;
    const bool own_src = hx >= st.x0 && hx < st.x1 && hy >= st.y0 && hy < st.y1;
    const bool interior = all_interior(px, py, s);
    for (int i = 0; i < L::Q; ++i) {
      const real_t f = fv[i];
      const StreamTarget t = interior ? StreamTarget{} : resolve(px, py, s, i);
      if (t.kind == StreamTarget::Kind::kDropped) continue;
      if (t.kind == StreamTarget::Kind::kBounce) {
        // Half-way bounceback (wall face or solid node): the population
        // returns to its source node; halo sources belong to the
        // neighbouring column.
        if (own_src) {
          const int j = L::opposite(i);
          const std::size_t e =
              static_cast<std::size_t>(cross_src) * L::Q +
              static_cast<std::size_t>(j);
          // On a periodic sweep axis, phase B reads the edge layers'
          // wrap-crossing populations from the stashes, not the ring
          // (those ring words are recycled before the final flush). A
          // bounce off a solid node across the wrap — or off a cross-axis
          // wall corner — produces exactly such a population: its only
          // other producer would be the node beyond the wrap, which is the
          // very solid/absent node the bounce stands in for.
          real_t* const dst = landing(st, s, dst_base[1], j, e);
          *dst = f - real_t(2) * L::w[static_cast<std::size_t>(i)] * rho *
                         t.cu_wall * inv_cs2;
          if constexpr (kSan) note_shared(blk, dst, tid_a, true);
        }
        continue;
      }
      // Interior stream: only destinations inside this column are ours;
      // populations crossing into other columns are produced by those
      // columns' halo threads.
      const auto& c = L::c[static_cast<std::size_t>(i)];
      const int ld0 = hx + c[0];
      const int ld1 = (L::D == 3) ? hy + c[1] : 0;
      const int lds = s + c_sweep<L>(i);
      if (ld0 < st.x0 || ld0 >= st.x1 || ld1 < st.y0 || ld1 >= st.y1) {
        continue;
      }
      const std::size_t cross_dst = static_cast<std::size_t>(
          cross_src + ((L::D == 3) ? c[1] * st.cax : 0) + c[0]);
      const std::size_t elem = cross_dst * L::Q + static_cast<std::size_t>(i);
      real_t* dst;
      if (lds >= 0 && lds < S) {
        dst = &st.ring[dst_base[c_sweep<L>(i) + 1] + elem];
      } else if (lds == -1) {
        dst = &st.stash_lo[elem];  // wraps to S-1
      } else {
        assert(lds == S);
        dst = &st.stash_hi[elem];  // wraps to 0
      }
      *dst = f;
      if constexpr (kSan) note_shared(blk, dst, tid_a, true);
    }
  };

  // A population whose source lies beyond an OPEN face has no producer:
  // the reverse link resolves to kDropped, so scatter_source drops it
  // instead of bouncing it, and there is no halo node to stream from — its
  // shared word stays unwritten and phase B would read it uninitialized (a
  // genuine hazard on real hardware; the host arena zero-fills, so writing
  // zeros here is bit-identical). Zero-fills layer `s`'s orphaned words in
  // the slot (or stash) phase B will read them from. Cold path: called only
  // for columns touching an open face; the filled words have no other
  // writer, so ordering against the rest of phase A is free.
  auto fill_open_holes = [&](auto sanc, gpusim::BlockCtx& blk, ColState& st,
                             int s) {
    constexpr bool kSan = decltype(sanc)::value;
    const bool face_layer = s == 0 || s == S - 1;
    std::size_t node = 0;
    for (int hy = st.y0; hy < st.y1; ++hy) {
      for (int hx = st.x0; hx < st.x1; ++hx, ++node) {
        // Only nodes on a face have a link that leaves the domain.
        if (!face_layer && hx > 0 && hx < ncx0 - 1 &&
            (L::D == 2 || (hy > 0 && hy < ncx1 - 1))) {
          continue;
        }
        for (int i = 0; i < L::Q; ++i) {
          if (resolve(hx, hy, s, L::opposite(i)).kind !=
              StreamTarget::Kind::kDropped) {
            continue;
          }
          const std::size_t e = node * L::Q + static_cast<std::size_t>(i);
          real_t* const dst = landing(st, s, slot_base(st, s), i, e);
          *dst = real_t(0);
          if constexpr (kSan) {
            note_shared(blk, dst, kPhaseBTid + static_cast<int>(node), true);
          }
        }
      }
    }
  };

  // ---- Phase A: read + collide + reconstruct + stream into shared memory.
  // Generic over the sanitizer flag, the regularization scheme and the
  // panel width W (1: scalar execution, kLaneWidth: lane-batched), each
  // hoisted to a template argument at the launch site. One source walk
  // serves both widths: each row's valid (possibly wrapped, fluid) sources
  // are compacted into panels of W nodes, which load their moments,
  // collide and reconstruct, then scatter node by node.
  auto phase_a = [&](auto sanc, auto regc, auto wc, gpusim::BlockCtx& blk,
                     ColState& st, int k) {
    constexpr Regularization kReg = decltype(regc)::value;
    constexpr int W = decltype(wc)::value;
    const int s_begin = k * ts;
    const int s_end = std::min(S, s_begin + ts);
    const int hy_lo = (L::D == 3) ? st.y0 - 1 : 0;
    const int hy_hi = (L::D == 3) ? st.y1 : 0;
    const int hx_lo = st.x0 - (shrink_halo ? 0 : 1);
    const int hx_hi = st.x1 - (shrink_halo ? 1 : 0);
    // Open-face adjacency of this column: only such columns can hold
    // orphaned words (sweep-axis holes exist only on the first and last
    // layer).
    const auto open = [&](int a, int side) {
      return face_is(a, side, FaceBC::kOpen);
    };
    const bool col_open =
        (st.x0 == 0 && open(0, 0)) || (st.x1 == ncx0 && open(0, 1)) ||
        (L::D == 3 && ((st.y0 == 0 && open(1, 0)) ||
                       (st.y1 == ncx1 && open(1, 1))));
    const bool sweep_open = open(kSweepAxis, 0) || open(kSweepAxis, 1);

    for (int s = s_begin; s < s_end; ++s) {
      const int sp = phys_layer(s, tt);
      // Ring bases of the three possible destination layers s-1, s, s+1
      // (indexed by c_sweep + 1) — one modulo per layer instead of one per
      // population.
      const std::size_t dst_base[3] = {slot_base(st, s - 1), slot_base(st, s),
                                       slot_base(st, s + 1)};
      if (col_open || (sweep_open && (s == 0 || s == S - 1))) {
        fill_open_holes(sanc, blk, st, s);
      }
      for (int hy = hy_lo; hy <= hy_hi; ++hy) {
        const int py = halo_wrap(hy, ncx1, cx1_periodic);
        if (py < 0) continue;
        int lane_hx[W];
        int lane_px[W];
        index_t lane_col[W];
        // Runs the first n (<= W) sources of the panel.
        const auto run_panel = [&](int n) MLBM_ALWAYS_INLINE {
          // Read each node's M moments from global memory (Algorithm 2,
          // lines 15-23), collide in moment space (Eq. 10), map to
          // distribution space (Eq. 11 / Eq. 14) on the panel's registers
          // and stream node by node into the shared ring.
          real_t mom[W][M];
          for (int ln = 0; ln < n; ++ln) load_node(lane_col[ln], sp, mom[ln]);
          in_lanes(mom, n, [&](auto& r) MLBM_ALWAYS_INLINE {
            using V = std::remove_reference_t<decltype(r[0])>;
            const V& rho = r[0];
            const V* u = &r[1];
            V pineq[NP];
            for (int p = 0; p < NP; ++p) {
              const auto [pa, pb] = Moments<L>::pair(p);
              pineq[p] = relax * (r[1 + L::D + p] - rho * u[pa] * u[pb]);
            }
            const Reconstructor<L, kReg, V> recon(rho, u, pineq);
            V fp[L::Q];
            for (int i = 0; i < L::Q; ++i) fp[i] = recon(i);
            for (int ln = 0; ln < n; ++ln) {
              const int hx = lane_hx[ln];
              // Conceptual GPU thread id of this phase-A source thread
              // (unique per (hx, hy, s) within the block); racecheck
              // attribution only.
              const int tid_a =
                  ((s - s_begin) * (hy_hi - hy_lo + 1) + (hy - hy_lo)) *
                      (st.cax + 2) +
                  (hx - st.x0 + 1);
              // Signed cross-section index of the source node; halo sources
              // sit outside [0, cross), but every use is offset to an
              // in-column destination first.
              const long long cross_src =
                  static_cast<long long>(hy - st.y0) * st.cax + (hx - st.x0);
              real_t fv[L::Q];
              for (int i = 0; i < L::Q; ++i) fv[i] = lane(fp[i], ln);
              scatter_source(sanc, blk, st, dst_base, s, hx, hy, lane_px[ln],
                             py, cross_src, tid_a, lane(rho, ln), fv);
            }
          });
        };
        int n = 0;
        for (int hx = hx_lo; hx <= hx_hi; ++hx) {
          const int px = halo_wrap(hx, ncx0, cx0_periodic);
          if (px < 0) continue;
          const index_t col = col_at(st, hx, hy, px, py, s);
          if (col < 0) continue;
          lane_hx[n] = hx;
          lane_px[n] = px;
          lane_col[n] = col;
          if (++n == W) {
            run_panel(W);
            n = 0;
          }
        }
        if (W > 1 && n > 0) run_panel(n);
      }
    }
  };

  // ---- Phase B: project completed layers back to moments and write them.
  // `get` is a template parameter of the generic lambda: each per-direction
  // getter instantiates its own write-back loop (no std::function on the
  // per-node path). Getters receive the flat cross-section node index (base
  // of the node's Q populations is node * Q) so the hot plain-ring case is
  // a contiguous copy. One write-back walk for every panel width W: the
  // layer's fluid nodes are compacted into panels (solid nodes were never
  // streamed into and have nothing to write back), gathered through the
  // getter, re-projected and stored node by node.
  auto write_layer_from = [&](auto wc, ColState& st, int s, auto&& get) {
    constexpr int W = decltype(wc)::value;
    int sp = phys_layer(s, tt + 1);
    // Seeded mutation: bias the circular write layer. Every biased slot
    // assignment leaves (at least) one logical plane per step either stale
    // or never written — exactly what the sanitizer's freshness shadow
    // proves the correct shift never does.
    if (wmut != 0) {
      const int r = static_cast<int>(at.layers);
      sp = (((sp + wmut) % r) + r) % r;
    }
    std::size_t lane_node[W];
    index_t lane_col[W];
    const auto run_panel = [&](int n) MLBM_ALWAYS_INLINE {
      real_t fp[W][L::Q];
      for (int ln = 0; ln < n; ++ln) {
        for (int i = 0; i < L::Q; ++i) fp[ln][i] = get(lane_node[ln], i);
      }
      in_lanes(fp, n, [&](auto& r) MLBM_ALWAYS_INLINE {
        const auto m = compute_moments<L>(r);
        for (int ln = 0; ln < n; ++ln) {
          real_t vals[M];
          vals[0] = lane(m.rho, ln);
          for (int a = 0; a < L::D; ++a) {
            vals[1 + a] = lane(m.u[static_cast<std::size_t>(a)], ln);
          }
          for (int p = 0; p < NP; ++p) {
            vals[1 + L::D + p] = lane(m.pi[static_cast<std::size_t>(p)], ln);
          }
          store_node(lane_col[ln], sp, vals);
        }
      });
    };
    int n = 0;
    std::size_t node = 0;
    for (int cy = st.y0; cy < st.y1; ++cy) {
      for (int cx = st.x0; cx < st.x1; ++cx, ++node) {
        const index_t col = col_at(st, cx, cy, cx, cy, s);
        if (col < 0) continue;
        lane_node[n] = node;
        lane_col[n] = col;
        if (++n == W) {
          run_panel(W);
          n = 0;
        }
      }
    }
    if (W > 1 && n > 0) run_panel(n);
  };

  auto phase_b = [&](auto sanc, auto wc, gpusim::BlockCtx& blk, ColState& st,
                     int k) {
    constexpr bool kSan = decltype(sanc)::value;
    // Phase-B threads are one-per-node write-back threads; give them a tid
    // range disjoint from phase A's source threads.
    auto note_b = [&](const real_t* addr, std::size_t node, bool write) {
      note_shared(blk, addr, kPhaseBTid + static_cast<int>(node), write);
    };
    // Layers complete after phase A of level k: all s <= (k+1) ts - 2 (their
    // last contribution streams down from source layer s+1). The final level
    // (k == ntiles) flushes the remainder, for which the top layer's missing
    // contribution came from bounceback (wall) or the level-0 stash
    // (periodic).
    const int limit =
        (k < ntiles) ? std::min((k + 1) * ts - 2, S - 2) : S - 1;
    for (; st.next_write <= limit; ++st.next_write) {
      const int s = st.next_write;
      if (sweep_periodic && s == 0) {
        // Layer 0 still lacks the upward-streaming populations from layer
        // S-1 (processed only at the last level); snapshot its ring slot
        // before the window recycles it and write it at the end.
        const std::size_t base = slot_base(st, 0);
        std::size_t node = 0;
        for (int cy = st.y0; cy < st.y1; ++cy) {
          for (int cx = st.x0; cx < st.x1; ++cx, ++node) {
            // Solid layer-0 node: its slot-0 words were never written and
            // the final flush skips it; nothing to snapshot.
            if (col_at(st, cx, cy, cx, cy, 0) < 0) continue;
            for (int i = 0; i < L::Q; ++i) {
              // Upward-streaming populations of layer 0 arrive from layer
              // S-1 via stash_hi, not the ring: their slot-0 words are never
              // written, and the final flush never reads their snap0 copies.
              // Skipping them avoids copying uninitialized shared words.
              if (c_sweep<L>(i) > 0) continue;
              const std::size_t e = node * L::Q + static_cast<std::size_t>(i);
              real_t& src = st.ring[base + e];
              real_t& dst = st.snap0[e];
              dst = src;
              if constexpr (kSan) {
                note_b(&src, node, false);
                note_b(&dst, node, true);
              }
            }
          }
        }
        continue;
      }
      if (sweep_periodic && s == S - 1) {
        const std::size_t base = slot_base(st, s);
        write_layer_from(wc, st, s, [&](std::size_t node, int i) {
          const std::size_t e = node * L::Q + static_cast<std::size_t>(i);
          const real_t* src =
              c_sweep<L>(i) < 0 ? &st.stash_lo[e] : &st.ring[base + e];
          if constexpr (kSan) note_b(src, node, false);
          return *src;
        });
        continue;
      }
      const std::size_t base = slot_base(st, s);
      write_layer_from(wc, st, s, [&](std::size_t node, int i) {
        const real_t* src =
            &st.ring[base + node * L::Q + static_cast<std::size_t>(i)];
        if constexpr (kSan) note_b(src, node, false);
        return *src;
      });
    }
    if (k == ntiles && sweep_periodic) {
      write_layer_from(wc, st, 0, [&](std::size_t node, int i) {
        const std::size_t e = node * L::Q + static_cast<std::size_t>(i);
        const real_t* src =
            c_sweep<L>(i) > 0 ? &st.stash_hi[e] : &st.snap0[e];
        if constexpr (kSan) note_b(src, node, false);
        return *src;
      });
    }
  };

  // Levels alternate phase A and phase B with a global barrier in between,
  // so a column's write-back can never overtake a neighbour's halo reads
  // (the circular-shift slot reuse analysis in the header relies on this).
  const gpusim::Dim3 grid{c0_count, nc1, 1};
  const gpusim::Dim3 block =
      (L::D == 2) ? gpusim::Dim3{tx + 2, ts, 1}
                  : gpusim::Dim3{tx + 2, ty + 2, ts};

  auto run = [&](auto sanc, auto regc, auto wc) {
    gpusim::launch_level_synced(
        prof_, rec, grid, block, 2 * (ntiles + 1), make_state,
        [&, sanc, regc, wc](gpusim::BlockCtx& blk, ColState& st, int level) {
          const int k = level / 2;
          if (level % 2 == 0) {
            if (k < ntiles) phase_a(sanc, regc, wc, blk, st, k);
            // Seeded mutation: run phase B inside phase A's barrier epoch
            // (models a deleted __syncthreads) — phase B's slot reads then
            // race phase A's same-epoch writes.
            if (skip_phase_sync) phase_b(sanc, wc, blk, st, k);
          } else if (!skip_phase_sync) {
            blk.sync();
            phase_b(sanc, wc, blk, st, k);
          }
        });
  };
  // Hoist the runtime flags (sanitizer presence, regularization scheme,
  // execution mode) to template arguments of the level body: zero per-node
  // branches on any of them.
  dispatch_regularization(scheme, [&](auto regc) {
    const auto with_width = [&](auto wc) {
      if (sanh != nullptr) {
        run(std::true_type{}, regc, wc);
      } else {
        run(std::false_type{}, regc, wc);
      }
    };
    if (exec_ == ExecMode::kLanes) {
      with_width(std::integral_constant<int, kLaneWidth>{});
    } else {
      with_width(std::integral_constant<int, 1>{});
    }
  });
}

}  // namespace mlbm
