// Member definitions of the distribution-engine chassis (dist_engine.hpp).
//
// Included only by the per-lattice instantiation TUs
// (dist_engine_<lattice>.cpp), so each lattice's six instantiations
// compile — and are inlined — on their own.
#pragma once

#include <algorithm>
#include <cassert>
#include <type_traits>

#include "engines/dist_engine.hpp"

#include "core/lanes.hpp"
#include "core/regularization.hpp"
#include "engines/streaming.hpp"
#include "gpusim/launch.hpp"

namespace mlbm {

/// One node of a stream-collide kernel: the flavour's gather, the collision,
/// the flavour's scatter — through link resolver `lk` and accessor `io`.
template <class F, CollisionScheme S, class L, class ST, class Lk, class Io>
[[gnu::always_inline]] inline void stream_collide(const LatticeView<L, ST>& v,
                                                  const Lk& lk, Io& io,
                                                  index_t cell, real_t tau) {
  real_t f[L::Q];
  const real_t aux = F::gather(v, lk, io, cell, f);
  collide<L, S>(f, tau);
  F::scatter(v, lk, io, cell, f, aux);
}

template <class L>
template <class Fn>
void DenseRange<L>::runs(index_t start, index_t end, Fn&& fn) const {
  int x = rx0 + static_cast<int>(start % nxr);
  const index_t row = start / nxr;
  int y = static_cast<int>(row % b.ny);
  int z = static_cast<int>(row / b.ny);
  for (index_t r = start; r < end;) {
    const int xb =
        x + static_cast<int>(std::min<index_t>(end - r, rx0 + nxr - x));
    // Interior nodes sit one cell inside every face a link crosses: no
    // wrap, no wall and no open face within one link (dense storage has no
    // solids).
    int fa = xb;
    int fb = xb;
    if (fast && y >= 1 && y < b.ny - 1 &&
        (L::D == 2 || (z >= 1 && z < b.nz - 1))) {
      const int lo = std::max(x, 1);
      const int hi = std::min(xb, b.nx - 1);
      if (lo < hi) {
        fa = lo;
        fb = hi;
      }
    }
    fn(x, fa, fb, xb, y, z);
    r += xb - x;
    x = rx0;
    if (++y == b.ny) {
      y = 0;
      ++z;
    }
  }
}

template <class L, class ST, class A>
DistEngine<L, ST, A>::DistEngine(Geometry geo, real_t tau,
                                 CollisionScheme scheme, int threads_per_block,
                                 ExecMode exec, A addressing)
    : Engine<L>(std::move(geo), tau),
      scheme_(scheme),
      threads_per_block_(threads_per_block),
      exec_(exec),
      addr_(addressing) {
  layout_.geo = &this->geo_;
  layout_.sparse = this->geo_.sparse();
  layout_.rim_index = &rim_index_;
  if (layout_.sparse) {
    const TileMap& tm = this->geo_.tiles();
    tdev_.build(tm, &prof_.counter());
    layout_.elems = tm.elements();
  } else {
    layout_.elems = this->geo_.box.cells();
  }
  const auto n =
      static_cast<std::size_t>(layout_.elems) * static_cast<std::size_t>(L::Q);
  for (int k = 0; k < A::kLattices; ++k) f_[k].allocate(n, &prof_.counter());
  if constexpr (A::kRim) build_rim_index();
}

template <class L, class ST, class A>
void DistEngine<L, ST, A>::build_rim_index() {
  // One [value, density] pair per blocked link, in deterministic node-major
  // direction-minor order (so raw snapshots are reproducible). The predicate
  // is exactly the branch the kernels take: resolve_stream not interior.
  const Box& b = this->geo_.box;
  const bool solids = this->geo_.has_solids();
  index_t links = 0;
  for (int z = 0; z < b.nz; ++z) {
    for (int y = 0; y < b.ny; ++y) {
      for (int x = 0; x < b.nx; ++x) {
        if (solids && this->geo_.solid(x, y, z)) continue;
        const index_t elem = layout_.element(x, y, z);
        if (elem < 0) continue;
        for (int i = 0; i < L::Q; ++i) {
          const StreamTarget t = resolve_stream<L>(this->geo_, x, y, z, i);
          if (t.kind == StreamTarget::Kind::kInterior) continue;
          rim_index_.emplace(static_cast<std::uint64_t>(elem) *
                                     static_cast<std::uint64_t>(L::Q) +
                                 static_cast<std::uint64_t>(i),
                             links++);
        }
      }
    }
  }
  rim_.allocate(static_cast<std::size_t>(links) * 2, &prof_.counter());
}

template <class L, class ST, class A>
void DistEngine<L, ST, A>::read_moments(const NodeRange& r,
                                        std::span<Moments<L>> out) const {
  this->check_range(r, out.size());
  const int ph = phase();
  const bool solids = this->geo_.has_solids();
  // Post-collision storage translates back to the pre-collision moment
  // convention shared by all engines: collision conserves rho and u, and
  // scaled the non-equilibrium second moment by (1 - 1/tau).
  const real_t factor = real_t(1) - real_t(1) / this->tau_;
  const bool unscale = addr_.post_collision(ph) && factor != real_t(0);
  Moments<L>* m = out.data();
  r.each([&](int x, int y, int z) {
    if (solids && this->geo_.solid(x, y, z)) {
      *m++ = solid_moments<L>();
      return;
    }
    const index_t cell = layout_.element(x, y, z);
    real_t f[L::Q];
#pragma GCC unroll 32
    for (int i = 0; i < L::Q; ++i) {
      const PopSlot s = addr_.locate(layout_, ph, x, y, z, cell, i);
      f[i] = s.rim ? rim_.raw(s.at) : static_cast<real_t>(f_[cur_].raw(s.at));
    }
    Moments<L> mn = compute_moments<L>(f);
    if (unscale) {
      for (int p = 0; p < Moments<L>::NP; ++p) {
        const auto [a, b] = Moments<L>::pair(p);
        const real_t eq = mn.rho * mn.u[static_cast<std::size_t>(a)] *
                          mn.u[static_cast<std::size_t>(b)];
        mn.pi[static_cast<std::size_t>(p)] =
            eq + (mn.pi[static_cast<std::size_t>(p)] - eq) / factor;
      }
    }
    *m++ = mn;
  });
}

template <class L, class ST, class A>
void DistEngine<L, ST, A>::write_moments(const NodeRange& r,
                                         std::span<const Moments<L>> in) {
  this->check_range(r, in.size());
  const int ph = phase();
  const bool post = addr_.post_collision(ph);
  const bool solids = this->geo_.has_solids();
  // Pre-collision storage takes the exact population with these moments;
  // post-collision storage takes the post-collision image, so the next step
  // streams exactly what the pre-collision engines stream.
  const real_t factor = real_t(1) - real_t(1) / this->tau_;
  const auto write = [&](auto recursive) {
    const Moments<L>* m = in.data();
    r.each([&](int x, int y, int z) {
      const Moments<L> mn = *m++;
      if (solids && this->geo_.solid(x, y, z)) return;
      real_t pineq[Moments<L>::NP];
      for (int p = 0; p < Moments<L>::NP; ++p) {
        pineq[p] = post ? factor * mn.pi_neq(p) : mn.pi_neq(p);
      }
      real_t f[L::Q];
#pragma GCC unroll 32
      for (int i = 0; i < L::Q; ++i) {
        if constexpr (decltype(recursive)::value) {
          f[i] = reconstruct_recursive<L>(i, mn.rho, mn.u.data(), pineq);
        } else {
          f[i] = reconstruct_projective<L>(i, mn.rho, mn.u.data(), pineq);
        }
      }
      const index_t cell = layout_.element(x, y, z);
      real_t rho_post = 0;
      bool have_rho = false;
#pragma GCC unroll 32
      for (int i = 0; i < L::Q; ++i) {
        const PopSlot s = addr_.locate(layout_, ph, x, y, z, cell, i);
        if (!s.rim) {
          f_[cur_].raw(s.at) = static_cast<ST>(f[i]);
          continue;
        }
        if (!have_rho) {
          // The narrowed density the moving-wall correction reads next step
          // — the sum ST's gather forms from the node's storage-narrowed
          // values.
          for (int k = 0; k < L::Q; ++k) {
            rho_post += static_cast<real_t>(static_cast<ST>(f[k]));
          }
          have_rho = true;
        }
        rim_.raw(s.at) = static_cast<real_t>(static_cast<ST>(f[i]));
        rim_.raw(s.at + 1) = rho_post;
      }
    });
  };
  if (post && scheme_ == CollisionScheme::kRecursive) {
    write(std::true_type{});
  } else {
    write(std::false_type{});
  }
}

template <class L, class ST, class A>
void DistEngine<L, ST, A>::ensure_records() {
  if (rec_[0][0] != nullptr) return;
  // Dense steps record whole and frontier launches separately so overlap
  // traffic stays attributable; sparse steps additionally split the fluid
  // and mixed tile classes (the bytes-vs-fluid-fraction claim is checked
  // from the profiler).
  static const char* const kDense[] = {"", "_frontier"};
  static const char* const kSparse[] = {"_fluid", "_fluid_frontier", "_mixed",
                                        "_mixed_frontier"};
  const bool sparse = layout_.sparse;
  for (int s = 0; s < (sparse ? 4 : 2); ++s) {
    for (int p = 0; p < A::kPhases; ++p) {
      gpusim::KernelRecord& r =
          prof_.record(addr_.template record_stem<L>(p, sparse) +
                       (sparse ? kSparse : kDense)[s]);
      r.contract = addr_.contract_tag(p);
      rec_[p][s] = &r;
    }
  }
}

template <class L, class ST, class A>
void DistEngine<L, ST, A>::do_step_split(
    const FrontierSpec& fs,
    const typename Engine<L>::FrontierDoneFn& on_frontier) {
  const int ext = addr_.frontier_ext(phase());
  int fl = fs.left > 0 ? fs.left + ext : 0;
  int fr = fs.right > 0 ? fs.right + ext : 0;
  // Degenerate split (slab thinner than the frontier): the whole step runs
  // as frontier — correct, just with nothing left to hide behind.
  if (fl + fr >= this->geo_.box.nx) fl = fr = 0;
  schedule(fl, fr, on_frontier);
}

template <class L, class ST, class A>
void DistEngine<L, ST, A>::schedule(
    int fl, int fr, const typename Engine<L>::FrontierDoneFn& on_frontier) {
  ensure_records();
  const int ph = phase();
  const int nx = this->geo_.box.nx;
  if (layout_.sparse) {
    step_sparse(ph, fl, fr, on_frontier);
  } else if (fl <= 0 && fr <= 0) {
    run_range(ph, 0, nx, *rec_[ph][0]);
    if (on_frontier) on_frontier();
  } else {
    // The launches form one logical step: group them so the sanitizer's
    // freshness window spans the whole step.
    gpusim::LaunchGroup group(prof_);
    if (fl > 0) run_range(ph, 0, fl, *rec_[ph][1]);
    if (fr > 0) run_range(ph, nx - fr, nx, *rec_[ph][1]);
    if (on_frontier) on_frontier();
    run_range(ph, fl, nx - fr, *rec_[ph][0]);
  }
  if constexpr (A::kLattices == 2) cur_ = 1 - cur_;
}

template <class L, class ST, class A>
void DistEngine<L, ST, A>::step_sparse(
    int ph, int fl, int fr,
    const typename Engine<L>::FrontierDoneFn& on_frontier) {
  gpusim::KernelRecord* const* rec = rec_[ph];
  // The fluid and mixed launches of one step share a freshness window.
  gpusim::LaunchGroup group(prof_);
  const TileGridInfo& g = tdev_.grid;
  const int nx = this->geo_.box.nx;
  const TileRange rf = partition_tiles(tdev_.fluid, tdev_.n_fluid_tiles, g.tdx,
                                       g.ntx, nx, fl, fr);
  const TileRange rm = partition_tiles(tdev_.mixed, tdev_.n_mixed_tiles, g.tdx,
                                       g.ntx, nx, fl, fr);
  if ((fl <= 0 && fr <= 0) || rf.degenerate() || rm.degenerate()) {
    // Whole step (or a slab thinner than a tile: everything is frontier).
    run_tiles(ph, false, 0, rf.n, *rec[0]);
    run_tiles(ph, true, 0, rm.n, *rec[2]);
    if (on_frontier) on_frontier();
    return;
  }
  // Pull writes only the owning tile, and in place every word's unique
  // writer is also its reader, so completing the frontier tiles finalizes
  // every frontier plane (the source extension is already in fl/fr; tiles
  // over-cover the planes).
  run_tiles(ph, false, 0, rf.left, *rec[1]);
  run_tiles(ph, false, rf.right, rf.n - rf.right, *rec[1]);
  run_tiles(ph, true, 0, rm.left, *rec[3]);
  run_tiles(ph, true, rm.right, rm.n - rm.right, *rec[3]);
  if (on_frontier) on_frontier();
  run_tiles(ph, false, rf.left, rf.right - rf.left, *rec[0]);
  run_tiles(ph, true, rm.left, rm.right - rm.left, *rec[2]);
}

template <class L, class ST, class A>
typename DistEngine<L, ST, A>::View DistEngine<L, ST, A>::view(int ph) {
  View v;
  static_cast<Layout<L>&>(v) = layout_;
  // In place, source and destination are the same lattice.
  v.src = &f_[cur_];
  v.dst = &f_[A::kLattices - 1 - cur_];
  v.rim = &rim_;
  v.even = ph == 0;
  return v;
}

template <class L, class ST, class A>
void DistEngine<L, ST, A>::run_range(int ph, int rx0, int rx1,
                                     gpusim::KernelRecord& rec) {
  const View v = view(ph);
  addr_.visit(ph, [&](auto flavour) {
    using F = decltype(flavour);
    if (exec_ == ExecMode::kLanes) {
      range<F, kLaneWidth>(v, rx0, rx1, rec);
    } else {
      range<F, 1>(v, rx0, rx1, rec);
    }
  });
}

template <class L, class ST, class A>
void DistEngine<L, ST, A>::run_tiles(int ph, bool mixed, int begin, int count,
                                     gpusim::KernelRecord& rec) {
  if (count <= 0) return;
  const View v = view(ph);
  addr_.visit(ph, [&](auto flavour) {
    tiles<decltype(flavour)>(v, mixed, begin, count, rec);
  });
}

template <class L, class ST, class A>
template <class Run>
void DistEngine<L, ST, A>::dense_launch(int rx0, int rx1,
                                        gpusim::KernelRecord& rec, Run&& run) {
  // Dense storage carries no solids: a solid makes Geometry::sparse(), and
  // an engine's geometry is fixed at construction. So the only links that
  // are not interior are those of nodes on a face.
  assert(!this->geo_.has_solids());
  // Exact per-access facts (sanitizer shadows, unique-read tracking) need
  // every access one by one.
  const bool fast = prof_.sanitizer_hook() == nullptr &&
                    !f_[0].per_access_hooks() && !f_[1].per_access_hooks() &&
                    !rim_.per_access_hooks();
  const Box& b = this->geo_.box;
  const auto nxr = static_cast<index_t>(rx1 - rx0);
  const DenseRange<L> dr{b, rx0, nxr, nxr * b.ny * b.nz, fast};
  const int tpb = threads_per_block_;
  const auto nblocks =
      static_cast<int>((dr.cells + tpb - 1) / static_cast<index_t>(tpb));
  gpusim::launch(
      prof_, rec, gpusim::Dim3{nblocks, 1, 1}, gpusim::Dim3{tpb, 1, 1},
      [&](gpusim::BlockCtx& blk) {
        const index_t start = static_cast<index_t>(blk.block_idx().x) * tpb;
        dr.runs(start, std::min(start + tpb, dr.cells), run);
      });
}

template <class L, class ST, class A>
template <class F, int W>
void DistEngine<L, ST, A>::range(const View& v, int rx0, int rx1,
                                 gpusim::KernelRecord& rec) {
  const Geometry& geo = this->geo_;
  const real_t tau = this->tau_;
  const CollisionScheme scheme = scheme_;
  const DenseNb nb{geo.box};
  index_t off[L::Q];
  addr::interior_offsets<L>(geo.box, off);
  gpusim::TrafficCounter& counter = prof_.counter();
  dense_launch(rx0, rx1, rec, [&](int xa, int fa, int fb, int xb, int y,
                                  int z) {
    const index_t row = geo.box.idx(0, y, z);
    // Boundary nodes dispatch the scheme per panel: one instantiation of the
    // resolver-heavy body instead of three, for a small share of the nodes.
    addr::CountedIo counted;
    const auto boundary = [&](int x) {
      return addr::BoundaryLinks<L, DenseNb>{geo, nb, x, y, z};
    };
    sweep<F, W>(v, boundary, counted, row, xa, fa, scheme, tau);
    if (fa < fb) {
      // Interior runs dispatch it once per run (collision.hpp: a node loop
      // carrying all three arms runs slower).
      addr::TallyIo tally;
      dispatch_collision(scheme, [&](auto sc) {
        sweep<F, W>(
            v, [&](int x) { return addr::InteriorLinks<L>{row + x, off}; },
            tally, row, fa, fb, sc, tau);
      });
      tally.flush(counter);
    }
    sweep<F, W>(v, boundary, counted, row, fb, xb, scheme, tau);
  });
}

template <class L, class ST, class A>
template <class F, int W, class Links, class Io, class Sc>
void DistEngine<L, ST, A>::sweep(const View& v, const Links& links, Io& io,
                                 index_t row, int x0, int x1, Sc scheme,
                                 real_t tau) {
  // Nodes [x0, x1) of one row in panels of W nodes. Gather and scatter stay
  // per node (W = 1: the plain per-node sequence; W > 1: panel-interleaved);
  // the collision runs once on the panel's registers (core/lanes.hpp),
  // whose type is the only thing W changes. For the in-place policies the
  // reordering is exact because every lattice word has a unique reader ==
  // writer node, so only each node's own gather-before-scatter order
  // matters, which the panel preserves.
  for (int p0 = x0; p0 < x1; p0 += W) {
    const int n = W == 1 ? 1 : std::min(W, x1 - p0);
    real_t f[W][L::Q];
    real_t aux[W];
    for (int ln = 0; ln < n; ++ln) {
      const int x = p0 + ln;
      aux[ln] = F::gather(v, links(x), io, row + x, f[ln]);
    }
    in_lanes(f, n, [&](auto& r) MLBM_ALWAYS_INLINE {
      if constexpr (std::is_enum_v<Sc>) {
        collide<L>(scheme, r, tau);
      } else {
        collide<L, Sc::value>(r, tau);
      }
    });
    for (int ln = 0; ln < n; ++ln) {
      const int x = p0 + ln;
      F::scatter(v, links(x), io, row + x, f[ln], aux[ln]);
    }
  }
}

template <class L, class ST, class A>
template <class F>
void DistEngine<L, ST, A>::tiles(const View& v, bool mixed, int begin,
                                 int count, gpusim::KernelRecord& rec) {
  const TileGridInfo g = tdev_.grid;
  const Geometry& geo = this->geo_;
  const bool is3d = geo.box.nz > 1;
  const real_t tau = this->tau_;
  const gpusim::GlobalArray<std::int32_t>& list =
      mixed ? tdev_.mixed : tdev_.fluid;
  const gpusim::GlobalArray<std::uint64_t>* masks =
      mixed ? &tdev_.mask : nullptr;
  const int tpb = threads_per_block_;
  const int nblocks = (count + tpb - 1) / tpb;
  // One thread per tile (the stand-in for a block owning a tile on a real
  // GPU): flavours that reach other tiles load the neighbour-slot stash
  // once, node-local ones only the tile's own slot; the 64 locals then
  // sweep with arithmetic addressing. Mixed tiles test the occupancy mask —
  // a register operation, no extra traffic — which also keeps solid locals
  // from running.
  dispatch_collision(scheme_, [&](auto sc) {
    gpusim::launch(
        prof_, rec, gpusim::Dim3{nblocks, 1, 1}, gpusim::Dim3{tpb, 1, 1},
        [&](gpusim::BlockCtx& blk) {
          blk.for_each_thread([&](const gpusim::Dim3& tid) {
            const index_t r =
                static_cast<index_t>(blk.block_idx().x) * tpb + tid.x;
            if (r >= static_cast<index_t>(count)) return;
            const std::int32_t tile =
                list.load(static_cast<index_t>(begin) + r);
            const std::uint64_t occ =
                masks != nullptr ? masks->load(static_cast<index_t>(begin) + r)
                                 : ~std::uint64_t{0};
            const int tx = tile % g.ntx;
            const int ty = (tile / g.ntx) % g.nty;
            const int tz = tile / (g.ntx * g.nty);
            std::int32_t stash[27] = {};
            std::int32_t own_slot = 0;
            if constexpr (F::kTileNeighbours) {
              load_tile_stash(tdev_.slots, g, tx, ty, tz, is3d, stash);
              own_slot = stash[13];
            } else {
              own_slot = tdev_.slots.load(tile);
            }
            const index_t own_base =
                static_cast<index_t>(own_slot) * TileMap::kSlots;
            const TileNb nb{stash, g, tx, ty, tz};
            addr::CountedIo counted;
            for (int local = 0; local < TileMap::kSlots; ++local) {
              if (!(occ >> local & 1ull)) continue;
              const int x = tx * g.tdx + local % g.tdx;
              const int y = ty * g.tdy + (local / g.tdx) % g.tdy;
              const int z = tz * g.tdz + local / (g.tdx * g.tdy);
              stream_collide<F, decltype(sc)::value>(
                  v, addr::BoundaryLinks<L, TileNb>{geo, nb, x, y, z}, counted,
                  own_base + local, tau);
            }
          });
        });
  });
}

}  // namespace mlbm
