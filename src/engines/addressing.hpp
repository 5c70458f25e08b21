// Addressing policies of the distribution-engine chassis (dist_engine.hpp).
//
// ST pull, ST push, AA and Esoteric Pull run one and the same stream-collide
// kernel: gather Q populations into registers, collide, scatter Q
// post-collision populations. They differ only in WHERE each population is
// read and written — Wittmann et al.'s framing of propagation steps — and
// that is all a policy here supplies:
//
//   * one or more per-node *flavours* (the kernel of one step parity): a
//     gather and a scatter index map, written as static functions that take
//     every operand as an explicit argument. GCC keeps such code in the flat
//     seed form once inlined; routing the same maps through a lambda that
//     captures by reference cost the ST loop about a third of its throughput
//     (the closure object defeats alias analysis).
//   * its lattice count (ping-pong or in place) and parity (phases per
//     cycle), and whether blocked links use the EP rim;
//   * its moment convention: where population i of a node lives between
//     steps (`locate`) and whether it is stored pre- or post-collision;
//   * its kernel-record names and its `AccessDesc` contract.
//
// Links and memory accesses are passed in as a link resolver and an
// accessor, so each map is written once for dense and tile-compressed
// storage, and once for the instrumented and the interior fast path
// (docs/algorithms.md §16).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "analysis/static/contract.hpp"
#include "core/lattice.hpp"
#include "engines/streaming.hpp"
#include "engines/tile_kernels.hpp"
#include "gpusim/global_array.hpp"

namespace mlbm {

enum class StreamMode {
  kPull,  ///< stream-then-collide (paper's ST baseline)
  kPush,  ///< collide-then-stream (ablation)
};

/// EP rim index: (element * Q + direction) -> rim link slot.
using RimIndex = std::unordered_map<std::uint64_t, index_t>;

/// Element layout of one engine's state: SoA over `elems` elements per
/// direction, the element of a node being its box cell (dense) or its
/// tile-compressed slot*64+local (sparse; -1 in unallocated all-solid tiles).
template <class L>
struct Layout {
  const Geometry* geo = nullptr;
  index_t elems = 0;
  bool sparse = false;
  const RimIndex* rim_index = nullptr;

  [[nodiscard]] index_t soa(int i, index_t elem) const {
    return static_cast<index_t>(i) * elems + elem;
  }
  [[nodiscard]] index_t element(int x, int y, int z) const {
    return sparse ? geo->tiles().element(x, y, z) : geo->box.idx(x, y, z);
  }
  /// First of the two rim words [value, density] of blocked link (elem, dir).
  [[nodiscard]] index_t rim_base(index_t elem, int dir) const {
    return rim_index->find(static_cast<std::uint64_t>(elem) *
                               static_cast<std::uint64_t>(L::Q) +
                           static_cast<std::uint64_t>(dir))
               ->second *
           2;
  }
};

/// Per-launch operands of a flavour: the layout, the lattice read (`src`)
/// and written (`dst`; the same array for in-place patterns), the rim, the
/// batched-I/O switch and the step parity.
template <class L, class ST>
struct LatticeView : Layout<L> {
  const gpusim::GlobalArray<ST>* src = nullptr;
  gpusim::GlobalArray<ST>* dst = nullptr;
  gpusim::GlobalArray<real_t>* rim = nullptr;
  bool batched = true;
  bool even = true;
};

/// Neighbour element on dense storage: the box cell.
struct DenseNb {
  Box b;
  [[nodiscard]] index_t operator()(int x, int y, int z) const {
    return b.idx(x, y, z);
  }
};

/// Neighbour element on tile-compressed storage, through the 3^D
/// neighbour-slot stash of the thread's tile.
struct TileNb {
  const std::int32_t (&stash)[27];
  TileGridInfo g;
  int tx, ty, tz;
  [[nodiscard]] index_t operator()(int x, int y, int z) const {
    return stash_elem(stash, g, tx, ty, tz, x, y, z);
  }
};

/// Where population i of a node lives between steps: lattice word `at`, or
/// the rim pair starting at `at`.
struct PopSlot {
  index_t at = 0;
  bool rim = false;
};

namespace addr {

// ------------------------------------------------------ links and accessors
// Every flavour map below runs in two instantiations (docs/algorithms.md
// §16), so there is one gather and one scatter per flavour, not one per
// execution path:
//   * the instrumented pair — BoundaryLinks (the shared resolver,
//     streaming.hpp) with CountedIo (GlobalArray's counted, sanitized,
//     unique-read-tracked accesses);
//   * the interior pair — InteriorLinks (constant per-direction element
//     offsets; every link interior) with TallyIo (bare element access plus
//     a register tally of what CountedIo would have counted).
// A link resolver `lk` maps direction i to the push along c_i from the node:
// `lk(i)` has a `kind` and a `cu_wall`, and `lk.elem(t)` is the neighbour
// element of an interior link.

/// Instrumented links: the boundary resolver at node (x, y, z), neighbour
/// elements through `nb`.
template <class L, class Nb>
struct BoundaryLinks {
  const Geometry& geo;
  const Nb& nb;
  int x, y, z;
  [[nodiscard]] StreamTarget operator()(int i) const {
    return resolve_stream<L>(geo, x, y, z, i);
  }
  [[nodiscard]] index_t elem(const StreamTarget& t) const {
    return nb(t.x, t.y, t.z);
  }
};

/// An all-interior link: its kind and wall term are compile-time constants,
/// so every boundary branch of a map folds away.
struct InteriorLink {
  static constexpr StreamTarget::Kind kind = StreamTarget::Kind::kInterior;
  static constexpr real_t cu_wall = 0;
  index_t at;
};

/// Interior links of dense node `cell`: element cell + off[i].
template <class L>
struct InteriorLinks {
  index_t cell;
  const index_t (&off)[L::Q];
  [[nodiscard]] InteriorLink operator()(int i) const {
    return {cell + off[static_cast<std::size_t>(i)]};
  }
  [[nodiscard]] static index_t elem(const InteriorLink& t) { return t.at; }
};

/// The interior resolver's offsets on box `b`: element offset of c_i,
/// derived from the lattice velocities and the box strides.
template <class L>
void interior_offsets(const Box& b, index_t (&off)[L::Q]) {
  for (int i = 0; i < L::Q; ++i) {
    const auto& c = L::c[static_cast<std::size_t>(i)];
    off[i] = c[0] + (c[1] + static_cast<index_t>(c[2]) * b.ny) *
                        static_cast<index_t>(b.nx);
  }
}

/// Instrumented accessor: GlobalArray's counted forms, one counter update
/// (and sanitizer notification, unique-read touch) per access.
struct CountedIo {
  template <class T>
  [[gnu::always_inline]] real_t load(const gpusim::GlobalArray<T>& a,
                                     index_t i) const {
    return a.template load_as<real_t>(i);
  }
  template <class T>
  [[gnu::always_inline]] void store(gpusim::GlobalArray<T>& a, index_t i,
                                    real_t val) const {
    a.template store_as<real_t>(i, val);
  }
  template <class T>
  [[gnu::always_inline]] void load_span(const gpusim::GlobalArray<T>& a,
                                        index_t base, index_t stride, int n,
                                        real_t* dst) const {
    a.template load_span_as<real_t>(base, stride, n, dst);
  }
  template <class T>
  [[gnu::always_inline]] void store_span(gpusim::GlobalArray<T>& a,
                                         index_t base, index_t stride, int n,
                                         const real_t* src) const {
    a.template store_span_as<real_t>(base, stride, n, src);
  }
};

/// Interior accessor: bare element access (the same conversions as the
/// counted forms) plus a register tally of exactly what they would count —
/// sizeof(T) bytes in one transaction per scalar access, n * sizeof(T) in
/// one per span — handed to the counter by `flush` once per x-run.
struct TallyIo {
  gpusim::TrafficSnapshot tally;

  template <class T>
  [[gnu::always_inline]] real_t load(const gpusim::GlobalArray<T>& a,
                                     index_t i) {
    assert(i >= 0 && static_cast<std::size_t>(i) < a.size());
    tally.bytes_read += sizeof(T);
    tally.reads += 1;
    return static_cast<real_t>(a.kernel_data()[i]);
  }
  template <class T>
  [[gnu::always_inline]] void store(gpusim::GlobalArray<T>& a, index_t i,
                                    real_t val) {
    assert(i >= 0 && static_cast<std::size_t>(i) < a.size());
    tally.bytes_written += sizeof(T);
    tally.writes += 1;
    a.kernel_data()[i] = static_cast<T>(val);
  }
  template <class T>
  [[gnu::always_inline]] void load_span(const gpusim::GlobalArray<T>& a,
                                        index_t base, index_t stride, int n,
                                        real_t* dst) {
    assert(span_in(a, base, stride, n));
    tally.bytes_read += static_cast<std::uint64_t>(n) * sizeof(T);
    tally.reads += 1;
    const T* p = a.kernel_data() + base;
    for (int k = 0; k < n; ++k, p += stride) dst[k] = static_cast<real_t>(*p);
  }
  template <class T>
  [[gnu::always_inline]] void store_span(gpusim::GlobalArray<T>& a,
                                         index_t base, index_t stride, int n,
                                         const real_t* src) {
    assert(span_in(a, base, stride, n));
    tally.bytes_written += static_cast<std::uint64_t>(n) * sizeof(T);
    tally.writes += 1;
    T* p = a.kernel_data() + base;
    for (int k = 0; k < n; ++k, p += stride) *p = static_cast<T>(src[k]);
  }

  void flush(gpusim::TrafficCounter& c) const {
    if (tally.reads != 0) c.add_read(tally.bytes_read, tally.reads);
    if (tally.writes != 0) c.add_write(tally.bytes_written, tally.writes);
  }

 private:
  template <class T>
  static bool span_in(const gpusim::GlobalArray<T>& a, index_t base,
                      index_t stride, int n) {
    const index_t last = base + static_cast<index_t>(n - 1) * stride;
    return n > 0 && std::min(base, last) >= 0 &&
           static_cast<std::size_t>(std::max(base, last)) < a.size();
  }
};

/// Moving-wall bounce-back correction 2 w_i rho (c_i . u_wall) / cs2.
template <class L>
[[gnu::always_inline]] inline real_t wall_term(int i, real_t rho,
                                               real_t cu_wall) {
  const real_t inv_cs2 = real_t(1) / L::cs2;
  return real_t(2) * L::w[static_cast<std::size_t>(i)] * rho * cu_wall *
         inv_cs2;
}

/// Node-local read of all Q populations of `elem` (one span transaction
/// when batched); returns their sum, the pre-collision density.
template <class L, class ST, class Io>
[[gnu::always_inline]] inline real_t read_own(const LatticeView<L, ST>& v,
                                              Io& io, index_t elem,
                                              real_t (&f)[L::Q]) {
  if (v.batched) {
    io.load_span(*v.src, elem, v.elems, L::Q, f);
  } else {
    for (int i = 0; i < L::Q; ++i) f[i] = io.load(*v.src, v.soa(i, elem));
  }
  real_t rho = 0;
  for (int i = 0; i < L::Q; ++i) rho += f[i];
  return rho;
}

/// Node-local write of all Q populations of `elem`.
template <class L, class ST, class Io>
[[gnu::always_inline]] inline void write_own(const LatticeView<L, ST>& v,
                                             Io& io, index_t elem,
                                             const real_t (&f)[L::Q]) {
  if (v.batched) {
    io.store_span(*v.dst, elem, v.elems, L::Q, f);
  } else {
    for (int i = 0; i < L::Q; ++i) io.store(*v.dst, v.soa(i, elem), f[i]);
  }
}

/// Push scatter: f*_i into slot i of the downwind node x + c_i; a wall link
/// bounces back into this node's own slot opposite(i). Open-face links are
/// dropped, unless `kOwnOnDrop` (AA) keeps them in the own slot too.
template <bool kOwnOnDrop, class L, class ST, class Lk, class Io>
[[gnu::always_inline]] inline void push_scatter(const LatticeView<L, ST>& v,
                                                const Lk& lk, Io& io,
                                                index_t elem,
                                                const real_t (&f)[L::Q],
                                                real_t rho) {
  for (int i = 0; i < L::Q; ++i) {
    const auto t = lk(i);
    if (t.kind == StreamTarget::Kind::kInterior) {
      io.store(*v.dst, v.soa(i, lk.elem(t)), f[i]);
    } else if (kOwnOnDrop || t.kind == StreamTarget::Kind::kBounce) {
      io.store(*v.dst, v.soa(L::opposite(i), elem),
               f[i] - wall_term<L>(i, rho, t.cu_wall));
    }
  }
}

// ----------------------------------------------------------------- flavours
// kTileNeighbours: the flavour reaches other tiles, so tile launches load
// the full neighbour-slot stash instead of the tile's own slot.

/// ST pull (Algorithm 1): gather f_i from the upwind node x - c_i, write the
/// node's Q populations as one span into the other lattice.
struct StPull {
  static constexpr bool kTileNeighbours = true;

  template <class L, class ST, class Lk, class Io>
  [[gnu::always_inline]] static real_t gather(const LatticeView<L, ST>& v,
                                              const Lk& lk, Io& io,
                                              index_t elem,
                                              real_t (&f)[L::Q]) {
    const gpusim::GlobalArray<ST>& src = *v.src;
    // Pulling direction i is a push along opposite(i) from this node, so
    // the shared resolver runs with the opposite velocity.
    real_t rho_self = real_t(-1);  // lazily computed for moving walls
    for (int i = 0; i < L::Q; ++i) {
      const auto t = lk(L::opposite(i));
      switch (t.kind) {
        case StreamTarget::Kind::kInterior:
          f[i] = io.load(src, v.soa(i, lk.elem(t)));
          break;
        case StreamTarget::Kind::kBounce: {
          real_t val = io.load(src, v.soa(L::opposite(i), elem));
          if (t.cu_wall != real_t(0)) {
            if (rho_self < real_t(0)) {
              rho_self = 0;
              for (int j = 0; j < L::Q; ++j) {
                rho_self += io.load(src, v.soa(j, elem));
              }
            }
            val -= wall_term<L>(i, rho_self, t.cu_wall);
          }
          f[i] = val;
          break;
        }
        case StreamTarget::Kind::kDropped:
          // This node sits on an open face and is rebuilt by the BC pass;
          // any finite placeholder works.
          f[i] = io.load(src, v.soa(L::opposite(i), elem));
          break;
      }
    }
    return 0;
  }

  template <class L, class ST, class Lk, class Io>
  [[gnu::always_inline]] static void scatter(const LatticeView<L, ST>& v,
                                             const Lk&, Io& io, index_t elem,
                                             const real_t (&f)[L::Q],
                                             real_t) {
    write_own(v, io, elem, f);
  }
};

/// ST push: read the node's own populations as one span, scatter
/// downwind into the other lattice.
struct StPush {
  static constexpr bool kTileNeighbours = true;

  template <class L, class ST, class Lk, class Io>
  [[gnu::always_inline]] static real_t gather(const LatticeView<L, ST>& v,
                                              const Lk&, Io& io, index_t elem,
                                              real_t (&f)[L::Q]) {
    return read_own(v, io, elem, f);
  }

  template <class L, class ST, class Lk, class Io>
  [[gnu::always_inline]] static void scatter(const LatticeView<L, ST>& v,
                                             const Lk& lk, Io& io,
                                             index_t elem,
                                             const real_t (&f)[L::Q],
                                             real_t rho_pre) {
    push_scatter<false>(v, lk, io, elem, f, rho_pre);
  }
};

/// AA even step: node-local. Read slot i, write f*_i into slot opposite(i)
/// of the same node. Links whose downwind neighbour is a wall get their
/// moving-wall correction here, where the density is thread-local, so the
/// odd gather never touches a word another thread rewrites.
struct AaEven {
  static constexpr bool kTileNeighbours = false;

  template <class L, class ST, class Lk, class Io>
  [[gnu::always_inline]] static real_t gather(const LatticeView<L, ST>& v,
                                              const Lk&, Io& io, index_t elem,
                                              real_t (&f)[L::Q]) {
    return read_own(v, io, elem, f);
  }

  template <class L, class ST, class Lk, class Io>
  [[gnu::always_inline]] static void scatter(const LatticeView<L, ST>& v,
                                             const Lk& lk, Io& io,
                                             index_t elem,
                                             const real_t (&f)[L::Q],
                                             real_t rho_pre) {
    real_t out[L::Q];
    for (int i = 0; i < L::Q; ++i) {
      real_t val = f[i];
      const auto t = lk(i);
      if (t.kind == StreamTarget::Kind::kBounce && t.cu_wall != real_t(0)) {
        val -= wall_term<L>(i, rho_pre, t.cu_wall);
      }
      out[static_cast<std::size_t>(L::opposite(i))] = val;
    }
    write_own(v, io, elem, out);
  }
};

/// AA odd step: gather f_i(x, t) = f*_i(x - c_i, t-1) from slot opposite(i)
/// of the upwind node (wall links: this node's own slot i, corrected by the
/// even step), then push-scatter into slot i of the downwind node. Word
/// (j, m) is gathered and scattered only by node m - c_j, so the update is
/// race-free in place and plane ranges touch disjoint words.
struct AaOdd {
  static constexpr bool kTileNeighbours = true;

  template <class L, class ST, class Lk, class Io>
  [[gnu::always_inline]] static real_t gather(const LatticeView<L, ST>& v,
                                              const Lk& lk, Io& io,
                                              index_t elem,
                                              real_t (&f)[L::Q]) {
    for (int i = 0; i < L::Q; ++i) {
      const auto t = lk(L::opposite(i));
      f[i] = io.load(*v.src, t.kind == StreamTarget::Kind::kInterior
                                 ? v.soa(L::opposite(i), lk.elem(t))
                                 : v.soa(i, elem));
    }
    real_t rho = 0;
    for (int i = 0; i < L::Q; ++i) rho += f[i];
    return rho;
  }

  template <class L, class ST, class Lk, class Io>
  [[gnu::always_inline]] static void scatter(const LatticeView<L, ST>& v,
                                             const Lk& lk, Io& io,
                                             index_t elem,
                                             const real_t (&f)[L::Q],
                                             real_t rho_now) {
    push_scatter<true>(v, lk, io, elem, f, rho_now);
  }
};

/// Esoteric Pull, one flavour for both parities (v.even). With the plus
/// half-set H = { i : i < opposite(i) }:
///   gather  f_i from slot (even ? opposite(i) : i) of the node itself
///           (i in H, rest) or of the upwind node (i not in H);
///   scatter f*_i to slot (even ? i : opposite(i)) of the downwind node
///           (i in H) or of the node itself (i not in H, rest).
/// Blocked links read and write the rim pair [value, density]: the
/// storage-narrowed population and the narrowed post-collision density,
/// the exact words ST pull reads from the node's own cell.
struct Ep {
  static constexpr bool kTileNeighbours = true;

  template <class L, class ST, class Lk, class Io>
  [[gnu::always_inline]] static real_t gather(const LatticeView<L, ST>& v,
                                              const Lk& lk, Io& io,
                                              index_t elem,
                                              real_t (&f)[L::Q]) {
    for (int i = 0; i < L::Q; ++i) {
      const int j = L::opposite(i);
      const auto t = lk(j);
      if (t.kind == StreamTarget::Kind::kInterior) {
        const index_t tc = j < i ? lk.elem(t) : elem;
        f[i] = io.load(*v.src, v.soa(v.even ? j : i, tc));
      } else {
        const index_t rb = v.rim_base(elem, j);
        real_t val = io.load(*v.rim, rb);
        if (t.kind == StreamTarget::Kind::kBounce && t.cu_wall != real_t(0)) {
          val -= wall_term<L>(i, io.load(*v.rim, rb + 1), t.cu_wall);
        }
        f[i] = val;
      }
    }
    return 0;
  }

  template <class L, class ST, class Lk, class Io>
  [[gnu::always_inline]] static void scatter(const LatticeView<L, ST>& v,
                                             const Lk& lk, Io& io,
                                             index_t elem,
                                             const real_t (&f)[L::Q], real_t) {
    real_t rho_post = 0;
    bool have_rho = false;
    for (int i = 0; i < L::Q; ++i) {
      const int j = L::opposite(i);
      const auto t = lk(i);
      if (t.kind == StreamTarget::Kind::kInterior) {
        const index_t tc = i < j ? lk.elem(t) : elem;
        io.store(*v.dst, v.soa(v.even ? i : j, tc), f[i]);
      } else {
        if (!have_rho) {
          for (int k = 0; k < L::Q; ++k) {
            rho_post += static_cast<real_t>(static_cast<ST>(f[k]));
          }
          have_rho = true;
        }
        const index_t rb = v.rim_base(elem, i);
        io.store(*v.rim, rb, static_cast<real_t>(static_cast<ST>(f[i])));
        io.store(*v.rim, rb + 1, rho_post);
      }
    }
  }
};

}  // namespace addr

// ----------------------------------------------------------------- policies
// Phase p of a step at time t is t % kPhases. Every member below is the
// whole of what distinguishes one pattern from another.

/// ST (Algorithm 1): two lattices, one phase; pull or push at runtime.
/// Pull stores post-collision state and partitions a split step by
/// destination plane; push stores pre-collision state and partitions by
/// source plane, so the frontier extends one plane.
struct StAddressing {
  static constexpr int kLattices = 2;
  static constexpr int kPhases = 1;
  static constexpr bool kRim = false;
  StreamMode mode = StreamMode::kPull;

  [[nodiscard]] const char* name() const {
    return mode == StreamMode::kPull ? "ST" : "ST-push";
  }
  [[nodiscard]] bool post_collision(int) const {
    return mode == StreamMode::kPull;
  }
  [[nodiscard]] int frontier_ext(int) const {
    return mode == StreamMode::kPush ? 1 : 0;
  }
  template <class L>
  [[nodiscard]] std::string record_stem(int, bool sparse) const {
    if (sparse) return std::string("st_sparse_") + L::name();
    return std::string(mode == StreamMode::kPull ? "st_stream_collide_"
                                                 : "st_push_collide_stream_") +
           L::name();
  }
  [[nodiscard]] const char* contract_tag(int) const {
    return mode == StreamMode::kPull ? "st.pull" : "st.push";
  }
  [[nodiscard]] const char* phase_tag(int) const { return "|"; }
  [[nodiscard]] analysis::EngineContract contract(analysis::LatticeDesc lat,
                                                  int elem_bytes,
                                                  bool batched) const {
    return analysis::st_contract(std::move(lat), elem_bytes,
                                 mode == StreamMode::kPush, batched);
  }
  template <class L>
  [[nodiscard]] PopSlot locate(const Layout<L>& lay, int, int, int, int,
                               index_t cell, int i) const {
    return {lay.soa(i, cell), false};
  }
  template <class Fn>
  void visit(int, Fn&& fn) const {
    if (mode == StreamMode::kPull) {
      fn(addr::StPull{});
    } else {
      fn(addr::StPush{});
    }
  }
};

/// AA (Bailey et al. 2009): one lattice, two kernel flavours. After an odd
/// step (and at initialization) memory holds the plain pre-collision state;
/// after an even step, the node-local swapped post-collision state.
struct AaAddressing {
  static constexpr int kLattices = 1;
  static constexpr int kPhases = 2;
  static constexpr bool kRim = false;

  [[nodiscard]] const char* name() const { return "ST-AA"; }
  [[nodiscard]] bool post_collision(int phase) const { return phase == 1; }
  [[nodiscard]] int frontier_ext(int phase) const { return phase; }
  template <class L>
  [[nodiscard]] std::string record_stem(int phase, bool sparse) const {
    const char* par = phase == 0 ? "even" : "odd";
    return sparse ? std::string("aa_sparse_") + L::name() + "_" + par
                  : std::string("aa_") + par + "_" + L::name();
  }
  [[nodiscard]] const char* contract_tag(int phase) const {
    return phase == 0 ? "aa.even" : "aa.odd";
  }
  [[nodiscard]] const char* phase_tag(int phase) const {
    return phase == 1 ? "|swapped|" : "|plain|";
  }
  [[nodiscard]] analysis::EngineContract contract(analysis::LatticeDesc lat,
                                                  int elem_bytes,
                                                  bool batched) const {
    return analysis::aa_contract(std::move(lat), elem_bytes, batched);
  }
  template <class L>
  [[nodiscard]] PopSlot locate(const Layout<L>& lay, int phase, int, int, int,
                               index_t cell, int i) const {
    return {lay.soa(phase == 1 ? L::opposite(i) : i, cell), false};
  }
  template <class Fn>
  void visit(int phase, Fn&& fn) const {
    if (phase == 0) {
      fn(addr::AaEven{});
    } else {
      fn(addr::AaOdd{});
    }
  }
};

/// Esoteric Pull (Lehmann 2022): one lattice plus the boundary rim, one
/// flavour whose slot map swaps with the parity. Every step is a full
/// stream+collide, so the stored state is always post-collision (as in ST
/// pull), laid out by the previous parity's scatter map. Both parities
/// reach planes x-1..x+1 from source x: the frontier extends one plane.
struct EpAddressing {
  static constexpr int kLattices = 1;
  static constexpr int kPhases = 2;
  static constexpr bool kRim = true;

  [[nodiscard]] const char* name() const { return "EP"; }
  [[nodiscard]] bool post_collision(int) const { return true; }
  [[nodiscard]] int frontier_ext(int) const { return 1; }
  template <class L>
  [[nodiscard]] std::string record_stem(int phase, bool sparse) const {
    const char* par = phase == 0 ? "even" : "odd";
    return sparse ? std::string("ep_sparse_") + L::name() + "_" + par
                  : std::string("ep_") + par + "_" + L::name();
  }
  [[nodiscard]] const char* contract_tag(int phase) const {
    return phase == 0 ? "ep.even" : "ep.odd";
  }
  [[nodiscard]] const char* phase_tag(int phase) const {
    return phase == 1 ? "|odd|" : "|even|";
  }
  [[nodiscard]] analysis::EngineContract contract(analysis::LatticeDesc lat,
                                                  int elem_bytes, bool) const {
    return analysis::ep_contract(std::move(lat), elem_bytes);
  }
  /// f*_i of the node sits where the previous parity's scatter put it:
  /// slot (even ? opposite(i) : i) of the downwind node for i in the plus
  /// half-set, of the node itself otherwise; blocked links in the rim.
  template <class L>
  [[nodiscard]] PopSlot locate(const Layout<L>& lay, int phase, int x, int y,
                               int z, index_t cell, int i) const {
    const int j = L::opposite(i);
    const StreamTarget t = resolve_stream<L>(*lay.geo, x, y, z, i);
    if (t.kind != StreamTarget::Kind::kInterior) {
      return {lay.rim_base(cell, i), true};
    }
    const index_t tc = i < j ? lay.element(t.x, t.y, t.z) : cell;
    return {lay.soa(phase == 0 ? j : i, tc), false};
  }
  template <class Fn>
  void visit(int, Fn&& fn) const {
    fn(addr::Ep{});
  }
};

}  // namespace mlbm
