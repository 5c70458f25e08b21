// The W-wide register type of lane-batched (SoA panel) execution.
//
// The scalar engine kernels process one lattice node at a time: gather the
// node's Q populations (or M moments) into registers, collide, scatter. The
// lane-batched execution path (ExecMode::kLanes) processes kLaneWidth
// consecutive nodes per panel instead, holding every register as a
// Lanes<W> — component k of W nodes side by side — so each arithmetic
// operation is a handful of SIMD instructions: the host analogue of a GPU
// warp executing the same kernel over 32 nodes in lockstep, and the
// SoA/SIMD structure Habich et al. and Wittmann et al. identify as the
// deciding factor for LBM throughput on wide cores.
//
// There is no lane copy of the LBM arithmetic. The moment projection,
// equilibrium, collision and reconstruction operators (core/moments.hpp,
// equilibrium.hpp, collision.hpp, regularization.hpp) are templates over
// their register type V; V = real_t is the scalar path and V = Lanes<W> the
// lane path. Every Lanes operator applies the scalar IEEE operation lane by
// lane, so each lane performs exactly the scalar operation sequence of its
// node by construction, and batching only interleaves independent per-node
// computations: the results are bit-identical (LaneArithmetic,
// ExecInvariance). A ragged panel (n < W nodes) fills its inactive lanes
// with a copy of node 0, so no lane computes on indeterminate values, and
// never stores them.
#pragma once

#include "util/types.hpp"

// Inlining guarantee for the per-node gather/scatter helpers the engines
// factor out to share between the scalar and lane bodies. Sharing gives the
// helper two call sites, which flips GCC's inlining heuristic from "inline
// into the hot loop" to "outline and call per node" — a measured ~1.8x
// slowdown of the ST hot path. The attribute restores the seed behaviour.
#if defined(__GNUC__)
#define MLBM_ALWAYS_INLINE __attribute__((always_inline))
#else
#define MLBM_ALWAYS_INLINE
#endif

namespace mlbm {

/// Nodes per SoA panel. Eight doubles = one 64-byte cache line and a full
/// AVX-512 vector (two AVX2 vectors); wide enough to amortize the per-panel
/// setup, small enough that the registers of a D3Q27 panel (~Q·W doubles)
/// stay L1-resident.
inline constexpr int kLaneWidth = 8;

/// Two lanes: one 16-byte SIMD register (a GCC vector extension, lowered
/// to scalars on targets without one); arithmetic is element-wise IEEE.
using LanePair = real_t __attribute__((vector_size(2 * sizeof(real_t))));

/// One register of a W-node panel, as W / 2 lane pairs. Arithmetic is
/// element-wise; a real_t operand broadcasts (the implicit constructor), and
/// `Lanes x{}` is zero like `real_t x{}`. The operators unroll their pair
/// loop, so a temporary is a few SIMD registers, not a stack array: with a
/// real_t v[W] element loop, -O2 (the chassis TUs) kept every temporary in
/// memory and ran the lane collision 3-4x slower.
template <int W>
struct Lanes {
  static_assert(W % 2 == 0, "lanes come in pairs");
  LanePair p[W / 2];

  Lanes() = default;
  constexpr Lanes(real_t s) {  // NOLINT: implicit by design (broadcast)
    for (LanePair& q : p) q = LanePair{s, s};
  }
  /// Lane ln holds x[ln].
  explicit Lanes(const real_t (&x)[W]) {
    for (int k = 0; k < W / 2; ++k) p[k] = LanePair{x[2 * k], x[2 * k + 1]};
  }

  MLBM_ALWAYS_INLINE Lanes& operator+=(const Lanes& b) {
    _Pragma("GCC unroll 16")
    for (int k = 0; k < W / 2; ++k) p[k] += b.p[k];
    return *this;
  }
  MLBM_ALWAYS_INLINE Lanes& operator-=(const Lanes& b) {
    _Pragma("GCC unroll 16")
    for (int k = 0; k < W / 2; ++k) p[k] -= b.p[k];
    return *this;
  }
  MLBM_ALWAYS_INLINE Lanes& operator*=(const Lanes& b) {
    _Pragma("GCC unroll 16")
    for (int k = 0; k < W / 2; ++k) p[k] *= b.p[k];
    return *this;
  }
  MLBM_ALWAYS_INLINE Lanes& operator/=(const Lanes& b) {
    _Pragma("GCC unroll 16")
    for (int k = 0; k < W / 2; ++k) p[k] /= b.p[k];
    return *this;
  }
  MLBM_ALWAYS_INLINE friend Lanes operator+(Lanes a, const Lanes& b) {
    return a += b;
  }
  MLBM_ALWAYS_INLINE friend Lanes operator-(Lanes a, const Lanes& b) {
    return a -= b;
  }
  MLBM_ALWAYS_INLINE friend Lanes operator*(Lanes a, const Lanes& b) {
    return a *= b;
  }
  MLBM_ALWAYS_INLINE friend Lanes operator/(Lanes a, const Lanes& b) {
    return a /= b;
  }
};

/// Lane `ln` of register `x` (a scalar is its own only lane).
inline real_t lane(real_t x, int) { return x; }
template <int W>
real_t lane(const Lanes<W>& x, int ln) {
  return x.p[ln / 2][ln % 2];
}

/// Runs `fn` on the registers of a panel of n <= W nodes held node-major in
/// rows[W][N] — register k holds component k of every node — then writes
/// the n active lanes back. The inactive lanes compute on a copy of node 0.
/// A one-node panel is its own register file: fn sees rows[0] itself.
template <int N, int W, class Fn>
MLBM_ALWAYS_INLINE inline void in_lanes(real_t (&rows)[W][N], int n,
                                        Fn&& fn) {
  Lanes<W> r[N];
  for (int k = 0; k < N; ++k) {
    real_t x[W];
    for (int ln = 0; ln < W; ++ln) x[ln] = rows[ln < n ? ln : 0][k];
    r[k] = Lanes<W>(x);
  }
  fn(r);
  for (int ln = 0; ln < n; ++ln) {
    for (int k = 0; k < N; ++k) rows[ln][k] = lane(r[k], ln);
  }
}
template <int N, class Fn>
MLBM_ALWAYS_INLINE inline void in_lanes(real_t (&rows)[1][N], int, Fn&& fn) {
  fn(rows[0]);
}

}  // namespace mlbm
