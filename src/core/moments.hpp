// Moment-space representation of the lattice Boltzmann state.
//
// The moment representation stores, per lattice node, the M = 1 + D + D(D+1)/2
// values {rho, u, Pi} where Pi is the (symmetric) second-order Hermite moment
// of the distribution (Eq. 3 of the paper). Symmetric tensors of ranks 2..4
// are stored component-wise with an explicit index ordering plus multiplicity
// tables so that full tensor contractions can be written as flat loops.
#pragma once

#include <algorithm>
#include <array>

#include "core/hermite.hpp"
#include "core/lattice.hpp"
#include "util/types.hpp"

namespace mlbm {

/// Index ordering of the independent components of a symmetric rank-2 tensor.
/// 2D: xx, xy, yy. 3D: xx, xy, xz, yy, yz, zz.
template <int D>
struct SymPairs;

template <>
struct SymPairs<2> {
  static constexpr int N = 3;
  static constexpr std::array<std::array<int, 2>, 3> idx = {{{0, 0}, {0, 1}, {1, 1}}};
  /// Number of equivalent permutations of each component in a full contraction.
  static constexpr std::array<int, 3> mult = {1, 2, 1};
  static constexpr int index(int a, int b) {
    // (0,0)->0, (0,1)/(1,0)->1, (1,1)->2
    return a + b;
  }
};

template <>
struct SymPairs<3> {
  static constexpr int N = 6;
  static constexpr std::array<std::array<int, 2>, 6> idx = {
      {{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2}}};
  static constexpr std::array<int, 6> mult = {1, 2, 2, 1, 2, 1};
  static constexpr int index(int a, int b) {
    constexpr int map[3][3] = {{0, 1, 2}, {1, 3, 4}, {2, 4, 5}};
    return map[a][b];
  }
};

/// Independent components of a symmetric rank-3 tensor, with multiplicities.
template <int D>
struct SymTriples;

template <>
struct SymTriples<2> {
  static constexpr int N = 4;
  static constexpr std::array<std::array<int, 3>, 4> idx = {
      {{0, 0, 0}, {0, 0, 1}, {0, 1, 1}, {1, 1, 1}}};
  static constexpr std::array<int, 4> mult = {1, 3, 3, 1};
};

template <>
struct SymTriples<3> {
  static constexpr int N = 10;
  static constexpr std::array<std::array<int, 3>, 10> idx = {{{0, 0, 0},
                                                              {0, 0, 1},
                                                              {0, 0, 2},
                                                              {0, 1, 1},
                                                              {0, 1, 2},
                                                              {0, 2, 2},
                                                              {1, 1, 1},
                                                              {1, 1, 2},
                                                              {1, 2, 2},
                                                              {2, 2, 2}}};
  static constexpr std::array<int, 10> mult = {1, 3, 3, 3, 6, 3, 1, 3, 3, 1};
};

/// Independent components of a symmetric rank-4 tensor, with multiplicities.
template <int D>
struct SymQuads;

template <>
struct SymQuads<2> {
  static constexpr int N = 5;
  static constexpr std::array<std::array<int, 4>, 5> idx = {
      {{0, 0, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 1}, {0, 1, 1, 1}, {1, 1, 1, 1}}};
  static constexpr std::array<int, 5> mult = {1, 4, 6, 4, 1};
};

template <>
struct SymQuads<3> {
  static constexpr int N = 15;
  static constexpr std::array<std::array<int, 4>, 15> idx = {{
      {0, 0, 0, 0}, {0, 0, 0, 1}, {0, 0, 0, 2}, {0, 0, 1, 1}, {0, 0, 1, 2},
      {0, 0, 2, 2}, {0, 1, 1, 1}, {0, 1, 1, 2}, {0, 1, 2, 2}, {0, 2, 2, 2},
      {1, 1, 1, 1}, {1, 1, 1, 2}, {1, 1, 2, 2}, {1, 2, 2, 2}, {2, 2, 2, 2},
  }};
  static constexpr std::array<int, 15> mult = {1, 4, 4, 6, 12, 6, 4, 12,
                                               12, 4, 1, 4, 6, 4, 1};
};

/// Per-node moment state {rho, u, Pi}. `pi` holds the *full* second-order
/// Hermite moment (equilibrium + non-equilibrium parts); the non-equilibrium
/// part is recovered as Pi_ab - rho u_a u_b. `V` is the register type: one
/// node's real_t, or a lane panel's Lanes<W> (core/lanes.hpp).
template <class L, class V = real_t>
struct Moments {
  static constexpr int D = L::D;
  static constexpr int NP = SymPairs<D>::N;

  V rho = 1;
  std::array<V, D> u{};
  std::array<V, NP> pi{};

  /// Values per node in the flat {rho, u, Pi} layout of snapshots and
  /// checkpoints, and the conversions to and from it.
  static constexpr int NV = 1 + D + NP;
  void pack(V* v) const {
    v[0] = rho;
    std::copy(u.begin(), u.end(), v + 1);
    std::copy(pi.begin(), pi.end(), v + 1 + D);
  }
  static Moments unpack(const V* v) {
    Moments m;
    m.rho = v[0];
    std::copy(v + 1, v + 1 + D, m.u.begin());
    std::copy(v + 1 + D, v + NV, m.pi.begin());
    return m;
  }

  [[nodiscard]] V pi_neq(int p) const {
    const auto [a, b] = pair(p);
    return pi[static_cast<std::size_t>(p)] - rho * u[static_cast<std::size_t>(a)] * u[static_cast<std::size_t>(b)];
  }

  static constexpr std::array<int, 2> pair(int p) {
    return {SymPairs<D>::idx[static_cast<std::size_t>(p)][0],
            SymPairs<D>::idx[static_cast<std::size_t>(p)][1]};
  }
};

namespace detail {

/// Projection coefficients of the first three Hermite moments, baked into
/// compile-time tables transposed per component so the projection is a
/// handful of contiguous dot products (the compiler unrolls/vectorizes
/// them). This sits on the hot write-back path of every engine.
template <class L>
struct MomentProjection {
  static constexpr int NP = SymPairs<L::D>::N;
  real_t c[L::D][L::Q];    ///< H^(1): c_ia
  real_t h2[NP][L::Q];     ///< H^(2): c_ia c_ib - cs2 d_ab

  static constexpr MomentProjection make() {
    MomentProjection t{};
    for (int i = 0; i < L::Q; ++i) {
      for (int a = 0; a < L::D; ++a) {
        t.c[a][i] = hermite::h1<L>(i, a);
      }
      for (int p = 0; p < NP; ++p) {
        const int a = SymPairs<L::D>::idx[static_cast<std::size_t>(p)][0];
        const int b = SymPairs<L::D>::idx[static_cast<std::size_t>(p)][1];
        t.h2[p][i] = hermite::h2<L>(i, a, b);
      }
    }
    return t;
  }
};

template <class L>
inline constexpr MomentProjection<L> kMomentProjection =
    MomentProjection<L>::make();

}  // namespace detail

/// Projects a distribution onto its first three Hermite moments
/// (Eqs. 1-3 of the paper). Each component is the ascending-i sum of
/// coefficient x f_i, exactly as the naive nested loop computes it — the
/// table form only removes the per-call coefficient recomputation. Always
/// inlined: a kernel must not call whichever out-of-line copy the linker
/// keeps, since that copy's code depends on link order and on another TU's
/// flags.
template <class L, class V = real_t>
[[gnu::always_inline]] inline Moments<L, V> compute_moments(
    const V (&f)[L::Q]) {
  const auto& t = detail::kMomentProjection<L>;
  Moments<L, V> m;
  V rho = 0;
  for (int i = 0; i < L::Q; ++i) rho += f[i];
  m.rho = rho;
  for (int a = 0; a < L::D; ++a) {
    V acc = 0;
    for (int i = 0; i < L::Q; ++i) {
      acc += t.c[a][i] * f[i];
    }
    m.u[static_cast<std::size_t>(a)] = acc / rho;
  }
  for (int p = 0; p < Moments<L>::NP; ++p) {
    V acc = 0;
    for (int i = 0; i < L::Q; ++i) {
      acc += t.h2[p][i] * f[i];
    }
    m.pi[static_cast<std::size_t>(p)] = acc;
  }
  return m;
}

}  // namespace mlbm
