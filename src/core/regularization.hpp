// Regularized reconstruction of distributions from moments.
//
// This file implements the two regularization schemes of the paper:
//
//  * Projective regularization (Latt & Chopard 2006; Section 2.2): the
//    non-equilibrium part of the distribution is replaced by its projection
//    onto the second-order Hermite moment Pi^neq. The reconstructed
//    population (Eq. 11) is
//
//      f_i = w_i ( rho + H1.(rho u)/cs2 + H2:Pi / (2 cs4) ),   Pi = rho u u + Pi^neq
//
//  * Recursive regularization (Malaspinas 2015; Section 2.3): non-equilibrium
//    parts of the third- and fourth-order Hermite moments are reconstructed
//    recursively from {u, Pi^neq}:
//
//      a3^neq_abg  = u_a Pn_bg + u_b Pn_ag + u_g Pn_ab
//      a4^neq_abgd = u_a u_b Pn_gd + u_a u_g Pn_bd + u_a u_d Pn_bg
//                  + u_b u_g Pn_ad + u_b u_d Pn_ag + u_g u_d Pn_ab
//
//    and the expansion (Eq. 14) is extended with the standard Hermite
//    normalization 1/(n! cs^(2n)):
//
//      f_i = w_i ( rho + H1.(rho u)/cs2 + H2:a2/(2 cs4)
//                + H3:a3/(6 cs6) + H4:a4/(24 cs8) ),
//      a2 = rho u u + Pi^neq, a3 = rho uuu + a3^neq, a4 = rho uuuu + a4^neq.
//
// On standard lattices, Hermite tensors that are not representable by the
// velocity set vanish identically (e.g. H3_xxx = c_x^3 - 3 cs2 c_x = 0 for
// c_x in {-1,0,1} and H3_xyz = 0 on D3Q19), so the full symmetric sums below
// automatically restrict to the representable basis.
//
// Both reconstructions take the *post-collision* non-equilibrium moment: the
// BGK relaxation Pi^neq -> (1 - 1/tau) Pi^neq commutes with the recursions,
// so MR kernels collide in moment space first (Eq. 10) and reconstruct after.
#pragma once

#include "core/hermite.hpp"
#include "core/lattice.hpp"
#include "core/moments.hpp"
#include "util/types.hpp"

namespace mlbm {

/// Which regularization scheme an engine or kernel applies.
enum class Regularization {
  kProjective,  ///< MR-P: second-order Hermite basis only (Eq. 11).
  kRecursive,   ///< MR-R: recursive third/fourth-order reconstruction (Eq. 14).
};

inline const char* to_string(Regularization r) {
  return r == Regularization::kProjective ? "projective" : "recursive";
}

/// Projectively regularized population (Eq. 11).
/// `pineq` is the (post-collision) non-equilibrium second moment, indexed by
/// SymPairs<L::D>.
template <class L, class T = real_t>
T reconstruct_projective(int i, T rho, const T* u, const T* pineq) {
  using P = SymPairs<L::D>;
  const real_t inv_cs2 = real_t(1) / L::cs2;

  T first{};
  for (int a = 0; a < L::D; ++a) {
    first += hermite::h1<L>(i, a) * rho * u[a];
  }
  T second{};
  for (int p = 0; p < P::N; ++p) {
    const int a = P::idx[static_cast<std::size_t>(p)][0];
    const int b = P::idx[static_cast<std::size_t>(p)][1];
    const T pi_ab = rho * u[a] * u[b] + pineq[p];
    second += static_cast<real_t>(P::mult[static_cast<std::size_t>(p)]) *
              hermite::h2<L>(i, a, b) * pi_ab;
  }
  return L::w[static_cast<std::size_t>(i)] *
         (rho + inv_cs2 * first + real_t(0.5) * inv_cs2 * inv_cs2 * second);
}

/// Recursive non-equilibrium third-order moment a3^neq_abg from {u, Pi^neq}.
template <class L, class T = real_t>
T a3_neq(const T* u, const T* pineq, int a, int b, int g) {
  using P = SymPairs<L::D>;
  return u[a] * pineq[P::index(b, g)] + u[b] * pineq[P::index(a, g)] +
         u[g] * pineq[P::index(a, b)];
}

/// Recursive non-equilibrium fourth-order moment a4^neq_abgd from {u, Pi^neq}.
template <class L, class T = real_t>
T a4_neq(const T* u, const T* pineq, int a, int b, int g, int d) {
  using P = SymPairs<L::D>;
  return u[a] * u[b] * pineq[P::index(g, d)] +
         u[a] * u[g] * pineq[P::index(b, d)] +
         u[a] * u[d] * pineq[P::index(b, g)] +
         u[b] * u[g] * pineq[P::index(a, d)] +
         u[b] * u[d] * pineq[P::index(a, g)] +
         u[g] * u[d] * pineq[P::index(a, b)];
}

/// Recursively regularized population (Eq. 14).
template <class L, class T = real_t>
T reconstruct_recursive(int i, T rho, const T* u, const T* pineq) {
  using T3 = SymTriples<L::D>;
  using T4 = SymQuads<L::D>;
  const real_t inv_cs2 = real_t(1) / L::cs2;

  T f = reconstruct_projective<L, T>(i, rho, u, pineq);

  T third{};
  for (int t = 0; t < T3::N; ++t) {
    const int a = T3::idx[static_cast<std::size_t>(t)][0];
    const int b = T3::idx[static_cast<std::size_t>(t)][1];
    const int g = T3::idx[static_cast<std::size_t>(t)][2];
    const real_t h3 = hermite::h3<L>(i, a, b, g);
    if (h3 == real_t(0)) continue;  // unrepresentable on this lattice
    const T a3 = rho * u[a] * u[b] * u[g] + a3_neq<L, T>(u, pineq, a, b, g);
    third += static_cast<real_t>(T3::mult[static_cast<std::size_t>(t)]) * h3 * a3;
  }

  T fourth{};
  for (int q = 0; q < T4::N; ++q) {
    const int a = T4::idx[static_cast<std::size_t>(q)][0];
    const int b = T4::idx[static_cast<std::size_t>(q)][1];
    const int g = T4::idx[static_cast<std::size_t>(q)][2];
    const int d = T4::idx[static_cast<std::size_t>(q)][3];
    const real_t h4 = hermite::h4<L>(i, a, b, g, d);
    if (h4 == real_t(0)) continue;
    const T a4 =
        rho * u[a] * u[b] * u[g] * u[d] + a4_neq<L, T>(u, pineq, a, b, g, d);
    fourth += static_cast<real_t>(T4::mult[static_cast<std::size_t>(q)]) * h4 * a4;
  }

  const real_t inv_cs6 = inv_cs2 * inv_cs2 * inv_cs2;
  const real_t inv_cs8 = inv_cs6 * inv_cs2;
  f += L::w[static_cast<std::size_t>(i)] *
       (third * (inv_cs6 / real_t(6)) + fourth * (inv_cs8 / real_t(24)));
  return f;
}

/// Dispatches between the two reconstructions at runtime. Hot kernels use the
/// compile-time variants directly; this overload serves engines configured by
/// a runtime enum.
template <class L, class T = real_t>
T reconstruct(Regularization scheme, int i, T rho, const T* u,
              const T* pineq) {
  return scheme == Regularization::kProjective
             ? reconstruct_projective<L, T>(i, rho, u, pineq)
             : reconstruct_recursive<L, T>(i, rho, u, pineq);
}

/// Compile-time sparsity of the third/fourth-order Hermite tensors on a
/// lattice. On standard velocity sets most components vanish identically for
/// every direction (e.g. H3_aaa = c_a(c_a^2 - 3cs2) = 0 for c_a in {-1,0,1}
/// with cs2 = 1/3, and H3_xyz = 0 on D3Q19) — those components need neither
/// a Hermite-moment register nor a multiply in any reconstruction. `map3` /
/// `map4` list, in ascending component order, the components used by at
/// least one direction; the packed a3/a4 registers of the hot kernels hold
/// only these.
template <class L>
struct HermiteSparsity {
  static constexpr int NT3 = SymTriples<L::D>::N;
  static constexpr int NT4 = SymQuads<L::D>::N;

  static constexpr bool used3(int t) {
    for (int i = 0; i < L::Q; ++i) {
      if (hermite::h3<L>(i, SymTriples<L::D>::idx[static_cast<std::size_t>(t)][0],
                         SymTriples<L::D>::idx[static_cast<std::size_t>(t)][1],
                         SymTriples<L::D>::idx[static_cast<std::size_t>(t)][2]) !=
          real_t(0)) {
        return true;
      }
    }
    return false;
  }
  static constexpr bool used4(int q) {
    for (int i = 0; i < L::Q; ++i) {
      if (hermite::h4<L>(i, SymQuads<L::D>::idx[static_cast<std::size_t>(q)][0],
                         SymQuads<L::D>::idx[static_cast<std::size_t>(q)][1],
                         SymQuads<L::D>::idx[static_cast<std::size_t>(q)][2],
                         SymQuads<L::D>::idx[static_cast<std::size_t>(q)][3]) !=
          real_t(0)) {
        return true;
      }
    }
    return false;
  }

  static constexpr int count3() {
    int n = 0;
    for (int t = 0; t < NT3; ++t) n += used3(t) ? 1 : 0;
    return n;
  }
  static constexpr int count4() {
    int n = 0;
    for (int q = 0; q < NT4; ++q) n += used4(q) ? 1 : 0;
    return n;
  }

  /// Number of representable (anywhere-nonzero) components.
  static constexpr int NU3 = count3();
  static constexpr int NU4 = count4();

  /// Packed slot -> full symmetric-component index, ascending.
  static constexpr std::array<int, static_cast<std::size_t>(NU3)> make_map3() {
    std::array<int, static_cast<std::size_t>(NU3)> m{};
    int n = 0;
    for (int t = 0; t < NT3; ++t) {
      if (used3(t)) m[static_cast<std::size_t>(n++)] = t;
    }
    return m;
  }
  static constexpr std::array<int, static_cast<std::size_t>(NU4)> make_map4() {
    std::array<int, static_cast<std::size_t>(NU4)> m{};
    int n = 0;
    for (int q = 0; q < NT4; ++q) {
      if (used4(q)) m[static_cast<std::size_t>(n++)] = q;
    }
    return m;
  }
  static constexpr std::array<int, static_cast<std::size_t>(NU3)> map3 =
      make_map3();
  static constexpr std::array<int, static_cast<std::size_t>(NU4)> map4 =
      make_map4();
};

/// Compile-time coefficient tables for the regularized reconstructions:
/// all lattice constants (w_i, Hermite tensors, multiplicities, 1/(n! cs^2n))
/// folded into one coefficient per (direction, moment component). The
/// third/fourth-order tables are stored *sparse*: per direction, a packed
/// list of (coefficient, packed-register index) covering only the entries
/// whose Hermite coefficient is nonzero, so the per-direction dot products
/// of the recursive scheme never multiply by a compile-time zero.
template <class L>
struct ReconstructTables {
  static constexpr int NP = SymPairs<L::D>::N;
  static constexpr int NT3 = SymTriples<L::D>::N;
  static constexpr int NT4 = SymQuads<L::D>::N;
  using HS = HermiteSparsity<L>;
  static constexpr int NU3 = HS::NU3;
  static constexpr int NU4 = HS::NU4;

  std::array<real_t, L::Q> k0{};
  std::array<std::array<real_t, L::D>, L::Q> k1{};
  std::array<std::array<real_t, NP>, L::Q> k2{};
  /// Sparse third/fourth-order coefficients: for direction i, entries
  /// [0, nnz3[i]) of s3c/s3i are the nonzero H3 coefficients and the packed
  /// a3-register slot each multiplies (ascending component order, so the
  /// accumulation order matches the dense loop's nonzero terms exactly).
  std::array<int, L::Q> nnz3{};
  std::array<int, L::Q> nnz4{};
  std::array<std::array<real_t, static_cast<std::size_t>(NU3)>, L::Q> s3c{};
  std::array<std::array<int, static_cast<std::size_t>(NU3)>, L::Q> s3i{};
  std::array<std::array<real_t, static_cast<std::size_t>(NU4)>, L::Q> s4c{};
  std::array<std::array<int, static_cast<std::size_t>(NU4)>, L::Q> s4i{};

  static constexpr ReconstructTables make() {
    ReconstructTables t{};
    const real_t inv_cs2 = real_t(1) / L::cs2;
    const real_t inv_cs4 = inv_cs2 * inv_cs2;
    const real_t inv_cs6 = inv_cs4 * inv_cs2;
    const real_t inv_cs8 = inv_cs6 * inv_cs2;
    for (int i = 0; i < L::Q; ++i) {
      const real_t w = L::w[static_cast<std::size_t>(i)];
      const auto si = static_cast<std::size_t>(i);
      t.k0[si] = w;
      for (int a = 0; a < L::D; ++a) {
        t.k1[si][static_cast<std::size_t>(a)] = w * inv_cs2 * hermite::h1<L>(i, a);
      }
      for (int p = 0; p < NP; ++p) {
        const auto sp = static_cast<std::size_t>(p);
        t.k2[si][sp] = w * real_t(0.5) * inv_cs4 *
                       static_cast<real_t>(SymPairs<L::D>::mult[sp]) *
                       hermite::h2<L>(i, SymPairs<L::D>::idx[sp][0],
                                      SymPairs<L::D>::idx[sp][1]);
      }
      for (int u = 0; u < NU3; ++u) {
        const auto ss = static_cast<std::size_t>(HS::map3[static_cast<std::size_t>(u)]);
        const real_t h3 = hermite::h3<L>(i, SymTriples<L::D>::idx[ss][0],
                                         SymTriples<L::D>::idx[ss][1],
                                         SymTriples<L::D>::idx[ss][2]);
        if (h3 == real_t(0)) continue;
        const auto k = static_cast<std::size_t>(t.nnz3[si]++);
        t.s3c[si][k] = w * inv_cs6 / real_t(6) *
                       static_cast<real_t>(SymTriples<L::D>::mult[ss]) * h3;
        t.s3i[si][k] = u;
      }
      for (int u = 0; u < NU4; ++u) {
        const auto sq = static_cast<std::size_t>(HS::map4[static_cast<std::size_t>(u)]);
        const real_t h4 = hermite::h4<L>(i, SymQuads<L::D>::idx[sq][0],
                                         SymQuads<L::D>::idx[sq][1],
                                         SymQuads<L::D>::idx[sq][2],
                                         SymQuads<L::D>::idx[sq][3]);
        if (h4 == real_t(0)) continue;
        const auto k = static_cast<std::size_t>(t.nnz4[si]++);
        t.s4c[si][k] = w * inv_cs8 / real_t(24) *
                       static_cast<real_t>(SymQuads<L::D>::mult[sq]) * h4;
        t.s4i[si][k] = u;
      }
    }
    return t;
  }

  static const ReconstructTables& get() {
    static constexpr ReconstructTables t = make();
    return t;
  }
};

/// Per-node reconstruction kernel: builds the Hermite moments a2 (and the
/// packed representable a3/a4 for the recursive scheme) once per node, then
/// evaluates each population as a short sparse dot product against the
/// compile-time tables. The scheme is a template parameter: the projective
/// instantiation carries no third/fourth-order state or code at all, and the
/// recursive one has no per-direction branch — this is what the hot engine
/// loops use after hoisting the runtime-enum dispatch out of the per-node
/// and per-population loops.
template <class L, Regularization R>
class Reconstructor {
 public:
  static constexpr int NP = SymPairs<L::D>::N;
  using HS = HermiteSparsity<L>;

  /// Always inlined, like compute_moments (moments.hpp), so no kernel runs
  /// a link-order-dependent out-of-line copy.
  [[gnu::always_inline]] Reconstructor(real_t rho, const real_t* u,
                                       const real_t* pineq)
      : rho_(rho) {
    for (int a = 0; a < L::D; ++a) {
      rho_u_[a] = rho * u[a];
    }
    for (int p = 0; p < NP; ++p) {
      const int a = SymPairs<L::D>::idx[static_cast<std::size_t>(p)][0];
      const int b = SymPairs<L::D>::idx[static_cast<std::size_t>(p)][1];
      a2_[p] = rho * u[a] * u[b] + pineq[p];
    }
    if constexpr (R == Regularization::kRecursive) {
      using T3 = SymTriples<L::D>;
      using T4 = SymQuads<L::D>;
      for (int t = 0; t < HS::NU3; ++t) {
        const auto st = static_cast<std::size_t>(HS::map3[static_cast<std::size_t>(t)]);
        const int a = T3::idx[st][0];
        const int b = T3::idx[st][1];
        const int g = T3::idx[st][2];
        a3_[t] = rho * u[a] * u[b] * u[g] + a3_neq<L>(u, pineq, a, b, g);
      }
      for (int q = 0; q < HS::NU4; ++q) {
        const auto sq = static_cast<std::size_t>(HS::map4[static_cast<std::size_t>(q)]);
        const int a = T4::idx[sq][0];
        const int b = T4::idx[sq][1];
        const int g = T4::idx[sq][2];
        const int d = T4::idx[sq][3];
        a4_[q] =
            rho * u[a] * u[b] * u[g] * u[d] + a4_neq<L>(u, pineq, a, b, g, d);
      }
    }
  }

  [[nodiscard]] real_t operator()(int i) const {
    const auto& t = ReconstructTables<L>::get();
    const auto si = static_cast<std::size_t>(i);
    real_t acc = t.k0[si] * rho_;
    for (int a = 0; a < L::D; ++a) {
      acc += t.k1[si][static_cast<std::size_t>(a)] * rho_u_[a];
    }
    for (int p = 0; p < NP; ++p) {
      acc += t.k2[si][static_cast<std::size_t>(p)] * a2_[p];
    }
    if constexpr (R == Regularization::kRecursive) {
      for (int s = 0; s < t.nnz3[si]; ++s) {
        acc += t.s3c[si][static_cast<std::size_t>(s)] *
               a3_[t.s3i[si][static_cast<std::size_t>(s)]];
      }
      for (int q = 0; q < t.nnz4[si]; ++q) {
        acc += t.s4c[si][static_cast<std::size_t>(q)] *
               a4_[t.s4i[si][static_cast<std::size_t>(q)]];
      }
    }
    return acc;
  }

 private:
  /// Empty-member trick: projective instantiations carry no a3/a4 storage.
  struct Empty {};
  template <int N>
  using HigherRegs =
      std::conditional_t<R == Regularization::kRecursive, real_t[N], Empty>;

  real_t rho_;
  real_t rho_u_[L::D] = {};
  real_t a2_[NP] = {};
  [[no_unique_address]] HigherRegs<HS::NU3 == 0 ? 1 : HS::NU3> a3_{};
  [[no_unique_address]] HigherRegs<HS::NU4 == 0 ? 1 : HS::NU4> a4_{};
};

/// Hoists a runtime Regularization value into a compile-time template
/// argument: calls `fn(std::integral_constant<Regularization, R>{})` for the
/// matching scheme. Engines use this once per kernel launch (or per node on
/// cold paths) so every per-population loop runs a scheme-templated kernel.
template <class Fn>
decltype(auto) dispatch_regularization(Regularization scheme, Fn&& fn) {
  return scheme == Regularization::kProjective
             ? fn(std::integral_constant<Regularization,
                                         Regularization::kProjective>{})
             : fn(std::integral_constant<Regularization,
                                         Regularization::kRecursive>{});
}

}  // namespace mlbm
