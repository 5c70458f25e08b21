// Distribution-space collision operators.
//
// These are used by the reference engine (ground truth for physics and for
// the MR engines' equivalence tests) and by the ST engine's fused
// stream-collide kernel. The regularized variants are the distribution-space
// formulations of Sections 2.2 and 2.3; the MR engines perform the same
// operations in moment space and must agree to round-off.
#pragma once

#include <type_traits>

#include "core/equilibrium.hpp"
#include "core/lattice.hpp"
#include "core/moments.hpp"
#include "core/regularization.hpp"
#include "util/types.hpp"

namespace mlbm {

enum class CollisionScheme {
  kBGK,         ///< standard single-relaxation-time BGK (Eq. 6)
  kProjective,  ///< projective regularization (Eq. 9)
  kRecursive,   ///< recursive regularization (Eq. 14 applied in collision)
};

inline const char* to_string(CollisionScheme s) {
  switch (s) {
    case CollisionScheme::kBGK: return "bgk";
    case CollisionScheme::kProjective: return "projective";
    case CollisionScheme::kRecursive: return "recursive";
  }
  return "?";
}

/// In-place BGK relaxation: f <- f + (feq - f)/tau. Like every operator
/// below, generic over the register type V (core/lanes.hpp).
template <class L, class V = real_t>
void collide_bgk(V (&f)[L::Q], real_t tau) {
  const Moments<L, V> m = compute_moments<L>(f);
  const real_t omega = real_t(1) / tau;
  for (int i = 0; i < L::Q; ++i) {
    f[i] += omega * (equilibrium<L>(i, m.rho, m.u.data()) - f[i]);
  }
}

/// In-place regularized relaxation in distribution space with the scheme
/// fixed at compile time — no per-node or per-population branch. The
/// non-equilibrium second moment is projected out of f (Eq. 8), relaxed
/// (Eq. 10), and the population rebuilt with the chosen reconstruction.
template <class L, Regularization R, class V = real_t>
void collide_regularized(V (&f)[L::Q], real_t tau) {
  const Moments<L, V> m = compute_moments<L>(f);
  const real_t factor = real_t(1) - real_t(1) / tau;
  V pineq_star[Moments<L>::NP];
  for (int p = 0; p < Moments<L>::NP; ++p) {
    pineq_star[p] = factor * m.pi_neq(p);
  }
  const Reconstructor<L, R, V> rec(m.rho, m.u.data(), pineq_star);
  for (int i = 0; i < L::Q; ++i) {
    f[i] = rec(i);
  }
}

/// Runtime-scheme wrapper: dispatches once, then runs the templated kernel.
template <class L>
void collide_regularized(real_t (&f)[L::Q], real_t tau, Regularization scheme) {
  dispatch_regularization(scheme, [&](auto reg) {
    collide_regularized<L, decltype(reg)::value>(f, tau);
  });
}

/// Compile-time-scheme collision: the emitted body contains only the chosen
/// operator. Stream-collide kernels hoist their scheme dispatch to the
/// launch level (dispatch_collision below) and call this, so the BGK node
/// loop never carries the regularized reconstructors through register
/// allocation — inlining those arms into the loop costs GCC ~10% of the
/// gather-bound kernel's throughput even when the BGK branch is taken.
template <class L, CollisionScheme S, class V = real_t>
void collide(V (&f)[L::Q], real_t tau) {
  if constexpr (S == CollisionScheme::kBGK) {
    collide_bgk<L>(f, tau);
  } else if constexpr (S == CollisionScheme::kProjective) {
    collide_regularized<L, Regularization::kProjective>(f, tau);
  } else {
    collide_regularized<L, Regularization::kRecursive>(f, tau);
  }
}

/// Maps a runtime CollisionScheme to a std::integral_constant and invokes fn
/// once with it — the scheme-hoisting counterpart of dispatch_regularization.
template <class Fn>
void dispatch_collision(CollisionScheme s, Fn&& fn) {
  switch (s) {
    case CollisionScheme::kBGK:
      fn(std::integral_constant<CollisionScheme, CollisionScheme::kBGK>{});
      return;
    case CollisionScheme::kProjective:
      fn(std::integral_constant<CollisionScheme,
                                CollisionScheme::kProjective>{});
      return;
    case CollisionScheme::kRecursive:
      fn(std::integral_constant<CollisionScheme,
                                CollisionScheme::kRecursive>{});
      return;
  }
}

/// Runtime-dispatched collision used by the reference engine.
template <class L, class V = real_t>
void collide(CollisionScheme scheme, V (&f)[L::Q], real_t tau) {
  dispatch_collision(scheme, [&](auto sc) {
    collide<L, decltype(sc)::value>(f, tau);
  });
}

/// Moment-space collision (Eq. 10): relaxes the non-equilibrium part of Pi
/// toward zero while conserving rho and u. Higher-order moments of the
/// recursive scheme need no separate treatment here because their
/// non-equilibrium parts are linear in Pi^neq (see regularization.hpp).
template <class L>
void collide_moments(Moments<L>& m, real_t tau) {
  const real_t factor = real_t(1) - real_t(1) / tau;
  for (int p = 0; p < Moments<L>::NP; ++p) {
    const auto [a, b] = Moments<L>::pair(p);
    const real_t eq = m.rho * m.u[static_cast<std::size_t>(a)] * m.u[static_cast<std::size_t>(b)];
    m.pi[static_cast<std::size_t>(p)] = eq + factor * (m.pi[static_cast<std::size_t>(p)] - eq);
  }
}

}  // namespace mlbm
