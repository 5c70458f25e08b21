// Lane arithmetic: the collision, moment and reconstruction operators
// instantiated on the W-wide register Lanes<W> (core/lanes.hpp) reproduce,
// lane by lane, the bits of the same operators on one node's real_t — for
// every panel fill n = 1..kLaneWidth, and whatever the inactive lanes hold.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "core/collision.hpp"
#include "core/lanes.hpp"
#include "core/lattice.hpp"
#include "core/moments.hpp"
#include "core/regularization.hpp"

namespace mlbm {
namespace {

constexpr int W = kLaneWidth;
using V = Lanes<W>;
constexpr CollisionScheme kSchemes[] = {CollisionScheme::kBGK,
                                        CollisionScheme::kProjective,
                                        CollisionScheme::kRecursive};
constexpr real_t kTau = 0.62;

bool same_bits(real_t a, real_t b) {
  return std::memcmp(&a, &b, sizeof(real_t)) == 0;
}

/// Seeded moment state of one node far from equilibrium: rho in [0.5, 2],
/// |u| up to 0.3, Pi_neq perturbed by up to 5% of rho.
template <class L>
struct NodeState {
  real_t rho = 1;
  real_t u[L::D] = {};
  real_t pineq[Moments<L>::NP] = {};
};

template <class L>
NodeState<L> random_state(std::mt19937& rng) {
  std::uniform_real_distribution<real_t> unit(0.0, 1.0);
  std::uniform_real_distribution<real_t> sym(-1.0, 1.0);
  NodeState<L> s;
  s.rho = 0.5 + 1.5 * unit(rng);
  real_t norm = 0;
  for (int a = 0; a < L::D; ++a) {
    s.u[a] = sym(rng);
    norm += s.u[a] * s.u[a];
  }
  const real_t speed = 0.3 * unit(rng) / std::sqrt(norm);
  for (int a = 0; a < L::D; ++a) s.u[a] *= speed;
  for (int p = 0; p < Moments<L>::NP; ++p) s.pineq[p] = 0.05 * s.rho * sym(rng);
  return s;
}

/// A panel of W nodes, node-major: each node's recursively regularized
/// population with an extra 5% per-population perturbation, so the
/// populations also carry higher-order non-equilibrium content.
template <class L>
void random_panel(unsigned seed, real_t (&f)[W][L::Q]) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<real_t> sym(-1.0, 1.0);
  for (auto& node : f) {
    const NodeState<L> s = random_state<L>(rng);
    for (int i = 0; i < L::Q; ++i) {
      node[i] = reconstruct_recursive<L>(i, s.rho, s.u, s.pineq) *
                (1 + 0.05 * sym(rng));
    }
  }
}

/// Lane-major registers of rows[0..n) with the inactive lanes n..W-1 taken
/// from `fill`.
template <int N>
void load(const real_t (&rows)[W][N], int n, const real_t (&fill)[W][N],
          V (&r)[N]) {
  for (int k = 0; k < N; ++k) {
    real_t x[W];
    for (int ln = 0; ln < W; ++ln) x[ln] = (ln < n ? rows : fill)[ln][k];
    r[k] = V(x);
  }
}

template <class L>
class LaneArithmetic : public ::testing::Test {};

using Lattices = ::testing::Types<D2Q9, D3Q19, D3Q27, D3Q15>;
TYPED_TEST_SUITE(LaneArithmetic, Lattices);

// in_lanes + collide<L>(scheme, Lanes) against collide<L>(scheme, real_t)
// node by node; the inactive rows are never stored.
TYPED_TEST(LaneArithmetic, CollideMatchesScalarBitForBit) {
  using L = TypeParam;
  for (const CollisionScheme scheme : kSchemes) {
    for (int n = 1; n <= W; ++n) {
      real_t rows[W][L::Q];
      random_panel<L>(100u + static_cast<unsigned>(n), rows);
      real_t expect[W][L::Q];
      std::memcpy(expect, rows, sizeof(rows));
      for (int ln = 0; ln < n; ++ln) collide<L>(scheme, expect[ln], kTau);
      in_lanes(rows, n, [&](auto& r) { collide<L>(scheme, r, kTau); });
      for (int ln = 0; ln < W; ++ln) {
        for (int i = 0; i < L::Q; ++i) {
          ASSERT_TRUE(same_bits(rows[ln][i], expect[ln][i]))
              << to_string(scheme) << " n=" << n << " lane " << ln
              << " i=" << i;
        }
      }
    }
  }
}

TYPED_TEST(LaneArithmetic, ComputeMomentsMatchesScalarBitForBit) {
  using L = TypeParam;
  for (int n = 1; n <= W; ++n) {
    real_t rows[W][L::Q];
    random_panel<L>(200u + static_cast<unsigned>(n), rows);
    in_lanes(rows, n, [&](V (&r)[L::Q]) {
      const Moments<L, V> m = compute_moments<L>(r);
      for (int ln = 0; ln < n; ++ln) {
        const Moments<L> s = compute_moments<L>(rows[ln]);
        ASSERT_TRUE(same_bits(lane(m.rho, ln), s.rho)) << "n=" << n;
        for (std::size_t a = 0; a < L::D; ++a) {
          ASSERT_TRUE(same_bits(lane(m.u[a], ln), s.u[a])) << "n=" << n;
        }
        for (std::size_t p = 0; p < Moments<L>::NP; ++p) {
          ASSERT_TRUE(same_bits(lane(m.pi[p], ln), s.pi[p])) << "n=" << n;
        }
      }
    });
  }
}

template <class L, Regularization R>
void expect_reconstructor_matches(unsigned seed) {
  constexpr int NP = Moments<L>::NP;
  std::mt19937 rng(seed);
  NodeState<L> s[W];
  for (auto& node : s) node = random_state<L>(rng);
  for (int n = 1; n <= W; ++n) {
    // Inactive lanes hold copies of node 0, as in_lanes fills them.
    real_t rho[W];
    real_t u[L::D][W];
    real_t pineq[NP][W];
    for (int ln = 0; ln < W; ++ln) {
      const NodeState<L>& node = s[ln < n ? ln : 0];
      rho[ln] = node.rho;
      for (int a = 0; a < L::D; ++a) u[a][ln] = node.u[a];
      for (int p = 0; p < NP; ++p) pineq[p][ln] = node.pineq[p];
    }
    V ru[L::D];
    V rpineq[NP];
    for (int a = 0; a < L::D; ++a) ru[a] = V(u[a]);
    for (int p = 0; p < NP; ++p) rpineq[p] = V(pineq[p]);
    const Reconstructor<L, R, V> rec(V(rho), ru, rpineq);
    for (int ln = 0; ln < n; ++ln) {
      const Reconstructor<L, R> scalar(s[ln].rho, s[ln].u, s[ln].pineq);
      for (int i = 0; i < L::Q; ++i) {
        ASSERT_TRUE(same_bits(lane(rec(i), ln), scalar(i)))
            << to_string(R) << " n=" << n << " lane " << ln << " i=" << i;
      }
    }
  }
}

TYPED_TEST(LaneArithmetic, ReconstructorMatchesScalarBitForBit) {
  using L = TypeParam;
  expect_reconstructor_matches<L, Regularization::kProjective>(300);
  expect_reconstructor_matches<L, Regularization::kRecursive>(301);
}

// A ragged panel's active outputs do not depend on its inactive lanes:
// copies of node 0, other nodes, or all-zero populations (whose rho = 0
// turns every inactive register into NaN) give the same active bits.
TYPED_TEST(LaneArithmetic, RaggedPanelIgnoresInactiveLanes) {
  using L = TypeParam;
  real_t rows[W][L::Q];
  random_panel<L>(400, rows);
  real_t copies[W][L::Q];
  for (auto& node : copies) std::memcpy(node, rows[0], sizeof(node));
  real_t others[W][L::Q];
  random_panel<L>(401, others);
  real_t zeros[W][L::Q] = {};
  for (const CollisionScheme scheme : kSchemes) {
    for (int n = 1; n < W; ++n) {
      V ref[L::Q];
      load(rows, n, copies, ref);
      collide<L>(scheme, ref, kTau);
      for (const auto* fill : {&others, &zeros}) {
        V r[L::Q];
        load(rows, n, *fill, r);
        collide<L>(scheme, r, kTau);
        for (int i = 0; i < L::Q; ++i) {
          for (int ln = 0; ln < n; ++ln) {
            ASSERT_TRUE(same_bits(lane(r[i], ln), lane(ref[i], ln)))
                << to_string(scheme) << " n=" << n << " lane " << ln
                << " i=" << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mlbm
