// Multi-device domain decomposition: partitioning, ghost exchange, and
// exact agreement between decomposed and monolithic runs.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "engines/engine_spec.hpp"
#include "engines/mr_engine.hpp"
#include "engines/reference_engine.hpp"
#include "engines/st_engine.hpp"
#include "multidev/multi_domain.hpp"
#include "workloads/channel.hpp"

namespace mlbm {
namespace {

TEST(Slabs, PartitionCoversDomainWithoutOverlap) {
  const auto slabs = make_slabs(17, 4);  // uneven split: 5,4,4,4
  ASSERT_EQ(slabs.size(), 4u);
  EXPECT_EQ(slabs[0].x_begin, 0);
  EXPECT_EQ(slabs.back().x_end, 17);
  int widths = 0;
  for (std::size_t d = 0; d < slabs.size(); ++d) {
    EXPECT_GT(slabs[d].x_end, slabs[d].x_begin);
    widths += slabs[d].x_end - slabs[d].x_begin;
    if (d > 0) {
      EXPECT_EQ(slabs[d].x_begin, slabs[d - 1].x_end);
    }
  }
  EXPECT_EQ(widths, 17);
  EXPECT_FALSE(slabs.front().has_left);
  EXPECT_TRUE(slabs.front().has_right);
  EXPECT_TRUE(slabs.back().has_left);
  EXPECT_FALSE(slabs.back().has_right);
  // Local extents include ghosts.
  EXPECT_EQ(slabs[0].local_nx(), 5 + 1);
  EXPECT_EQ(slabs[1].local_nx(), 4 + 2);
  EXPECT_EQ(slabs[0].local_x(0), 0);
  EXPECT_EQ(slabs[1].local_x(slabs[1].x_begin), 1);
}

TEST(Slabs, Validation) {
  EXPECT_THROW(make_slabs(8, 0), std::invalid_argument);
  EXPECT_THROW(make_slabs(8, 9), std::invalid_argument);
  EXPECT_NO_THROW(make_slabs(8, 8));
}

TEST(Slabs, GeometryMarksInterfacesOpen) {
  const auto ch = Channel<D2Q9>::create(16, 8, 1, 0.8, 0.05);
  const auto slabs = make_slabs(16, 2);
  const Geometry left = slab_geometry(ch.geo, slabs[0]);
  const Geometry right = slab_geometry(ch.geo, slabs[1]);
  EXPECT_EQ(left.bc.face[0][0].type, FaceBC::kOpen);   // global inlet face
  EXPECT_EQ(left.bc.face[0][1].type, FaceBC::kOpen);   // interface
  EXPECT_EQ(right.bc.face[0][1].type, FaceBC::kOpen);  // global outlet face
  EXPECT_EQ(left.bc.face[1][0].type, FaceBC::kWall);
  // Node kinds carried over: inlet markers live on the left slab only.
  EXPECT_EQ(left.at(0, 3, 0), NodeKind::kInlet);
  EXPECT_EQ(right.at(right.box.nx - 1, 3, 0), NodeKind::kOutlet);
}

template <class L>
double max_diff(const Engine<L>& mono, const MultiDomainEngine<L>& multi) {
  const Box& b = mono.geometry().box;
  double worst = 0;
  for (int z = 0; z < b.nz; ++z) {
    for (int y = 0; y < b.ny; ++y) {
      for (int x = 0; x < b.nx; ++x) {
        const auto ma = mono.moments_at(x, y, z);
        const auto mb = multi.moments_at(x, y, z);
        worst = std::max(worst, std::abs(static_cast<double>(ma.rho - mb.rho)));
        for (int c = 0; c < L::D; ++c) {
          worst = std::max(worst, std::abs(static_cast<double>(
                                      ma.u[static_cast<std::size_t>(c)] -
                                      mb.u[static_cast<std::size_t>(c)])));
        }
      }
    }
  }
  return worst;
}

class MultiDevEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(MultiDevEquivalence, DecomposedMrMatchesMonolithicExactly2D) {
  const int ndev = GetParam();
  const real_t tau = 0.8;
  const auto ch = Channel<D2Q9>::create(24, 14, 1, tau, 0.05);

  MrEngine<D2Q9> mono(ch.geo, tau, Regularization::kProjective, {8, 1, 2});
  ch.attach(mono);

  const auto owned = make_multi_engine<D2Q9>(
      EngineSpec::parse("mr-p:fp64:8x1x2"), ch.geo, tau, ndev);
  auto& multi = *owned;
  ch.attach(multi);

  for (int s = 0; s < 20; ++s) {
    mono.step();
    multi.step();
  }
  EXPECT_LT(max_diff(mono, multi), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(SlabCounts, MultiDevEquivalence,
                         ::testing::Values(1, 2, 3, 4));

TEST(MultiDev, DecomposedRecursiveMatches3D) {
  const real_t tau = 0.85;
  const auto ch = Channel<D3Q19>::create(16, 8, 6, tau, 0.04);

  MrEngine<D3Q19> mono(ch.geo, tau, Regularization::kRecursive, {4, 4, 1});
  ch.attach(mono);
  const auto owned = make_multi_engine<D3Q19>(
      EngineSpec::parse("mr-r:fp64:4x4x1"), ch.geo, tau, 3);
  auto& multi = *owned;
  ch.attach(multi);
  for (int s = 0; s < 10; ++s) {
    mono.step();
    multi.step();
  }
  EXPECT_LT(max_diff(mono, multi), 1e-12);
}

TEST(MultiDev, HeterogeneousSlabEnginesAgreeWithReference) {
  // One slab runs MR-P, the other projective ST: the moment exchange makes
  // the decomposition representation-agnostic.
  const real_t tau = 0.8;
  const auto ch = Channel<D2Q9>::create(20, 12, 1, tau, 0.04);

  ReferenceEngine<D2Q9> mono(ch.geo, tau, CollisionScheme::kProjective);
  ch.attach(mono);
  MultiDomainEngine<D2Q9> multi(
      ch.geo, tau, 2, [&](Geometry g, int d) -> std::unique_ptr<Engine<D2Q9>> {
        if (d == 0) {
          return std::make_unique<MrEngine<D2Q9>>(
              std::move(g), tau, Regularization::kProjective, MrConfig{8, 1, 2});
        }
        return std::make_unique<StEngine<D2Q9>>(std::move(g), tau,
                                                CollisionScheme::kProjective);
      });
  ch.attach(multi);
  for (int s = 0; s < 15; ++s) {
    mono.step();
    multi.step();
  }
  EXPECT_LT(max_diff(mono, multi), 1e-12);
}

TEST(MultiDev, BgkMomentExchangeIsApproximateButClose) {
  // Plain BGK carries higher-order non-equilibrium the M-value exchange
  // projects away; the decomposed run deviates at O(Ma^3) but stays close.
  const real_t tau = 0.8;
  const auto ch = Channel<D2Q9>::create(20, 12, 1, tau, 0.04);
  StEngine<D2Q9> mono(ch.geo, tau);
  ch.attach(mono);
  const auto owned = make_multi_engine<D2Q9>(EngineSpec{}, ch.geo, tau, 2);
  auto& multi = *owned;
  ch.attach(multi);
  for (int s = 0; s < 15; ++s) {
    mono.step();
    multi.step();
  }
  const double diff = max_diff(mono, multi);
  EXPECT_LT(diff, 2e-4);   // close (0.1% of u_max)...
  EXPECT_GT(diff, 1e-10);  // ...but not exact: the projection is real.
}

TEST(MultiDev, ExchangeAccounting) {
  const real_t tau = 0.8;
  const auto ch = Channel<D3Q19>::create(12, 6, 5, tau, 0.03);
  const auto owned = make_multi_engine<D3Q19>(
      EngineSpec::parse("mr-p:fp64:4x4x1"), ch.geo, tau, 3);
  auto& multi = *owned;
  ch.attach(multi);
  // 2 interfaces x 2 directions x (6*5) face nodes x 10 moments.
  EXPECT_EQ(multi.exchanged_values_per_step(), 2ull * 2 * 30 * 10);
  multi.run(4);
  EXPECT_EQ(multi.exchanged_values_total(), 4ull * 2 * 2 * 30 * 10);
  EXPECT_EQ(multi.devices(), 3);
  // Aggregate footprint is the sum over slabs (ghost planes add O(surface)).
  EXPECT_GT(multi.state_bytes(),
            2u * 10 * sizeof(real_t) * 12 * 6 * 5);
}

TEST(MultiDev, RejectsPeriodicDecompositionAxis) {
  Geometry geo(Box{16, 8, 1});
  geo.bc.set_axis(0, FaceBC::kPeriodic);
  geo.bc.set_axis(1, FaceBC::kWall);
  geo.bc.set_axis(2, FaceBC::kPeriodic);
  EXPECT_THROW(MultiDomainEngine<D2Q9>(
                   geo, 0.8, 2,
                   [](Geometry g, int) -> std::unique_ptr<Engine<D2Q9>> {
                     return std::make_unique<StEngine<D2Q9>>(std::move(g), 0.8);
                   }),
               std::invalid_argument);
}

}  // namespace
}  // namespace mlbm
