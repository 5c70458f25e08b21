// Property-style parameterized sweeps: invariants that must hold for every
// engine x lattice x configuration combination.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>

#include "engines/mr_engine.hpp"
#include "engines/reference_engine.hpp"
#include "engines/st_engine.hpp"
#include "io/checkpoint.hpp"
#include "workloads/taylor_green.hpp"
#include "tmp_path.hpp"

namespace mlbm {
namespace {

// Engine factory keyed by a descriptive string so parameterized tests can
// sweep heterogeneous engine types.
enum class EngineKind {
  kRef,
  kStPull,
  kStPush,
  kMrProjective,
  kMrRecursive,
  kMrProjectiveCirc,
};

const char* kind_name(EngineKind k) {
  switch (k) {
    case EngineKind::kRef: return "ref";
    case EngineKind::kStPull: return "st_pull";
    case EngineKind::kStPush: return "st_push";
    case EngineKind::kMrProjective: return "mr_p";
    case EngineKind::kMrRecursive: return "mr_r";
    case EngineKind::kMrProjectiveCirc: return "mr_p_circ";
  }
  return "?";
}

template <class L>
std::unique_ptr<Engine<L>> make_engine(EngineKind k, Geometry geo,
                                       real_t tau) {
  const MrConfig cfg{4, 4, 2};
  MrConfig circ = cfg;
  circ.storage = MomentStorage::kCircularShift;
  switch (k) {
    case EngineKind::kRef:
      return std::make_unique<ReferenceEngine<L>>(std::move(geo), tau,
                                                  CollisionScheme::kBGK);
    case EngineKind::kStPull:
      return std::make_unique<StEngine<L>>(std::move(geo), tau);
    case EngineKind::kStPush:
      return std::make_unique<StEngine<L>>(std::move(geo), tau,
                                           CollisionScheme::kBGK, 64,
                                           StreamMode::kPush);
    case EngineKind::kMrProjective:
      return std::make_unique<MrEngine<L>>(std::move(geo), tau,
                                           Regularization::kProjective, cfg);
    case EngineKind::kMrRecursive:
      return std::make_unique<MrEngine<L>>(std::move(geo), tau,
                                           Regularization::kRecursive, cfg);
    case EngineKind::kMrProjectiveCirc:
      return std::make_unique<MrEngine<L>>(std::move(geo), tau,
                                           Regularization::kProjective, circ);
  }
  return nullptr;
}

Geometry periodic_geo(int nx, int ny, int nz) {
  Geometry geo(Box{nx, ny, nz});
  geo.bc.set_axis(0, FaceBC::kPeriodic);
  geo.bc.set_axis(1, FaceBC::kPeriodic);
  geo.bc.set_axis(2, FaceBC::kPeriodic);
  return geo;
}

template <class L>
typename Engine<L>::InitFn wavy_init() {
  return [](int x, int y, int z) {
    std::array<real_t, L::D> u{};
    u[0] = 0.02 * std::sin(0.7 * y + 0.3 * z);
    u[1] = 0.02 * std::sin(0.5 * x);
    return equilibrium_moments<L>(
        real_t(1) + real_t(0.01) * std::cos(0.4 * (x + y + z)), u);
  };
}

const EngineKind kAllKinds[] = {
    EngineKind::kRef,          EngineKind::kStPull,
    EngineKind::kStPush,       EngineKind::kMrProjective,
    EngineKind::kMrRecursive,  EngineKind::kMrProjectiveCirc,
};

// ------------------------------------------------------------- conservation

class ConservationProperty : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ConservationProperty, MassAndMomentumOnPeriodicDomain2D) {
  auto eng = make_engine<D2Q9>(GetParam(), periodic_geo(12, 10, 1), 0.8);
  eng->initialize(wavy_init<D2Q9>());

  auto totals = [&] {
    std::array<real_t, 3> t{};
    for (int y = 0; y < 10; ++y) {
      for (int x = 0; x < 12; ++x) {
        const auto m = eng->moments_at(x, y, 0);
        t[0] += m.rho;
        t[1] += m.rho * m.u[0];
        t[2] += m.rho * m.u[1];
      }
    }
    return t;
  };
  const auto before = totals();
  eng->run(15);
  const auto after = totals();
  EXPECT_NEAR(after[0], before[0], 1e-11);
  EXPECT_NEAR(after[1], before[1], 1e-11);
  EXPECT_NEAR(after[2], before[2], 1e-11);
}

TEST_P(ConservationProperty, MassAndMomentumOnPeriodicDomain3D) {
  auto eng = make_engine<D3Q19>(GetParam(), periodic_geo(8, 6, 7), 0.7);
  eng->initialize(wavy_init<D3Q19>());
  real_t mass0 = 0, mass1 = 0;
  for (int z = 0; z < 7; ++z) {
    for (int y = 0; y < 6; ++y) {
      for (int x = 0; x < 8; ++x) mass0 += eng->moments_at(x, y, z).rho;
    }
  }
  eng->run(8);
  for (int z = 0; z < 7; ++z) {
    for (int y = 0; y < 6; ++y) {
      for (int x = 0; x < 8; ++x) mass1 += eng->moments_at(x, y, z).rho;
    }
  }
  EXPECT_NEAR(mass1, mass0, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ConservationProperty,
                         ::testing::ValuesIn(kAllKinds),
                         [](const auto& pinfo) {
                           return std::string(kind_name(pinfo.param));
                         });

// -------------------------------------------------------------- checkpoints

class CheckpointProperty : public ::testing::TestWithParam<EngineKind> {};

TEST_P(CheckpointProperty, SaveLoadRoundTripsThroughEveryEngine) {
  const auto geo = periodic_geo(10, 8, 1);
  auto a = make_engine<D2Q9>(GetParam(), geo, 0.8);
  a->initialize(wavy_init<D2Q9>());
  a->run(6);

  const std::string path =
      tmp_path(std::string("mlbm_prop_") + kind_name(GetParam()) + ".ckpt");
  save_checkpoint(*a, path);

  // Restore into a *reference* engine regardless of source kind.
  auto b = make_engine<D2Q9>(EngineKind::kRef, geo, 0.8);
  b->initialize(wavy_init<D2Q9>());
  load_checkpoint(*b, path);
  for (int y = 0; y < 8; y += 2) {
    for (int x = 0; x < 10; x += 3) {
      const auto ma = a->moments_at(x, y, 0);
      const auto mb = b->moments_at(x, y, 0);
      EXPECT_NEAR(ma.rho, mb.rho, 1e-13);
      EXPECT_NEAR(ma.u[0], mb.u[0], 1e-13);
      EXPECT_NEAR(ma.pi[2], mb.pi[2], 1e-13);
    }
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, CheckpointProperty,
                         ::testing::ValuesIn(kAllKinds),
                         [](const auto& pinfo) {
                           return std::string(kind_name(pinfo.param));
                         });

// -------------------------------------------------- viscosity across tau

class ViscosityProperty : public ::testing::TestWithParam<double> {};

TEST_P(ViscosityProperty, TaylorGreenDecayTracksTau) {
  const real_t tau = GetParam();
  const auto tg = TaylorGreen<D2Q9>::create(24, 0.02);
  MrEngine<D2Q9> e(tg.geo, tau, Regularization::kProjective, {8, 1, 2});
  tg.attach(e);
  const real_t e0 = TaylorGreen<D2Q9>::kinetic_energy(e);
  const int steps = 120;
  e.run(steps);
  const real_t e1 = TaylorGreen<D2Q9>::kinetic_energy(e);
  const real_t k = 2 * 3.14159265358979323846 / 24;
  const double nu = -std::log(e1 / e0) / (4 * k * k * steps);
  EXPECT_NEAR(nu, e.viscosity(), 0.04 * e.viscosity()) << "tau=" << tau;
}

// Capped at tau = 1.5: beyond that the truncation error of the discrete
// decay (O(nu^2 k^2) per step) exceeds the 4% acceptance band — a known
// accuracy limit of BGK-type LBM at large relaxation times, not a bug.
INSTANTIATE_TEST_SUITE_P(TauSweep, ViscosityProperty,
                         ::testing::Values(0.55, 0.65, 0.8, 1.0, 1.25, 1.5));

// ----------------------------------------- MR tile geometry exhaustiveness

struct TileCase {
  int tx, ty, ts;
  MomentStorage storage;
};

class TileProperty : public ::testing::TestWithParam<TileCase> {};

TEST_P(TileProperty, AnyTileShapeReproducesTheReferenceTrajectory3D) {
  const auto& tc = GetParam();
  const real_t tau = 0.8;
  const auto geo = periodic_geo(7, 6, 9);  // deliberately ragged extents

  ReferenceEngine<D3Q19> ref(geo, tau, CollisionScheme::kProjective);
  MrEngine<D3Q19> mr(geo, tau, Regularization::kProjective,
                     {tc.tx, tc.ty, tc.ts, tc.storage});
  ref.initialize(wavy_init<D3Q19>());
  mr.initialize(wavy_init<D3Q19>());
  for (int s = 0; s < 6; ++s) {
    ref.step();
    mr.step();
  }
  double worst = 0;
  for (int z = 0; z < 9; ++z) {
    for (int y = 0; y < 6; ++y) {
      for (int x = 0; x < 7; ++x) {
        worst = std::max(worst, std::abs(static_cast<double>(
                                    ref.moments_at(x, y, z).u[0] -
                                    mr.moments_at(x, y, z).u[0])));
      }
    }
  }
  EXPECT_LT(worst, 1e-13);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TileProperty,
    ::testing::Values(TileCase{1, 1, 1, MomentStorage::kPingPong},
                      TileCase{7, 6, 1, MomentStorage::kPingPong},
                      TileCase{3, 2, 2, MomentStorage::kPingPong},
                      TileCase{5, 5, 3, MomentStorage::kPingPong},
                      TileCase{2, 3, 1, MomentStorage::kCircularShift},
                      TileCase{4, 2, 4, MomentStorage::kCircularShift},
                      TileCase{16, 16, 2, MomentStorage::kPingPong}),
    [](const auto& pinfo) {
      const auto& tc = pinfo.param;
      return std::to_string(tc.tx) + "x" + std::to_string(tc.ty) + "x" +
             std::to_string(tc.ts) +
             (tc.storage == MomentStorage::kCircularShift ? "_circ" : "_pp");
    });

// -------------------------------------------------------- galilean shift

TEST(GalileanProperty, AdvectedVortexMatchesStationaryOne) {
  // Superimposing a uniform velocity U on a periodic flow must advect it
  // without distortion (to compressibility-error order): compare the decay
  // of kinetic energy in the co-moving and stationary frames.
  const int n = 24;
  const real_t u0 = 0.01, U = 0.04;
  const auto tg = TaylorGreen<D2Q9>::create(n, u0);

  MrEngine<D2Q9> still(tg.geo, 0.8, Regularization::kRecursive, {8, 1, 2});
  tg.attach(still);

  MrEngine<D2Q9> moving(tg.geo, 0.8, Regularization::kRecursive, {8, 1, 2});
  const real_t k = 2 * 3.14159265358979323846 / n;
  moving.initialize([&](int x, int y, int /*z*/) {
    std::array<real_t, 2> u = {
        static_cast<real_t>(-u0 * std::cos(k * x) * std::sin(k * y) + U),
        static_cast<real_t>(u0 * std::sin(k * x) * std::cos(k * y))};
    return equilibrium_moments<D2Q9>(1.0, u);
  });

  const int steps = 60;
  still.run(steps);
  moving.run(steps);

  // Fluctuation kinetic energy about the mean flow.
  auto fluct_ke = [&](Engine<D2Q9>& e, real_t mean_ux) {
    real_t s = 0;
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        const auto m = e.moments_at(x, y, 0);
        const real_t du = m.u[0] - mean_ux;
        s += du * du + m.u[1] * m.u[1];
      }
    }
    return s;
  };
  const real_t ke_still = fluct_ke(still, 0);
  const real_t ke_moving = fluct_ke(moving, U);
  EXPECT_NEAR(ke_moving / ke_still, 1.0, 0.05);
}

}  // namespace
}  // namespace mlbm
