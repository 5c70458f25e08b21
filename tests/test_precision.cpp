// Storage-precision policy: FP32 storage with FP64 compute.
//
// The contract under test, layer by layer:
//  * GlobalArray converts at the register boundary and counts sizeof(T)
//    bytes per element — never the compute width; null-counter arrays are
//    safe to access and count nothing.
//  * Every engine moves exactly half the bytes under FP32 storage, with
//    identical transaction counts (same access pattern, narrower elements).
//  * The perf model's Table 2 figures scale with the element width.
//  * Checkpoints round-trip the declared storage precision.
//  * Physics: FP64 storage is bit-identical to the host reference; FP32
//    storage adds only bounded rounding noise.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "engines/engine_spec.hpp"
#include "engines/factory.hpp"
#include "engines/reference_engine.hpp"
#include "gpusim/global_array.hpp"
#include "io/checkpoint.hpp"
#include "multidev/multi_domain.hpp"
#include "perfmodel/mflups_model.hpp"
#include "perfmodel/roofline.hpp"
#include "workloads/taylor_green.hpp"
#include "tmp_path.hpp"

namespace mlbm {
namespace {

Geometry periodic_geo(int nx, int ny, int nz) {
  Geometry geo(Box{nx, ny, nz});
  geo.bc.set_axis(0, FaceBC::kPeriodic);
  geo.bc.set_axis(1, FaceBC::kPeriodic);
  geo.bc.set_axis(2, FaceBC::kPeriodic);
  return geo;
}

// ---------------------------------------------------------- GlobalArray

TEST(GlobalArrayPrecision, NullCounterArrayIsSafeAndCountsNothing) {
  gpusim::GlobalArray<double> a(8, nullptr);  // routes to null_counter()
  a.store(0, 1.5);
  EXPECT_EQ(a.load(0), 1.5);
  double buf[4] = {};
  a.load_span_as<double>(0, 2, 4, buf);
  a.store_span_as<double>(0, 2, 4, buf);
  // The shared null counter stays disabled: nothing was recorded.
  EXPECT_EQ(gpusim::null_counter().snapshot().bytes_total(), 0u);
}

TEST(GlobalArrayPrecision, ConvertsAtTheRegisterBoundary) {
  gpusim::TrafficCounter c;
  gpusim::GlobalArray<float> a(4, &c);
  const double v = 0.1;  // not representable in binary32
  a.store_as(0, v);
  const double back = a.load_as<double>(0);
  EXPECT_EQ(back, static_cast<double>(static_cast<float>(v)));
  EXPECT_NE(back, v);
}

TEST(GlobalArrayPrecision, CountsStorageBytesNotComputeBytes) {
  gpusim::TrafficCounter c;
  gpusim::GlobalArray<float> a(16, &c);
  double buf[8] = {};
  a.load_span_as<double>(0, 2, 8, buf);
  a.store_span_as<double>(0, 2, 8, buf);
  (void)a.load_as<double>(3);
  const auto t = c.snapshot();
  EXPECT_EQ(t.bytes_read, 8 * sizeof(float) + sizeof(float));
  EXPECT_EQ(t.bytes_written, 8 * sizeof(float));
  EXPECT_EQ(t.reads, 2u);   // one span + one scalar
  EXPECT_EQ(t.writes, 1u);  // one span
}

TEST(GlobalArrayPrecision, NegativeStrideSpanStaysInBounds) {
  gpusim::TrafficCounter c;
  gpusim::GlobalArray<double> a(6, &c);
  for (index_t i = 0; i < 6; ++i) a.raw(i) = static_cast<double>(i);
  double buf[3] = {};
  a.load_span_as<double>(5, -2, 3, buf);  // elements 5, 3, 1
  EXPECT_EQ(buf[0], 5.0);
  EXPECT_EQ(buf[1], 3.0);
  EXPECT_EQ(buf[2], 1.0);
  const double out[3] = {9, 8, 7};
  a.store_span_as<double>(4, -2, 3, out);  // elements 4, 2, 0
  EXPECT_EQ(a.raw(4), 9.0);
  EXPECT_EQ(a.raw(2), 8.0);
  EXPECT_EQ(a.raw(0), 7.0);
}

// ------------------------------------------------- engine traffic halving

/// Runs `steps` instrumented steps and returns the traffic delta.
template <class L>
gpusim::TrafficSnapshot traffic_of(Engine<L>& eng, int steps) {
  eng.initialize(
      [](int, int, int) { return equilibrium_moments<L>(1.0, {}); });
  eng.step();
  const auto before = eng.profiler()->total_traffic();
  eng.run(steps);
  return eng.profiler()->total_traffic() - before;
}

/// FP32 must move exactly half the bytes of FP64 in the same number of
/// transactions — the pattern's access structure is precision-independent.
template <class L>
void expect_half_traffic(Engine<L>& e64, Engine<L>& e32, int steps) {
  ASSERT_EQ(e64.storage_precision(), StoragePrecision::kFP64);
  ASSERT_EQ(e32.storage_precision(), StoragePrecision::kFP32);
  const auto t64 = traffic_of<L>(e64, steps);
  const auto t32 = traffic_of<L>(e32, steps);
  EXPECT_EQ(t64.bytes_read, 2 * t32.bytes_read);
  EXPECT_EQ(t64.bytes_written, 2 * t32.bytes_written);
  EXPECT_EQ(t64.reads, t32.reads);
  EXPECT_EQ(t64.writes, t32.writes);
  EXPECT_EQ(e64.state_bytes(), 2 * e32.state_bytes());
}

TEST(Fp32Traffic, StHalvesBytesKeepsTransactions) {
  const Geometry geo = periodic_geo(12, 10, 1);
  StEngine<D2Q9, double> e64(geo, 0.8);
  StEngine<D2Q9, float> e32(geo, 0.8);
  expect_half_traffic<D2Q9>(e64, e32, 3);
}

TEST(Fp32Traffic, StPushHalvesBytesKeepsTransactions) {
  const Geometry geo = periodic_geo(10, 8, 1);
  StEngine<D2Q9, double> e64(geo, 0.8, CollisionScheme::kBGK, 64,
                             StreamMode::kPush);
  StEngine<D2Q9, float> e32(geo, 0.8, CollisionScheme::kBGK, 64,
                            StreamMode::kPush);
  expect_half_traffic<D2Q9>(e64, e32, 3);
}

TEST(Fp32Traffic, AaHalvesBytesKeepsTransactions) {
  const Geometry geo = periodic_geo(12, 10, 1);
  AaEngine<D2Q9, double> e64(geo, 0.8);
  AaEngine<D2Q9, float> e32(geo, 0.8);
  // Even number of steps so both parities of the AA cycle are covered.
  expect_half_traffic<D2Q9>(e64, e32, 4);
}

TEST(Fp32Traffic, MrHalvesBytesKeepsTransactions) {
  const Geometry geo = periodic_geo(16, 12, 1);
  const MrConfig cfg{8, 1, 2};
  MrEngine<D2Q9, double> e64(geo, 0.8, Regularization::kProjective, cfg);
  MrEngine<D2Q9, float> e32(geo, 0.8, Regularization::kProjective, cfg);
  expect_half_traffic<D2Q9>(e64, e32, 3);
}

TEST(Fp32Traffic, Mr3DHalvesBytesKeepsTransactions) {
  const Geometry geo = periodic_geo(8, 8, 6);
  const MrConfig cfg{4, 4, 1};
  MrEngine<D3Q19, double> e64(geo, 0.8, Regularization::kRecursive, cfg);
  MrEngine<D3Q19, float> e32(geo, 0.8, Regularization::kRecursive, cfg);
  expect_half_traffic<D3Q19>(e64, e32, 2);
}

// ---------------------------------------------------------- perf model

TEST(PrecisionPerfModel, BytesPerFlupScalesWithElementWidth) {
  const auto lat = perf::lattice_info<D3Q19>();
  for (const auto p :
       {perf::Pattern::kST, perf::Pattern::kMRP, perf::Pattern::kMRR}) {
    EXPECT_EQ(perf::bytes_per_flup(p, lat),
              perf::bytes_per_flup(p, lat, 8.0));
    EXPECT_EQ(perf::bytes_per_flup(p, lat, 8.0),
              2.0 * perf::bytes_per_flup(p, lat, 4.0));
    EXPECT_EQ(perf::state_bytes(p, lat, 1000, false, 8.0),
              2.0 * perf::state_bytes(p, lat, 1000, false, 4.0));
  }
  EXPECT_EQ(perf::elem_bytes_of(StoragePrecision::kFP64), 8.0);
  EXPECT_EQ(perf::elem_bytes_of(StoragePrecision::kFP32), 4.0);
}

TEST(PrecisionPerfModel, Fp32StorageDoublesBandwidthBoundMflups) {
  const auto dev = gpusim::DeviceSpec::v100();
  const auto lat = perf::lattice_info<D2Q9>();
  perf::KernelCharacteristics kc;
  kc.threads_per_block = 256;
  perf::KernelCharacteristics kc32 = kc;
  kc32.storage_elem_bytes = 4.0;
  const auto e64 = perf::estimate_saturated(dev, perf::Pattern::kST, lat, kc);
  const auto e32 = perf::estimate_saturated(dev, perf::Pattern::kST, lat, kc32);
  EXPECT_DOUBLE_EQ(e32.roofline_mflups, 2.0 * e64.roofline_mflups);
  EXPECT_DOUBLE_EQ(e32.bw_bound_mflups, 2.0 * e64.bw_bound_mflups);
}

// ---------------------------------------------------------- checkpoints

TEST(PrecisionCheckpoint, MrFp32RoundTripIsBitExact) {
  const auto tg = TaylorGreen<D2Q9>::create(12, 0.03);
  MrEngine<D2Q9, float> a(tg.geo, 0.8, Regularization::kProjective, {8, 1, 2});
  tg.attach(a);
  a.run(5);

  const std::string path = tmp_path("mlbm_ckpt_fp32_mr.bin");
  save_checkpoint(a, path);
  // The fp32 file is half the payload of the fp64 format. v3 layout: magic,
  // 7-int header, geometry hash, then the payload (all-fluid => no flags).
  const auto file_bytes = std::filesystem::file_size(path);
  const std::size_t nodes = 12 * 12;
  EXPECT_EQ(file_bytes, 8 + 7 * 4 + 8 + nodes * 6 * sizeof(float));

  MrEngine<D2Q9, float> b(tg.geo, 0.8, Regularization::kProjective, {8, 1, 2});
  load_checkpoint(b, path);
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) {
      const auto ma = a.moments_at(x, y, 0);
      const auto mb = b.moments_at(x, y, 0);
      EXPECT_EQ(ma.rho, mb.rho);
      EXPECT_EQ(ma.u[0], mb.u[0]);
      EXPECT_EQ(ma.u[1], mb.u[1]);
      for (int p = 0; p < Moments<D2Q9>::NP; ++p) {
        EXPECT_EQ(ma.pi[static_cast<std::size_t>(p)],
                  mb.pi[static_cast<std::size_t>(p)]);
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(PrecisionCheckpoint, StFp32RoundTripsWithinStorageRounding) {
  const auto tg = TaylorGreen<D2Q9>::create(12, 0.03);
  StEngine<D2Q9, float> a(tg.geo, 0.8);
  tg.attach(a);
  a.run(5);

  const std::string path = tmp_path("mlbm_ckpt_fp32_st.bin");
  save_checkpoint(a, path);
  StEngine<D2Q9, float> b(tg.geo, 0.8);
  load_checkpoint(b, path);
  // ST stores populations, so the round trip goes moments -> reconstruct ->
  // fp32 populations; exactness holds only to storage rounding.
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) {
      const auto ma = a.moments_at(x, y, 0);
      const auto mb = b.moments_at(x, y, 0);
      EXPECT_NEAR(ma.rho, mb.rho, 1e-5);
      EXPECT_NEAR(ma.u[0], mb.u[0], 1e-5);
      EXPECT_NEAR(ma.u[1], mb.u[1], 1e-5);
    }
  }
  std::filesystem::remove(path);
}

TEST(PrecisionCheckpoint, Fp32FileRestoresIntoFp64Engine) {
  const auto tg = TaylorGreen<D2Q9>::create(12, 0.03);
  MrEngine<D2Q9, float> a(tg.geo, 0.8, Regularization::kProjective, {8, 1, 2});
  tg.attach(a);
  a.run(3);

  const std::string path = tmp_path("mlbm_ckpt_fp32_to_fp64.bin");
  save_checkpoint(a, path);
  MrEngine<D2Q9, double> b(tg.geo, 0.8, Regularization::kProjective,
                           {8, 1, 2});
  load_checkpoint(b, path);
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) {
      EXPECT_EQ(a.moments_at(x, y, 0).rho, b.moments_at(x, y, 0).rho);
      EXPECT_EQ(a.moments_at(x, y, 0).u[0], b.moments_at(x, y, 0).u[0]);
    }
  }
  std::filesystem::remove(path);
}

// ------------------------------------------------------------- physics

/// Max L2 velocity error against the FP64 host reference over a short
/// Taylor-Green run.
template <class MakeEngine>
double tg_error_vs_reference(CollisionScheme ref_scheme,
                             const MakeEngine& make) {
  const auto tg = TaylorGreen<D2Q9>::create(16, 0.03);
  ReferenceEngine<D2Q9> ref(tg.geo, 0.8, ref_scheme);
  auto eng = make(tg.geo);
  tg.attach(ref);
  tg.attach(*eng);
  double max_err = 0;
  for (int s = 0; s < 10; ++s) {
    ref.step();
    eng->step();
    double sum = 0;
    for (int y = 0; y < 16; ++y) {
      for (int x = 0; x < 16; ++x) {
        const auto a = eng->moments_at(x, y, 0);
        const auto r = ref.moments_at(x, y, 0);
        sum += (a.u[0] - r.u[0]) * (a.u[0] - r.u[0]) +
               (a.u[1] - r.u[1]) * (a.u[1] - r.u[1]);
      }
    }
    max_err = std::max(max_err, std::sqrt(sum / 256.0));
  }
  return max_err;
}

TEST(Fp32Accuracy, TaylorGreenErrorIsBoundedAndFp64IsExact) {
  const auto make = [](StoragePrecision prec) {
    return [prec](const Geometry& geo) {
      return make_mr_engine<D2Q9>(prec, geo, 0.8, Regularization::kProjective,
                                  MrConfig{8, 1, 2});
    };
  };
  const double err64 = tg_error_vs_reference(
      CollisionScheme::kProjective, make(StoragePrecision::kFP64));
  const double err32 = tg_error_vs_reference(
      CollisionScheme::kProjective, make(StoragePrecision::kFP32));
  // FP64 storage: same arithmetic as the reference up to summation order —
  // machine-epsilon noise only.
  EXPECT_LT(err64, 1e-14);
  // FP32 storage: pure storage-rounding noise, far below the flow scale
  // (u0 = 0.03) but well above the fp64 floor.
  EXPECT_GT(err32, 1e3 * err64);
  EXPECT_LT(err32, 1e-5);
}

TEST(Fp32Accuracy, StTaylorGreenErrorIsBounded) {
  const double err32 = tg_error_vs_reference(
      CollisionScheme::kBGK, [](const Geometry& geo) {
        return make_st_engine<D2Q9>(StoragePrecision::kFP32, geo, 0.8);
      });
  EXPECT_GT(err32, 0.0);
  EXPECT_LT(err32, 1e-5);
}

// ------------------------------------------------------------ reporting

TEST(PrecisionReporting, EnginesDeclareTheirStorage) {
  const Geometry geo = periodic_geo(8, 6, 1);
  EXPECT_EQ(StEngine<D2Q9>(geo, 0.8).storage_precision(),
            StoragePrecision::kFP64);
  EXPECT_EQ((StEngine<D2Q9, float>(geo, 0.8).storage_precision()),
            StoragePrecision::kFP32);
  EXPECT_EQ((AaEngine<D2Q9, float>(geo, 0.8).storage_precision()),
            StoragePrecision::kFP32);
  EXPECT_EQ((MrEngine<D2Q9, float>(geo, 0.8, Regularization::kProjective,
                                   MrConfig{8, 1, 2})
                 .storage_precision()),
            StoragePrecision::kFP32);
  // The runtime factory dispatches to the matching instantiation.
  EXPECT_EQ(make_st_engine<D2Q9>(StoragePrecision::kFP32, geo, 0.8)
                ->storage_precision(),
            StoragePrecision::kFP32);
  EXPECT_EQ(make_aa_engine<D2Q9>(StoragePrecision::kFP64, geo, 0.8)
                ->storage_precision(),
            StoragePrecision::kFP64);
}

TEST(PrecisionReporting, MultiDomainReportsSlabPrecision) {
  Geometry geo(Box{16, 8, 1});
  geo.bc.set_axis(0, FaceBC::kWall);
  geo.bc.set_axis(1, FaceBC::kWall);
  geo.bc.set_axis(2, FaceBC::kPeriodic);
  const auto owned =
      make_multi_engine<D2Q9>(EngineSpec::parse("st:fp32"), geo, 0.8, 2);
  auto& multi = *owned;
  EXPECT_EQ(multi.storage_precision(), StoragePrecision::kFP32);
  // state_bytes sums fp32 slabs: half of the fp64 decomposition.
  const auto owned64 = make_multi_engine<D2Q9>(EngineSpec{}, geo, 0.8, 2);
  auto& multi64 = *owned64;
  EXPECT_EQ(multi64.state_bytes(), 2 * multi.state_bytes());
}

}  // namespace
}  // namespace mlbm
