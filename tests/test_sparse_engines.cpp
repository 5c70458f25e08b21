// Sparse (tile-compressed) geometry path: correctness against the reference
// engine on obstacle geometries, bit-identity of the forced-sparse path on
// all-fluid boxes, traffic scaling with fluid fraction, and the split-step /
// checkpoint contracts on sparse state.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>

#include "analysis/sanitizer/sanitizer.hpp"
#include "engines/aa_engine.hpp"
#include "engines/mr_engine.hpp"
#include "engines/reference_engine.hpp"
#include "engines/st_engine.hpp"
#include "geometry/shapes.hpp"
#include "io/checkpoint.hpp"
#include "util/error.hpp"
#include "tmp_path.hpp"

namespace mlbm {
namespace {

constexpr real_t kTau = 0.8;

template <class L>
Geometry porous_geo(int n, double solid_fraction, std::uint64_t seed) {
  Box b;
  b.nx = n;
  b.ny = n;
  b.nz = L::D == 3 ? n : 1;
  Geometry geo(b);
  shapes::add_random_solids(geo, solid_fraction, seed);
  return geo;
}

template <class L>
typename Engine<L>::InitFn smooth_init() {
  return [](int x, int y, int z) {
    const real_t s = std::sin(real_t(0.4) * x) * std::cos(real_t(0.3) * y) +
                     real_t(0.1) * z;
    std::array<real_t, L::D> u{};
    u[0] = real_t(0.03) * std::sin(real_t(0.5) * y + real_t(0.2) * z);
    u[1] = real_t(0.02) * std::cos(real_t(0.4) * x);
    if constexpr (L::D == 3) u[2] = real_t(0.015) * std::sin(real_t(0.3) * x);
    return equilibrium_moments<L>(real_t(1) + real_t(0.02) * s, u);
  };
}

template <class L>
double max_moment_diff(const Engine<L>& a, const Engine<L>& b) {
  const Box& box = a.geometry().box;
  double worst = 0;
  for (int z = 0; z < box.nz; ++z) {
    for (int y = 0; y < box.ny; ++y) {
      for (int x = 0; x < box.nx; ++x) {
        const Moments<L> ma = a.moments_at(x, y, z);
        const Moments<L> mb = b.moments_at(x, y, z);
        worst = std::max(worst, std::abs(ma.rho - mb.rho));
        for (int c = 0; c < L::D; ++c) {
          worst = std::max(worst, std::abs(ma.u[static_cast<std::size_t>(c)] -
                                           mb.u[static_cast<std::size_t>(c)]));
        }
      }
    }
  }
  return worst;
}

/// Exact (bitwise) field equality through the moment interface.
template <class L>
void expect_identical_fields(const Engine<L>& a, const Engine<L>& b) {
  const Box& box = a.geometry().box;
  for (int z = 0; z < box.nz; ++z) {
    for (int y = 0; y < box.ny; ++y) {
      for (int x = 0; x < box.nx; ++x) {
        const Moments<L> ma = a.moments_at(x, y, z);
        const Moments<L> mb = b.moments_at(x, y, z);
        ASSERT_EQ(ma.rho, mb.rho) << "at " << x << "," << y << "," << z;
        for (int c = 0; c < L::D; ++c) {
          ASSERT_EQ(ma.u[static_cast<std::size_t>(c)],
                    mb.u[static_cast<std::size_t>(c)]);
        }
        for (int p = 0; p < Moments<L>::NP; ++p) {
          ASSERT_EQ(ma.pi[static_cast<std::size_t>(p)],
                    mb.pi[static_cast<std::size_t>(p)]);
        }
      }
    }
  }
}

// ------------------------------------------------------- ST vs reference

template <class L>
void st_matches_reference_porous() {
  const Geometry geo = porous_geo<L>(L::D == 3 ? 12 : 24, 0.25, 42);
  ASSERT_GT(geo.solid_count(), 0);
  StEngine<L> st(geo, kTau);
  ReferenceEngine<L> ref(geo, kTau, CollisionScheme::kBGK);
  st.initialize(smooth_init<L>());
  ref.initialize(smooth_init<L>());
  for (int s = 0; s < 8; ++s) {
    st.step();
    ref.step();
  }
  EXPECT_LT(max_moment_diff(st, ref), 1e-12);
}

TEST(SparseSt, MatchesReferencePorousD2Q9) {
  st_matches_reference_porous<D2Q9>();
}
TEST(SparseSt, MatchesReferencePorousD3Q19) {
  st_matches_reference_porous<D3Q19>();
}

// ------------------------------------------- forced sparse == dense fields

template <class L>
void st_forced_sparse_identical() {
  Box b;
  b.nx = 20;
  b.ny = 12;
  b.nz = L::D == 3 ? 6 : 1;
  Geometry dense(b);
  Geometry sparse = dense;
  sparse.force_sparse_storage(true);
  StEngine<L> ed(dense, kTau);
  StEngine<L> es(sparse, kTau);
  ed.initialize(smooth_init<L>());
  es.initialize(smooth_init<L>());
  for (int s = 0; s < 5; ++s) {
    ed.step();
    es.step();
  }
  expect_identical_fields(ed, es);
}

TEST(SparseSt, ForcedSparseBitIdenticalD2Q9) {
  st_forced_sparse_identical<D2Q9>();
}
TEST(SparseSt, ForcedSparseBitIdenticalD3Q19) {
  st_forced_sparse_identical<D3Q19>();
}

// ------------------------------------------------------- AA vs reference

template <class L>
void aa_matches_reference_porous() {
  const Geometry geo = porous_geo<L>(L::D == 3 ? 12 : 24, 0.25, 42);
  ASSERT_GT(geo.solid_count(), 0);
  AaEngine<L> aa(geo, kTau);
  ReferenceEngine<L> ref(geo, kTau, CollisionScheme::kBGK);
  aa.initialize(smooth_init<L>());
  ref.initialize(smooth_init<L>());
  for (int s = 0; s < 8; ++s) {
    aa.step();
    ref.step();
  }
  EXPECT_LT(max_moment_diff(aa, ref), 1e-12);
}

TEST(SparseAa, MatchesReferencePorousD2Q9) {
  aa_matches_reference_porous<D2Q9>();
}
TEST(SparseAa, MatchesReferencePorousD3Q19) {
  aa_matches_reference_porous<D3Q19>();
}

template <class L>
void aa_forced_sparse_identical() {
  Box b;
  b.nx = 20;
  b.ny = 12;
  b.nz = L::D == 3 ? 6 : 1;
  Geometry dense(b);
  Geometry sparse = dense;
  sparse.force_sparse_storage(true);
  AaEngine<L> ed(dense, kTau);
  AaEngine<L> es(sparse, kTau);
  ed.initialize(smooth_init<L>());
  es.initialize(smooth_init<L>());
  // Odd step count: exercise both kernel flavours and end mid-cycle, so the
  // swapped-phase moment translation is compared too.
  for (int s = 0; s < 5; ++s) {
    ed.step();
    es.step();
  }
  expect_identical_fields(ed, es);
}

TEST(SparseAa, ForcedSparseBitIdenticalD2Q9) {
  aa_forced_sparse_identical<D2Q9>();
}
TEST(SparseAa, ForcedSparseBitIdenticalD3Q19) {
  aa_forced_sparse_identical<D3Q19>();
}

// ------------------------------------------------------- MR vs reference

template <class L>
void mr_matches_reference_porous(Regularization reg, MomentStorage storage) {
  const Geometry geo = porous_geo<L>(L::D == 3 ? 12 : 24, 0.25, 42);
  ASSERT_GT(geo.solid_count(), 0);
  MrConfig cfg;
  cfg.storage = storage;
  MrEngine<L> mr(geo, kTau, reg, cfg);
  ReferenceEngine<L> ref(geo, kTau,
                         reg == Regularization::kProjective
                             ? CollisionScheme::kProjective
                             : CollisionScheme::kRecursive);
  mr.initialize(smooth_init<L>());
  ref.initialize(smooth_init<L>());
  for (int s = 0; s < 8; ++s) {
    mr.step();
    ref.step();
  }
  EXPECT_LT(max_moment_diff(mr, ref), 1e-12);
}

TEST(SparseMr, ProjectivePingPongPorousD2Q9) {
  mr_matches_reference_porous<D2Q9>(Regularization::kProjective,
                                    MomentStorage::kPingPong);
}
TEST(SparseMr, RecursiveCircularPorousD2Q9) {
  mr_matches_reference_porous<D2Q9>(Regularization::kRecursive,
                                    MomentStorage::kCircularShift);
}
TEST(SparseMr, ProjectivePingPongPorousD3Q19) {
  mr_matches_reference_porous<D3Q19>(Regularization::kProjective,
                                     MomentStorage::kPingPong);
}
TEST(SparseMr, RecursiveCircularPorousD3Q19) {
  mr_matches_reference_porous<D3Q19>(Regularization::kRecursive,
                                     MomentStorage::kCircularShift);
}

template <class L>
void mr_forced_sparse_identical(MomentStorage storage) {
  Box b;
  b.nx = 20;
  b.ny = 12;
  b.nz = L::D == 3 ? 6 : 1;
  Geometry dense(b);
  Geometry sparse = dense;
  sparse.force_sparse_storage(true);
  MrConfig cfg;
  cfg.storage = storage;
  MrEngine<L> ed(dense, kTau, Regularization::kProjective, cfg);
  MrEngine<L> es(sparse, kTau, Regularization::kProjective, cfg);
  ed.initialize(smooth_init<L>());
  es.initialize(smooth_init<L>());
  for (int s = 0; s < 5; ++s) {
    ed.step();
    es.step();
  }
  expect_identical_fields(ed, es);
}

TEST(SparseMr, ForcedSparseBitIdenticalPingPongD2Q9) {
  mr_forced_sparse_identical<D2Q9>(MomentStorage::kPingPong);
}
TEST(SparseMr, ForcedSparseBitIdenticalCircularD2Q9) {
  mr_forced_sparse_identical<D2Q9>(MomentStorage::kCircularShift);
}
TEST(SparseMr, ForcedSparseBitIdenticalPingPongD3Q19) {
  mr_forced_sparse_identical<D3Q19>(MomentStorage::kPingPong);
}

TEST(SparseSt, PushRejectsSparse) {
  Geometry geo = porous_geo<D2Q9>(16, 0.2, 7);
  EXPECT_THROW(StEngine<D2Q9>(geo, kTau, CollisionScheme::kBGK, 256,
                              StreamMode::kPush),
               ConfigError);
}

// ------------------------------------------------------- fp32 storage

TEST(SparseFp32, StForcedSparseBitIdenticalToDenseFp32) {
  Box b;
  b.nx = 20;
  b.ny = 12;
  b.nz = 1;
  Geometry dense(b);
  Geometry sparse = dense;
  sparse.force_sparse_storage(true);
  StEngine<D2Q9, float> ed(dense, kTau);
  StEngine<D2Q9, float> es(sparse, kTau);
  ASSERT_EQ(es.storage_precision(), StoragePrecision::kFP32);
  ed.initialize(smooth_init<D2Q9>());
  es.initialize(smooth_init<D2Q9>());
  for (int s = 0; s < 5; ++s) {
    ed.step();
    es.step();
  }
  expect_identical_fields(ed, es);
}

TEST(SparseFp32, StPorousTracksFp64Reference) {
  const Geometry geo = porous_geo<D2Q9>(24, 0.25, 42);
  StEngine<D2Q9, float> st32(geo, kTau);
  ReferenceEngine<D2Q9> ref(geo, kTau, CollisionScheme::kBGK);
  st32.initialize(smooth_init<D2Q9>());
  ref.initialize(smooth_init<D2Q9>());
  for (int s = 0; s < 8; ++s) {
    st32.step();
    ref.step();
  }
  // fp32 storage rounding accumulates but stays far below physical scales.
  EXPECT_LT(max_moment_diff(st32, ref), 1e-4);
}

TEST(SparseFp32, MrPorousTracksFp64Reference) {
  const Geometry geo = porous_geo<D2Q9>(24, 0.25, 42);
  MrEngine<D2Q9, float> mr32(geo, kTau, Regularization::kProjective);
  ReferenceEngine<D2Q9> ref(geo, kTau, CollisionScheme::kProjective);
  mr32.initialize(smooth_init<D2Q9>());
  ref.initialize(smooth_init<D2Q9>());
  for (int s = 0; s < 8; ++s) {
    mr32.step();
    ref.step();
  }
  EXPECT_LT(max_moment_diff(mr32, ref), 1e-4);
}

// --------------------------------------------------- traffic amortization

template <class L>
Geometry bench_box(int n) {
  Box b;
  b.nx = n;
  b.ny = n;
  b.nz = L::D == 3 ? n : 1;
  return Geometry(b);
}

// The acceptance gate at phi ~ 0.3: the sparse path's measured bytes per
// fluid update stay within 1.15x the dense kernel's per-node cost (the
// tile-index overhead must amortize over the tile's fluid nodes).
template <class L, template <class...> class Eng, class... Extra>
void sparse_traffic_amortizes() {
  const int n = L::D == 3 ? 16 : 48;
  Geometry dense_geo = bench_box<L>(n);
  Geometry porous = dense_geo;
  shapes::add_random_solids(porous, 0.7, 77);
  const auto phi = static_cast<double>(porous.fluid_count()) /
                   static_cast<double>(porous.box.cells());
  ASSERT_GT(phi, 0.2);
  ASSERT_LT(phi, 0.4);

  const auto bytes_per_update = [](Engine<L>& e, double updates) {
    e.initialize(
        [](int, int, int) { return equilibrium_moments<L>(1.0, {}); });
    e.step();
    e.step();
    const auto before = e.profiler()->total_traffic();
    const int steps = 4;
    e.run(steps);
    const auto t = e.profiler()->total_traffic() - before;
    return static_cast<double>(t.bytes_read + t.bytes_written) /
           (steps * updates);
  };

  Eng<L, Extra...> ed(dense_geo, kTau);
  Eng<L, Extra...> es(porous, kTau);
  const double dense_bpn =
      bytes_per_update(ed, static_cast<double>(dense_geo.box.cells()));
  const double sparse_bpf =
      bytes_per_update(es, static_cast<double>(porous.fluid_count()));
  EXPECT_LE(sparse_bpf, 1.15 * dense_bpn)
      << "phi=" << phi << " dense B/node=" << dense_bpn;
}

TEST(SparseTraffic, StAmortizesIndexOverheadD2Q9) {
  sparse_traffic_amortizes<D2Q9, StEngine>();
}
TEST(SparseTraffic, StAmortizesIndexOverheadD3Q19) {
  sparse_traffic_amortizes<D3Q19, StEngine>();
}
TEST(SparseTraffic, AaAmortizesIndexOverheadD2Q9) {
  sparse_traffic_amortizes<D2Q9, AaEngine>();
}

TEST(SparseTraffic, SolidTilesMoveNoBytes) {
  // Halving the fluid count must halve total traffic within the mixed-tile
  // slack: total bytes track the allocated slots, not the box.
  Geometry full = bench_box<D2Q9>(64);
  full.force_sparse_storage(true);
  Geometry half = bench_box<D2Q9>(64);
  shapes::add_block(half, 0, 64, 32, 64, 0, 1);  // top half solid
  StEngine<D2Q9> ef(full, kTau);
  StEngine<D2Q9> eh(half, kTau);
  const auto total = [](Engine<D2Q9>& e) {
    e.initialize(
        [](int, int, int) { return equilibrium_moments<D2Q9>(1.0, {}); });
    e.step();
    const auto before = e.profiler()->total_traffic();
    e.step();
    const auto t = e.profiler()->total_traffic() - before;
    return static_cast<double>(t.bytes_read + t.bytes_written);
  };
  const double ratio = total(eh) / total(ef);
  EXPECT_NEAR(ratio, 0.5, 0.1);
}

// ------------------------------------------------------ split-step parity

template <class L, template <class...> class Eng>
void split_step_is_bit_identical_sparse() {
  const Geometry geo = porous_geo<L>(L::D == 3 ? 12 : 24, 0.25, 42);
  Eng<L> a(geo, kTau);
  Eng<L> b(geo, kTau);
  a.initialize(smooth_init<L>());
  b.initialize(smooth_init<L>());
  const FrontierSpec fs{2, 2};
  int called = 0;
  for (int s = 0; s < 6; ++s) {
    a.step();
    b.step_split(fs, [&] { ++called; });
  }
  EXPECT_EQ(called, 6);
  expect_identical_fields(a, b);
}

TEST(SparseSplitStep, StPorousBitIdenticalD2Q9) {
  split_step_is_bit_identical_sparse<D2Q9, StEngine>();
}
TEST(SparseSplitStep, StPorousBitIdenticalD3Q19) {
  split_step_is_bit_identical_sparse<D3Q19, StEngine>();
}
TEST(SparseSplitStep, MrPorousBitIdenticalD2Q9) {
  const Geometry geo = porous_geo<D2Q9>(24, 0.25, 42);
  MrEngine<D2Q9> a(geo, kTau, Regularization::kProjective);
  MrEngine<D2Q9> b(geo, kTau, Regularization::kProjective);
  a.initialize(smooth_init<D2Q9>());
  b.initialize(smooth_init<D2Q9>());
  for (int s = 0; s < 6; ++s) {
    a.step();
    b.step_split(FrontierSpec{2, 2}, [] {});
  }
  expect_identical_fields(a, b);
}

// -------------------------------------------------------- checkpoint v3

TEST(SparseCheckpoint, SolidGeometryRoundTripsExactly) {
  // MR stores moments natively, so save -> load is bit-exact on sparse
  // state (ST round-trips through the population reconstruction and is
  // only exact to rounding; test_io_util covers that contract densely).
  const Geometry geo = porous_geo<D2Q9>(24, 0.25, 42);
  MrEngine<D2Q9> src(geo, kTau, Regularization::kProjective);
  src.initialize(smooth_init<D2Q9>());
  src.run(5);
  const std::string path = tmp_path("mlbm_sparse_ckpt.bin");
  save_checkpoint(src, path);

  MrEngine<D2Q9> dst(geo, kTau, Regularization::kProjective);
  load_checkpoint(dst, path);
  expect_identical_fields(src, dst);
  std::filesystem::remove(path);
}

TEST(SparseCheckpoint, StSolidGeometryRoundTripsToRounding) {
  const Geometry geo = porous_geo<D2Q9>(24, 0.25, 42);
  StEngine<D2Q9> src(geo, kTau);
  src.initialize(smooth_init<D2Q9>());
  src.run(5);
  const std::string path = tmp_path("mlbm_sparse_ckpt_st.bin");
  save_checkpoint(src, path);

  StEngine<D2Q9> dst(geo, kTau);
  load_checkpoint(dst, path);
  EXPECT_LT(max_moment_diff(src, dst), 1e-13);
  std::filesystem::remove(path);
}

TEST(SparseCheckpoint, CrossPatternRestoreOnSameGeometry) {
  const Geometry geo = porous_geo<D2Q9>(24, 0.25, 42);
  StEngine<D2Q9> src(geo, kTau);
  src.initialize(smooth_init<D2Q9>());
  src.run(4);
  const std::string path = tmp_path("mlbm_sparse_ckpt_x.bin");
  save_checkpoint(src, path);

  MrEngine<D2Q9> dst(geo, kTau, Regularization::kProjective);
  load_checkpoint(dst, path);
  const Box& b = geo.box;
  for (int y = 0; y < b.ny; ++y) {
    for (int x = 0; x < b.nx; ++x) {
      const auto ms = src.moments_at(x, y, 0);
      const auto md = dst.moments_at(x, y, 0);
      ASSERT_NEAR(ms.rho, md.rho, 1e-14);
      ASSERT_NEAR(ms.u[0], md.u[0], 1e-14);
      ASSERT_NEAR(ms.u[1], md.u[1], 1e-14);
    }
  }
  std::filesystem::remove(path);
}

TEST(SparseCheckpoint, GeometryMismatchIsRejected) {
  const Geometry geo = porous_geo<D2Q9>(24, 0.25, 42);
  StEngine<D2Q9> src(geo, kTau);
  src.initialize(smooth_init<D2Q9>());
  src.run(2);
  const std::string path = tmp_path("mlbm_sparse_ckpt_mismatch.bin");
  save_checkpoint(src, path);

  // Same extents, one flag flipped: the v3 geometry hash must reject it.
  Geometry other = porous_geo<D2Q9>(24, 0.25, 42);
  int fx = -1, fy = -1;
  for (int y = 0; y < 24 && fx < 0; ++y) {
    for (int x = 0; x < 24 && fx < 0; ++x) {
      if (!other.solid(x, y)) {
        fx = x;
        fy = y;
      }
    }
  }
  other.set_solid(fx, fy);
  StEngine<D2Q9> dst(other, kTau);
  try {
    load_checkpoint(dst, path);
    FAIL() << "geometry mismatch not rejected";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kGeometry);
  }
  std::filesystem::remove(path);
}

TEST(SparseCheckpoint, DenseFileRejectedBySolidEngine) {
  Box b;
  b.nx = 24;
  b.ny = 24;
  b.nz = 1;
  const Geometry dense(b);
  StEngine<D2Q9> src(dense, kTau);
  src.initialize(smooth_init<D2Q9>());
  src.run(2);
  const std::string path = tmp_path("mlbm_dense_into_sparse.bin");
  save_checkpoint(src, path);

  const Geometry porous = porous_geo<D2Q9>(24, 0.25, 42);
  StEngine<D2Q9> dst(porous, kTau);
  try {
    load_checkpoint(dst, path);
    FAIL() << "dense checkpoint restored into solid geometry";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::kGeometry);
  }
  std::filesystem::remove(path);
}

// ------------------------------------------------------- sanitizer clean

template <class L>
void sparse_run_is_sanitizer_clean(Engine<L>& eng) {
  using analysis::Sanitizer;
  using analysis::SanitizerReport;
  Sanitizer san(1024);
  eng.set_sanitizer(&san);
  eng.initialize(smooth_init<L>());
  eng.run(4);
  const SanitizerReport r = san.report();
  eng.set_sanitizer(nullptr);
  EXPECT_TRUE(r.clean()) << r.to_string();
}

TEST(SparseSanitizer, StPorousCleanD2Q9) {
  StEngine<D2Q9> e(porous_geo<D2Q9>(24, 0.25, 42), kTau);
  sparse_run_is_sanitizer_clean(e);
}
TEST(SparseSanitizer, AaPorousCleanD2Q9) {
  AaEngine<D2Q9> e(porous_geo<D2Q9>(24, 0.25, 42), kTau);
  sparse_run_is_sanitizer_clean(e);
}
TEST(SparseSanitizer, MrPorousCleanD2Q9) {
  MrEngine<D2Q9> e(porous_geo<D2Q9>(24, 0.25, 42), kTau,
                   Regularization::kProjective);
  sparse_run_is_sanitizer_clean(e);
}
TEST(SparseSanitizer, MrPorousCleanCircularD3Q19) {
  MrConfig cfg;
  cfg.storage = MomentStorage::kCircularShift;
  MrEngine<D3Q19> e(porous_geo<D3Q19>(12, 0.25, 42), kTau,
                    Regularization::kRecursive, cfg);
  sparse_run_is_sanitizer_clean(e);
}

// ----------------------------------------------- degenerate tile domains

/// Runs each of the four engines (ST, AA, MR-P ping-pong, MR-R circular)
/// on `geo` against the reference engine for a few steps.
template <class L>
void degenerate_matches_reference(const Geometry& geo, int steps = 4) {
  // Each engine is pinned against a reference running the SAME collision
  // scheme (MR's regularized collisions are not BGK).
  const auto check = [&](Engine<L>& eng, CollisionScheme scheme,
                         const char* what) {
    ReferenceEngine<L> ref(geo, kTau, scheme);
    ref.initialize(smooth_init<L>());
    for (int s = 0; s < steps; ++s) ref.step();
    eng.initialize(smooth_init<L>());
    for (int s = 0; s < steps; ++s) eng.step();
    EXPECT_LT(max_moment_diff(eng, ref), 1e-12) << what;
  };
  StEngine<L> st(geo, kTau);
  check(st, CollisionScheme::kBGK, "ST");
  AaEngine<L> aa(geo, kTau);
  check(aa, CollisionScheme::kBGK, "AA");
  MrEngine<L> mrp(geo, kTau, Regularization::kProjective);
  check(mrp, CollisionScheme::kProjective, "MR-P");
  MrConfig circ;
  circ.storage = MomentStorage::kCircularShift;
  MrEngine<L> mrr(geo, kTau, Regularization::kRecursive, circ);
  check(mrr, CollisionScheme::kRecursive, "MR-R/circ");
}

TEST(SparseDegenerate, SingleTileDomain) {
  // An 8x8 box is exactly ONE tile; a single solid makes it a mixed tile,
  // so the whole domain runs through the masked launch with no all-fluid
  // list at all.
  Geometry geo(Box{8, 8, 1});
  geo.set_solid(3, 4);
  ASSERT_TRUE(geo.sparse());
  ASSERT_EQ(geo.tiles().n_slots(), 1);
  degenerate_matches_reference<D2Q9>(geo);
}

TEST(SparseDegenerate, ExtentNotMultipleOfTile2D) {
  // 13x9: both extents ragged against the 8x8 tile grid, every tile
  // box-clipped, all of them mixed.
  Geometry geo(Box{13, 9, 1});
  geo.set_solid(5, 5);
  ASSERT_TRUE(geo.sparse());
  degenerate_matches_reference<D2Q9>(geo);
}

TEST(SparseDegenerate, ExtentNotMultipleOfTile3D) {
  // 7x6x5 against 4x4x4 tiles: ragged on every axis, and the MR circular
  // sweep extent (nz = 5) sits right at its legal minimum of tile_s + 3.
  Geometry geo(Box{7, 6, 5});
  geo.set_solid(2, 3, 1);
  ASSERT_TRUE(geo.sparse());
  degenerate_matches_reference<D3Q19>(geo);
}

TEST(SparseDegenerate, AllSolidDomain) {
  // Every node solid: no tile gets an allocation slot, every launch covers
  // zero tiles. Engines must construct, step and report: zero state traffic,
  // solid (all-zero) moments everywhere, and zero-byte steps.
  Geometry geo(Box{16, 8, 1});
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 16; ++x) geo.set_solid(x, y);
  }
  ASSERT_EQ(geo.fluid_count(), 0);
  ASSERT_EQ(geo.tiles().n_slots(), 0);

  // No moment data may move: zero bytes written everywhere, and the only
  // reads allowed are the sparse MR column-map probes (one int32 per cross
  // position incl. the periodic halo) — the lookup that discovers a column
  // holds no fluid.
  const std::uint64_t colmap_probe =
      static_cast<std::uint64_t>(geo.box.nx + 2) * sizeof(std::int32_t);
  const auto check = [&](Engine<D2Q9>& eng, std::uint64_t read_budget,
                         const char* what) {
    eng.initialize(smooth_init<D2Q9>());
    eng.step();
    const auto before = eng.profiler()->total_traffic();
    eng.step();
    const auto t = eng.profiler()->total_traffic() - before;
    EXPECT_EQ(t.bytes_written, 0u) << what;
    EXPECT_LE(t.bytes_read, read_budget) << what;
    const auto m = eng.moments_at(7, 3, 0);
    EXPECT_EQ(m.rho, 0.0) << what;
  };
  StEngine<D2Q9> st(geo, kTau);
  check(st, 0, "ST");
  AaEngine<D2Q9> aa(geo, kTau);
  check(aa, 0, "AA");
  MrEngine<D2Q9> mrp(geo, kTau, Regularization::kProjective);
  check(mrp, colmap_probe, "MR-P");
  MrConfig circ;
  circ.storage = MomentStorage::kCircularShift;
  MrEngine<D2Q9> mrr(geo, kTau, Regularization::kRecursive, circ);
  check(mrr, colmap_probe, "MR-R/circ");
}

}  // namespace
}  // namespace mlbm
