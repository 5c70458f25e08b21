// mlbm-sanitizer: hazard detection on gpusim kernels.
//
// Two layers of coverage:
//  * synthetic known-bad kernels — each hazard class (shared race, OOB,
//    uninit read, sync divergence, cross-block conflict, stale read) is
//    triggered in isolation and checked for exact class and coordinates,
//    next to a minimally-different clean variant;
//  * seeded engine mutations — each deliberate break of the MR kernel's
//    addressing/barrier discipline (off-by-one ring shift, shortened
//    write-behind, removed phase sync, shrunken cross halo) must be caught,
//    while the clean engine matrix (ST pull/push, AA, MR-P/MR-R x ping-pong/
//    circular x fp64/fp32, 2D/3D, MultiDomain) reports zero hazards.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include "analysis/sanitizer/sanitizer.hpp"
#include "engines/aa_engine.hpp"
#include "engines/engine_spec.hpp"
#include "engines/ep_engine.hpp"
#include "engines/mr_engine.hpp"
#include "engines/st_engine.hpp"
#include "gpusim/global_array.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/profiler.hpp"
#include "multidev/multi_domain.hpp"
#include "util/error.hpp"
#include "workloads/cavity.hpp"
#include "workloads/channel.hpp"
#include "workloads/taylor_green.hpp"

namespace mlbm {
namespace {

using analysis::Hazard;
using analysis::HazardKind;
using analysis::Sanitizer;
using analysis::SanitizerReport;
using gpusim::BlockCtx;
using gpusim::Dim3;
using gpusim::GlobalArray;
using gpusim::Profiler;

// ---------------------------------------------------------------------------
// Racecheck: shared-memory hazards in synthetic kernels.
// ---------------------------------------------------------------------------

TEST(SanitizerShared, WriteWriteSameEpochIsRace) {
  Sanitizer san;
  Profiler prof;
  prof.set_sanitizer_hook(&san);
  gpusim::launch(prof, "bad_ww", Dim3{1, 1, 1}, Dim3{2, 1, 1},
                 [&](BlockCtx& blk) {
                   auto sm = blk.alloc_shared<double>(4);
                   auto* s = blk.sanitizer();
                   sm[1] = 1.0;
                   s->shared_access(blk.linear_block(), &sm[1], /*tid=*/0,
                                    /*write=*/true, blk.epoch());
                   sm[1] = 2.0;
                   s->shared_access(blk.linear_block(), &sm[1], /*tid=*/1,
                                    /*write=*/true, blk.epoch());
                 });
  const SanitizerReport r = san.report();
  EXPECT_EQ(r.count(HazardKind::kSharedRace), 1u);
  const Hazard* h = r.first(HazardKind::kSharedRace);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->array, "shared");
  EXPECT_EQ(h->elem, 1);
  EXPECT_EQ(h->kernel, "bad_ww");
  EXPECT_EQ(h->tid_a, 1);  // surfacing access
  EXPECT_EQ(h->tid_b, 0);  // prior conflicting access
  EXPECT_TRUE(h->write_a);
  EXPECT_TRUE(h->write_b);
}

TEST(SanitizerShared, BarrierSeparatesWriteFromRead) {
  for (const bool use_sync : {true, false}) {
    Sanitizer san;
    Profiler prof;
    prof.set_sanitizer_hook(&san);
    gpusim::launch(prof, use_sync ? "good_sync" : "missing_barrier",
                   Dim3{1, 1, 1}, Dim3{2, 1, 1}, [&](BlockCtx& blk) {
                     auto sm = blk.alloc_shared<double>(2);
                     auto* s = blk.sanitizer();
                     sm[0] = 3.0;
                     s->shared_access(blk.linear_block(), &sm[0], 0, true,
                                      blk.epoch());
                     if (use_sync) blk.sync();
                     [[maybe_unused]] const double v = sm[0];
                     s->shared_access(blk.linear_block(), &sm[0], 1, false,
                                      blk.epoch());
                   });
    const SanitizerReport r = san.report();
    if (use_sync) {
      EXPECT_TRUE(r.clean()) << r.to_string();
    } else {
      EXPECT_EQ(r.count(HazardKind::kSharedRace), 1u);
      const Hazard* h = r.first(HazardKind::kSharedRace);
      ASSERT_NE(h, nullptr);
      EXPECT_TRUE(h->write_b);    // the prior write
      EXPECT_FALSE(h->write_a);   // raced by the read
      EXPECT_EQ(h->elem, 0);
    }
  }
}

TEST(SanitizerShared, ReadOfNeverWrittenWordIsUninit) {
  Sanitizer san;
  Profiler prof;
  prof.set_sanitizer_hook(&san);
  gpusim::launch(prof, "uninit_shared", Dim3{1, 1, 1}, Dim3{1, 1, 1},
                 [&](BlockCtx& blk) {
                   auto sm = blk.alloc_shared<double>(8);
                   auto* s = blk.sanitizer();
                   [[maybe_unused]] const double v = sm[5];
                   s->shared_access(blk.linear_block(), &sm[5], 0, false,
                                    blk.epoch());
                 });
  const SanitizerReport r = san.report();
  EXPECT_EQ(r.count(HazardKind::kUninitRead), 1u);
  const Hazard* h = r.first(HazardKind::kUninitRead);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->array, "shared");
  EXPECT_EQ(h->elem, 5);
}

// ---------------------------------------------------------------------------
// Barrier epochs (BlockCtx::sync contract).
// ---------------------------------------------------------------------------

TEST(SanitizerEpochs, SyncReturnsMonotoneEpochIds) {
  Profiler prof;
  gpusim::launch(prof, "epochs", Dim3{1, 1, 1}, Dim3{1, 1, 1},
                 [&](BlockCtx& blk) {
                   EXPECT_EQ(blk.epoch(), 0u);
                   const std::uint64_t e1 = blk.sync();
                   const std::uint64_t e2 = blk.sync();
                   EXPECT_EQ(e1, 1u);
                   EXPECT_EQ(e2, 2u);
                   EXPECT_EQ(blk.epoch(), 2u);
                 });
}

TEST(SanitizerEpochs, LevelBoundariesOpenEpochsWithoutCountingSyncs) {
  Profiler prof;
  std::vector<std::uint64_t> epochs;
  gpusim::launch_level_synced(
      prof, "epochs_lvl", Dim3{1, 1, 1}, Dim3{1, 1, 1}, 3,
      [](BlockCtx&) { return 0; },
      [&](BlockCtx& blk, int&, int /*level*/) {
        epochs.push_back(blk.epoch());
      });
  // Every level boundary opened a fresh epoch...
  EXPECT_EQ(epochs, (std::vector<std::uint64_t>{1, 2, 3}));
  // ...but the profiler's sync count stays a faithful instruction count.
  for (const auto& rec : prof.all_records()) {
    if (rec.name == "epochs_lvl") {
      EXPECT_EQ(rec.syncs, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Memcheck: OOB spans (both stride signs) and the BoundsError fallback.
// ---------------------------------------------------------------------------

TEST(SanitizerMemcheck, OobAccessesReportedAndSkipped) {
  Sanitizer san;
  gpusim::TrafficCounter c;
  GlobalArray<double> a(8, &c);
  a.set_sanitizer(&san, "a");
  for (int i = 0; i < 8; ++i) a.raw(i) = 1.0;

  EXPECT_EQ(a.load(99), 0.0);  // scalar OOB: reported, returns T{}
  double dst[4] = {9, 9, 9, 9};
  a.load_span_as<double>(6, 1, 4, dst);  // touches [6, 9] — high overflow
  for (const double v : dst) EXPECT_EQ(v, 0.0);
  a.store_span_as<double>(2, -3, 3, dst);  // touches {2,-1,-4} — underflow

  const SanitizerReport r = san.report();
  EXPECT_EQ(r.count(HazardKind::kOob), 3u);
  const Hazard* h = r.first(HazardKind::kOob);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->array, "a");
  EXPECT_EQ(h->elem, 99);  // base of the first offending access
  // The skipped accesses left the allocation untouched.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.raw(static_cast<index_t>(i)), 1.0);
}

TEST(SanitizerMemcheck, BoundsErrorThrownWithoutSanitizer) {
  gpusim::TrafficCounter c;
  GlobalArray<double> a(8, &c);
  double dst[4] = {0, 0, 0, 0};
  // In-bounds negative stride is legal: touches {6, 3, 0}.
  EXPECT_NO_THROW(a.load_span_as<double>(6, -3, 3, dst));
  // Underflowing negative stride throws the typed error (release builds
  // included) instead of reading out of bounds: touches {2, -1, -4}.
  EXPECT_THROW(a.load_span_as<double>(2, -3, 3, dst), BoundsError);
  EXPECT_THROW(a.store_span_as<double>(6, 1, 4, dst), BoundsError);
  try {
    a.load_span_as<double>(2, -3, 3, dst);
    FAIL() << "expected BoundsError";
  } catch (const BoundsError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBounds);
    EXPECT_NE(std::string(e.what()).find("stride=-3"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Initcheck: read-before-first-write on global memory.
// ---------------------------------------------------------------------------

TEST(SanitizerInitcheck, GlobalReadBeforeWriteReportedOnce) {
  Sanitizer san;
  gpusim::TrafficCounter c;
  GlobalArray<double> a(4, &c);
  a.set_sanitizer(&san, "halo");
  (void)a.load(2);  // allocate()'s zero-fill is NOT initialization
  (void)a.load(2);  // reported once per element, not per read
  a.raw(2) = 0.5;   // host write initializes
  (void)a.load(2);
  const SanitizerReport r = san.report();
  EXPECT_EQ(r.count(HazardKind::kUninitRead), 1u);
  const Hazard* h = r.first(HazardKind::kUninitRead);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->array, "halo");
  EXPECT_EQ(h->elem, 2);
}

TEST(SanitizerInitcheck, HaloConsumedBeforeGhostExchangeIsCaught) {
  // The multi-device receive-buffer model: the owner writes the interior,
  // the ghost column is filled only by the exchange. Skipping the exchange
  // and running the stencil kernel trips initcheck on exactly the ghost
  // column — the "halo cell consumed before ghost exchange" failure mode.
  constexpr int nx = 6, ny = 4;  // ghost column at local x = 0
  for (const bool do_exchange : {true, false}) {
    Sanitizer san;
    Profiler prof;
    prof.set_sanitizer_hook(&san);
    GlobalArray<double> f(static_cast<std::size_t>(nx * ny), &prof.counter());
    f.set_sanitizer(&san, "f");
    for (int y = 0; y < ny; ++y) {
      for (int x = 1; x < nx; ++x) f.raw(y * nx + x) = 1.0;
    }
    if (do_exchange) {
      for (int y = 0; y < ny; ++y) f.raw(y * nx) = 2.0;
    }
    gpusim::launch(prof, "stencil", Dim3{1, 1, 1}, Dim3{1, 1, 1},
                   [&](BlockCtx&) {
                     double acc = 0;
                     for (int y = 0; y < ny; ++y) {
                       for (int x = 1; x < nx; ++x) {
                         acc += f.load(y * nx + x) + f.load(y * nx + x - 1);
                       }
                     }
                     (void)acc;
                   });
    const SanitizerReport r = san.report();
    if (do_exchange) {
      EXPECT_TRUE(r.clean()) << r.to_string();
    } else {
      EXPECT_EQ(r.count(HazardKind::kUninitRead),
                static_cast<std::uint64_t>(ny));
      const Hazard* h = r.first(HazardKind::kUninitRead);
      ASSERT_NE(h, nullptr);
      EXPECT_EQ(h->array, "f");
      EXPECT_EQ(h->elem % nx, 0);  // a ghost-column element
    }
  }
}

// ---------------------------------------------------------------------------
// Synccheck: per-launch barrier-count divergence across blocks.
// ---------------------------------------------------------------------------

TEST(SanitizerSynccheck, DivergentBarrierCountsReported) {
  Sanitizer san;
  Profiler prof;
  prof.set_sanitizer_hook(&san);
  gpusim::launch(prof, "divergent_sync", Dim3{2, 1, 1}, Dim3{1, 1, 1},
                 [&](BlockCtx& blk) {
                   blk.sync();
                   if (blk.block_idx().x == 1) blk.sync();
                 });
  const SanitizerReport r = san.report();
  EXPECT_EQ(r.count(HazardKind::kSyncDivergence), 1u);
  const Hazard* h = r.first(HazardKind::kSyncDivergence);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kernel, "divergent_sync");
}

TEST(SanitizerSynccheck, UniformBarrierCountsAreClean) {
  Sanitizer san;
  Profiler prof;
  prof.set_sanitizer_hook(&san);
  gpusim::launch(prof, "uniform_sync", Dim3{3, 1, 1}, Dim3{1, 1, 1},
                 [&](BlockCtx& blk) {
                   blk.sync();
                   blk.sync();
                 });
  EXPECT_TRUE(san.report().clean());
}

// ---------------------------------------------------------------------------
// Cross-block conflicts inside one level-synced (persistent) launch.
// ---------------------------------------------------------------------------

TEST(SanitizerCrossBlock, ReadOfPeerWriteInsideOneLaunchReported) {
  Sanitizer san;
  Profiler prof;
  prof.set_sanitizer_hook(&san);
  GlobalArray<double> g(16, &prof.counter());
  g.set_sanitizer(&san, "g");
  for (index_t i = 0; i < 16; ++i) g.raw(i) = 0.0;

  gpusim::launch_level_synced(
      prof, "window_violation", Dim3{2, 1, 1}, Dim3{1, 1, 1}, 2,
      [](BlockCtx&) { return 0; },
      [&](BlockCtx& blk, int&, int level) {
        const int b = blk.block_idx().x;
        if (level == 0 && b == 0) g.store(5, 1.0);
        if (level == 1 && b == 1) (void)g.load(5);
      });
  {
    const SanitizerReport r = san.report();
    EXPECT_EQ(r.count(HazardKind::kCrossBlockConflict), 1u);
    const Hazard* h = r.first(HazardKind::kCrossBlockConflict);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->array, "g");
    EXPECT_EQ(h->elem, 5);
    EXPECT_EQ(h->block_a, 1);  // the reading block
    EXPECT_EQ(h->block_b, 0);  // the writing block
    EXPECT_EQ(h->level_a, 1);
    EXPECT_EQ(h->level_b, 0);
  }

  // Consuming a peer's write in the NEXT launch is the legal pattern (that
  // is what the level barrier / circular shift guarantees on hardware): no
  // new hazard.
  const std::uint64_t before = san.report().total();
  gpusim::launch_level_synced(
      prof, "window_ok", Dim3{2, 1, 1}, Dim3{1, 1, 1}, 1,
      [](BlockCtx&) { return 0; },
      [&](BlockCtx& blk, int&, int) {
        if (blk.block_idx().x == 1) (void)g.load(5);
      });
  EXPECT_EQ(san.report().total(), before) << san.report().to_string();
}

// ---------------------------------------------------------------------------
// Staleness: the sliding-window freshness contract.
// ---------------------------------------------------------------------------

TEST(SanitizerStaleness, ReadOfUnrefreshedPlaneReported) {
  Sanitizer san;
  Profiler prof;
  prof.set_sanitizer_hook(&san);
  GlobalArray<double> g(4, &prof.counter());
  g.set_sanitizer(&san, "ring", /*sliding_window=*/true);

  const auto write_elems = [&](int n) {
    gpusim::launch(prof, "w", Dim3{1, 1, 1}, Dim3{1, 1, 1}, [&](BlockCtx&) {
      for (index_t i = 0; i < n; ++i) g.store(i, 1.0);
    });
  };
  const auto read_all = [&] {
    gpusim::launch(prof, "r", Dim3{1, 1, 1}, Dim3{1, 1, 1}, [&](BlockCtx&) {
      for (index_t i = 0; i < 4; ++i) (void)g.load(i);
    });
  };

  write_elems(4);  // launch 1: whole window fresh
  read_all();      // launch 2: reads one launch behind — legal
  write_elems(3);  // launch 3: "ring shift" skips element 3
  read_all();      // launch 4: element 3 is now two launches old
  const SanitizerReport r = san.report();
  EXPECT_EQ(r.count(HazardKind::kStaleRead), 1u);
  const Hazard* h = r.first(HazardKind::kStaleRead);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->array, "ring");
  EXPECT_EQ(h->elem, 3);
}

// ---------------------------------------------------------------------------
// Seeded MR kernel mutations: every deliberate break must be caught.
// ---------------------------------------------------------------------------

SanitizerReport run_mutated_tg(const MrEngine<D2Q9>::FaultMutation& m,
                               int steps = 4,
                               MomentStorage storage =
                                   MomentStorage::kCircularShift) {
  const auto tg = TaylorGreen<D2Q9>::create(16, 0.03);
  MrEngine<D2Q9> eng(tg.geo, 0.8, Regularization::kProjective,
                     MrConfig{8, 1, 2, storage});
  Sanitizer san(1024);
  eng.set_sanitizer(&san);
  eng.set_fault_mutation_for_test(m);
  tg.attach(eng);
  eng.run(steps);
  const SanitizerReport r = san.report();
  eng.set_sanitizer(nullptr);
  return r;
}

TEST(SanitizerMutation, CleanCircularShiftHasNoHazards) {
  EXPECT_TRUE(run_mutated_tg({}).clean());
}

TEST(SanitizerMutation, RingShiftOffByOneCaught) {
  for (const int bias : {1, -1}) {
    MrEngine<D2Q9>::FaultMutation m;
    m.ring_shift_bias = bias;
    const SanitizerReport r = run_mutated_tg(m);
    EXPECT_GT(r.count(HazardKind::kStaleRead), 0u)
        << "bias " << bias << ": " << r.to_string();
    const Hazard* h = r.first(HazardKind::kStaleRead);
    if (h != nullptr) {
      EXPECT_EQ(h->array, "mom0");
    }
  }
}

TEST(SanitizerMutation, ShortenedWriteBehindCaught) {
  MrEngine<D2Q9>::FaultMutation m;
  m.write_behind = 1;
  const SanitizerReport r = run_mutated_tg(m);
  EXPECT_GT(r.count(HazardKind::kStaleRead), 0u) << r.to_string();
}

TEST(SanitizerMutation, RemovedPhaseSyncCaught) {
  MrEngine<D2Q9>::FaultMutation m;
  m.skip_phase_sync = true;
  const SanitizerReport r = run_mutated_tg(m, /*steps=*/2);
  EXPECT_GT(r.count(HazardKind::kSharedRace), 0u) << r.to_string();
  const Hazard* h = r.first(HazardKind::kSharedRace);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->array, "shared");
}

TEST(SanitizerMutation, ShrunkenCrossHaloCaught) {
  MrEngine<D2Q9>::FaultMutation m;
  m.shrink_cross_halo = true;
  const SanitizerReport r = run_mutated_tg(m, /*steps=*/2);
  EXPECT_GT(r.count(HazardKind::kUninitRead), 0u) << r.to_string();
  const Hazard* h = r.first(HazardKind::kUninitRead);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->array, "shared");  // edge ring words never streamed into
}

// ---------------------------------------------------------------------------
// Clean engine matrix: zero hazards on every correct configuration.
// ---------------------------------------------------------------------------

/// A Sanitizer that also counts the global accesses it observes (one per
/// scalar access or span, as the traffic counter counts transactions).
class CountingSanitizer final : public gpusim::SanitizerHook {
 public:
  Sanitizer san;
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> writes{0};

  void on_launch_begin(const gpusim::KernelRecord& rec, Dim3 grid, Dim3 block,
                       int levels) override {
    san.on_launch_begin(rec, grid, block, levels);
  }
  void on_block_begin(long long block, int level) override {
    san.on_block_begin(block, level);
  }
  void on_block_end() override { san.on_block_end(); }
  void on_launch_end(const std::vector<std::uint64_t>& syncs) override {
    san.on_launch_end(syncs);
  }
  void begin_launch_group() override { san.begin_launch_group(); }
  void end_launch_group() override { san.end_launch_group(); }
  void global_register(const void* arr, std::size_t n, std::size_t elem_bytes,
                       const char* name, bool sliding_window) override {
    san.global_register(arr, n, elem_bytes, name, sliding_window);
  }
  void global_access(const void* arr, index_t base, index_t stride, int n,
                     bool write) override {
    (write ? writes : reads).fetch_add(1, std::memory_order_relaxed);
    san.global_access(arr, base, stride, n, write);
  }
  void global_oob(const void* arr, index_t base, index_t stride, int n,
                  std::size_t size, bool write) override {
    san.global_oob(arr, base, stride, n, size, write);
  }
  void global_host_write(const void* arr, index_t i) override {
    san.global_host_write(arr, i);
  }
  void shared_register(long long block, const void* base, std::size_t words,
                       std::size_t word_bytes) override {
    san.shared_register(block, base, words, word_bytes);
  }
  void shared_access(long long block, const void* addr, int tid, bool write,
                     std::uint64_t epoch) override {
    san.shared_access(block, addr, tid, write, epoch);
  }
  void block_sync(long long block, std::uint64_t epoch) override {
    san.block_sync(block, epoch);
  }
};

/// Traffic counted so far: the engine's own profiler, or the sum over the
/// slab engines' profilers of a decomposed engine (which has none).
template <class L>
gpusim::TrafficSnapshot counted_traffic(const Engine<L>& eng) {
  return eng.profiler()->total_traffic();
}
template <class L>
gpusim::TrafficSnapshot counted_traffic(const MultiDomainEngine<L>& eng) {
  gpusim::TrafficSnapshot t;
  for (int d = 0; d < eng.devices(); ++d) {
    t += eng.device_engine(d).profiler()->total_traffic();
  }
  return t;
}

/// Zero hazards, and the sanitizer must also have seen every global access:
/// its count of observed loads and stores equals the counted transactions,
/// so no access (say, one on the chassis' interior fast path) slips past it.
template <class EngT, class Workload>
void expect_clean_run(EngT& eng, const Workload& w, int steps,
                      const char* what) {
  CountingSanitizer san;
  eng.set_sanitizer(&san);
  w.attach(eng);
  const gpusim::TrafficSnapshot before = counted_traffic(eng);
  eng.run(steps);
  const SanitizerReport r = san.san.report();
  EXPECT_TRUE(r.clean()) << what << ":\n" << r.to_string();
  const gpusim::TrafficSnapshot moved = counted_traffic(eng) - before;
  EXPECT_GT(moved.reads, 0u) << what;
  EXPECT_EQ(san.reads.load(), moved.reads) << what;
  EXPECT_EQ(san.writes.load(), moved.writes) << what;
  eng.set_sanitizer(nullptr);
}

TEST(SanitizerCleanMatrix, D2Q9TaylorGreenAllEngines) {
  const auto tg = TaylorGreen<D2Q9>::create(16, 0.03);
  const real_t tau = 0.8;
  {
    StEngine<D2Q9> e(tg.geo, tau);
    expect_clean_run(e, tg, 3, "ST pull fp64");
  }
  {
    StEngine<D2Q9> e(tg.geo, tau, CollisionScheme::kBGK, 64, StreamMode::kPush);
    expect_clean_run(e, tg, 3, "ST push fp64");
  }
  {
    StEngine<D2Q9, float> e(tg.geo, tau);
    expect_clean_run(e, tg, 3, "ST pull fp32");
  }
  {
    AaEngine<D2Q9> e(tg.geo, tau);
    expect_clean_run(e, tg, 4, "AA fp64");  // even number: both flavours
  }
  {
    AaEngine<D2Q9, float> e(tg.geo, tau);
    expect_clean_run(e, tg, 4, "AA fp32");
  }
  {
    EpEngine<D2Q9> e(tg.geo, tau);
    expect_clean_run(e, tg, 4, "EP fp64");
  }
  {
    EpEngine<D2Q9, float> e(tg.geo, tau);
    expect_clean_run(e, tg, 4, "EP fp32");
  }
  for (const auto storage :
       {MomentStorage::kPingPong, MomentStorage::kCircularShift}) {
    {
      MrEngine<D2Q9> e(tg.geo, tau, Regularization::kProjective,
                       MrConfig{8, 1, 2, storage});
      expect_clean_run(e, tg, 3,
                       storage == MomentStorage::kPingPong
                           ? "MR-P ping-pong fp64"
                           : "MR-P circular fp64");
    }
    {
      MrEngine<D2Q9, float> e(tg.geo, tau, Regularization::kRecursive,
                              MrConfig{8, 1, 2, storage});
      expect_clean_run(e, tg, 3,
                       storage == MomentStorage::kPingPong
                           ? "MR-R ping-pong fp32"
                           : "MR-R circular fp32");
    }
  }
}

TEST(SanitizerCleanMatrix, D3Q19TaylorGreen) {
  const auto tg = TaylorGreen<D3Q19>::create(8, 0.03, 8);
  const real_t tau = 0.8;
  {
    StEngine<D3Q19> e(tg.geo, tau);
    expect_clean_run(e, tg, 2, "ST pull 3D fp64");
  }
  {
    AaEngine<D3Q19> e(tg.geo, tau);
    expect_clean_run(e, tg, 2, "AA 3D fp64");
  }
  {
    EpEngine<D3Q19> e(tg.geo, tau);
    expect_clean_run(e, tg, 2, "EP 3D fp64");
  }
  {
    MrEngine<D3Q19> e(tg.geo, tau, Regularization::kProjective,
                      MrConfig{4, 4, 1, MomentStorage::kCircularShift});
    expect_clean_run(e, tg, 2, "MR-P circular 3D fp64");
  }
  {
    MrEngine<D3Q19, float> e(tg.geo, tau, Regularization::kRecursive,
                             MrConfig{4, 4, 1, MomentStorage::kPingPong});
    expect_clean_run(e, tg, 2, "MR-R ping-pong 3D fp32");
  }
}

TEST(SanitizerCleanMatrix, WallDomainCavity) {
  const auto cav = LidDrivenCavity<D2Q9>::create(16, 0.05);
  MrEngine<D2Q9> e(cav.geo, 0.8, Regularization::kRecursive,
                   MrConfig{8, 1, 2, MomentStorage::kCircularShift});
  expect_clean_run(e, cav, 3, "MR-R circular cavity");
}

TEST(SanitizerCleanMatrix, MultiDomainChannel) {
  const real_t tau = 0.8;
  const auto ch = Channel<D2Q9>::create(20, 10, 1, tau, 0.04);
  const auto multi = make_multi_engine<D2Q9>(EngineSpec{}, ch.geo, tau, 2);
  expect_clean_run(*multi, ch, 3, "MultiDomain 2x ST channel");
  const auto mrp =
      make_multi_engine<D2Q9>(EngineSpec::parse("mr-p"), ch.geo, tau, 2);
  expect_clean_run(*mrp, ch, 3, "MultiDomain 2x MR-P channel");
}

// ---------------------------------------------------------------------------
// The skipped ghost exchange: the documented detection boundary.
// ---------------------------------------------------------------------------

TEST(SanitizerMultiDomain, SkippedExchangeIsMemoryCleanButPhysicallyWrong) {
  // The slab kernels recompute their ghost nodes every step (open-face
  // placeholder values), so a dropped exchange violates no memory contract
  // — compute-sanitizer on real hardware cannot see a lost MPI message on a
  // device-computed halo either. The detectable variant (a receive buffer
  // that is never filled) is covered by
  // SanitizerInitcheck.HaloConsumedBeforeGhostExchangeIsCaught. Here we pin
  // the boundary: the sanitized run stays clean while the physics diverges.
  const real_t tau = 0.8;
  const auto ch = Channel<D2Q9>::create(20, 10, 1, tau, 0.04);
  const auto factory = [&](Geometry g,
                           int) -> std::unique_ptr<Engine<D2Q9>> {
    return std::make_unique<StEngine<D2Q9>>(std::move(g), tau);
  };

  MultiDomainEngine<D2Q9> good(ch.geo, tau, 2, factory);
  ch.attach(good);

  MultiDomainEngine<D2Q9> bad(ch.geo, tau, 2, factory);
  Sanitizer san;
  bad.set_sanitizer(&san);
  bad.set_skip_exchange_for_test(true);
  ch.attach(bad);

  good.run(5);
  bad.run(5);
  EXPECT_TRUE(san.report().clean()) << san.report().to_string();
  bad.set_sanitizer(nullptr);

  // The interface column feels the dropped exchange within a few steps.
  real_t max_diff = 0;
  const int xi = bad.slab(0).x_end - 1;
  for (int y = 0; y < ch.geo.box.ny; ++y) {
    const auto mg = good.moments_at(xi, y, 0);
    const auto mb = bad.moments_at(xi, y, 0);
    max_diff = std::max(max_diff, std::abs(mg.u[0] - mb.u[0]));
  }
  EXPECT_GT(max_diff, real_t(1e-13));
}

}  // namespace
}  // namespace mlbm
