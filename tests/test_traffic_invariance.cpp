// Batched-span I/O must be observationally equivalent to scalar I/O.
//
// The engines move whole per-node vectors (Q populations, M moments) through
// GlobalArray::load_span/store_span — one counted transaction per node
// instead of one per component. This file pins down the contract:
//
//   * byte counts are IDENTICAL: a span of n elements counts n * sizeof(T)
//     bytes, exactly like n scalar accesses (Table 2 stays byte-exact);
//   * transaction counts scale by the batch width: n scalar accesses become
//     one span transaction (the coalesced-transaction model of DESIGN.md);
//   * the physics is BIT-IDENTICAL: both paths read and write the same
//     values at the same addresses, so trajectories match exactly — not
//     merely to round-off.
//
// The same contract binds the lane-batched execution path (ExecMode::kLanes):
// panels reorder node processing but perform the scalar path's loads, stores
// and arithmetic per node, so fields AND all four traffic counters must be
// identical — not merely the byte totals.
//
// And it binds the interior fast path of the dense chassis launches
// (docs/algorithms.md §16): all-interior nodes run the same gather/scatter
// maps through bare element access and a register tally, so a run on it must
// match a run forced onto the per-access path (unique-read tracking on) in
// every field bit and every counter, step by step.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "analysis/sanitizer/sanitizer.hpp"
#include "engines/aa_engine.hpp"
#include "engines/ep_engine.hpp"
#include "engines/mr_engine.hpp"
#include "engines/st_engine.hpp"
#include "multidev/multi_domain.hpp"
#include "workloads/cavity.hpp"
#include "workloads/channel.hpp"
#include "workloads/porous_plug.hpp"
#include "workloads/taylor_green.hpp"

namespace mlbm {
namespace {

/// Traffic counted so far by the engine: a decomposed engine has no
/// profiler of its own, so sum its slab engines'.
template <class L>
gpusim::TrafficSnapshot total_traffic(const Engine<L>& eng) {
  const auto* multi = dynamic_cast<const MultiDomainEngine<L>*>(&eng);
  if (multi == nullptr) return eng.profiler()->total_traffic();
  gpusim::TrafficSnapshot t;
  for (int d = 0; d < multi->devices(); ++d) {
    t += multi->device_engine(d).profiler()->total_traffic();
  }
  return t;
}

/// Steps the engine and returns the traffic it generated while stepping
/// (initialization goes through uncounted raw access, but be explicit).
/// `split` steps through the frontier/interior split instead.
template <class L>
gpusim::TrafficSnapshot traffic_of_run(Engine<L>& eng, int steps,
                                       bool split = false) {
  const auto before = total_traffic(eng);
  for (int s = 0; s < steps; ++s) {
    if (split) {
      eng.step_split(FrontierSpec{2, 2}, [] {});
    } else {
      eng.step();
    }
  }
  return total_traffic(eng) - before;
}

/// Exact (not tolerance-based) comparison of every stored moment.
template <class L>
void expect_fields_identical(const Engine<L>& a, const Engine<L>& b) {
  const Box& box = a.geometry().box;
  for (int z = 0; z < box.nz; ++z) {
    for (int y = 0; y < box.ny; ++y) {
      for (int x = 0; x < box.nx; ++x) {
        const Moments<L> ma = a.moments_at(x, y, z);
        const Moments<L> mb = b.moments_at(x, y, z);
        ASSERT_EQ(ma.rho, mb.rho) << "rho at " << x << "," << y << "," << z;
        for (int c = 0; c < L::D; ++c) {
          ASSERT_EQ(ma.u[static_cast<std::size_t>(c)],
                    mb.u[static_cast<std::size_t>(c)])
              << "u[" << c << "] at " << x << "," << y << "," << z;
        }
        for (int p = 0; p < Moments<L>::NP; ++p) {
          ASSERT_EQ(ma.pi[static_cast<std::size_t>(p)],
                    mb.pi[static_cast<std::size_t>(p)])
              << "pi[" << p << "] at " << x << "," << y << "," << z;
        }
      }
    }
  }
}

// ------------------------------------------------------------------ ST pull
// Pull gathers from neighbour-dependent addresses (inherently scalar) and
// writes the node's Q populations as one span: writes collapse by Q, reads
// are untouched.
TEST(TrafficInvariance, StPullWritesCollapseByQ) {
  const auto tg = TaylorGreen<D2Q9>::create(16, 0.03);
  StEngine<D2Q9> batched(tg.geo, 0.8);
  StEngine<D2Q9> scalar(tg.geo, 0.8);
  scalar.set_batched_io(false);
  tg.attach(batched);
  tg.attach(scalar);

  const auto tb = traffic_of_run<D2Q9>(batched, 5);
  const auto ts = traffic_of_run<D2Q9>(scalar, 5);

  EXPECT_EQ(tb.bytes_read, ts.bytes_read);
  EXPECT_EQ(tb.bytes_written, ts.bytes_written);
  EXPECT_EQ(tb.reads, ts.reads);                // gather stays scalar
  EXPECT_EQ(tb.writes * D2Q9::Q, ts.writes);    // write-back batches by Q
  expect_fields_identical<D2Q9>(batched, scalar);
}

// ------------------------------------------------------------------ ST push
// Push reads the node's Q populations as one span and scatters to
// neighbour-dependent addresses: reads collapse by Q, writes are untouched.
TEST(TrafficInvariance, StPushReadsCollapseByQ) {
  const auto tg = TaylorGreen<D2Q9>::create(16, 0.03);
  StEngine<D2Q9> batched(tg.geo, 0.8, CollisionScheme::kBGK, 256,
                         StreamMode::kPush);
  StEngine<D2Q9> scalar(tg.geo, 0.8, CollisionScheme::kBGK, 256,
                        StreamMode::kPush);
  scalar.set_batched_io(false);
  tg.attach(batched);
  tg.attach(scalar);

  const auto tb = traffic_of_run<D2Q9>(batched, 5);
  const auto ts = traffic_of_run<D2Q9>(scalar, 5);

  EXPECT_EQ(tb.bytes_read, ts.bytes_read);
  EXPECT_EQ(tb.bytes_written, ts.bytes_written);
  EXPECT_EQ(tb.reads * D2Q9::Q, ts.reads);      // node read batches by Q
  EXPECT_EQ(tb.writes, ts.writes);              // scatter stays scalar
  expect_fields_identical<D2Q9>(batched, scalar);
}

// ------------------------------------------------------------------ AA even
// The even step is purely node-local: both the read and the (opposite-slot)
// write move the node's full Q vector, so both collapse by Q.
TEST(TrafficInvariance, AaEvenStepBatchesBothSidesByQ) {
  const auto tg = TaylorGreen<D2Q9>::create(16, 0.03);
  AaEngine<D2Q9> batched(tg.geo, 0.8);
  AaEngine<D2Q9> scalar(tg.geo, 0.8);
  scalar.set_batched_io(false);
  tg.attach(batched);
  tg.attach(scalar);

  const auto tb = traffic_of_run<D2Q9>(batched, 1);  // step 0 is even
  const auto ts = traffic_of_run<D2Q9>(scalar, 1);

  EXPECT_EQ(tb.bytes_read, ts.bytes_read);
  EXPECT_EQ(tb.bytes_written, ts.bytes_written);
  EXPECT_EQ(tb.reads * D2Q9::Q, ts.reads);
  EXPECT_EQ(tb.writes * D2Q9::Q, ts.writes);
  expect_fields_identical<D2Q9>(batched, scalar);
}

// --------------------------------------------------------------------- MR
// Both sides of the MR engine move whole M-component moment vectors, so
// reads and writes collapse by M = 1 + D + D(D+1)/2.
TEST(TrafficInvariance, MrPingPong2DBatchesByM) {
  const auto tg = TaylorGreen<D2Q9>::create(16, 0.03);
  MrEngine<D2Q9> batched(tg.geo, 0.8, Regularization::kProjective, {8, 1, 2});
  MrEngine<D2Q9> scalar(tg.geo, 0.8, Regularization::kProjective, {8, 1, 2});
  scalar.set_batched_io(false);
  tg.attach(batched);
  tg.attach(scalar);

  const auto tb = traffic_of_run<D2Q9>(batched, 5);
  const auto ts = traffic_of_run<D2Q9>(scalar, 5);

  EXPECT_EQ(tb.bytes_read, ts.bytes_read);
  EXPECT_EQ(tb.bytes_written, ts.bytes_written);
  EXPECT_EQ(tb.reads * D2Q9::M, ts.reads);
  EXPECT_EQ(tb.writes * D2Q9::M, ts.writes);
  expect_fields_identical<D2Q9>(batched, scalar);
}

TEST(TrafficInvariance, MrCircularShift3DBatchesByM) {
  const auto tg = TaylorGreen<D3Q19>::create(8, 0.03, 8);
  MrConfig cfg{4, 4, 1, MomentStorage::kCircularShift};
  MrEngine<D3Q19> batched(tg.geo, 0.8, Regularization::kRecursive, cfg);
  MrEngine<D3Q19> scalar(tg.geo, 0.8, Regularization::kRecursive, cfg);
  scalar.set_batched_io(false);
  tg.attach(batched);
  tg.attach(scalar);

  const auto tb = traffic_of_run<D3Q19>(batched, 3);
  const auto ts = traffic_of_run<D3Q19>(scalar, 3);

  EXPECT_EQ(tb.bytes_read, ts.bytes_read);
  EXPECT_EQ(tb.bytes_written, ts.bytes_written);
  EXPECT_EQ(tb.reads * D3Q19::M, ts.reads);
  EXPECT_EQ(tb.writes * D3Q19::M, ts.writes);
  expect_fields_identical<D3Q19>(batched, scalar);
}

// ------------------------------------------------------- Scalar vs Lanes
// The lane backend must be observationally indistinguishable from the
// scalar backend: bit-identical fields and identical counters (bytes AND
// transactions — lane batching changes neither the addresses touched nor
// how they are grouped into spans).

template <class L, class W>
void expect_exec_invariant(Engine<L>& scalar, Engine<L>& lanes, const W& tg,
                           int steps, bool split = false) {
  ASSERT_EQ(scalar.pattern_name(), lanes.pattern_name());
  tg.attach(scalar);
  tg.attach(lanes);
  const auto ts = traffic_of_run<L>(scalar, steps, split);
  const auto tl = traffic_of_run<L>(lanes, steps, split);
  EXPECT_EQ(ts.bytes_read, tl.bytes_read);
  EXPECT_EQ(ts.bytes_written, tl.bytes_written);
  EXPECT_EQ(ts.reads, tl.reads);
  EXPECT_EQ(ts.writes, tl.writes);
  expect_fields_identical<L>(scalar, lanes);
}

/// MR-P and MR-R, scalar vs lanes, on workload `w`: both storage policies,
/// batched and per-component moment I/O. `ndev` > 1 runs each engine as a
/// slab decomposition along x, whose interface faces are open faces the
/// kernel's open-hole path serves every step.
template <class L, class ST, class W>
void mr_exec_invariance_matrix(const W& w, int steps, int ndev = 1) {
  const real_t tau = 0.8;
  const MrConfig cfg = (L::D == 2) ? MrConfig{8, 1, 2} : MrConfig{4, 4, 1};
  for (const Regularization reg :
       {Regularization::kProjective, Regularization::kRecursive}) {
    for (const MomentStorage storage :
         {MomentStorage::kPingPong, MomentStorage::kCircularShift}) {
      for (const bool batched : {true, false}) {
        const bool p = reg == Regularization::kProjective;
        SCOPED_TRACE(std::string(p ? "MR-P " : "MR-R ") + to_string(storage) +
                     (batched ? " batched" : " scalar-io"));
        MrConfig c = cfg;
        c.storage = storage;
        const auto make = [&](Geometry g, ExecMode exec) {
          auto e = std::make_unique<MrEngine<L, ST>>(std::move(g), tau, reg, c,
                                                     exec);
          e->set_batched_io(batched);
          return e;
        };
        std::unique_ptr<Engine<L>> scalar;
        std::unique_ptr<Engine<L>> lanes;
        if (ndev == 1) {
          scalar = make(w.geo, ExecMode::kScalar);
          lanes = make(w.geo, ExecMode::kLanes);
        } else {
          for (const ExecMode exec : {ExecMode::kScalar, ExecMode::kLanes}) {
            (exec == ExecMode::kScalar ? scalar : lanes) =
                std::make_unique<MultiDomainEngine<L>>(
                    w.geo, tau, ndev,
                    [&](Geometry g, int) -> std::unique_ptr<Engine<L>> {
                      return make(std::move(g), exec);
                    });
          }
        }
        expect_exec_invariant<L>(*scalar, *lanes, w, steps);
      }
    }
  }
}

/// Every gpusim engine, scalar vs lanes, on workload `tg` (periodic
/// Taylor-Green, or a lid-driven cavity whose moving wall runs the
/// cu_wall branch of every gather and scatter).
template <class L, class ST, class W>
void exec_invariance_matrix(const W& tg, int steps) {
  const real_t tau = 0.8;
  for (const StreamMode mode : {StreamMode::kPull, StreamMode::kPush}) {
    StEngine<L, ST> scalar(tg.geo, tau, CollisionScheme::kRecursive, 64, mode,
                           ExecMode::kScalar);
    StEngine<L, ST> lanes(tg.geo, tau, CollisionScheme::kRecursive, 64, mode,
                          ExecMode::kLanes);
    expect_exec_invariant<L>(scalar, lanes, tg, steps);
  }
  {
    AaEngine<L, ST> scalar(tg.geo, tau, CollisionScheme::kProjective, 64,
                           ExecMode::kScalar);
    AaEngine<L, ST> lanes(tg.geo, tau, CollisionScheme::kProjective, 64,
                          ExecMode::kLanes);
    // Even number of steps: covers both the node-local even flavour and the
    // in-place gather/scatter odd flavour.
    expect_exec_invariant<L>(scalar, lanes, tg, steps + (steps % 2));
  }
  // EP both whole-stepped and through the frontier/interior split, over
  // both parities.
  for (const bool split : {false, true}) {
    EpEngine<L, ST> scalar(tg.geo, tau, CollisionScheme::kBGK, 64,
                           ExecMode::kScalar);
    EpEngine<L, ST> lanes(tg.geo, tau, CollisionScheme::kBGK, 64,
                          ExecMode::kLanes);
    expect_exec_invariant<L>(scalar, lanes, tg, steps + (steps % 2), split);
  }
  mr_exec_invariance_matrix<L, ST>(tg, steps);
}

TEST(ExecInvariance, D2Q9Fp64LanesMatchScalarBitExact) {
  exec_invariance_matrix<D2Q9, double>(TaylorGreen<D2Q9>::create(16, 0.03), 5);
  exec_invariance_matrix<D2Q9, double>(LidDrivenCavity<D2Q9>::create(16, 0.1),
                                       5);
}

TEST(ExecInvariance, D2Q9Fp32LanesMatchScalarBitExact) {
  exec_invariance_matrix<D2Q9, float>(TaylorGreen<D2Q9>::create(16, 0.03), 5);
  exec_invariance_matrix<D2Q9, float>(LidDrivenCavity<D2Q9>::create(16, 0.1),
                                      5);
}

TEST(ExecInvariance, D3Q19Fp64LanesMatchScalarBitExact) {
  exec_invariance_matrix<D3Q19, double>(
      TaylorGreen<D3Q19>::create(8, 0.03, 8), 3);
  exec_invariance_matrix<D3Q19, double>(
      LidDrivenCavity<D3Q19>::create(8, 0.1), 3);
}

TEST(ExecInvariance, D3Q19Fp32LanesMatchScalarBitExact) {
  exec_invariance_matrix<D3Q19, float>(
      TaylorGreen<D3Q19>::create(8, 0.03, 8), 3);
  exec_invariance_matrix<D3Q19, float>(
      LidDrivenCavity<D3Q19>::create(8, 0.1), 3);
}

// MR's cold paths: porous sparse plugs (column map, unallocated all-solid
// columns, solid source skips and solid bounces, plus an open inlet and
// outlet), an open channel (open-hole fills on the cross faces) and a
// 2-slab decomposition (open interface faces on every slab).
template <class L, class ST>
void mr_cold_path_inputs(int n) {
  const int nz = L::D == 3 ? n : 1;
  {
    SCOPED_TRACE("porous sparse");
    auto pp = PorousPlug<L>::create(2 * n, n, nz, 0.8, 0.02, 0.3, 7, 2);
    // One all-solid column inside the plug: an unallocated column id.
    for (int s = 0; s < (L::D == 2 ? n : nz); ++s) {
      if (L::D == 2) {
        pp.geo.set_solid(n, s, 0);
      } else {
        pp.geo.set_solid(n, n / 2, s);
      }
    }
    mr_exec_invariance_matrix<L, ST>(pp, 3);
  }
  {
    SCOPED_TRACE("open channel");
    mr_exec_invariance_matrix<L, ST>(
        Channel<L>::create(2 * n, n, nz, 0.8, 0.04), 3);
  }
  {
    SCOPED_TRACE("2 slabs");
    mr_exec_invariance_matrix<L, ST>(
        Channel<L>::create(2 * n, n, nz, 0.8, 0.04), 3, 2);
  }
}

TEST(ExecInvariance, MrColdPathsD2Q9Fp64) {
  mr_cold_path_inputs<D2Q9, double>(12);
}
TEST(ExecInvariance, MrColdPathsD2Q9Fp32) {
  mr_cold_path_inputs<D2Q9, float>(12);
}
TEST(ExecInvariance, MrColdPathsD3Q19Fp64) {
  mr_cold_path_inputs<D3Q19, double>(8);
}
TEST(ExecInvariance, MrColdPathsD3Q19Fp32) {
  mr_cold_path_inputs<D3Q19, float>(8);
}

// Odd domain extents force partially-filled panels on every row; the ragged
// last lane must not read or write anything the scalar path does not.
TEST(ExecInvariance, RaggedPanelsStayInvariant) {
  const auto tg = TaylorGreen<D2Q9>::create(13, 0.03);
  StEngine<D2Q9> scalar(tg.geo, 0.8, CollisionScheme::kBGK, 64,
                        StreamMode::kPull, ExecMode::kScalar);
  StEngine<D2Q9> lanes(tg.geo, 0.8, CollisionScheme::kBGK, 64,
                       StreamMode::kPull, ExecMode::kLanes);
  expect_exec_invariant<D2Q9>(scalar, lanes, tg, 5);
}

// The lane path must also be hazard-free under the sanitizer: panels reorder
// node processing within a conceptual thread block, which is only legal
// because no two nodes of one launch touch the same word (ST/AA) or because
// every shared-ring word keeps its unique producer (MR).
TEST(ExecInvariance, LanePathSanitizerClean) {
  const auto tg = TaylorGreen<D2Q9>::create(16, 0.03);
  const real_t tau = 0.8;
  auto expect_clean = [&](auto& eng, int steps, const char* what) {
    analysis::Sanitizer san;
    eng.set_sanitizer(&san);
    tg.attach(eng);
    eng.run(steps);
    const analysis::SanitizerReport r = san.report();
    EXPECT_TRUE(r.clean()) << what << ":\n" << r.to_string();
    eng.set_sanitizer(nullptr);
  };
  {
    StEngine<D2Q9> e(tg.geo, tau, CollisionScheme::kBGK, 64, StreamMode::kPull,
                     ExecMode::kLanes);
    expect_clean(e, 3, "ST pull lanes");
  }
  {
    AaEngine<D2Q9> e(tg.geo, tau, CollisionScheme::kBGK, 64, ExecMode::kLanes);
    expect_clean(e, 4, "AA lanes");
  }
  for (const auto storage :
       {MomentStorage::kPingPong, MomentStorage::kCircularShift}) {
    MrEngine<D2Q9> e(tg.geo, tau, Regularization::kRecursive,
                     MrConfig{8, 1, 2, storage}, ExecMode::kLanes);
    expect_clean(e, 3,
                 storage == MomentStorage::kPingPong ? "MR-R ping-pong lanes"
                                                     : "MR-R circular lanes");
  }
}

// ------------------------------------------------- Interior fast path
// `fast` runs whatever path the chassis picks (interior nodes on the fast
// path); `inst` is forced onto the instrumented per-access path by
// unique-read tracking, which needs every access one by one. After every
// step the fields must be bit-identical and the step's TrafficSnapshot
// equal in all four fields; at the end, every KernelRecord's traffic.

template <class L, class W>
void expect_fast_path_invariant(Engine<L>& fast, Engine<L>& inst, const W& w,
                                int steps, bool split) {
  w.attach(fast);
  w.attach(inst);
  inst.set_unique_read_tracking(true);
  for (int s = 0; s < steps; ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    const auto tf = traffic_of_run<L>(fast, 1, split);
    const auto ti = traffic_of_run<L>(inst, 1, split);
    EXPECT_EQ(tf.bytes_read, ti.bytes_read);
    EXPECT_EQ(tf.bytes_written, ti.bytes_written);
    EXPECT_EQ(tf.reads, ti.reads);
    EXPECT_EQ(tf.writes, ti.writes);
    expect_fields_identical<L>(fast, inst);
  }
  std::map<std::string, gpusim::TrafficSnapshot> rf;
  for (const auto& r : fast.profiler()->all_records()) rf[r.name] = r.traffic;
  const auto ri = inst.profiler()->all_records();
  EXPECT_EQ(rf.size(), ri.size());
  for (const auto& r : ri) {
    SCOPED_TRACE("record " + r.name);
    ASSERT_EQ(rf.count(r.name), 1u);
    const gpusim::TrafficSnapshot& t = rf[r.name];
    EXPECT_EQ(t.bytes_read, r.traffic.bytes_read);
    EXPECT_EQ(t.bytes_written, r.traffic.bytes_written);
    EXPECT_EQ(t.reads, r.traffic.reads);
    EXPECT_EQ(t.writes, r.traffic.writes);
  }
}

/// ST pull, ST push, AA and EP on workload `w`, batched and scalar I/O
/// (ST, AA; EP moves no spans), whole steps and frontier/interior split
/// steps, scalar and lane execution. 40 threads per block: blocks start
/// mid-row, so x-runs are split at block edges as well as at the faces.
/// `sparse`: `w` carries solids (tile launches; ST push rejects them).
template <class L, class ST, class W>
void fast_path_matrix(const W& w, bool sparse) {
  const real_t tau = 0.8;
  const int tpb = 40;
  const int steps = 4;  // both parities of AA and EP
  for (const bool split : {false, true}) {
    for (const ExecMode exec : {ExecMode::kScalar, ExecMode::kLanes}) {
      for (const bool batched : {true, false}) {
        SCOPED_TRACE(std::string(split ? "split " : "whole ") +
                     to_string(exec) + (batched ? " batched" : " scalar-io"));
        for (const StreamMode mode : {StreamMode::kPull, StreamMode::kPush}) {
          if (sparse && mode == StreamMode::kPush) continue;
          SCOPED_TRACE(mode == StreamMode::kPull ? "ST pull" : "ST push");
          StEngine<L, ST> fast(w.geo, tau, CollisionScheme::kRecursive, tpb,
                               mode, exec);
          StEngine<L, ST> inst(w.geo, tau, CollisionScheme::kRecursive, tpb,
                               mode, exec);
          fast.set_batched_io(batched);
          inst.set_batched_io(batched);
          expect_fast_path_invariant<L>(fast, inst, w, steps, split);
        }
        {
          SCOPED_TRACE("AA");
          AaEngine<L, ST> fast(w.geo, tau, CollisionScheme::kProjective, tpb,
                               exec);
          AaEngine<L, ST> inst(w.geo, tau, CollisionScheme::kProjective, tpb,
                               exec);
          fast.set_batched_io(batched);
          inst.set_batched_io(batched);
          expect_fast_path_invariant<L>(fast, inst, w, steps, split);
        }
        if (batched) {
          SCOPED_TRACE("EP");
          EpEngine<L, ST> fast(w.geo, tau, CollisionScheme::kBGK, tpb, exec);
          EpEngine<L, ST> inst(w.geo, tau, CollisionScheme::kBGK, tpb, exec);
          expect_fast_path_invariant<L>(fast, inst, w, steps, split);
        }
      }
    }
  }
}

/// The three geometries: periodic Taylor-Green, a moving-lid cavity (walls
/// on every face, moving-wall branches), and a Taylor-Green box with a solid
/// block (solids make the geometry tile-compressed, so this row pins that
/// the fast path leaves tile launches alone).
template <class L, class ST>
void fast_path_geometries(int n) {
  const int nz = L::D == 3 ? n : 1;
  {
    SCOPED_TRACE("taylor-green");
    fast_path_matrix<L, ST>(TaylorGreen<L>::create(n, 0.03, nz), false);
  }
  {
    SCOPED_TRACE("cavity");
    fast_path_matrix<L, ST>(LidDrivenCavity<L>::create(n, 0.1), false);
  }
  {
    SCOPED_TRACE("solids");
    auto tg = TaylorGreen<L>::create(n, 0.03, nz);
    for (int z = 0; z < (L::D == 3 ? 2 : 1); ++z) {
      for (int y = 0; y < 2; ++y) {
        for (int x = 0; x < 2; ++x) tg.geo.set_solid(n / 2 + x, n / 2 + y, z);
      }
    }
    fast_path_matrix<L, ST>(tg, true);
  }
}

TEST(FastPathInvariance, D2Q9Fp64) { fast_path_geometries<D2Q9, double>(16); }
TEST(FastPathInvariance, D2Q9Fp32) { fast_path_geometries<D2Q9, float>(16); }
TEST(FastPathInvariance, D3Q19Fp64) { fast_path_geometries<D3Q19, double>(8); }
TEST(FastPathInvariance, D3Q19Fp32) { fast_path_geometries<D3Q19, float>(8); }

}  // namespace
}  // namespace mlbm
