// Overlapped ghost exchange: the async multi-domain schedule must be a pure
// scheduling change. This file pins
//  * exchange invariance: overlap vs lockstep bit-identity (fields AND
//    per-slab traffic counters) across the engine x lattice x precision x
//    exec-mode matrix, including ragged slab widths and AA's depth-2 ghosts;
//  * the frontier/interior step split: step_split() == step() per engine;
//  * degenerate decompositions throwing typed mlbm::Error;
//  * the stream/event Timeline and the CommStats attribution it feeds
//    (lockstep exposes everything, overlap hides what the interior covers,
//    exposed + hidden == comm);
//  * perfmodel agreement: predict_overlap_slab within 15 points of the
//    profiler's exposed fraction;
//  * resilience: fault -> rollback -> replay stays bit-identical with the
//    overlapped exchange enabled;
//  * sanitizer cleanliness of the overlapped (split-launch) path.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "analysis/sanitizer/sanitizer.hpp"
#include "engines/engine_spec.hpp"
#include "engines/factory.hpp"
#include "engines/mr_engine.hpp"
#include "engines/reference_engine.hpp"
#include "engines/st_engine.hpp"
#include "gpusim/timeline.hpp"
#include "multidev/multi_domain.hpp"
#include "perfmodel/overlap.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/runner.hpp"
#include "util/error.hpp"
#include "workloads/channel.hpp"

namespace mlbm {
namespace {

using analysis::Sanitizer;
using resilience::FaultConfig;
using resilience::FaultInjector;
using resilience::FaultKind;
using resilience::ResilientRunner;
using resilience::RunnerConfig;

/// Every stored quantity of every node, in deterministic order — the
/// bit-identity comparand.
template <class L>
std::vector<real_t> dump_all(const Engine<L>& e) {
  std::vector<real_t> out;
  const Box& b = e.geometry().box;
  for (int z = 0; z < b.nz; ++z) {
    for (int y = 0; y < b.ny; ++y) {
      for (int x = 0; x < b.nx; ++x) {
        const auto m = e.moments_at(x, y, z);
        out.push_back(m.rho);
        for (int c = 0; c < L::D; ++c) {
          out.push_back(m.u[static_cast<std::size_t>(c)]);
        }
        for (int p = 0; p < Moments<L>::NP; ++p) {
          out.push_back(m.pi[static_cast<std::size_t>(p)]);
        }
      }
    }
  }
  return out;
}

/// `ch` with bounce-back x faces. AA has no physical inlet or outlet
/// (AaEngine), so its decompositions run the channel's initial field and
/// end-plane pass between walls.
template <class L>
Channel<L> walled_x(Channel<L> ch) {
  ch.geo.bc.set_axis(0, FaceBC::kWall);
  return ch;
}

/// Channel decomposition with uniform slab engines of `spec`, at
/// spec.ghost_depth() ghost planes (AA: 2, in-place odd step; walled x).
/// MR uses tile_x = 2 so even thin slabs keep a genuine interior launch.
template <class L>
std::unique_ptr<MultiDomainEngine<L>> make_multi(const Channel<L>& ch,
                                                 int ndev, EngineSpec spec,
                                                 ExecMode exec,
                                                 ExchangeMode mode) {
  if (spec.is_mr()) {
    spec.tile = L::D == 2 ? EngineSpec::Tile{2, 1, 2}
                          : EngineSpec::Tile{2, 4, 1};
  }
  const Channel<L> run =
      spec.pattern == EngineSpec::Pattern::kAA ? walled_x(ch) : ch;
  auto m = make_multi_engine<L>(spec, run.geo, run.tau, ndev, exec);
  m->set_exchange_mode(mode);
  run.attach(*m);
  return m;
}

template <class L>
void expect_overlap_identical(const Channel<L>& ch, int ndev,
                              const EngineSpec& spec, ExecMode exec,
                              int steps) {
  SCOPED_TRACE(spec.to_string() + " " + L::name() + " " + to_string(exec));
  auto lock = make_multi(ch, ndev, spec, exec, ExchangeMode::kLockstep);
  auto over = make_multi(ch, ndev, spec, exec, ExchangeMode::kOverlap);
  lock->run(steps);
  over->run(steps);
  EXPECT_EQ(dump_all<L>(*lock), dump_all<L>(*over));
  EXPECT_EQ(lock->exchanged_values_total(), over->exchanged_values_total());
  for (int d = 0; d < ndev; ++d) {
    const auto tl = lock->device_engine(d).profiler()->total_traffic();
    const auto to = over->device_engine(d).profiler()->total_traffic();
    EXPECT_EQ(tl.bytes_read, to.bytes_read) << "slab " << d;
    EXPECT_EQ(tl.bytes_written, to.bytes_written) << "slab " << d;
    EXPECT_EQ(tl.reads, to.reads) << "slab " << d;
    EXPECT_EQ(tl.writes, to.writes) << "slab " << d;
  }
}

// ---------------------------------------------------------------------------
// Exchange invariance: overlap == lockstep, bit for bit.
// ---------------------------------------------------------------------------

/// The engine x precision axes of the invariance matrix.
constexpr const char* kMatrixSpecs[] = {
    "st", "st:fp32", "aa", "aa:fp32", "mr-p", "mr-p:fp32", "mr-r", "mr-r:fp32"};

TEST(OverlapInvariance, EngineMatrix2D) {
  // nx = 17 over 3 slabs: ragged widths 6, 6, 5.
  const auto ch = Channel<D2Q9>::create(17, 10, 1, 0.8, 0.04);
  for (const char* spec : kMatrixSpecs) {
    for (const ExecMode exec : {ExecMode::kScalar, ExecMode::kLanes}) {
      expect_overlap_identical(ch, 3, EngineSpec::parse(spec), exec, 6);
    }
  }
}

TEST(OverlapInvariance, EngineMatrix3D) {
  const auto ch = Channel<D3Q19>::create(17, 6, 5, 0.8, 0.04);
  for (const char* spec : kMatrixSpecs) {
    for (const ExecMode exec : {ExecMode::kScalar, ExecMode::kLanes}) {
      expect_overlap_identical(ch, 3, EngineSpec::parse(spec), exec, 4);
    }
  }
}

TEST(OverlapInvariance, ModeSwitchableBetweenSteps) {
  const auto ch = Channel<D2Q9>::create(18, 8, 1, 0.8, 0.04);
  const EngineSpec mrp = EngineSpec::parse("mr-p");
  auto lock =
      make_multi(ch, 3, mrp, ExecMode::kScalar, ExchangeMode::kLockstep);
  auto mixed =
      make_multi(ch, 3, mrp, ExecMode::kScalar, ExchangeMode::kLockstep);
  lock->run(6);
  mixed->run(2);
  mixed->set_exchange_mode(ExchangeMode::kOverlap);
  mixed->run(2);
  mixed->set_exchange_mode(ExchangeMode::kLockstep);
  mixed->run(2);
  EXPECT_EQ(dump_all<D2Q9>(*lock), dump_all<D2Q9>(*mixed));
}

// ---------------------------------------------------------------------------
// The frontier/interior step split per engine.
// ---------------------------------------------------------------------------

template <class L, class Make>
void expect_split_matches_step(const Channel<L>& ch, const Make& make,
                               int steps, const char* what) {
  SCOPED_TRACE(what);
  auto plain = make();
  auto split = make();
  ch.attach(*plain);
  ch.attach(*split);
  int fired = 0;
  const FrontierSpec fs{2, 2};
  for (int s = 0; s < steps; ++s) {
    plain->step();
    split->step_split(fs, [&] { ++fired; });
  }
  EXPECT_EQ(fired, steps);  // exactly once per step
  EXPECT_EQ(dump_all<L>(*plain), dump_all<L>(*split));
}

TEST(StepSplit, MatchesPlainStepAcrossEngines) {
  const real_t tau = 0.8;
  const auto ch = Channel<D2Q9>::create(18, 10, 1, tau, 0.04);
  // AA rejects the channel's open faces; every other pattern splits.
  for (const char* spec : {"st", "ep", "ref", "mr-p:fp64:2x1x2"}) {
    expect_split_matches_step(
        ch,
        [&] {
          return make_engine<D2Q9>(EngineSpec::parse(spec), ch.geo, tau);
        },
        5, spec);
  }
  expect_split_matches_step(
      ch,
      [&] {
        return std::make_unique<StEngine<D2Q9>>(
            ch.geo, tau, CollisionScheme::kBGK, 64, StreamMode::kPush);
      },
      5, "st-push");
  expect_split_matches_step(
      ch,
      [&] {
        return std::make_unique<MrEngine<D2Q9>>(
            ch.geo, tau, Regularization::kRecursive,
            MrConfig{8, 1, 2, MomentStorage::kCircularShift});
      },
      5, "MR-R circular (fallback)");
}

TEST(StepSplit, SupportFlagsReflectNativeSplits) {
  const real_t tau = 0.8;
  const Geometry geo = Channel<D2Q9>::create(16, 8, 1, tau, 0.04).geo;
  EXPECT_TRUE(StEngine<D2Q9>(geo, tau).supports_frontier_split());
  EXPECT_TRUE(ReferenceEngine<D2Q9>(geo, tau, CollisionScheme::kBGK)
                  .supports_frontier_split());
  EXPECT_TRUE(MrEngine<D2Q9>(geo, tau, Regularization::kProjective,
                             MrConfig{2, 1, 2})
                  .supports_frontier_split());
  // The circular-shift walk is one level-synced launch per step; splitting
  // it would break the slot-reuse analysis, so it declares the fallback.
  EXPECT_FALSE(MrEngine<D2Q9>(geo, tau, Regularization::kProjective,
                              MrConfig{8, 1, 2, MomentStorage::kCircularShift})
                   .supports_frontier_split());
}

TEST(StepSplit, DegenerateSpecsFallBackIdentically) {
  const real_t tau = 0.8;
  const auto ch = Channel<D2Q9>::create(6, 8, 1, tau, 0.04);
  // Frontier wider than the domain, and an empty frontier: both must take
  // the whole-step-as-frontier fallback and still match step().
  for (const FrontierSpec fs : {FrontierSpec{4, 4}, FrontierSpec{0, 0}}) {
    StEngine<D2Q9> plain(ch.geo, tau);
    StEngine<D2Q9> split(ch.geo, tau);
    ch.attach(plain);
    ch.attach(split);
    int fired = 0;
    for (int s = 0; s < 4; ++s) {
      plain.step();
      split.step_split(fs, [&] { ++fired; });
    }
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(dump_all<D2Q9>(plain), dump_all<D2Q9>(split));
  }
}

// ---------------------------------------------------------------------------
// Degenerate decompositions: typed errors, depth-aware slab arithmetic.
// ---------------------------------------------------------------------------

TEST(OverlapValidation, DegenerateDecompositionsThrowTypedErrors) {
  // Dispatchable via the mlbm::Error mixin...
  try {
    make_slabs(8, 9);
    FAIL() << "ndev > nx must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
    EXPECT_FALSE(e.transient());
  }
  // ...and via the std base for legacy call sites.
  EXPECT_THROW(make_slabs(8, 0), ConfigError);
  EXPECT_THROW(make_slabs(8, -1), std::invalid_argument);
  EXPECT_THROW(make_slabs(8, 2, 0), ConfigError);   // ghost_depth < 1
  EXPECT_THROW(make_slabs(9, 4, 3), ConfigError);   // width 2 < depth 3
  EXPECT_NO_THROW(make_slabs(8, 4, 2));             // width == depth is fine
  EXPECT_NO_THROW(make_slabs(8, 8));                // width-1 slabs, depth 1

  const auto ch = Channel<D2Q9>::create(8, 6, 1, 0.8, 0.04);
  const auto factory = [](Geometry g,
                          int) -> std::unique_ptr<Engine<D2Q9>> {
    return std::make_unique<StEngine<D2Q9>>(std::move(g), 0.8);
  };
  EXPECT_THROW(MultiDomainEngine<D2Q9>(ch.geo, 0.8, 9, factory), ConfigError);
  EXPECT_THROW(MultiDomainEngine<D2Q9>(ch.geo, 0.8, 5, factory, 2),
               ConfigError);  // width 1 < depth 2
}

TEST(OverlapSlabs, DepthAwareExtentsAndGhostMapping) {
  const auto slabs = make_slabs(17, 3, 2);  // widths 6, 6, 5
  EXPECT_EQ(slabs[0].local_nx(), 6 + 2);
  EXPECT_EQ(slabs[1].local_nx(), 6 + 4);
  EXPECT_EQ(slabs[2].local_nx(), 5 + 2);
  EXPECT_EQ(slabs[0].local_x(0), 0);
  EXPECT_EQ(slabs[1].local_x(slabs[1].x_begin), 2);
  // local_x extends naturally into the ghost bands on either side.
  EXPECT_EQ(slabs[1].local_x(slabs[1].x_begin - 2), 0);
  EXPECT_EQ(slabs[1].local_x(slabs[1].x_end), 8);
  // Exchange volume scales with depth.
  const auto ch = walled_x(Channel<D2Q9>::create(17, 6, 1, 0.8, 0.04));
  const auto owner =
      make_multi_engine<D2Q9>(EngineSpec::parse("aa"), ch.geo, 0.8, 3);
  auto& multi = *owner;
  EXPECT_EQ(multi.ghost_depth(), 2);
  // 2 interfaces x 2 directions x depth 2 x 6 face nodes x M=6.
  EXPECT_EQ(multi.exchanged_values_per_step(), 2ull * 2 * 2 * 6 * 6);
}

TEST(OverlapSlabs, AaRejectsAPhysicalInletOrOutlet) {
  // Only the slab interfaces may be open; the channel's own inlet and
  // outlet raise AaEngine's ConfigError, as a monolithic AA engine does.
  const auto ch = Channel<D2Q9>::create(17, 6, 1, 0.8, 0.04);
  const EngineSpec aa = EngineSpec::parse("aa");
  for (const int ndev : {1, 3}) {
    EXPECT_THROW((void)make_multi_engine<D2Q9>(aa, ch.geo, 0.8, ndev),
                 ConfigError);
  }
}

// ---------------------------------------------------------------------------
// Timeline + CommStats attribution.
// ---------------------------------------------------------------------------

TEST(Timeline, StreamOrderAndEventDependencies) {
  gpusim::Timeline tl;
  const int s0 = tl.add_stream("compute");
  const int s1 = tl.add_stream("link");
  const auto e0 = tl.enqueue(s0, 1.0, {});
  const auto e1 = tl.enqueue(s0, 2.0, {});       // stream order: starts at 1
  const auto e2 = tl.enqueue(s1, 0.5, {e1});     // waits on e1
  EXPECT_DOUBLE_EQ(tl.complete_time(e0), 1.0);
  EXPECT_DOUBLE_EQ(tl.complete_time(e1), 3.0);
  EXPECT_DOUBLE_EQ(tl.complete_time(e2), 3.5);
  EXPECT_DOUBLE_EQ(tl.stream_time(s0), 3.0);
  EXPECT_DOUBLE_EQ(tl.horizon(), 3.5);
  // Default events are already complete and legal as dependencies.
  EXPECT_DOUBLE_EQ(tl.complete_time(gpusim::Event{}), 0.0);
  const auto e3 = tl.enqueue(s1, 0.25, {gpusim::Event{}});
  EXPECT_DOUBLE_EQ(tl.complete_time(e3), 3.75);
  EXPECT_EQ(tl.ops().size(), 4u);
}

TEST(OverlapCommStats, LockstepExposesAllOverlapHidesSome) {
  const int steps = 5;
  const auto ch = Channel<D3Q19>::create(24, 8, 8, 0.8, 0.04);
  auto run_mode = [&](ExchangeMode mode) {
    auto m = make_multi(ch, 3, EngineSpec::parse("mr-p"), ExecMode::kScalar,
                        mode);
    m->set_timeline_model(gpusim::DeviceSpec::v100(),
                          gpusim::LinkSpec::pcie3());
    m->run(steps);
    return m;
  };
  const auto lock = run_mode(ExchangeMode::kLockstep);
  const auto over = run_mode(ExchangeMode::kOverlap);

  const gpusim::CommStats cl = lock->comm_stats();
  EXPECT_EQ(cl.steps, static_cast<std::uint64_t>(steps));
  EXPECT_GT(cl.comm_s, 0.0);
  EXPECT_DOUBLE_EQ(cl.exposed_s, cl.comm_s);  // lockstep exposes everything
  EXPECT_DOUBLE_EQ(cl.hidden_s, 0.0);
  EXPECT_DOUBLE_EQ(cl.exposed_fraction(), 1.0);

  const gpusim::CommStats co = over->comm_stats();
  EXPECT_EQ(co.steps, static_cast<std::uint64_t>(steps));
  EXPECT_DOUBLE_EQ(co.comm_s, cl.comm_s);  // same transfers, rescheduled
  EXPECT_NEAR(co.exposed_s + co.hidden_s, co.comm_s, 1e-15);
  EXPECT_GT(co.hidden_s, 0.0);
  EXPECT_LT(co.exposed_fraction(), 1.0);

  // The overlapped step leaves its stream/event schedule behind: one
  // frontier + one interior op per device, one transfer per direction per
  // interface. Lockstep builds no timeline.
  EXPECT_EQ(over->last_step_timeline().ops().size(),
            2u * 3 + 2u * 2);
  EXPECT_GT(over->last_step_timeline().horizon(), 0.0);
  EXPECT_TRUE(lock->last_step_timeline().ops().empty());

  // Per-device invariant: exposed + hidden == comm, edges have one link,
  // the middle slab two.
  for (int d = 0; d < 3; ++d) {
    const auto& cs = over->device_engine(d).profiler()->comm_stats();
    EXPECT_NEAR(cs.exposed_s + cs.hidden_s, cs.comm_s, 1e-15) << "slab " << d;
  }
  const double edge =
      over->device_engine(0).profiler()->comm_stats().comm_s;
  const double mid =
      over->device_engine(1).profiler()->comm_stats().comm_s;
  EXPECT_NEAR(mid, 2.0 * edge, 1e-12);
}

TEST(OverlapCommStats, WithoutTimelineModelStatsStayZero) {
  const auto ch = Channel<D2Q9>::create(16, 8, 1, 0.8, 0.04);
  auto m = make_multi(ch, 2, EngineSpec::parse("mr-p"), ExecMode::kScalar,
                      ExchangeMode::kOverlap);
  EXPECT_FALSE(m->has_timeline_model());
  m->run(3);
  const gpusim::CommStats cs = m->comm_stats();
  EXPECT_EQ(cs.steps, 0u);
  EXPECT_DOUBLE_EQ(cs.comm_s, 0.0);
  EXPECT_DOUBLE_EQ(cs.compute_s, 0.0);
}

// ---------------------------------------------------------------------------
// Perfmodel agreement.
// ---------------------------------------------------------------------------

TEST(OverlapModel, PredictionWithin15PointsOfProfiler) {
  const real_t tau = 0.8;
  // Per-cell kernel traffic from a small instrumented monolithic run (the
  // engines' access pattern is size-independent).
  double bytes_per_cell = 0;
  {
    Geometry geo(Box{12, 8, 6});
    geo.bc.set_axis(0, FaceBC::kPeriodic);
    geo.bc.set_axis(1, FaceBC::kPeriodic);
    geo.bc.set_axis(2, FaceBC::kPeriodic);
    MrEngine<D3Q19> probe(geo, tau, Regularization::kProjective,
                          MrConfig{2, 4, 1});
    probe.initialize(
        [](int, int, int) { return equilibrium_moments<D3Q19>(1.0, {}); });
    probe.step();
    const auto before = probe.profiler()->total_traffic();
    probe.run(2);
    const auto t = probe.profiler()->total_traffic() - before;
    bytes_per_cell = static_cast<double>(t.bytes_total()) /
                     (2.0 * static_cast<double>(geo.box.cells()));
  }

  const auto dev = gpusim::DeviceSpec::v100();
  const auto link = gpusim::LinkSpec::pcie3();
  const int ndev = 4, steps = 5;
  const auto ch = Channel<D3Q19>::create(32, 8, 8, tau, 0.04);
  auto multi = make_multi(ch, ndev, EngineSpec::parse("mr-p"),
                          ExecMode::kScalar, ExchangeMode::kOverlap);
  multi->set_timeline_model(dev, link);
  multi->run(steps);
  const gpusim::CommStats measured = multi->comm_stats();
  ASSERT_GT(measured.comm_s, 0.0);

  double pred_exposed = 0, pred_comm = 0;
  for (int d = 0; d < ndev; ++d) {
    const SlabInfo& s = multi->slab(d);
    const int sides = (s.has_left ? 1 : 0) + (s.has_right ? 1 : 0);
    const auto p = perf::predict_overlap_slab(
        dev, link, bytes_per_cell, s.x_end - s.x_begin, 8, 8, s.ghost_depth,
        sides, D3Q19::M, sizeof(real_t));
    pred_exposed += p.exposed_s;
    pred_comm += p.comm_s;
  }
  const double model_frac = pred_comm > 0 ? pred_exposed / pred_comm : 0.0;
  EXPECT_NEAR(measured.exposed_fraction(), model_frac, 0.15);

  // The ISSUE acceptance bar: at 4 slabs the overlap hides >= 60% of what
  // lockstep would expose.
  EXPECT_GE(1.0 - measured.exposed_fraction(), 0.60);
}

TEST(OverlapModel, PredictorAlgebraInvariants) {
  const auto dev = gpusim::DeviceSpec::v100();
  const auto link = gpusim::LinkSpec::nvlink2();
  const auto p =
      perf::predict_overlap(dev, link, 1 << 20, 8 << 20, 1 << 16, 2);
  EXPECT_NEAR(p.exposed_s + p.hidden_s, p.comm_s, 1e-18);
  EXPECT_DOUBLE_EQ(p.comm_s, 2.0 * p.transfer_s);
  EXPECT_GE(p.overlap_step_s, p.frontier_s + p.interior_s - 1e-18);
  // A wide interior hides a fast link entirely.
  EXPECT_DOUBLE_EQ(p.exposed_s, 0.0);
  // Shrinking the interior to nothing leaves only the bare launch overhead
  // to hide behind: a slow link's transfer is exposed past that point.
  const auto q = perf::predict_overlap(dev, gpusim::LinkSpec::pcie3(),
                                       1 << 20, 0, 1 << 20, 2);
  EXPECT_GT(q.transfer_s, q.interior_s);
  EXPECT_DOUBLE_EQ(q.exposed_s, q.transfer_s - q.interior_s);
  EXPECT_GT(q.exposed_s, 0.0);
}

// ---------------------------------------------------------------------------
// Resilience: fault -> rollback -> replay with the overlapped exchange.
// ---------------------------------------------------------------------------

TEST(OverlapResilience, HaloFaultRollbackReplayStaysBitIdentical) {
  const auto ch = Channel<D2Q9>::create(24, 10, 1, 0.8, 0.04);
  auto make = [&] {
    auto m = make_multi(ch, 2, EngineSpec::parse("st"), ExecMode::kScalar,
                        ExchangeMode::kOverlap);
    m->set_timeline_model(gpusim::DeviceSpec::v100(),
                          gpusim::LinkSpec::nvlink2());
    return m;
  };
  RunnerConfig rc;
  rc.checkpoint_interval = 4;
  rc.sentinel.cadence = 2;
  rc.sentinel.max_rho = real_t(1.5);
  rc.sentinel.max_speed = real_t(0.5);

  ResilientRunner<D2Q9> clean(make(), rc);
  clean.run(24);

  ResilientRunner<D2Q9> faulted(make(), rc);
  FaultConfig fc;
  fc.seed = 11;
  fc.halo_corrupt_rate = 0.15;
  fc.step_end = 16;
  FaultInjector inj(fc);
  faulted.set_fault_injector(&inj);
  const auto rep = faulted.run(24);

  EXPECT_GE(rep.sentinel_trips, 1);
  ASSERT_FALSE(inj.trace().empty());
  EXPECT_EQ(inj.trace()[0].kind, FaultKind::kHaloCorruption);

  EXPECT_EQ(dump_all<D2Q9>(clean.engine()), dump_all<D2Q9>(faulted.engine()));
  const auto& mc =
      dynamic_cast<const MultiDomainEngine<D2Q9>&>(clean.engine());
  const auto& mf =
      dynamic_cast<const MultiDomainEngine<D2Q9>&>(faulted.engine());
  EXPECT_EQ(mc.exchanged_values_total(), mf.exchanged_values_total());
  for (int d = 0; d < 2; ++d) {
    const auto tc = mc.device_engine(d).profiler()->total_traffic();
    const auto tf = mf.device_engine(d).profiler()->total_traffic();
    EXPECT_EQ(tc.bytes_read, tf.bytes_read);
    EXPECT_EQ(tc.bytes_written, tf.bytes_written);
    // The CommStats attribution rides the checkpoint/rollback path too: a
    // replayed window re-counts instead of double-counting.
    const auto& cc = mc.device_engine(d).profiler()->comm_stats();
    const auto& cf = mf.device_engine(d).profiler()->comm_stats();
    EXPECT_EQ(cc.steps, cf.steps);
    EXPECT_DOUBLE_EQ(cc.comm_s, cf.comm_s);
    EXPECT_DOUBLE_EQ(cc.exposed_s, cf.exposed_s);
    EXPECT_DOUBLE_EQ(cc.hidden_s, cf.hidden_s);
  }
}

// ---------------------------------------------------------------------------
// Sanitizer: the overlapped (split-launch) path is hazard-free.
// ---------------------------------------------------------------------------

TEST(OverlapSanitizer, OverlappedMultiDomainRunsAreHazardFree) {
  const real_t tau = 0.8;
  {
    const auto ch = Channel<D2Q9>::create(20, 10, 1, tau, 0.04);
    const auto owner = make_multi_engine<D2Q9>(
        EngineSpec::parse("mr-p:fp64:2x1x2"), ch.geo, tau, 3);
    auto& multi = *owner;
    multi.set_exchange_mode(ExchangeMode::kOverlap);
    Sanitizer san;
    multi.set_sanitizer(&san);
    ch.attach(multi);
    multi.run(4);
    EXPECT_TRUE(san.report().clean())
        << "MR-P overlap:\n" << san.report().to_string();
  }
  {
    // Ragged 3D decomposition with ST slabs and AA's depth-2 variant.
    const auto ch = Channel<D3Q19>::create(17, 6, 5, tau, 0.04);
    const auto owner =
        make_multi_engine<D3Q19>(EngineSpec::parse("st"), ch.geo, tau, 3);
    auto& multi = *owner;
    multi.set_exchange_mode(ExchangeMode::kOverlap);
    Sanitizer san;
    multi.set_sanitizer(&san);
    ch.attach(multi);
    multi.run(4);
    EXPECT_TRUE(san.report().clean())
        << "ST overlap 3D:\n" << san.report().to_string();
  }
  {
    // 64-thread blocks: several blocks per launch on these thin slabs, so
    // the cross-block conflict check has pairs to compare.
    const auto ch = walled_x(Channel<D2Q9>::create(18, 8, 1, tau, 0.04));
    MultiDomainEngine<D2Q9> multi(
        ch.geo, tau, 3,
        [&](Geometry g, int) -> std::unique_ptr<Engine<D2Q9>> {
          return make_aa_engine<D2Q9>(StoragePrecision::kFP64, std::move(g),
                                      tau, CollisionScheme::kBGK, 64,
                                      default_exec_mode(),
                                      /*allow_open_faces=*/true);
        },
        EngineSpec::parse("aa").ghost_depth());
    multi.set_exchange_mode(ExchangeMode::kOverlap);
    Sanitizer san;
    multi.set_sanitizer(&san);
    ch.attach(multi);
    multi.run(4);
    EXPECT_TRUE(san.report().clean())
        << "AA depth-2 overlap:\n" << san.report().to_string();
  }
}

}  // namespace
}  // namespace mlbm
