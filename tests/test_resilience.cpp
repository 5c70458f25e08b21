// Resilience subsystem: fault injection determinism, stability sentinel,
// state snapshots, and the ResilientRunner's rollback/retry/degrade ladder —
// including the central contract that a fault-interrupted run recovers to a
// state bit-identical (moments AND traffic counters) to a run that never
// faulted.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engines/aa_engine.hpp"
#include "engines/engine_spec.hpp"
#include "engines/mr_engine.hpp"
#include "engines/reference_engine.hpp"
#include "engines/st_engine.hpp"
#include "io/checkpoint.hpp"
#include "multidev/multi_domain.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/runner.hpp"
#include "resilience/sentinel.hpp"
#include "resilience/snapshot.hpp"
#include "util/error.hpp"
#include "workloads/channel.hpp"
#include "workloads/shear_layer.hpp"
#include "workloads/taylor_green.hpp"
#include "tmp_path.hpp"

namespace mlbm {
namespace {

using resilience::FaultConfig;
using resilience::FaultEvent;
using resilience::FaultInjector;
using resilience::FaultKind;
using resilience::ResilientRunner;
using resilience::RunnerConfig;
using resilience::SentinelConfig;
using resilience::SentinelReport;
using resilience::StabilitySentinel;

std::vector<double> dump_moments(const Engine<D2Q9>& e) {
  std::vector<double> out;
  const Box& b = e.geometry().box;
  for (int y = 0; y < b.ny; ++y) {
    for (int x = 0; x < b.nx; ++x) {
      const auto m = e.moments_at(x, y, 0);
      out.push_back(m.rho);
      out.push_back(m.u[0]);
      out.push_back(m.u[1]);
      out.push_back(m.pi[0]);
      out.push_back(m.pi[1]);
      out.push_back(m.pi[2]);
    }
  }
  return out;
}

/// Near comparison for restores that travel the (projecting) moment path:
/// cross-engine restores and disk checkpoints are exact only to the BGK
/// higher-order content impose() discards.
void expect_moments_near(const std::vector<double>& a,
                         const std::vector<double>& b, double tol = 1e-12) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "value " << i;
  }
}

std::unique_ptr<StEngine<D2Q9>> tg_st(int n = 16) {
  const auto tg = TaylorGreen<D2Q9>::create(n, 0.03);
  auto e = std::make_unique<StEngine<D2Q9>>(tg.geo, 0.8);
  tg.attach(*e);
  return e;
}

std::unique_ptr<AaEngine<D2Q9>> tg_aa(int n = 16) {
  const auto tg = TaylorGreen<D2Q9>::create(n, 0.03);
  auto e = std::make_unique<AaEngine<D2Q9>>(tg.geo, 0.8);
  tg.attach(*e);
  return e;
}

// ---------------------------------------------------------------- sentinel

TEST(Sentinel, HealthyOnTaylorGreen) {
  auto e = tg_st();
  e->run(5);
  StabilitySentinel<D2Q9> sentinel;
  EXPECT_TRUE(sentinel.check(*e).healthy);
}

TEST(Sentinel, CadenceDrivesDue) {
  SentinelConfig cfg;
  cfg.cadence = 16;
  StabilitySentinel<D2Q9> s(cfg);
  EXPECT_TRUE(s.due(16));
  EXPECT_TRUE(s.due(32));
  EXPECT_FALSE(s.due(17));
  cfg.cadence = 0;
  StabilitySentinel<D2Q9> off(cfg);
  EXPECT_FALSE(off.due(16));
}

TEST(Sentinel, TripsOnNonFiniteMoment) {
  auto e = tg_st();
  Moments<D2Q9> m = e->moments_at(3, 4, 0);
  m.rho = std::numeric_limits<real_t>::quiet_NaN();
  e->impose(3, 4, 0, m);
  const SentinelReport r = StabilitySentinel<D2Q9>().check(*e);
  EXPECT_FALSE(r.healthy);
  EXPECT_EQ(r.reason, SentinelReport::Reason::kNonFinite);
  EXPECT_NE(r.describe().find("non-finite"), std::string::npos);
}

TEST(Sentinel, TripsOnDensityBound) {
  auto e = tg_st();
  Moments<D2Q9> m;
  m.rho = real_t(1e7);
  e->impose(5, 5, 0, m);
  const SentinelReport r = StabilitySentinel<D2Q9>().check(*e);
  EXPECT_FALSE(r.healthy);
  EXPECT_EQ(r.reason, SentinelReport::Reason::kDensityBound);
  EXPECT_EQ(r.x, 5);
  EXPECT_EQ(r.y, 5);
}

TEST(Sentinel, TripsOnVelocityBound) {
  auto e = tg_st();
  Moments<D2Q9> m;
  m.u[0] = real_t(0.95);
  e->impose(2, 7, 0, m);
  const SentinelReport r = StabilitySentinel<D2Q9>().check(*e);
  EXPECT_FALSE(r.healthy);
  EXPECT_EQ(r.reason, SentinelReport::Reason::kVelocityBound);
}

TEST(Sentinel, ShearLayerHealthyDelegatesToSentinel) {
  const auto sl = DoubleShearLayer<D2Q9>::create(32, 0.04);
  StEngine<D2Q9> e(sl.geo, 0.8);
  sl.attach(e);
  EXPECT_TRUE(DoubleShearLayer<D2Q9>::healthy(e));
  Moments<D2Q9> m;
  m.rho = std::numeric_limits<real_t>::infinity();
  e.impose(0, 0, 0, m);
  EXPECT_FALSE(DoubleShearLayer<D2Q9>::healthy(e));
}

// ------------------------------------------------------------ fault surface

TEST(FaultSurface, EveryEngineExposesSitesAndDoubleFlipIsIdentity) {
  const auto tg = TaylorGreen<D2Q9>::create(12, 0.03);
  std::vector<std::unique_ptr<Engine<D2Q9>>> engines;
  engines.push_back(std::make_unique<ReferenceEngine<D2Q9>>(
      tg.geo, 0.8, CollisionScheme::kBGK));
  engines.push_back(std::make_unique<StEngine<D2Q9>>(tg.geo, 0.8));
  engines.push_back(std::make_unique<AaEngine<D2Q9>>(tg.geo, 0.8));
  engines.push_back(std::make_unique<MrEngine<D2Q9>>(
      tg.geo, 0.8, Regularization::kProjective, MrConfig{4, 1, 2}));
  for (auto& e : engines) {
    SCOPED_TRACE(e->pattern_name());
    tg.attach(*e);
    e->run(2);
    EXPECT_GT(e->fault_sites(), 0u);
    const std::vector<double> before = dump_moments(*e);
    e->inject_storage_bitflip(123, 37);
    e->inject_storage_bitflip(123, 37);  // XOR twice = untouched
    EXPECT_EQ(before, dump_moments(*e));
  }
}

TEST(FaultSurface, AaFlipIsLiveAndVisible) {
  auto e = tg_aa();
  const std::vector<double> before = dump_moments(*e);
  e->inject_storage_bitflip(40, 62);  // exponent bit: a visible corruption
  EXPECT_NE(before, dump_moments(*e));
}

TEST(FaultSurface, MultiDomainRoutesSitesAcrossSlabs) {
  const auto ch = Channel<D2Q9>::create(24, 10, 1, 0.8, 0.04);
  const auto owned = make_multi_engine<D2Q9>(EngineSpec{}, ch.geo, 0.8, 2);
  auto& multi = *owned;
  ch.attach(multi);
  EXPECT_EQ(multi.fault_sites(), multi.device_engine(0).fault_sites() +
                                     multi.device_engine(1).fault_sites());
  const std::vector<double> before = dump_moments(multi);
  // Site beyond slab 0: must route into slab 1, and double-flip restores.
  const std::uint64_t site = multi.device_engine(0).fault_sites() + 17;
  multi.inject_storage_bitflip(site, 51);
  multi.inject_storage_bitflip(site, 51);
  EXPECT_EQ(before, dump_moments(multi));
}

// ------------------------------------------------------- multidev validation

TEST(MultiDomainValidation, RejectsDegenerateDecompositions) {
  const auto ch = Channel<D2Q9>::create(16, 8, 1, 0.8, 0.04);
  const auto factory = [](Geometry g, int) -> std::unique_ptr<Engine<D2Q9>> {
    return std::make_unique<StEngine<D2Q9>>(std::move(g), 0.8);
  };
  EXPECT_THROW(MultiDomainEngine<D2Q9>(ch.geo, 0.8, 0, factory), ConfigError);
  EXPECT_THROW(MultiDomainEngine<D2Q9>(ch.geo, 0.8, -3, factory), ConfigError);
  EXPECT_THROW(MultiDomainEngine<D2Q9>(ch.geo, 0.8, 17, factory), ConfigError);
  // Legacy catch sites keep working: ConfigError is std::invalid_argument.
  EXPECT_THROW(MultiDomainEngine<D2Q9>(ch.geo, 0.8, 0, factory),
               std::invalid_argument);
}

TEST(MultiDomainValidation, RejectsNullFactoryAndNullSlabEngines) {
  const auto ch = Channel<D2Q9>::create(16, 8, 1, 0.8, 0.04);
  EXPECT_THROW(
      MultiDomainEngine<D2Q9>(ch.geo, 0.8, 2,
                              MultiDomainEngine<D2Q9>::EngineFactory{}),
      ConfigError);
  EXPECT_THROW(
      MultiDomainEngine<D2Q9>(
          ch.geo, 0.8, 2,
          [](Geometry, int) -> std::unique_ptr<Engine<D2Q9>> {
            return nullptr;
          }),
      ConfigError);
}

TEST(MultiDomainValidation, RejectsTauMismatchAndPeriodicAxis) {
  const auto ch = Channel<D2Q9>::create(16, 8, 1, 0.8, 0.04);
  EXPECT_THROW(
      MultiDomainEngine<D2Q9>(
          ch.geo, 0.8, 2,
          [](Geometry g, int) -> std::unique_ptr<Engine<D2Q9>> {
            return std::make_unique<StEngine<D2Q9>>(std::move(g), 0.9);
          }),
      ConfigError);
  const auto tg = TaylorGreen<D2Q9>::create(16, 0.03);  // periodic x
  EXPECT_THROW(
      MultiDomainEngine<D2Q9>(
          tg.geo, 0.8, 2,
          [](Geometry g, int) -> std::unique_ptr<Engine<D2Q9>> {
            return std::make_unique<StEngine<D2Q9>>(std::move(g), 0.8);
          }),
      ConfigError);
}

TEST(MultiDomainValidation, OutOfRangeCoordinateIsTyped) {
  const auto ch = Channel<D2Q9>::create(16, 8, 1, 0.8, 0.04);
  const auto owned = make_multi_engine<D2Q9>(EngineSpec{}, ch.geo, 0.8, 2);
  auto& multi = *owned;
  ch.attach(multi);
  EXPECT_THROW((void)multi.moments_at(-1, 0, 0), OutOfRangeError);
  EXPECT_THROW((void)multi.moments_at(16, 0, 0), std::out_of_range);
}

// ------------------------------------------------------------ fault injector

TEST(FaultInjector, SameSeedSameTrace) {
  auto run_once = [](std::uint64_t seed) {
    auto e = tg_st();
    FaultConfig fc;
    fc.seed = seed;
    fc.bitflip_rate = 0.3;
    FaultInjector inj(fc);
    for (int s = 0; s < 20; ++s) {
      inj.begin_step(s);
      e->step();
      inj.apply_state_faults(*e);
    }
    return inj.trace_string();
  };
  const std::string a = run_once(42);
  EXPECT_EQ(a, run_once(42));
  EXPECT_NE(a, run_once(43));
  EXPECT_FALSE(a.empty());  // rate 0.3 over 20 steps: seed 42 does fire
}

TEST(FaultInjector, ScriptedFlipFiresExactlyOnce) {
  auto e = tg_aa();
  FaultConfig fc;
  fc.scripted.push_back({3, 40, 62});
  FaultInjector inj(fc);
  for (int s = 0; s < 8; ++s) {
    inj.begin_step(s);
    e->step();
    inj.apply_state_faults(*e);
  }
  ASSERT_EQ(inj.trace().size(), 1u);
  EXPECT_EQ(inj.trace()[0].kind, FaultKind::kScriptedBitFlip);
  EXPECT_EQ(inj.trace()[0].step, 3);
  // Replaying the same step must not re-fire a consumed scripted fault.
  inj.begin_step(3);
  const std::vector<double> now = dump_moments(*e);
  inj.apply_state_faults(*e);
  EXPECT_EQ(now, dump_moments(*e));
  EXPECT_EQ(inj.trace().size(), 1u);
}

TEST(FaultInjector, LaunchFailureLeavesStateAndTrafficUntouched) {
  auto e = tg_st();
  e->run(2);
  FaultConfig fc;
  fc.launch_fail_rate = 1.0;
  FaultInjector inj(fc);
  inj.install(*e);
  const std::vector<double> before = dump_moments(*e);
  const auto traffic_before = e->profiler()->total_traffic();
  const int t_before = e->time();
  inj.begin_step(2);
  EXPECT_THROW(e->step(), TransientLaunchError);
  EXPECT_EQ(before, dump_moments(*e));
  const auto traffic_after = e->profiler()->total_traffic();
  EXPECT_EQ(traffic_before.bytes_read, traffic_after.bytes_read);
  EXPECT_EQ(traffic_before.bytes_written, traffic_after.bytes_written);
  EXPECT_EQ(e->time(), t_before);
  inj.uninstall(*e);
  EXPECT_NO_THROW(e->step());
}

TEST(FaultInjector, StepWindowGatesFaults) {
  auto e = tg_st();
  FaultConfig fc;
  fc.launch_fail_rate = 1.0;
  fc.step_begin = 5;
  fc.step_end = 6;
  FaultInjector inj(fc);
  inj.install(*e);
  for (int s = 0; s < 5; ++s) {
    inj.begin_step(s);
    EXPECT_NO_THROW(e->step());
  }
  inj.begin_step(5);
  EXPECT_THROW(e->step(), TransientLaunchError);
  inj.begin_step(6);
  EXPECT_NO_THROW(e->step());
  inj.uninstall(*e);
}

TEST(FaultInjector, TraceStringRoundTripsThroughParseTrace) {
  // A live trace containing all three fault classes: scripted flip, rate
  // bitflips, launch failures (recorded, since on_launch traces before it
  // throws).
  auto e = tg_st();
  FaultConfig fc;
  fc.seed = 42;
  fc.bitflip_rate = 0.3;
  fc.launch_fail_rate = 0.15;
  fc.scripted.push_back({2, 40, 62});
  FaultInjector inj(fc);
  inj.install(*e);
  for (int s = 0; s < 24; ++s) {
    inj.begin_step(s);
    try {
      e->step();
    } catch (const TransientLaunchError&) {
      continue;  // the failed launch left state untouched; skip the step
    }
    inj.apply_state_faults(*e);
  }
  inj.uninstall(*e);

  bool saw_flip = false;
  bool saw_launch = false;
  for (const FaultEvent& ev : inj.trace()) {
    saw_flip = saw_flip || ev.kind == FaultKind::kBitFlip ||
               ev.kind == FaultKind::kScriptedBitFlip;
    saw_launch = saw_launch || ev.kind == FaultKind::kLaunchFailure;
  }
  ASSERT_TRUE(saw_flip);
  ASSERT_TRUE(saw_launch);

  // parse_trace(trace_string()) == trace(): every step, site, bit and kernel
  // name survives the text round trip exactly.
  const std::vector<FaultEvent> parsed =
      FaultInjector::parse_trace(inj.trace_string());
  ASSERT_EQ(parsed.size(), inj.trace().size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i], inj.trace()[i]) << "event " << i;
  }
}

TEST(FaultInjector, ParseTraceHandlesHaloLinesAndRejectsGarbage) {
  const std::string halo = "step=7 kind=halo-corruption interface=1 side=right-ghost\n";
  const std::vector<FaultEvent> ev = FaultInjector::parse_trace(halo);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].kind, FaultKind::kHaloCorruption);
  EXPECT_EQ(ev[0].step, 7);
  EXPECT_EQ(ev[0].site, 1u);
  EXPECT_EQ(ev[0].detail, "right-ghost");

  EXPECT_TRUE(FaultInjector::parse_trace("").empty());
  EXPECT_THROW(FaultInjector::parse_trace("step=1 kind=flux-capacitor\n"),
               ConfigError);
  EXPECT_THROW(FaultInjector::parse_trace("step=x kind=bit-flip site=0 bit=1"),
               ConfigError);
  EXPECT_THROW(FaultInjector::parse_trace("kind=bit-flip site=0 bit=1"),
               ConfigError);
}

// ---------------------------------------------------------------- snapshots

TEST(Snapshot, RoundTripRestoresMomentsAndTraffic) {
  auto e = tg_st();
  e->run(4);
  const auto snap = resilience::capture_state(*e, 4);
  const std::vector<double> at_capture = dump_moments(*e);
  const auto traffic_at_capture = e->profiler()->total_traffic();

  e->run(6);
  EXPECT_NE(at_capture, dump_moments(*e));

  resilience::restore_state(*e, snap);
  EXPECT_EQ(at_capture, dump_moments(*e));
  const auto traffic_restored = e->profiler()->total_traffic();
  EXPECT_EQ(traffic_at_capture.bytes_read, traffic_restored.bytes_read);
  EXPECT_EQ(traffic_at_capture.bytes_written, traffic_restored.bytes_written);
  EXPECT_EQ(traffic_at_capture.reads, traffic_restored.reads);
  EXPECT_EQ(traffic_at_capture.writes, traffic_restored.writes);
}

TEST(Snapshot, RestoreRejectsMismatchedBox) {
  auto a = tg_st(16);
  auto b = tg_st(12);
  const auto snap = resilience::capture_state(*a, 0);
  EXPECT_THROW(resilience::restore_state(*b, snap), ConfigError);
}

TEST(Snapshot, PortableAcrossEngines) {
  auto a = tg_st();
  a->run(5);
  const auto snap = resilience::capture_state(*a, 5);
  auto b = tg_aa();
  resilience::restore_state(*b, snap);
  // ST -> AA crosses engine types, so this travels the moment fallback.
  expect_moments_near(dump_moments(*a), dump_moments(*b));
}

// ----------------------------------------------------------------- runner

TEST(Runner, ValidatesConfiguration) {
  EXPECT_THROW(ResilientRunner<D2Q9>(nullptr), ConfigError);
  RunnerConfig bad;
  bad.checkpoint_interval = 0;
  EXPECT_THROW(ResilientRunner<D2Q9>(tg_st(), bad), ConfigError);
}

TEST(Runner, ZeroFaultRunMatchesBareEngineExactly) {
  auto bare = tg_st();
  bare->run(40);

  RunnerConfig rc;
  rc.checkpoint_interval = 8;
  rc.sentinel.cadence = 8;
  ResilientRunner<D2Q9> runner(tg_st(), rc);
  const auto rep = runner.run(40);

  EXPECT_EQ(rep.steps, 40);
  EXPECT_EQ(rep.rollbacks, 0);
  EXPECT_EQ(rep.checkpoints, 5);
  EXPECT_EQ(dump_moments(*bare), dump_moments(runner.engine()));
}

// The rollback-determinism contract (a fault-interrupted run, resumed from
// the in-memory checkpoint, is bit-identical to an uninterrupted run), for a
// storage bit flip caught by the sentinel.
TEST(Runner, BitflipRollbackRecoversBitIdenticalState) {
  RunnerConfig rc;
  rc.checkpoint_interval = 8;
  rc.sentinel.cadence = 4;

  ResilientRunner<D2Q9> clean(tg_aa(), rc);
  const auto clean_rep = clean.run(32);
  EXPECT_EQ(clean_rep.rollbacks, 0);

  ResilientRunner<D2Q9> faulted(tg_aa(), rc);
  FaultConfig fc;
  fc.scripted.push_back({10, 40, 62});  // exponent flip: blows past bounds
  FaultInjector inj(fc);
  faulted.set_fault_injector(&inj);
  const auto rep = faulted.run(32);

  EXPECT_GE(rep.sentinel_trips, 1);
  EXPECT_GE(rep.rollbacks, 1);
  ASSERT_EQ(inj.trace().size(), 1u);

  EXPECT_EQ(dump_moments(clean.engine()), dump_moments(faulted.engine()));
  const auto tc = clean.engine().profiler()->total_traffic();
  const auto tf = faulted.engine().profiler()->total_traffic();
  EXPECT_EQ(tc.bytes_read, tf.bytes_read);
  EXPECT_EQ(tc.bytes_written, tf.bytes_written);
  EXPECT_EQ(tc.reads, tf.reads);
  EXPECT_EQ(tc.writes, tf.writes);
}

// Same contract for transient launch failures (clean aborts mid-window).
TEST(Runner, LaunchFailureRecoveryIsBitIdentical) {
  RunnerConfig rc;
  rc.checkpoint_interval = 8;
  rc.sentinel.cadence = 8;

  ResilientRunner<D2Q9> clean(tg_st(), rc);
  clean.run(32);

  ResilientRunner<D2Q9> faulted(tg_st(), rc);
  FaultConfig fc;
  fc.seed = 7;
  fc.launch_fail_rate = 0.1;
  fc.step_end = 24;
  FaultInjector inj(fc);
  faulted.set_fault_injector(&inj);
  const auto rep = faulted.run(32);

  EXPECT_GE(rep.launch_failures, 1);
  EXPECT_GE(rep.rollbacks, 1);

  EXPECT_EQ(dump_moments(clean.engine()), dump_moments(faulted.engine()));
  const auto tc = clean.engine().profiler()->total_traffic();
  const auto tf = faulted.engine().profiler()->total_traffic();
  EXPECT_EQ(tc.bytes_read, tf.bytes_read);
  EXPECT_EQ(tc.bytes_written, tf.bytes_written);
}

TEST(Runner, SameSeedReproducesRecoveryTrace) {
  auto run_once = [](std::string* trace, std::string* recovery) {
    RunnerConfig rc;
    rc.checkpoint_interval = 8;
    rc.sentinel.cadence = 4;
    ResilientRunner<D2Q9> runner(tg_st(), rc);
    FaultConfig fc;
    fc.seed = 9;
    fc.bitflip_rate = 0.05;
    fc.launch_fail_rate = 0.05;
    FaultInjector inj(fc);
    runner.set_fault_injector(&inj);
    const auto rep = runner.run(48);
    *trace = inj.trace_string();
    *recovery = rep.describe();
    return dump_moments(runner.engine());
  };
  std::string trace_a, rec_a, trace_b, rec_b;
  const auto state_a = run_once(&trace_a, &rec_a);
  const auto state_b = run_once(&trace_b, &rec_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(rec_a, rec_b);
  EXPECT_EQ(state_a, state_b);
  EXPECT_FALSE(trace_a.empty());
}

TEST(Runner, DegradesThenRaisesUnrecoverable) {
  RunnerConfig rc;
  rc.checkpoint_interval = 4;
  rc.ring_capacity = 1;
  rc.max_retries_per_window = 2;
  rc.sentinel.cadence = 4;
  rc.sentinel.max_speed = real_t(0);  // impossible bound: every check trips
  ResilientRunner<D2Q9> runner(tg_st(), rc);
  bool fallback_called = false;
  runner.set_fallback_factory([&]() -> std::unique_ptr<Engine<D2Q9>> {
    fallback_called = true;
    return tg_st();
  });
  EXPECT_THROW(runner.run(16), UnrecoverableError);
  EXPECT_TRUE(fallback_called);
}

TEST(Runner, WritesDiskMirrorInCheckpointV2) {
  const std::string path = tmp_path("mlbm_runner_mirror.bin");
  RunnerConfig rc;
  rc.checkpoint_interval = 8;
  rc.disk_path = path;
  rc.disk_every = 1;
  ResilientRunner<D2Q9> runner(tg_st(), rc);
  runner.run(16);
  ASSERT_TRUE(std::filesystem::exists(path));
  auto target = tg_st();
  load_checkpoint(*target, path);  // valid v2 file
  expect_moments_near(dump_moments(runner.engine()), dump_moments(*target));
  std::filesystem::remove(path);
}

// MultiDomain under halo corruption: the sentinel catches the poisoned
// exchange, rollback rebuilds the ghost planes from owned state, and the run
// converges to the unfaulted trajectory.
TEST(Runner, MultiDomainHaloCorruptionRecoversBitIdentical) {
  const auto ch = Channel<D2Q9>::create(24, 10, 1, 0.8, 0.04);
  auto make_multi = [&]() {
    auto m = make_multi_engine<D2Q9>(EngineSpec{}, ch.geo, 0.8, 2);
    ch.attach(*m);
    return m;
  };
  RunnerConfig rc;
  rc.checkpoint_interval = 4;
  rc.sentinel.cadence = 2;
  rc.sentinel.max_rho = real_t(1.5);   // channel runs at rho ~ 1
  rc.sentinel.max_speed = real_t(0.5);

  ResilientRunner<D2Q9> clean(make_multi(), rc);
  clean.run(24);

  ResilientRunner<D2Q9> faulted(make_multi(), rc);
  FaultConfig fc;
  fc.seed = 11;
  fc.halo_corrupt_rate = 0.15;
  fc.step_end = 16;
  FaultInjector inj(fc);
  faulted.set_fault_injector(&inj);
  const auto rep = faulted.run(24);

  EXPECT_GE(rep.sentinel_trips, 1);
  EXPECT_FALSE(inj.trace().empty());
  EXPECT_EQ(inj.trace()[0].kind, FaultKind::kHaloCorruption);

  EXPECT_EQ(dump_moments(clean.engine()), dump_moments(faulted.engine()));
  const auto& mc = dynamic_cast<const MultiDomainEngine<D2Q9>&>(clean.engine());
  const auto& mf =
      dynamic_cast<const MultiDomainEngine<D2Q9>&>(faulted.engine());
  EXPECT_EQ(mc.exchanged_values_total(), mf.exchanged_values_total());
  for (int d = 0; d < 2; ++d) {
    const auto tc = mc.device_engine(d).profiler()->total_traffic();
    const auto tf = mf.device_engine(d).profiler()->total_traffic();
    EXPECT_EQ(tc.bytes_read, tf.bytes_read);
    EXPECT_EQ(tc.bytes_written, tf.bytes_written);
  }
}

}  // namespace
}  // namespace mlbm
