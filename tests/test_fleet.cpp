// Fleet scheduler: perfmodel-driven placement, the watchdog/degradation
// ladder, checkpoint-based migration off dead devices, and the two contracts
// the chaos bench gates on — a migrated or fault-ridden job finishes with
// fields bit-identical to an undisturbed run, and a same-seed replay
// reproduces the identical FleetReport.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/device_pool.hpp"
#include "fleet/error.hpp"
#include "fleet/fault_plan.hpp"
#include "fleet/job.hpp"
#include "fleet/report.hpp"
#include "fleet/scheduler.hpp"
#include "gpusim/device.hpp"
#include "util/error.hpp"

namespace mlbm::fleet {
namespace {

JobSpec small_job(Workload w = Workload::kTaylorGreen, int n = 16,
                  int steps = 64) {
  JobSpec spec;
  spec.workload = w;
  spec.n = n;
  spec.steps = steps;
  return spec;
}

/// The undisturbed trajectory: same factories, no runner, no scheduler.
JobFields reference_fields(const JobSpec& spec) {
  auto eng = make_job_engine(spec);
  eng->run(spec.steps);
  return job_fields(*eng);
}

DevicePool two_v100s() {
  DevicePool pool;
  pool.add_device(gpusim::DeviceSpec::v100());
  pool.add_device(gpusim::DeviceSpec::v100());
  return pool;
}

const JobOutcome& outcome(const FleetReport& rep, int job_id) {
  return rep.jobs.at(static_cast<std::size_t>(job_id));
}

// ---- DevicePool: admission + modeled-finish-time placement ----

TEST(DevicePool, PlacesByModeledFinishTimeWithIdTieBreak) {
  DevicePool pool = two_v100s();
  const JobSpec spec = small_job();
  const long long cells = 16 * 16;
  const std::size_t bytes = 1 << 20;

  // Equal load: tie breaks toward the lower id.
  EXPECT_EQ(pool.place(spec, cells, bytes, spec.steps), 0);

  // Backlog on device 0 pushes the job to device 1.
  pool.device(0).busy_s = 1e6;
  EXPECT_EQ(pool.place(spec, cells, bytes, spec.steps), 1);

  // A dead device never wins, however idle.
  pool.device(1).alive = false;
  EXPECT_EQ(pool.place(spec, cells, bytes, spec.steps), 0);

  // `exclude` skips the migration source even if it is the only candidate.
  EXPECT_EQ(pool.place(spec, cells, bytes, spec.steps, /*exclude=*/0), -1);
}

TEST(DevicePool, AdmissionIsTheFootprintCheck) {
  DevicePool pool = two_v100s();
  const std::size_t cap = pool.device(0).capacity_bytes();
  EXPECT_TRUE(pool.admits(0, cap / 2));
  EXPECT_FALSE(pool.admits(0, cap + 1));
  EXPECT_TRUE(pool.fits_anywhere(cap));
  EXPECT_FALSE(pool.fits_anywhere(cap + 1));

  // Resident jobs shrink free DRAM and block further placement.
  pool.device(0).resident_bytes = cap;
  pool.device(1).resident_bytes = cap;
  const JobSpec spec = small_job();
  EXPECT_EQ(pool.place(spec, 256, 1 << 20, spec.steps), -1);
}

TEST(DevicePool, PredictsThroughputFromThePerfModel) {
  DevicePool pool;
  pool.add_device(gpusim::DeviceSpec::v100());
  for (const EngineSpec& e : EngineSpec::all()) {
    const perf::Pattern p = e.perf_pattern();
    const double mflups =
        pool.predicted_mflups(0, p, StoragePrecision::kFP64);
    EXPECT_GT(mflups, 0) << "pattern " << static_cast<int>(p);
    JobSpec spec = small_job();
    spec.engine = e;
    const double s = pool.step_seconds(0, spec, 16 * 16);
    EXPECT_GT(s, 0);
  }
}

// ---- Fault plan: windows, determinism ----

TEST(FleetFaultPlan, StragglerWindowOpensAndExpires) {
  FleetFaultConfig fc;
  fc.scripted.push_back({/*tick=*/1, FleetFaultKind::kStragglerBegin,
                         /*device=*/0, /*factor=*/4.0, /*duration_ticks=*/2});
  FleetFaultPlan plan(fc);
  DevicePool pool = two_v100s();

  EXPECT_TRUE(plan.begin_tick(0, pool).empty());
  EXPECT_DOUBLE_EQ(pool.device(0).slowdown, 1.0);
  plan.begin_tick(1, pool);
  EXPECT_DOUBLE_EQ(pool.device(0).slowdown, 4.0);
  plan.begin_tick(2, pool);
  EXPECT_DOUBLE_EQ(pool.device(0).slowdown, 4.0);  // window still open
  plan.begin_tick(3, pool);
  EXPECT_DOUBLE_EQ(pool.device(0).slowdown, 1.0);  // expired
  EXPECT_DOUBLE_EQ(pool.device(1).slowdown, 1.0);

  bool saw_begin = false;
  bool saw_end = false;
  for (const FleetFaultEvent& e : plan.events()) {
    saw_begin = saw_begin || e.kind == FleetFaultKind::kStragglerBegin;
    saw_end = saw_end || e.kind == FleetFaultKind::kStragglerEnd;
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
}

TEST(FleetFaultPlan, RateDrivenLossesSpareTheLastAliveDevice) {
  FleetFaultConfig fc;
  fc.seed = 3;
  fc.device_loss_rate = 1.0;  // every draw fires
  fc.max_device_losses = 8;   // higher than the pool size
  FleetFaultPlan plan(fc);
  DevicePool pool = two_v100s();
  for (long t = 0; t < 16; ++t) plan.begin_tick(t, pool);
  EXPECT_EQ(pool.alive_count(), 1);  // never zero
}

TEST(FleetFaultPlan, SameSeedSameTrace) {
  FleetFaultConfig fc;
  fc.seed = 11;
  fc.device_loss_rate = 0.05;
  fc.straggler_rate = 0.2;
  fc.launch_burst_rate = 0.2;
  fc.link_fault_rate = 0.1;
  std::string traces[2];
  for (std::string& trace : traces) {
    FleetFaultPlan plan(fc);
    DevicePool pool = two_v100s();
    for (long t = 0; t < 32; ++t) plan.begin_tick(t, pool);
    trace = plan.trace_string();
  }
  EXPECT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1]);
}

// ---- Scheduler: clean drain ----

TEST(FleetScheduler, FaultFreeFleetMatchesBareEngines) {
  FleetConfig cfg;
  cfg.quantum_steps = 16;
  FleetScheduler sched(two_v100s(), cfg);
  std::vector<JobSpec> specs = {
      small_job(Workload::kTaylorGreen, 16, 48),
      small_job(Workload::kCavity, 16, 48),
      small_job(Workload::kCylinder, 12, 40),
      small_job(Workload::kCavity, 16, 48),
      small_job(Workload::kTaylorGreen, 16, 48),
  };
  // The in-place patterns ride the same drain.
  specs[3].engine = EngineSpec::parse("aa");
  specs[4].engine = EngineSpec::parse("ep");
  for (const JobSpec& s : specs) sched.submit(s);
  const FleetReport rep = sched.run();

  ASSERT_EQ(rep.jobs.size(), specs.size());
  EXPECT_EQ(rep.completed, static_cast<int>(specs.size()));
  EXPECT_EQ(rep.parked, 0);
  EXPECT_GT(rep.makespan_s, 0);
  EXPECT_GT(rep.jobs_per_hour, 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JobOutcome& out = rep.jobs[i];
    EXPECT_EQ(out.status, JobStatus::kCompleted);
    EXPECT_EQ(out.retries, 0);
    EXPECT_EQ(out.migrations, 0);
    // The scheduler's quantum slicing must not perturb the trajectory.
    EXPECT_EQ(out.fields, reference_fields(specs[i])) << "job " << i;
  }
}

TEST(FleetScheduler, UnservableJobParksWithAdmissionError) {
  gpusim::DeviceSpec tiny = gpusim::DeviceSpec::v100();
  tiny.memory_gb = 1e-6;  // ~1 kB: no D2Q9 engine fits
  DevicePool pool;
  pool.add_device(tiny);
  FleetScheduler sched(std::move(pool));
  sched.submit(small_job());
  const FleetReport rep = sched.run();
  EXPECT_EQ(rep.parked, 1);
  EXPECT_EQ(outcome(rep, 0).status, JobStatus::kParked);
  EXPECT_EQ(outcome(rep, 0).parked_kind, FleetError::Kind::kAdmission);
}

TEST(FleetScheduler, AllDevicesDeadParksWithNoDevice) {
  FleetFaultConfig fc;
  fc.scripted.push_back({0, FleetFaultKind::kDeviceLoss, 0, 0, 1});
  fc.scripted.push_back({0, FleetFaultKind::kDeviceLoss, 1, 0, 1});
  FleetFaultPlan plan(fc);
  FleetScheduler sched(two_v100s());
  sched.set_fault_plan(&plan);
  sched.submit(small_job());
  const FleetReport rep = sched.run();
  EXPECT_EQ(outcome(rep, 0).status, JobStatus::kParked);
  EXPECT_EQ(outcome(rep, 0).parked_kind, FleetError::Kind::kNoDevice);
}

// ---- Watchdog: a pathological straggler trips the deadline ----

TEST(FleetScheduler, WatchdogDeadlineTripMigratesAndStillMatches) {
  FleetFaultConfig fc;
  // Device 0 goes 100x slow AFTER the job lands there (placement is
  // finish-time-aware and would simply avoid a device already straggling):
  // the tick-1 quantum's modeled time exceeds deadline_factor (8) x nominal,
  // tripping the watchdog.
  fc.scripted.push_back({1, FleetFaultKind::kStragglerBegin, 0, 100.0, 1000});
  FleetFaultPlan plan(fc);

  FleetConfig cfg;
  cfg.quantum_steps = 32;
  FleetScheduler sched(two_v100s(), cfg);
  sched.set_fault_plan(&plan);
  const JobSpec spec = small_job(Workload::kTaylorGreen, 16, 96);
  sched.submit(spec);
  const FleetReport rep = sched.run();

  const JobOutcome& out = outcome(rep, 0);
  EXPECT_EQ(out.status, JobStatus::kCompleted);
  EXPECT_EQ(out.retries, 1);
  EXPECT_EQ(out.migrations, 1);
  EXPECT_EQ(out.device, 1);  // finished on the healthy device
  ASSERT_FALSE(rep.ladder.empty());
  EXPECT_EQ(rep.ladder[0].action, LadderAction::kMigrate);
  EXPECT_EQ(rep.ladder[0].cause, "deadline");
  EXPECT_EQ(rep.ladder[0].from_device, 0);
  EXPECT_EQ(rep.ladder[0].to_device, 1);
  EXPECT_GT(out.backoff_ms, 0);  // fleet backoff was charged

  // The deadline is a *time* policy: the trajectory is untouched.
  EXPECT_EQ(out.fields, reference_fields(spec));
}

// ---- Migration: device loss, bit-identical restore ----

TEST(FleetScheduler, DeviceLossMigrationIsBitIdentical) {
  FleetFaultConfig fc;
  fc.scripted.push_back({/*tick=*/2, FleetFaultKind::kDeviceLoss,
                         /*device=*/0, 0, 1});
  FleetFaultPlan plan(fc);

  FleetConfig cfg;
  cfg.quantum_steps = 16;  // ticks 0..1 run 32 of 64 steps, then the loss
  FleetScheduler sched(two_v100s(), cfg);
  sched.set_fault_plan(&plan);
  const JobSpec spec = small_job(Workload::kTaylorGreen, 16, 64);
  sched.submit(spec);
  const FleetReport rep = sched.run();

  const JobOutcome& out = outcome(rep, 0);
  EXPECT_EQ(out.status, JobStatus::kCompleted);
  EXPECT_EQ(out.migrations, 1);
  EXPECT_EQ(out.device, 1);
  ASSERT_FALSE(rep.ladder.empty());
  EXPECT_EQ(rep.ladder[0].action, LadderAction::kMigrate);
  EXPECT_EQ(rep.ladder[0].cause, "device-loss");

  // Checkpoint restore into a factory-rebuilt engine is the raw-state path:
  // the migrated run's final fields are bit-identical to never migrating.
  EXPECT_EQ(out.fields, reference_fields(spec));

  ASSERT_EQ(rep.devices.size(), 2u);
  EXPECT_FALSE(rep.devices[0].alive);
  EXPECT_EQ(rep.devices[0].jobs_migrated_out, 1);
  EXPECT_EQ(rep.devices[1].jobs_migrated_in, 1);
}

// ---- Degradation ladder: ordering, then budget exhaustion ----

TEST(FleetScheduler, LadderWalksMigrateThenShrinkThenPark) {
  FleetFaultConfig fc;
  // Both devices straggle 100x forever: migration cannot help, shrinking
  // cannot help, so the ladder must be walked to the end in order.
  fc.scripted.push_back({0, FleetFaultKind::kStragglerBegin, 0, 100.0, 10000});
  fc.scripted.push_back({0, FleetFaultKind::kStragglerBegin, 1, 100.0, 10000});
  FleetFaultPlan plan(fc);

  FleetConfig cfg;
  cfg.quantum_steps = 8;
  cfg.min_quantum_steps = 2;
  cfg.retry_budget = 10;  // big enough that the ladder, not the budget, ends it
  FleetScheduler sched(two_v100s(), cfg);
  sched.set_fault_plan(&plan);
  sched.submit(small_job(Workload::kTaylorGreen, 16, 512));
  const FleetReport rep = sched.run();

  const JobOutcome& out = outcome(rep, 0);
  EXPECT_EQ(out.status, JobStatus::kParked);
  EXPECT_EQ(out.parked_kind, FleetError::Kind::kLadder);

  std::vector<LadderAction> actions;
  for (const LadderEvent& e : rep.ladder) actions.push_back(e.action);
  const std::vector<LadderAction> expected = {
      LadderAction::kMigrate,        // re-place first
      LadderAction::kShrinkQuantum,  // 8 -> 4
      LadderAction::kShrinkQuantum,  // 4 -> 2 (the floor)
      LadderAction::kPark,           // out of options
  };
  EXPECT_EQ(actions, expected);
  EXPECT_EQ(rep.ladder.back().quantum, cfg.min_quantum_steps);
}

TEST(FleetScheduler, RetryBudgetExhaustionParksWithTypedError) {
  FleetFaultConfig fc;
  fc.scripted.push_back({0, FleetFaultKind::kStragglerBegin, 0, 100.0, 10000});
  fc.scripted.push_back({0, FleetFaultKind::kStragglerBegin, 1, 100.0, 10000});
  FleetFaultPlan plan(fc);

  FleetConfig cfg;
  cfg.quantum_steps = 8;
  cfg.min_quantum_steps = 2;
  cfg.retry_budget = 2;  // smaller than the ladder: the budget ends it first
  FleetScheduler sched(two_v100s(), cfg);
  sched.set_fault_plan(&plan);
  sched.submit(small_job(Workload::kTaylorGreen, 16, 512));
  const FleetReport rep = sched.run();

  const JobOutcome& out = outcome(rep, 0);
  EXPECT_EQ(out.status, JobStatus::kParked);
  EXPECT_EQ(out.parked_kind, FleetError::Kind::kRetryBudget);
  EXPECT_EQ(out.retries, cfg.retry_budget + 1);  // the trip that broke the bank
  ASSERT_FALSE(rep.ladder.empty());
  EXPECT_EQ(rep.ladder.back().action, LadderAction::kPark);
}

// ---- Chaos: job-level faults + device-level faults, seed reproducibility ----

TEST(FleetScheduler, ChaosRunIsSeedReproducibleAndBitIdentical) {
  const std::vector<JobSpec> specs = {
      small_job(Workload::kTaylorGreen, 16, 48),
      small_job(Workload::kCavity, 16, 48),
  };

  FleetFaultConfig device_faults;
  device_faults.seed = 17;
  device_faults.straggler_rate = 0.1;   // 4x: under the deadline factor
  device_faults.launch_burst_rate = 0.1;
  device_faults.link_fault_rate = 0.05;

  FleetConfig cfg;
  cfg.quantum_steps = 16;
  cfg.job_faults.seed = 29;
  cfg.job_faults.bitflip_rate = 0.05;
  cfg.job_faults.bitflip_bit = 62;  // detectable regime
  cfg.job_faults.launch_fail_rate = 0.02;

  auto chaos_run = [&]() {
    FleetFaultPlan plan(device_faults);
    FleetScheduler sched(two_v100s(), cfg);
    sched.set_fault_plan(&plan);
    for (const JobSpec& s : specs) sched.submit(s);
    return sched.run();
  };

  const FleetReport a = chaos_run();
  const FleetReport b = chaos_run();

  // Same seed, same chaos, byte-equal report.
  EXPECT_EQ(a.describe(), b.describe());

  // Every fault was absorbed: zero lost jobs, and every job's physics is
  // bit-identical to a run that saw no fault at all.
  EXPECT_EQ(a.completed, static_cast<int>(specs.size()));
  EXPECT_EQ(a.parked, 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].fields, reference_fields(specs[i])) << "job " << i;
  }
  // The chaos actually happened (otherwise this test gates nothing).
  int disturbances = 0;
  for (const JobOutcome& out : a.jobs) {
    disturbances += out.rollbacks + out.launch_failures;
  }
  EXPECT_GT(disturbances, 0);
}

TEST(FleetReport, JsonAndDescribeRenderEveryJob) {
  FleetScheduler sched(two_v100s());
  sched.submit(small_job(Workload::kTaylorGreen, 16, 32));
  sched.submit(small_job(Workload::kCylinder, 12, 32));
  const FleetReport rep = sched.run();
  const std::string text = rep.describe();
  const std::string json = rep.json();
  for (const JobOutcome& out : rep.jobs) {
    EXPECT_NE(text.find(out.spec.name()), std::string::npos);
    EXPECT_NE(json.find(out.spec.name()), std::string::npos);
  }
  EXPECT_NE(json.find("\"jobs\""), std::string::npos);
  EXPECT_NE(json.find("\"devices\""), std::string::npos);
  EXPECT_NE(json.find("\"moment_hash\""), std::string::npos);
}

TEST(FleetScheduler, RejectsInvalidConfiguration) {
  EXPECT_THROW(FleetScheduler(DevicePool{}), ConfigError);
  FleetConfig bad;
  bad.quantum_steps = 0;
  EXPECT_THROW(FleetScheduler(two_v100s(), bad), ConfigError);
  bad = {};
  bad.min_quantum_steps = 64;  // above quantum_steps
  EXPECT_THROW(FleetScheduler(two_v100s(), bad), ConfigError);
  bad = {};
  bad.deadline_factor = 1.0;
  EXPECT_THROW(FleetScheduler(two_v100s(), bad), ConfigError);

  FleetScheduler sched(two_v100s());
  sched.submit(small_job(Workload::kTaylorGreen, 16, 8));
  (void)sched.run();
  EXPECT_THROW(sched.submit(small_job()), ConfigError);
  EXPECT_THROW(sched.run(), ConfigError);
}

}  // namespace
}  // namespace mlbm::fleet
