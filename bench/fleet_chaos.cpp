// Fleet chaos bench: the end-to-end gate for the fault-first scheduler.
//
// Three fleets over the same job set (a Taylor-Green / cavity / cylinder
// parameter sweep on a 2x V100 + 2x MI100 pool):
//
//   A  fault-free      no fault plan, no job faults — the baseline fields
//                      and jobs/hour;
//   B  chaos           a scripted device loss plus rate-driven stragglers,
//                      launch bursts, link degradation, per-job storage bit
//                      flips (detectable regime) and transient launch
//                      failures;
//   C  chaos replay    run B again from the same seeds.
//
// Exit status is non-zero unless every gate holds:
//
//   zero lost jobs     every chaos job completes (none parked);
//   bit-identity       every job's final {moment hash, mass, energy} under
//                      chaos equals the fault-free run bit for bit — faults
//                      cost time, never physics;
//   reproducibility    describe(B) == describe(C) byte for byte;
//   bounded overhead   chaos makespan <= `overhead-factor` x the fault-free
//                      makespan PLUS the explicitly accounted fault-service
//                      time (backoff charges and migration transfers). Every
//                      second the chaos fleet spends beyond the clean drain
//                      must be attributable to a recorded recovery action —
//                      unaccounted scheduling waste fails the gate.
//
// The full chaos FleetReport (per-job outcomes, ladder decisions, device
// utilization, fault trace) is written as JSON — the CI artifact.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "fleet/fault_plan.hpp"
#include "fleet/scheduler.hpp"
#include "gpusim/device.hpp"
#include "perfmodel/report.hpp"
#include "util/cli.hpp"

using namespace mlbm;
using namespace mlbm::fleet;

namespace {

DevicePool make_pool() {
  DevicePool pool;
  pool.add_device(gpusim::DeviceSpec::v100());
  pool.add_device(gpusim::DeviceSpec::v100());
  pool.add_device(gpusim::DeviceSpec::mi100());
  pool.add_device(gpusim::DeviceSpec::mi100());
  return pool;
}

/// The sweep: deterministic in the job index, mixing workloads, propagation
/// patterns, precisions and resolutions.
std::vector<JobSpec> make_jobs(int count, int steps) {
  const Workload workloads[] = {Workload::kTaylorGreen, Workload::kCavity,
                                Workload::kCylinder};
  const char* patterns[] = {"st", "mr-p", "mr-r"};
  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    JobSpec spec;
    spec.workload = workloads[i % 3];
    spec.engine = EngineSpec::parse(patterns[(i / 3) % 3]);
    if (i % 5 == 4) spec.engine.precision = StoragePrecision::kFP32;
    spec.n = spec.workload == Workload::kCylinder ? 10 + 2 * (i % 3)
                                                  : 16 + 4 * (i % 3);
    spec.steps = steps;
    jobs.push_back(spec);
  }
  return jobs;
}

FleetConfig chaos_config(std::uint64_t seed, bool with_job_faults) {
  FleetConfig cfg;
  cfg.quantum_steps = 16;
  if (with_job_faults) {
    cfg.job_faults.seed = seed * 2 + 1;
    cfg.job_faults.bitflip_rate = 0.05;
    cfg.job_faults.bitflip_bit = 62;  // detectable regime (see FaultConfig)
    cfg.job_faults.launch_fail_rate = 0.02;
  }
  return cfg;
}

FleetFaultConfig device_fault_config(std::uint64_t seed) {
  FleetFaultConfig fc;
  fc.seed = seed;
  // One guaranteed device loss at tick 1 — after placement, before the
  // shortest jobs drain — so the migration path is exercised every run, not
  // only on lucky seeds. Plus rate-driven weather.
  fc.scripted.push_back({/*tick=*/1, FleetFaultKind::kDeviceLoss,
                         /*device=*/0, 0, 1});
  fc.device_loss_rate = 0.002;
  fc.max_device_losses = 1;
  fc.straggler_rate = 0.05;
  fc.launch_burst_rate = 0.05;
  fc.link_fault_rate = 0.02;
  return fc;
}

FleetReport run_fleet(const std::vector<JobSpec>& jobs, const FleetConfig& cfg,
                      FleetFaultPlan* plan) {
  FleetScheduler sched(make_pool(), cfg);
  sched.set_fault_plan(plan);
  for (const JobSpec& spec : jobs) sched.submit(spec);
  return sched.run();
}

bool write_json(const std::string& path, const FleetReport& chaos,
                const FleetReport& clean, double overhead_factor,
                double makespan_bound_s, bool bit_identical,
                bool reproducible) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\n  \"bench\": \"fleet_chaos\",\n";
  f << "  \"gates\": {\n";
  f << "    \"zero_lost_jobs\": " << (chaos.parked == 0 ? "true" : "false")
    << ",\n";
  f << "    \"bit_identical_fields\": " << (bit_identical ? "true" : "false")
    << ",\n";
  f << "    \"seed_reproducible\": " << (reproducible ? "true" : "false")
    << ",\n";
  f << "    \"overhead_factor\": " << overhead_factor << ",\n";
  f << "    \"makespan_bound_s\": " << makespan_bound_s << ",\n";
  f << "    \"makespan_within_bound\": "
    << (chaos.makespan_s <= makespan_bound_s ? "true" : "false")
    << "\n  },\n";
  f << "  \"faultfree\": {\"completed\": " << clean.completed
    << ", \"jobs_per_hour\": " << clean.jobs_per_hour
    << ", \"makespan_s\": " << clean.makespan_s << "},\n";
  f << "  \"chaos\": " << chaos.json() << "\n}\n";
  return f.good();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.reject_unknown({"jobs", "steps", "seed", "overhead-factor", "smoke",
                      "out"});
  const bool smoke = cli.get_bool("smoke", false);
  const int n_jobs = cli.get_int("jobs", smoke ? 6 : 18, 1);
  const int steps = cli.get_int("steps", smoke ? 32 : 64, 1);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7, 1));
  const double overhead_factor = cli.get_double("overhead-factor", 4.0, 1.0);
  const std::string out =
      cli.get("out", perf::results_dir() + "/fleet_chaos.json");

  perf::print_banner("Fleet",
                     "Chaos drain: device loss, stragglers, bursts, bit flips");

  const std::vector<JobSpec> jobs = make_jobs(n_jobs, steps);
  std::printf("jobs=%d steps=%d pool=2xV100+2xMI100 seed=%llu\n\n", n_jobs,
              steps, static_cast<unsigned long long>(seed));

  const FleetReport clean =
      run_fleet(jobs, chaos_config(seed, /*with_job_faults=*/false), nullptr);

  auto chaos_once = [&]() {
    FleetFaultPlan plan(device_fault_config(seed));
    return run_fleet(jobs, chaos_config(seed, /*with_job_faults=*/true),
                     &plan);
  };
  const FleetReport chaos = chaos_once();
  const FleetReport replay = chaos_once();

  std::printf("%s\n", chaos.describe().c_str());

  int failures = 0;
  auto gate = [&failures](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    failures += ok ? 0 : 1;
  };

  gate(clean.completed == n_jobs && clean.parked == 0,
       "fault-free fleet drains completely");
  gate(chaos.completed == n_jobs && chaos.parked == 0,
       "zero lost jobs under chaos");

  bool bit_identical = chaos.jobs.size() == clean.jobs.size();
  for (std::size_t i = 0; bit_identical && i < chaos.jobs.size(); ++i) {
    bit_identical = chaos.jobs[i].status == JobStatus::kCompleted &&
                    chaos.jobs[i].fields == clean.jobs[i].fields;
  }
  gate(bit_identical, "per-job fields bit-identical to the fault-free run");

  const bool reproducible = chaos.describe() == replay.describe();
  gate(reproducible, "same-seed replay reproduces the identical report");

  // Bounded overhead: the chaos makespan beyond `overhead_factor` x the
  // clean drain must be covered by the explicitly accounted fault-service
  // time — backoff the report charged to jobs, plus a generous per-migration
  // transfer allowance. Unattributed waste (a scheduler re-running quanta it
  // should not) breaks the bound.
  double backoff_s = 0;
  int migrations = 0;
  for (const JobOutcome& j : chaos.jobs) {
    backoff_s += static_cast<double>(j.backoff_ms) / 1000.0;
    migrations += j.migrations;
  }
  const double makespan_bound_s =
      overhead_factor * clean.makespan_s + backoff_s + 0.01 * migrations;
  std::printf(
      "  makespan: fault-free %.6fs, chaos %.6fs (bound %.6fs); "
      "jobs/hour %.0f -> %.0f\n",
      clean.makespan_s, chaos.makespan_s, makespan_bound_s,
      clean.jobs_per_hour, chaos.jobs_per_hour);
  gate(chaos.makespan_s <= makespan_bound_s,
       "chaos makespan within the accounted fault-service bound");
  gate(migrations >= 1, "the scripted device loss forced >= 1 migration");

  if (!write_json(out, chaos, clean, overhead_factor, makespan_bound_s,
                  bit_identical, reproducible)) {
    std::printf("  [FAIL] cannot write %s\n", out.c_str());
    ++failures;
  } else {
    std::printf("\nwrote %s\n", out.c_str());
  }

  return failures == 0 ? 0 : 1;
}
