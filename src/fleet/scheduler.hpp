// FleetScheduler: a fault-first many-simulation service over a device pool.
//
// The scheduler drains a set of independent jobs across simulated devices in
// discrete *ticks*; each tick it (1) advances the FleetFaultPlan (device
// loss, stragglers, launch bursts, link faults), (2) migrates jobs off
// devices that died, (3) places pending jobs by modeled finish time
// (DevicePool::place), and (4) advances every running job by one scheduling
// quantum through its own ResilientRunner — so a bit flip or launch fault
// rolls back *locally*, inside the job, and never touches its neighbours.
//
// Recovery escalates along a graceful-degradation ladder. A dead device
// triggers checkpoint-based migration: the job's raw-state boundary snapshot
// (captured at every quantum boundary) restores into a factory-rebuilt
// engine on a surviving device — the raw path is exact, so a migrated job's
// result is bit-identical to an undisturbed run. A watchdog compares each
// quantum's modeled compute time (slowdown and replay; backoff is a bounded,
// separately accounted cost and is excluded)
// against a deadline of `deadline_factor` x the nominal time; a trip walks
// the ladder: first migrate away, then shrink the quantum toward
// `min_quantum_steps`, and finally park the job with a typed FleetError
// kind. A retry budget bounds total trips per job. The fleet itself never
// throws: `run()` always returns a FleetReport in which every job is either
// completed or parked with a classified reason.
//
// Everything is modeled time (gpusim::Timeline) — no wall clock — so a
// same-seed replay reproduces the identical report, byte for byte.
#pragma once

#include <memory>
#include <vector>

#include "fleet/device_pool.hpp"
#include "fleet/fault_plan.hpp"
#include "fleet/report.hpp"
#include "gpusim/timeline.hpp"
#include "resilience/runner.hpp"

namespace mlbm::fleet {

/// Per-job runner defaults tuned for fleet quanta (the library default
/// checkpoint interval of 128 would never checkpoint inside a 32-step
/// quantum).
resilience::RunnerConfig default_job_runner_config();

struct FleetConfig {
  /// Steps a running job advances per tick (the migration/watchdog grain).
  int quantum_steps = 32;
  /// Ladder floor for quantum shrinking.
  int min_quantum_steps = 4;
  /// Watchdog trips (deadline misses + in-quantum unrecoverables) a job may
  /// consume before it is parked with FleetError::kRetryBudget.
  int retry_budget = 8;
  /// Deadline = nominal quantum time x this factor. The default tolerates
  /// the default straggler slowdown (4x) without tripping; replay storms and
  /// pathological stragglers trip it.
  double deadline_factor = 8.0;
  /// Fleet-level bounded exponential backoff charged (in modeled time)
  /// before a tripped job's next quantum: min(base * 2^(trips-1), max).
  int backoff_base_ms = 10;
  int backoff_max_ms = 2000;
  /// Hard drain bound: jobs still unfinished after this many ticks are
  /// parked with FleetError::kDrain.
  long max_ticks = 100000;
  /// Per-job ResilientRunner configuration.
  resilience::RunnerConfig runner = default_job_runner_config();
  /// Per-job fault rates; each job's injector derives its seed from this
  /// seed + the job id, so jobs draw independent fault streams.
  resilience::FaultConfig job_faults;
  /// Interconnect model for checkpoint migration transfers.
  gpusim::LinkSpec link = gpusim::LinkSpec::pcie3();
};

class FleetScheduler {
 public:
  explicit FleetScheduler(DevicePool pool, FleetConfig config = {});

  /// Attaches the device-level fault plan (not owned; null = fault-free).
  void set_fault_plan(FleetFaultPlan* plan) { plan_ = plan; }

  /// Registers a job; returns its id. Must precede run().
  int submit(JobSpec spec);

  /// Drains the fleet: runs every submitted job to completion or parks it
  /// with a typed reason. Never throws a FleetError.
  FleetReport run();

  [[nodiscard]] const DevicePool& pool() const { return pool_; }
  [[nodiscard]] const gpusim::Timeline& timeline() const { return timeline_; }

 private:
  struct JobRt {
    JobOutcome out;
    int remaining_steps = 0;
    int done_steps = 0;
    int quantum = 0;
    int ladder_stage = 0;       ///< 0 = migrate next, 1 = shrinking, 2 = done
    int consecutive_trips = 0;  ///< drives the fleet backoff exponent
    long pending_backoff_ms = 0;
    double effective_launch_rate = -1;  ///< rate the injector was built with
    int injector_epoch = 0;
    long long cells = 0;
    std::size_t bytes = 0;
    /// Engine built but not yet placed (moved into the runner on placement).
    std::unique_ptr<Engine<D2Q9>> unplaced;
    /// Declared before the runner, so it outlives the runner, whose
    /// destructor uninstalls it.
    std::unique_ptr<resilience::FaultInjector> injector;
    std::unique_ptr<resilience::ResilientRunner<D2Q9>> runner;
    /// Raw-state snapshot at the last committed quantum boundary — the
    /// migration unit.
    resilience::StateSnapshot<D2Q9> boundary;
    gpusim::Event last_ev;
  };

  void place_job(JobRt& rt, long tick);
  /// Moves a job to another device from its boundary snapshot. Returns false
  /// when no target admits it (the job goes back to pending, or parks when
  /// nothing alive remains).
  bool migrate_job(JobRt& rt, long tick, const std::string& cause);
  void advance_job(JobRt& rt, long tick);
  void handle_trip(JobRt& rt, long tick, const std::string& cause);
  void park_job(JobRt& rt, FleetError::Kind kind, const std::string& reason);
  void sync_injector(JobRt& rt);
  void release_device(JobRt& rt);
  void record_ladder(const JobRt& rt, long tick, LadderAction action,
                     const std::string& cause, int from, int to);

  DevicePool pool_;
  FleetConfig config_;
  FleetFaultPlan* plan_ = nullptr;
  gpusim::Timeline timeline_;
  std::vector<int> device_streams_;
  std::vector<JobRt> jobs_;
  std::vector<LadderEvent> ladder_;
  bool ran_ = false;
};

}  // namespace mlbm::fleet
