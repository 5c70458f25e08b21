// Fleet jobs: one independent parameter-sweep simulation each.
//
// A JobSpec is everything needed to (re)build a job's engine from scratch —
// workload, engine spec (pattern, storage precision, MR tile), resolution,
// physics parameters. Rebuildability is the point: checkpoint-based migration
// re-creates the engine on a surviving device through the same factories and
// restores the raw-state snapshot, so a migrated job's trajectory is
// bit-identical to one that never moved.
//
// Jobs are D2Q9: the fleet serves *many small* simulations (the ROADMAP's
// throughput-of-simulations framing), and the three sweep workloads —
// Taylor-Green, lid-driven cavity, cylinder wake — are the repository's 2D
// validation set. The scheduler itself never inspects the lattice, so a 3D
// job type is a JobSpec extension, not a redesign.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "engines/engine.hpp"
#include "engines/engine_spec.hpp"

namespace mlbm::fleet {

enum class Workload { kTaylorGreen, kCavity, kCylinder };

inline const char* to_string(Workload w) {
  switch (w) {
    case Workload::kTaylorGreen: return "taylor-green";
    case Workload::kCavity: return "cavity";
    case Workload::kCylinder: return "cylinder";
  }
  return "unknown";
}

/// MR tile of jobs whose spec names none: a modest tile keeps the MR sweep's
/// working set matched to the small job domains instead of the production
/// default.
inline constexpr EngineSpec::Tile kJobMrTile{8, 8, 1};

struct JobSpec {
  int id = -1;  ///< assigned by FleetScheduler::submit
  Workload workload = Workload::kTaylorGreen;
  /// An MR spec without a tile runs kJobMrTile.
  EngineSpec engine;
  /// Nodes per axis (Taylor-Green / cavity) or cylinder diameter in nodes.
  int n = 24;
  int steps = 64;
  /// u0 (Taylor-Green), u_lid (cavity), u_mean (cylinder inlet).
  double amplitude = 0.03;
  double tau = 0.8;  ///< Taylor-Green / cavity; the cylinder derives its own
  double re = 20;    ///< cylinder Reynolds number

  [[nodiscard]] std::string name() const;
};

/// Builds the job's engine through make_engine() and
/// attaches its workload (initialization + post-step boundary pass). The
/// returned engine is self-contained: the workload object does not outlive
/// the call (boundary passes capture their state by value / shared_ptr).
std::unique_ptr<Engine<D2Q9>> make_job_engine(const JobSpec& spec);

/// The physics outputs of a finished job — the fields the chaos bench pins
/// bit-identical between a faulted and an undisturbed run.
struct JobFields {
  /// FNV-1a over the raw bytes of every node's {rho, u, Pi} in x-fastest
  /// order: any single-bit difference anywhere in the final state changes it.
  std::uint64_t moment_hash = 0;
  double mass = 0;            ///< sum of rho
  double kinetic_energy = 0;  ///< 0.5 sum rho |u|^2

  friend bool operator==(const JobFields& a, const JobFields& b) {
    return a.moment_hash == b.moment_hash && a.mass == b.mass &&
           a.kinetic_energy == b.kinetic_energy;
  }
  friend bool operator!=(const JobFields& a, const JobFields& b) {
    return !(a == b);
  }
};

[[nodiscard]] JobFields job_fields(const Engine<D2Q9>& eng);

enum class JobStatus { kPending, kRunning, kCompleted, kParked };

inline const char* to_string(JobStatus s) {
  switch (s) {
    case JobStatus::kPending: return "pending";
    case JobStatus::kRunning: return "running";
    case JobStatus::kCompleted: return "completed";
    case JobStatus::kParked: return "parked";
  }
  return "unknown";
}

}  // namespace mlbm::fleet
