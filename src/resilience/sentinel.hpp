// Stability sentinel: the shared divergence detector.
//
// Regularized collision exists because high-Reynolds runs sit close to the
// stability edge; when a run crosses it (under-resolution, FP32 storage
// rounding, or an injected soft error) the first symptom is a non-finite or
// out-of-bounds moment. The sentinel samples the moment interface — which
// every engine, including MultiDomainEngine, exposes exactly — on a strided
// grid (every stride-th row, read whole through read_moments), so a check
// costs a small, cadence-amortized fraction of a timestep
// (docs/resilience.md quantifies the trade-off).
//
// This is the promotion of the ad-hoc detector that used to live inside the
// shear-layer workload; the stability studies and the ResilientRunner now
// share one code path.
#pragma once

#include <string>

#include "engines/engine.hpp"
#include "util/types.hpp"

namespace mlbm::resilience {

struct SentinelConfig {
  /// Steps between checks when driven by a runner; 0 disables cadence-driven
  /// checks (explicit check() calls still work).
  int cadence = 16;
  /// Sample stride along x and y; 0 = auto (max(1, nx/16), the historical
  /// shear-layer sampling). z is always scanned fully (domains are shallow
  /// along z in this repository's workloads).
  int sample_stride = 0;
  /// Lattice-velocity magnitude bound per component. The default matches the
  /// historical detector: anything at Ma ~ sqrt(3)*0.8 is long past blow-up.
  real_t max_speed = real_t(0.8);
  /// Density bounds (rho must be finite and inside (min_rho, max_rho)).
  real_t min_rho = real_t(0);
  real_t max_rho = real_t(1e6);
  /// Also require every stored second moment to be finite — catches MR-state
  /// corruption whose rho/u still look plausible.
  bool check_pi = true;
};

struct SentinelReport {
  enum class Reason { kNone, kNonFinite, kDensityBound, kVelocityBound };

  bool healthy = true;
  Reason reason = Reason::kNone;
  int x = -1, y = -1, z = -1;  ///< first offending node (sample order)
  real_t value = real_t(0);    ///< the offending quantity

  [[nodiscard]] std::string describe() const;
};

template <class L>
class StabilitySentinel {
 public:
  StabilitySentinel() = default;
  explicit StabilitySentinel(SentinelConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] const SentinelConfig& config() const { return cfg_; }

  /// True when a cadence-driven check is due at `step` (post-step count).
  [[nodiscard]] bool due(int step) const {
    return cfg_.cadence > 0 && step % cfg_.cadence == 0;
  }

  /// Samples the engine's moment state; stops at the first violation.
  [[nodiscard]] SentinelReport check(const Engine<L>& eng) const;

 private:
  SentinelConfig cfg_;
};

extern template class StabilitySentinel<D2Q9>;
extern template class StabilitySentinel<D3Q19>;
extern template class StabilitySentinel<D3Q27>;
extern template class StabilitySentinel<D3Q15>;

}  // namespace mlbm::resilience
