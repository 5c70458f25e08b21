// Deterministic, seeded fault injection for the gpusim execution model.
//
// Long production runs on real GPUs see ECC-scale soft errors in DRAM and
// transient kernel-launch failures; because gpusim models global memory and
// kernel launches exactly, both fault classes can be *injected* here
// deterministically and the whole solver stack proven to survive them.
//
// Three fault classes, each driven by its own counter-indexed RNG stream
// derived from one seed:
//
//   bit flips        one bit of one storage element of the target engine
//                    (GlobalArray::flip_bit via Engine::inject_storage_
//                    bitflip), drawn per *executed* step — a retried window
//                    draws fresh faults, exactly like real soft errors,
//                    which is what lets recovery converge;
//   launch failures  TransientLaunchError thrown from the launch fault hook
//                    before any block runs (installed on every Profiler the
//                    engine owns), drawn per launch;
//   halo corruption  a MultiDomainEngine ghost plane poisoned between the
//                    exchange and the next step, drawn per executed step.
//
// Every decision is a pure function of (seed, stream, counter): same seed →
// same injected sites/steps → same recovery trace, independent of thread
// count. Scripted bit flips (exact step/site/bit, fired once) complement the
// rate-driven streams for tests that need a specific fault at a specific
// place.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "engines/engine.hpp"
#include "gpusim/profiler.hpp"
#include "multidev/multi_domain.hpp"
#include "util/error.hpp"

namespace mlbm::resilience {

/// A bit flip at an exact logical step (fires once, window-independent).
struct ScriptedBitflip {
  int step = 0;
  std::uint64_t site = 0;
  unsigned bit = 0;
};

struct FaultConfig {
  std::uint64_t seed = 1;
  double bitflip_rate = 0;       ///< P(one storage bit flip) per executed step
  double launch_fail_rate = 0;   ///< P(transient failure) per kernel launch
  double halo_corrupt_rate = 0;  ///< P(one ghost-plane poison) per step
  /// Faults fire only while the logical step is in [step_begin, step_end).
  int step_begin = 0;
  int step_end = std::numeric_limits<int>::max();
  /// Bit used by rate-driven flips: -1 draws a uniform bit (the realistic
  /// soft-error model); >= 0 pins every flip to this bit. Pinning to a high
  /// exponent bit (e.g. 62) restricts injection to the *detectable* regime —
  /// what the survival bench wants, since real ECC absorbs low-order flips
  /// and an undetectable 1-ulp flip is physically benign anyway.
  int bitflip_bit = -1;
  std::vector<ScriptedBitflip> scripted;
};

enum class FaultKind {
  kBitFlip,
  kScriptedBitFlip,
  kLaunchFailure,
  kHaloCorruption,
};

inline const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kBitFlip: return "bit-flip";
    case FaultKind::kScriptedBitFlip: return "scripted-bit-flip";
    case FaultKind::kLaunchFailure: return "launch-failure";
    case FaultKind::kHaloCorruption: return "halo-corruption";
  }
  return "unknown";
}

struct FaultEvent {
  FaultKind kind = FaultKind::kBitFlip;
  int step = 0;               ///< logical step the fault landed at
  std::uint64_t site = 0;     ///< storage site (bit flips) or interface
  unsigned bit = 0;           ///< flipped bit (bit flips)
  std::string detail;         ///< kernel name / interface side
};

inline bool operator==(const FaultEvent& a, const FaultEvent& b) {
  return a.kind == b.kind && a.step == b.step && a.site == b.site &&
         a.bit == b.bit && a.detail == b.detail;
}
inline bool operator!=(const FaultEvent& a, const FaultEvent& b) {
  return !(a == b);
}

class FaultInjector final : public gpusim::LaunchFaultHook {
 public:
  explicit FaultInjector(FaultConfig cfg)
      : cfg_(std::move(cfg)), scripted_done_(cfg_.scripted.size(), false) {}

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }

  /// Called by the runner before each engine step; advances the
  /// execution-indexed streams and pins the logical step faults report.
  void begin_step(int logical_step) {
    current_step_ = logical_step;
    ++step_execs_;
  }

  /// Launch fault hook (installed via `install`): throws
  /// TransientLaunchError when the per-launch draw fires inside the window.
  void on_launch(const gpusim::KernelRecord& rec) override;

  /// Applies this step's state faults (scripted + rate-driven bit flips,
  /// halo corruption for MultiDomain engines). Call after eng.step().
  template <class L>
  void apply_state_faults(Engine<L>& eng) {
    for (std::size_t i = 0; i < cfg_.scripted.size(); ++i) {
      if (!scripted_done_[i] && cfg_.scripted[i].step == current_step_) {
        scripted_done_[i] = true;
        eng.inject_storage_bitflip(cfg_.scripted[i].site,
                                   cfg_.scripted[i].bit);
        trace_.push_back({FaultKind::kScriptedBitFlip, current_step_,
                          cfg_.scripted[i].site, cfg_.scripted[i].bit, ""});
      }
    }
    if (!active()) return;
    if (cfg_.bitflip_rate > 0 && eng.fault_sites() > 0 &&
        uniform(kStreamBitflip, step_execs_) < cfg_.bitflip_rate) {
      const std::uint64_t site =
          draw(kStreamBitflipSite, step_execs_) % eng.fault_sites();
      const auto bit =
          cfg_.bitflip_bit >= 0
              ? static_cast<unsigned>(cfg_.bitflip_bit)
              : static_cast<unsigned>(draw(kStreamBitflipBit, step_execs_) %
                                      64u);
      eng.inject_storage_bitflip(site, bit);
      trace_.push_back({FaultKind::kBitFlip, current_step_, site, bit, ""});
    }
    if (cfg_.halo_corrupt_rate > 0) {
      if (auto* md = dynamic_cast<MultiDomainEngine<L>*>(&eng);
          md != nullptr && md->devices() > 1 &&
          uniform(kStreamHalo, step_execs_) < cfg_.halo_corrupt_rate) {
        corrupt_halo(*md);
      }
    }
  }

  /// Installs the launch fault hook on every profiler the engine owns (one
  /// for monolithic gpusim engines, one per slab for MultiDomain).
  template <class L>
  void install(Engine<L>& eng) {
    set_hook(eng, this);
  }
  template <class L>
  void uninstall(Engine<L>& eng) {
    set_hook(eng, nullptr);
  }

  [[nodiscard]] const std::vector<FaultEvent>& trace() const {
    return trace_;
  }
  /// Canonical one-line-per-fault rendering; two runs with the same seed and
  /// workload must produce equal strings (seed-reproducibility contract).
  [[nodiscard]] std::string trace_string() const;

  /// Inverse of trace_string: parses the canonical rendering back into the
  /// event sequence (sites, counters, bits exact), so a recorded trace can
  /// be replayed/diffed structurally. Throws ConfigError on malformed lines.
  [[nodiscard]] static std::vector<FaultEvent> parse_trace(
      const std::string& trace);

 private:
  static constexpr std::uint64_t kStreamLaunch = 1;
  static constexpr std::uint64_t kStreamBitflip = 2;
  static constexpr std::uint64_t kStreamBitflipSite = 3;
  static constexpr std::uint64_t kStreamBitflipBit = 4;
  static constexpr std::uint64_t kStreamHalo = 5;
  static constexpr std::uint64_t kStreamHaloSite = 6;

  [[nodiscard]] bool active() const {
    return current_step_ >= cfg_.step_begin && current_step_ < cfg_.step_end;
  }
  /// Counter-based deterministic draw: pure in (seed, stream, n).
  [[nodiscard]] std::uint64_t draw(std::uint64_t stream, std::uint64_t n) const;
  [[nodiscard]] double uniform(std::uint64_t stream, std::uint64_t n) const {
    return static_cast<double>(draw(stream, n) >> 11) * 0x1.0p-53;
  }

  /// Poisons one ghost plane of one interface (deterministic choice) with a
  /// non-finite-free but wildly out-of-bounds density, modelling a corrupted
  /// halo transfer that the sentinel must catch on the following steps.
  template <class L>
  void corrupt_halo(MultiDomainEngine<L>& md) {
    const auto ifaces = static_cast<std::uint64_t>(md.devices() - 1);
    const std::uint64_t pick = draw(kStreamHaloSite, step_execs_);
    const int iface = static_cast<int>(pick % ifaces);
    const bool left_side = (pick >> 32) % 2 == 0;
    // left_side: the right ghost plane of slab `iface`; otherwise the left
    // ghost plane of slab `iface + 1`.
    const int d = left_side ? iface : iface + 1;
    Engine<L>& slab_eng = md.device_engine(d);
    const Box& lb = slab_eng.geometry().box;
    const int lx = left_side ? lb.nx - 1 : 0;
    Moments<L> bad;
    bad.rho = real_t(1e4);
    for (int z = 0; z < lb.nz; ++z) {
      for (int y = 0; y < lb.ny; ++y) {
        slab_eng.impose(lx, y, z, bad);
      }
    }
    trace_.push_back({FaultKind::kHaloCorruption, current_step_,
                      static_cast<std::uint64_t>(iface), 0,
                      left_side ? "right-ghost" : "left-ghost"});
  }

  template <class L>
  void set_hook(Engine<L>& eng, gpusim::LaunchFaultHook* hook) {
    for_each_profiler(eng, [hook](gpusim::Profiler& p) {
      p.set_launch_fault_hook(hook);
    });
  }

  FaultConfig cfg_;
  int current_step_ = 0;
  std::uint64_t step_execs_ = 0;   ///< executed steps (retries included)
  std::uint64_t launch_draws_ = 0; ///< launch-hook consults
  std::vector<bool> scripted_done_;
  std::vector<FaultEvent> trace_;
};

}  // namespace mlbm::resilience
