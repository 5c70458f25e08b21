// Standard distribution-representation engine (Algorithm 1 of the paper).
//
// One gpusim thread per lattice node performs a fused stream + collide
// update between two SoA distribution lattices resident in instrumented
// global memory. This is the paper's "ST" baseline: 2Q storage elements of
// global traffic per fluid lattice update (Table 2) and no shared memory.
//
// Both orderings of Section 3.1 are implemented (StAddressing):
//  * kPull (default) — stream-then-collide; gathers are irregular, stores
//    coalesced. "Considered the fastest GPU implementation" (the paper's
//    baseline). Stored state is post-collision.
//  * kPush — collide-then-stream; loads coalesced, scatters irregular.
//    Stored state is pre-collision. Used by the push-vs-pull ablation.
//
// The collision defaults to BGK as in the paper; the regularized schemes can
// be selected for ablation studies. Sparse geometries are pull-only.
#pragma once

#include "engines/dist_engine.hpp"

namespace mlbm {

template <class L, class ST = real_t>
class StEngine final : public DistEngine<L, ST, StAddressing> {
  using Base = DistEngine<L, ST, StAddressing>;

 public:
  StEngine(Geometry geo, real_t tau,
           CollisionScheme scheme = CollisionScheme::kBGK,
           int threads_per_block = 256, StreamMode mode = StreamMode::kPull,
           ExecMode exec = default_exec_mode())
      : Base(std::move(geo), tau, scheme, threads_per_block, exec,
             StAddressing{mode}) {
    if (mode == StreamMode::kPush && this->geometry().sparse()) {
      throw ConfigError(
          "StEngine: push streaming does not support sparse geometries "
          "(use pull, the paper's ST baseline)");
    }
  }

  [[nodiscard]] StreamMode stream_mode() const {
    return this->addressing().mode;
  }
};

}  // namespace mlbm
