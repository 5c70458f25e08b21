// AA-pattern single-lattice engine (Bailey et al. 2009).
//
// Before the moment representation, the standard answer to LBM's GPU memory
// footprint was in-place streaming: the AA pattern keeps ONE distribution
// lattice (Q elements per node — half of ST) by alternating two kernel
// flavours (AaAddressing): a node-local even step and an odd step that
// performs two half-streams in place. Per-update global traffic is identical
// to ST (2Q elements), so AA is the paper's natural memory-footprint
// baseline: it matches MR's bandwidth profile story but not its traffic
// reduction.
//
// read_moments/write_moments translate both storage parities to the shared
// pre-collision moment convention, so boundary passes and tests work
// unchanged — including mid-cycle (the reported state after an even step is
// the pre-collision state of one step ago).
#pragma once

#include <stdexcept>

#include "engines/dist_engine.hpp"

namespace mlbm {

template <class L, class ST = real_t>
class AaEngine final : public DistEngine<L, ST, AaAddressing> {
  using Base = DistEngine<L, ST, AaAddressing>;

 public:
  /// `allow_open_faces` relaxes the no-open-faces validation for slab
  /// decomposition: an interface face is kOpen, its ghost band absorbs the
  /// locally-wrong open-link updates, and the per-step moment exchange
  /// (ghost depth 2 — see MultiDomainEngine) re-imposes the band before the
  /// corruption reaches owned planes. Physical inlet/outlet faces remain
  /// unsupported: mid-cycle the AA state is collided-not-yet-streamed, so
  /// inlet/outlet handling would have to live inside the kernels.
  AaEngine(Geometry geo, real_t tau,
           CollisionScheme scheme = CollisionScheme::kBGK,
           int threads_per_block = 256, ExecMode exec = default_exec_mode(),
           bool allow_open_faces = false)
      : Base(std::move(geo), tau, scheme, threads_per_block, exec,
             AaAddressing{}) {
    if (!allow_open_faces) reject_open_faces(this->geometry());
  }

  /// Throws ConfigError if `geo` has an open (inlet/outlet) face.
  static void reject_open_faces(const Geometry& geo) {
    for (const auto& axis : geo.bc.face) {
      for (const FaceSpec& face : axis) {
        if (face.type == FaceBC::kOpen) {
          throw ConfigError(
              "AaEngine: open (inlet/outlet) faces are not supported; use "
              "periodic or wall boundaries");
        }
      }
    }
  }

  void initialize(const typename Engine<L>::InitFn& init) override {
    if (this->time() % 2 == 1) {
      throw std::logic_error("AaEngine: initialize() only at even timesteps");
    }
    Base::initialize(init);
  }
};

}  // namespace mlbm
