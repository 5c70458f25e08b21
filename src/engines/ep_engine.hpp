// Esoteric-Pull single-lattice engine (Lehmann 2022; Montessori et al.'s
// thread-safe in-place streaming family).
//
// Like AA, Esoteric Pull streams in place over ONE distribution lattice
// (half of ST's footprint), but with a paired-direction slot map instead of
// AA's two kernel flavours (EpAddressing): every step pulls one half-set of
// populations from the upwind neighbours and pushes the other half in
// place, and the roles swap with the step parity. In each parity every
// lattice word has a unique reader == writer thread, so the update is
// race-free in place — the invariant the static analyzer re-proves from
// analysis::ep_contract. Every step is a full stream+collide, so the stored
// state is always the post-collision image and the moment reads and writes
// work at any parity.
//
// Boundary links (face walls, open faces, solid neighbours) go through the
// rim, two words [value, density] per blocked link written by the node's
// own scatter and read back by its own gather, so EP stays bit-identical to
// ST at walls, moving walls and open faces in both storage precisions; the
// workload hooks re-impose open-face nodes after the step exactly as for
// ST. On wall-free periodic domains the rim is empty and state_bytes() is
// exactly Q * elem_bytes * N.
#pragma once

#include "engines/dist_engine.hpp"

namespace mlbm {

template <class L, class ST = real_t>
class EpEngine final : public DistEngine<L, ST, EpAddressing> {
 public:
  EpEngine(Geometry geo, real_t tau,
           CollisionScheme scheme = CollisionScheme::kBGK,
           int threads_per_block = 256, ExecMode exec = default_exec_mode())
      : DistEngine<L, ST, EpAddressing>(std::move(geo), tau, scheme,
                                        threads_per_block, exec,
                                        EpAddressing{}) {}
};

}  // namespace mlbm
