// Finite-difference velocity boundary conditions for channel flow.
//
// The paper's proxy applications "simulate flow in a rectangular 2D or 3D
// channel, using bounceback boundary conditions at the channel walls and
// finite difference boundary conditions at the inlet and outlet" (Latt et
// al. 2008, the regularized finite-difference variant).
//
// Bounceback is handled inside the engines' streaming (see streaming.hpp and
// the MR scatter). This module implements the inlet/outlet planes as a
// post-step pass over the engine's moment interface:
//
//   inlet  (x = 0)      u imposed, rho extrapolated from the first interior
//                       node, Pi^neq rebuilt from the finite-difference
//                       strain rate:  Pi^neq = -2 rho cs2 tau S,
//                       S_ab = (d_a u_b + d_b u_a)/2;
//   outlet (x = nx-1)   rho imposed, u extrapolated (zero gradient), Pi^neq
//                       from the same finite-difference reconstruction.
//
// Normal derivatives use second-order one-sided differences into the
// interior (evaluated on the freshly updated t+1 field); tangential
// derivatives use central differences of the prescribed (inlet) or
// extrapolated (outlet) plane values. Because the pass talks to engines only
// through read_moments/write_moments (reading each plane it needs once per
// pass), ST, MR and reference engines share it verbatim, which the
// equivalence tests rely on.
#pragma once

#include <array>
#include <vector>

#include "engines/engine.hpp"
#include "util/types.hpp"

namespace mlbm {

template <class L>
class InletOutletBC {
 public:
  /// `inlet_u[y + ny * z]` is the prescribed inlet velocity at (0, y, z).
  InletOutletBC(Box box, std::vector<std::array<real_t, 3>> inlet_u,
                real_t outlet_rho = 1);

  /// Applies both planes to the engine's current (post-step) state.
  void apply(Engine<L>& eng) const;

  [[nodiscard]] const std::array<real_t, 3>& inlet_velocity(int y,
                                                            int z) const {
    return inlet_u_[static_cast<std::size_t>(y) +
                    static_cast<std::size_t>(box_.ny) *
                        static_cast<std::size_t>(z)];
  }
  [[nodiscard]] real_t outlet_rho() const { return outlet_rho_; }

 private:
  Box box_;
  std::vector<std::array<real_t, 3>> inlet_u_;
  real_t outlet_rho_;
};

extern template class InletOutletBC<D2Q9>;
extern template class InletOutletBC<D3Q19>;
extern template class InletOutletBC<D3Q27>;
extern template class InletOutletBC<D3Q15>;

}  // namespace mlbm
