#include "workloads/cavity.hpp"

namespace mlbm {

template <class L>
LidDrivenCavity<L> LidDrivenCavity<L>::create(int n, real_t u_lid) {
  Box box{n, n, L::D == 2 ? 1 : n};
  Geometry geo(box);
  geo.bc.set_axis(0, FaceBC::kWall);
  geo.bc.set_axis(1, FaceBC::kWall);
  geo.bc.set_axis(2, L::D == 3 ? FaceBC::kWall : FaceBC::kPeriodic);
  const int lid_axis = (L::D == 2) ? 1 : 2;
  geo.bc.face[static_cast<std::size_t>(lid_axis)][1].u_wall = {u_lid, 0, 0};
  return {std::move(geo), u_lid};
}

template <class L>
void LidDrivenCavity<L>::attach(Engine<L>& eng) const {
  eng.initialize([](int, int, int) {
    return equilibrium_moments<L>(real_t(1), {});
  });
}

template <class L>
real_t LidDrivenCavity<L>::total_mass(const Engine<L>& eng) {
  const Box& b = eng.geometry().box;
  real_t m = 0;
  for_each_row(eng, NodeRange{0, b.nx, 0, b.ny, 0, b.nz},
               [&m](int, int, std::span<const Moments<L>> row) {
                 for (const Moments<L>& n : row) m += n.rho;
               });
  return m;
}

template struct LidDrivenCavity<D2Q9>;
template struct LidDrivenCavity<D3Q19>;
template struct LidDrivenCavity<D3Q27>;
template struct LidDrivenCavity<D3Q15>;

}  // namespace mlbm
