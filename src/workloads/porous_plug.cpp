#include "workloads/porous_plug.hpp"

#include <utility>
#include <vector>

#include "geometry/shapes.hpp"
#include "util/error.hpp"

namespace mlbm {

template <class L>
PorousPlug<L> PorousPlug<L>::create(int nx, int ny, int nz, real_t tau,
                                    real_t u_in, double solid_fraction,
                                    std::uint64_t seed, int margin) {
  if constexpr (L::D == 2) {
    if (nz != 1) throw ConfigError("2D porous plug requires nz == 1");
  } else {
    if (nz < 2) throw ConfigError("3D porous plug requires nz >= 2");
  }
  if (solid_fraction < 0 || solid_fraction >= 1) {
    throw ConfigError("porous plug: solid fraction must be in [0, 1)");
  }
  if (2 * margin + 2 >= nx) {
    throw ConfigError("porous plug: margins leave no porous interior");
  }

  Box box{nx, ny, nz};
  Geometry geo(box);
  geo.bc.set_axis(0, FaceBC::kOpen);
  geo.bc.set_axis(1, FaceBC::kWall);
  geo.bc.set_axis(2, L::D == 3 ? FaceBC::kWall : FaceBC::kPeriodic);

  std::vector<std::array<real_t, 3>> inlet(
      static_cast<std::size_t>(ny) * static_cast<std::size_t>(nz),
      {u_in, 0, 0});
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      geo.set(0, y, z, NodeKind::kInlet);
      geo.set(nx - 1, y, z, NodeKind::kOutlet);
    }
  }

  // Stamp the whole box, then clear the entry/exit margins: the voxelizer's
  // per-node hash keeps the interior pattern identical for a given seed
  // regardless of the margin width.
  shapes::add_random_solids(geo, solid_fraction, seed);
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 1; x <= margin; ++x) {
        if (geo.solid(x, y, z)) geo.set(x, y, z, NodeKind::kFluid);
      }
      for (int x = nx - 1 - margin; x < nx - 1; ++x) {
        if (geo.solid(x, y, z)) geo.set(x, y, z, NodeKind::kFluid);
      }
    }
  }

  const auto interior =
      static_cast<double>(nx - 2 - 2 * margin) * ny * nz;
  double fluid = 0;
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = margin + 1; x < nx - 1 - margin; ++x) {
        fluid += !geo.solid(x, y, z);
      }
    }
  }

  PorousPlug plug{std::move(geo), tau, u_in, fluid / interior,
                  std::make_shared<InletOutletBC<L>>(box, std::move(inlet))};
  return plug;
}

template <class L>
void PorousPlug<L>::attach(Engine<L>& eng) const {
  const auto bc_ptr = bc;
  const real_t u0 = u_in;
  eng.initialize([u0](int, int, int) {
    std::array<real_t, L::D> u{};
    u[0] = u0;
    return equilibrium_moments<L>(real_t(1), u);
  });
  eng.set_post_step([bc_ptr](Engine<L>& e) { bc_ptr->apply(e); });
}

template <class L>
real_t PorousPlug<L>::superficial_velocity(const Engine<L>& eng) const {
  const Box& b = geo.box;
  real_t sum = 0;
  long long n = 0;
  for_each_row(eng, NodeRange{1, b.nx - 1, 0, b.ny, 0, b.nz},
               [&](int, int, std::span<const Moments<L>> row) {
                 for (const Moments<L>& m : row) {
                   sum += m.u[0];  // solids report zero
                   ++n;
                 }
               });
  return sum / static_cast<real_t>(n);
}

template struct PorousPlug<D2Q9>;
template struct PorousPlug<D3Q19>;
template struct PorousPlug<D3Q27>;
template struct PorousPlug<D3Q15>;

}  // namespace mlbm
