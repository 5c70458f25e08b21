#include "bc/boundary.hpp"

#include "util/error.hpp"

#include <span>
#include <stdexcept>
#include <vector>

namespace mlbm {

namespace {

/// du[a][b] = d u_a / d x_b -> Pi^neq = -2 rho cs2 tau S.
template <class L>
Moments<L> fd_state(real_t rho, const std::array<real_t, 3>& u,
                    const real_t (&du)[3][3], real_t tau) {
  Moments<L> m;
  m.rho = rho;
  for (int a = 0; a < L::D; ++a) {
    m.u[static_cast<std::size_t>(a)] = u[static_cast<std::size_t>(a)];
  }
  for (int p = 0; p < Moments<L>::NP; ++p) {
    const auto [a, b] = Moments<L>::pair(p);
    const real_t s_ab = real_t(0.5) * (du[a][b] + du[b][a]);
    const real_t pineq = -real_t(2) * rho * L::cs2 * tau * s_ab;
    m.pi[static_cast<std::size_t>(p)] =
        rho * m.u[static_cast<std::size_t>(a)] *
            m.u[static_cast<std::size_t>(b)] +
        pineq;
  }
  return m;
}

}  // namespace

template <class L>
InletOutletBC<L>::InletOutletBC(Box box,
                                std::vector<std::array<real_t, 3>> inlet_u,
                                real_t outlet_rho)
    : box_(box), inlet_u_(std::move(inlet_u)), outlet_rho_(outlet_rho) {
  if (inlet_u_.size() != static_cast<std::size_t>(box_.ny) *
                             static_cast<std::size_t>(box_.nz)) {
    throw ConfigError("InletOutletBC: inlet profile size mismatch");
  }
  if (box_.nx < 4) {
    throw ConfigError(
        "InletOutletBC: nx must be >= 4 for one-sided differences");
  }
}

template <class L>
void InletOutletBC<L>::apply(Engine<L>& eng) const {
  const Geometry& geo = eng.geometry();
  const Box& b = geo.box;
  const real_t tau = eng.tau();

  // Tangential derivative of a plane of velocities, central where possible.
  auto tang = [](const auto& get_u, int coord, int extent, int comp) -> real_t {
    if (extent < 2) return 0;
    if (coord == 0) return get_u(1)[comp] - get_u(0)[comp];
    if (coord == extent - 1) {
      return get_u(extent - 1)[comp] - get_u(extent - 2)[comp];
    }
    return real_t(0.5) * (get_u(coord + 1)[comp] - get_u(coord - 1)[comp]);
  };

  // The pass reads planes 1, 2, nx-3 and nx-2 once and writes only planes 0
  // and nx-1 (nx >= 4), so reading every plane before the first write sees
  // exactly what a node-by-node pass sees.
  const auto plane_n =
      static_cast<std::size_t>(b.ny) * static_cast<std::size_t>(b.nz);
  const auto at = [&b](int y, int z) {
    return static_cast<std::size_t>(z) * static_cast<std::size_t>(b.ny) +
           static_cast<std::size_t>(y);
  };
  std::vector<Moments<L>> p1(plane_n), p2(plane_n), q1(plane_n), q2(plane_n);
  eng.read_moments(NodeRange::x_planes(b, 1, 2), p1);
  eng.read_moments(NodeRange::x_planes(b, 2, 3), p2);
  eng.read_moments(NodeRange::x_planes(b, b.nx - 2, b.nx - 1), q1);
  eng.read_moments(NodeRange::x_planes(b, b.nx - 3, b.nx - 2), q2);

  // Only the nodes the pass sets are written: re-writing a state it merely
  // read is not a no-op on distribution engines (a write projects out
  // higher-order content). Set nodes are written in runs along y.
  std::vector<Moments<L>> out(static_cast<std::size_t>(b.ny));
  const auto write_runs = [&](int x, NodeKind kind, const auto& state) {
    for (int z = 0; z < b.nz; ++z) {
      for (int y0 = 0; y0 < b.ny;) {
        if (geo.at(x, y0, z) != kind) {
          ++y0;
          continue;
        }
        int y1 = y0;
        for (; y1 < b.ny && geo.at(x, y1, z) == kind; ++y1) {
          out[static_cast<std::size_t>(y1 - y0)] = state(y1, z);
        }
        eng.write_moments(NodeRange{x, x + 1, y0, y1, z, z + 1},
                          std::span<const Moments<L>>(out).first(
                              static_cast<std::size_t>(y1 - y0)));
        y0 = y1;
      }
    }
  };

  // ---- inlet plane (x = 0): velocity prescribed.
  write_runs(0, NodeKind::kInlet, [&](int y, int z) {
    const std::array<real_t, 3>& u0 = inlet_velocity(y, z);
    const Moments<L>& m1 = p1[at(y, z)];
    const Moments<L>& m2 = p2[at(y, z)];
    real_t du[3][3] = {};
    for (int a = 0; a < L::D; ++a) {
      const auto sa = static_cast<std::size_t>(a);
      // Second-order one-sided normal derivative into the flow.
      du[a][0] =
          real_t(0.5) * (-real_t(3) * u0[sa] + real_t(4) * m1.u[sa] - m2.u[sa]);
      // Tangential derivatives of the prescribed profile.
      du[a][1] =
          tang([&](int yy) { return inlet_velocity(yy, z); }, y, b.ny, a);
      if (L::D == 3) {
        du[a][2] =
            tang([&](int zz) { return inlet_velocity(y, zz); }, z, b.nz, a);
      }
    }
    return fd_state<L>(m1.rho, u0, du, tau);
  });

  // ---- outlet plane (x = nx-1): density prescribed, zero-gradient u.
  write_runs(b.nx - 1, NodeKind::kOutlet, [&](int y, int z) {
    const Moments<L>& m1 = q1[at(y, z)];
    const Moments<L>& m2 = q2[at(y, z)];
    std::array<real_t, 3> u0 = {0, 0, 0};
    for (int a = 0; a < L::D; ++a) {
      u0[static_cast<std::size_t>(a)] = m1.u[static_cast<std::size_t>(a)];
    }
    auto plane_u = [&](int yy, int zz) -> const auto& {
      return q1[at(yy, zz)].u;
    };
    real_t du[3][3] = {};
    for (int a = 0; a < L::D; ++a) {
      const auto sa = static_cast<std::size_t>(a);
      // One-sided backward difference; with u(nx-1) extrapolated from
      // u(nx-2) the leading term reduces to the interior difference.
      du[a][0] = m1.u[sa] - m2.u[sa];
      du[a][1] = tang([&](int yy) { return plane_u(yy, z); }, y, b.ny, a);
      if (L::D == 3) {
        du[a][2] = tang([&](int zz) { return plane_u(y, zz); }, z, b.nz, a);
      }
    }
    return fd_state<L>(outlet_rho_, u0, du, tau);
  });
}

template class InletOutletBC<D2Q9>;
template class InletOutletBC<D3Q19>;
template class InletOutletBC<D3Q27>;
template class InletOutletBC<D3Q15>;

}  // namespace mlbm
