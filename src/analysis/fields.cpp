#include "analysis/fields.hpp"

#include <algorithm>
#include <cmath>
#include <span>

namespace mlbm::analysis {

namespace {

/// Derivative of u_comp along `axis` at node c, with periodic wrap or
/// one-sided edges; `u(x, y, z, comp)` looks the velocity up.
template <class U>
real_t d_u(const Geometry& geo, const U& u, const int (&c)[3], int comp,
           int axis) {
  const int n = geo.box.extent(axis);
  if (n < 2) return 0;
  auto at = [&](int v) {
    int p[3] = {c[0], c[1], c[2]};
    p[axis] = v;
    return u(p[0], p[1], p[2], comp);
  };
  const int v = c[axis];
  if (geo.bc.periodic(axis)) {
    return real_t(0.5) * (at(Box::wrap(v + 1, n)) - at(Box::wrap(v - 1, n)));
  }
  if (v == 0) return at(1) - at(0);
  if (v == n - 1) return at(n - 1) - at(n - 2);
  return real_t(0.5) * (at(v + 1) - at(v - 1));
}

template <class L, class U>
std::array<std::array<real_t, 3>, 3> gradient(const Geometry& geo, const U& u,
                                              int x, int y, int z) {
  const int c[3] = {x, y, z};
  std::array<std::array<real_t, 3>, 3> du{};
  for (int a = 0; a < L::D; ++a) {
    for (int b = 0; b < L::D; ++b) {
      du[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          d_u(geo, u, c, a, b);
    }
  }
  return du;
}

/// omega = curl u; in 2D only omega_z = dv/dx - du/dy survives.
template <class L>
std::array<real_t, 3> curl(const std::array<std::array<real_t, 3>, 3>& du) {
  std::array<real_t, 3> w{};
  if constexpr (L::D == 3) {
    w[0] = du[2][1] - du[1][2];
    w[1] = du[0][2] - du[2][0];
  }
  w[2] = du[1][0] - du[0][1];
  return w;
}

/// Chapman-Enskog: Pi^neq = -2 rho cs2 tau S.
template <class L>
std::array<std::array<real_t, 3>, 3> strain_from(const Moments<L>& m,
                                                 real_t tau) {
  const real_t denom = -real_t(2) * m.rho * L::cs2 * tau;
  std::array<std::array<real_t, 3>, 3> s{};
  for (int p = 0; p < Moments<L>::NP; ++p) {
    const auto [a, b] = Moments<L>::pair(p);
    const real_t v = m.pi_neq(p) / denom;
    s[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = v;
    s[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = v;
  }
  return s;
}

}  // namespace

template <class L>
std::array<std::array<real_t, 3>, 3> velocity_gradient(const Engine<L>& eng,
                                                       int x, int y, int z) {
  // A per-node query: its stencil reads through the one-node wrapper.
  const auto u = [&eng](int xx, int yy, int zz, int comp) {
    return eng.moments_at(xx, yy, zz).u[static_cast<std::size_t>(comp)];
  };
  return gradient<L>(eng.geometry(), u, x, y, z);
}

template <class L>
std::array<real_t, 3> vorticity(const Engine<L>& eng, int x, int y, int z) {
  return curl<L>(velocity_gradient(eng, x, y, z));
}

template <class L>
std::array<std::array<real_t, 3>, 3> strain_rate_fd(const Engine<L>& eng,
                                                    int x, int y, int z) {
  const auto du = velocity_gradient(eng, x, y, z);
  std::array<std::array<real_t, 3>, 3> s{};
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      s[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          real_t(0.5) *
          (du[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] +
           du[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)]);
    }
  }
  return s;
}

template <class L>
std::array<std::array<real_t, 3>, 3> strain_rate_moment(const Engine<L>& eng,
                                                        int x, int y, int z) {
  return strain_from<L>(eng.moments_at(x, y, z), eng.tau());
}

template <class L>
real_t enstrophy(const Engine<L>& eng) {
  // Streams slices along the slowest axis (rows in 2D, z-planes in 3D)
  // through read_moments: slice s and the neighbours its differences touch.
  const Geometry& geo = eng.geometry();
  const Box& b = geo.box;
  constexpr int kAxis = L::D == 2 ? 1 : 2;
  const int n = b.extent(kAxis);
  const int ny = L::D == 2 ? 1 : b.ny;
  const auto slice = [&](int k) {
    return L::D == 2 ? NodeRange::row(0, b.nx, k, 0)
                     : NodeRange{0, b.nx, 0, b.ny, k, k + 1};
  };
  std::vector<Moments<L>> buf[3];
  for (auto& v : buf) v.resize(slice(0).size());
  int key[3];
  const auto u = [&](int x, int y, int z, int comp) {
    const int k = L::D == 2 ? y : z;
    const auto j = static_cast<std::size_t>(k == key[0] ? 0 : k == key[1] ? 1 : 2);
    const auto at = static_cast<std::size_t>(L::D == 2 ? 0 : y) *
                        static_cast<std::size_t>(b.nx) +
                    static_cast<std::size_t>(x);
    return buf[j][at].u[static_cast<std::size_t>(comp)];
  };
  const bool periodic = geo.bc.periodic(kAxis);
  real_t total = 0;
  for (int s = 0; s < n; ++s) {
    key[0] = periodic ? Box::wrap(s - 1, n) : std::max(s - 1, 0);
    key[1] = s;
    key[2] = periodic ? Box::wrap(s + 1, n) : std::min(s + 1, n - 1);
    for (int j = 0; j < 3; ++j) eng.read_moments(slice(key[j]), buf[j]);
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < b.nx; ++x) {
        const auto w = L::D == 2 ? curl<L>(gradient<L>(geo, u, x, s, 0))
                                 : curl<L>(gradient<L>(geo, u, x, y, s));
        total += real_t(0.5) * (w[0] * w[0] + w[1] * w[1] + w[2] * w[2]);
      }
    }
  }
  return total;
}

template <class L>
real_t dissipation(const Engine<L>& eng) {
  const Box& b = eng.geometry().box;
  const real_t two_nu = 2 * eng.viscosity();
  real_t total = 0;
  for_each_row(eng, NodeRange{0, b.nx, 0, b.ny, 0, b.nz},
               [&](int, int, std::span<const Moments<L>> row) {
                 for (const Moments<L>& m : row) {
                   const auto s = strain_from<L>(m, eng.tau());
                   real_t ss = 0;
                   for (int a = 0; a < L::D; ++a) {
                     for (int c = 0; c < L::D; ++c) {
                       ss += s[static_cast<std::size_t>(a)]
                              [static_cast<std::size_t>(c)] *
                             s[static_cast<std::size_t>(a)]
                              [static_cast<std::size_t>(c)];
                     }
                   }
                   total += two_nu * ss;
                 }
               });
  return total;
}

template <class L>
real_t mass_flux_x(const Engine<L>& eng, int x) {
  const Box& b = eng.geometry().box;
  std::vector<Moments<L>> plane(static_cast<std::size_t>(b.ny) *
                                static_cast<std::size_t>(b.nz));
  eng.read_moments(NodeRange::x_planes(b, x, x + 1), plane);
  real_t flux = 0;
  for (const Moments<L>& m : plane) flux += m.rho * m.u[0];
  return flux;
}

#define MLBM_ANALYSIS_INST(L)                                               \
  template std::array<std::array<real_t, 3>, 3> velocity_gradient<L>(      \
      const Engine<L>&, int, int, int);                                    \
  template std::array<real_t, 3> vorticity<L>(const Engine<L>&, int, int,  \
                                              int);                        \
  template std::array<std::array<real_t, 3>, 3> strain_rate_fd<L>(         \
      const Engine<L>&, int, int, int);                                    \
  template std::array<std::array<real_t, 3>, 3> strain_rate_moment<L>(     \
      const Engine<L>&, int, int, int);                                    \
  template real_t enstrophy<L>(const Engine<L>&);                          \
  template real_t dissipation<L>(const Engine<L>&);                        \
  template real_t mass_flux_x<L>(const Engine<L>&, int);

MLBM_ANALYSIS_INST(mlbm::D2Q9)
MLBM_ANALYSIS_INST(mlbm::D3Q19)
MLBM_ANALYSIS_INST(mlbm::D3Q15)
MLBM_ANALYSIS_INST(mlbm::D3Q27)
#undef MLBM_ANALYSIS_INST

}  // namespace mlbm::analysis
