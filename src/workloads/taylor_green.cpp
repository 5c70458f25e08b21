#include "workloads/taylor_green.hpp"

#include "util/error.hpp"

#include <cmath>
#include <stdexcept>

namespace mlbm {

namespace {
constexpr real_t kPi = 3.14159265358979323846;
}

template <class L>
TaylorGreen<L> TaylorGreen<L>::create(int n, real_t u0, int nz) {
  if constexpr (L::D == 2) {
    if (nz != 1) throw ConfigError("2D Taylor-Green requires nz==1");
  }
  Box box{n, n, L::D == 2 ? 1 : nz};
  Geometry geo(box);
  geo.bc.set_axis(0, FaceBC::kPeriodic);
  geo.bc.set_axis(1, FaceBC::kPeriodic);
  geo.bc.set_axis(2, FaceBC::kPeriodic);
  return {n, u0, std::move(geo)};
}

template <class L>
std::array<real_t, 2> TaylorGreen<L>::velocity(int x, int y, real_t nu,
                                               real_t t) const {
  const real_t k = real_t(2) * kPi / n;
  const real_t decay = std::exp(-real_t(2) * nu * k * k * t);
  return {-u0 * std::cos(k * x) * std::sin(k * y) * decay,
          u0 * std::sin(k * x) * std::cos(k * y) * decay};
}

template <class L>
void TaylorGreen<L>::attach(Engine<L>& eng) const {
  const real_t k = real_t(2) * kPi / n;
  const real_t u0v = u0;
  const real_t tau = eng.tau();
  const int nn = n;

  eng.initialize([k, u0v, tau, nn](int x, int y, int /*z*/) {
    const real_t cx = std::cos(k * x), sx = std::sin(k * x);
    const real_t cy = std::cos(k * y), sy = std::sin(k * y);

    Moments<L> m;
    // Pressure field of the analytic solution: p = -rho0 u0^2/4 (cos 2kx +
    // cos 2ky); rho = 1 + p / cs2.
    const real_t p = -u0v * u0v / 4 *
                     (std::cos(2 * k * x) + std::cos(2 * k * y));
    m.rho = 1 + p / L::cs2;
    m.u.fill(0);
    m.u[0] = -u0v * cx * sy;
    m.u[1] = u0v * sx * cy;

    // Strain rate of the initial field: S_xx = u0 k sx sy = -S_yy, S_xy = 0.
    const real_t sxx = u0v * k * sx * sy;
    real_t s[3][3] = {};
    s[0][0] = sxx;
    s[1][1] = -sxx;

    for (int pidx = 0; pidx < Moments<L>::NP; ++pidx) {
      const auto [a, b] = Moments<L>::pair(pidx);
      const real_t pineq = -2 * m.rho * L::cs2 * tau * s[a][b];
      m.pi[static_cast<std::size_t>(pidx)] =
          m.rho * m.u[static_cast<std::size_t>(a)] *
              m.u[static_cast<std::size_t>(b)] +
          pineq;
    }
    (void)nn;
    return m;
  });
}

template <class L>
real_t TaylorGreen<L>::kinetic_energy(const Engine<L>& eng) {
  const Box& b = eng.geometry().box;
  real_t e = 0;
  for_each_row(eng, NodeRange{0, b.nx, 0, b.ny, 0, b.nz},
               [&e](int, int, std::span<const Moments<L>> row) {
                 for (const Moments<L>& m : row) {
                   real_t uu = 0;
                   for (int a = 0; a < L::D; ++a) {
                     uu += m.u[static_cast<std::size_t>(a)] *
                           m.u[static_cast<std::size_t>(a)];
                   }
                   e += real_t(0.5) * m.rho * uu;
                 }
               });
  return e;
}

template struct TaylorGreen<D2Q9>;
template struct TaylorGreen<D3Q19>;
template struct TaylorGreen<D3Q27>;
template struct TaylorGreen<D3Q15>;

}  // namespace mlbm
