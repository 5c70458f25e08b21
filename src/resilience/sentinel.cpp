#include "resilience/sentinel.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace mlbm::resilience {

std::string SentinelReport::describe() const {
  if (healthy) return "healthy";
  const char* r = "unknown";
  switch (reason) {
    case Reason::kNone: r = "none"; break;
    case Reason::kNonFinite: r = "non-finite moment"; break;
    case Reason::kDensityBound: r = "density out of bounds"; break;
    case Reason::kVelocityBound: r = "velocity out of bounds"; break;
  }
  return std::string(r) + " at (" + std::to_string(x) + ", " +
         std::to_string(y) + ", " + std::to_string(z) +
         "), value=" + std::to_string(static_cast<double>(value));
}

template <class L>
SentinelReport StabilitySentinel<L>::check(const Engine<L>& eng) const {
  const Box& b = eng.geometry().box;
  const int stride =
      cfg_.sample_stride > 0 ? cfg_.sample_stride : std::max(1, b.nx / 16);

  SentinelReport rep;
  auto fail = [&rep](SentinelReport::Reason why, int x, int y, int z,
                     real_t v) {
    rep.healthy = false;
    rep.reason = why;
    rep.x = x;
    rep.y = y;
    rep.z = z;
    rep.value = v;
  };

  const Geometry& geo = eng.geometry();
  const bool any_solid = geo.has_solids();
  std::vector<Moments<L>> row(static_cast<std::size_t>(b.nx));
  for (int z = 0; z < b.nz; ++z) {
    for (int y = 0; y < b.ny; y += stride) {
      eng.read_moments(NodeRange::row(0, b.nx, y, z), row);
      for (int x = 0; x < b.nx; x += stride) {
        // Solid nodes carry no state and report the canonical blanked
        // moments (rho = 0, inside no density band): they are not part of
        // the stability question.
        if (any_solid && geo.solid(x, y, z)) continue;
        const Moments<L>& m = row[static_cast<std::size_t>(x)];
        if (!std::isfinite(m.rho)) {
          fail(SentinelReport::Reason::kNonFinite, x, y, z, m.rho);
          return rep;
        }
        if (m.rho <= cfg_.min_rho || m.rho >= cfg_.max_rho) {
          fail(SentinelReport::Reason::kDensityBound, x, y, z, m.rho);
          return rep;
        }
        for (int a = 0; a < L::D; ++a) {
          const real_t ua = m.u[static_cast<std::size_t>(a)];
          if (!std::isfinite(ua)) {
            fail(SentinelReport::Reason::kNonFinite, x, y, z, ua);
            return rep;
          }
          if (std::abs(ua) > cfg_.max_speed) {
            fail(SentinelReport::Reason::kVelocityBound, x, y, z, ua);
            return rep;
          }
        }
        if (cfg_.check_pi) {
          for (int p = 0; p < Moments<L>::NP; ++p) {
            const real_t pp = m.pi[static_cast<std::size_t>(p)];
            if (!std::isfinite(pp)) {
              fail(SentinelReport::Reason::kNonFinite, x, y, z, pp);
              return rep;
            }
          }
        }
      }
    }
  }
  return rep;
}

template class StabilitySentinel<D2Q9>;
template class StabilitySentinel<D3Q19>;
template class StabilitySentinel<D3Q27>;
template class StabilitySentinel<D3Q15>;

}  // namespace mlbm::resilience
