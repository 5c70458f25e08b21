// Shared streaming-destination resolution for push-style scatters.
//
// Given a source node and a discrete velocity, classifies where the
// post-collision population goes: an interior (possibly periodically
// wrapped) node, back into the source node via half-way bounceback, or out
// of the domain through an open face.
#pragma once

#include "geometry/geometry.hpp"
#include "core/lattice.hpp"
#include "util/types.hpp"

namespace mlbm {

struct StreamTarget {
  enum class Kind { kInterior, kBounce, kDropped };
  Kind kind = Kind::kInterior;
  int x = 0, y = 0, z = 0;  ///< destination node (valid for kInterior)
  /// Sum over crossed wall faces of c_i . u_wall; the moving-wall bounceback
  /// correction is -2 w_i rho cu_wall / cs2 (valid for kBounce).
  real_t cu_wall = 0;
};

/// Always inlined, like compute_moments (core/moments.hpp): every kernel
/// resolves links per node, and an out-of-line copy is whichever one the
/// linker keeps, compiled by another TU at another optimization level.
template <class L>
[[gnu::always_inline]] inline StreamTarget resolve_stream(const Geometry& geo,
                                                          int x, int y, int z,
                                                          int i) {
  const auto& c = L::c[static_cast<std::size_t>(i)];
  int d[3] = {x + c[0], y + c[1], z + c[2]};
  const int n[3] = {geo.box.nx, geo.box.ny, geo.box.nz};

  StreamTarget t;
  bool bounce = false;
  bool dropped = false;
  for (int a = 0; a < 3; ++a) {
    if (d[a] >= 0 && d[a] < n[a]) continue;
    const FaceSpec& face = geo.bc.face[static_cast<std::size_t>(a)][d[a] < 0 ? 0 : 1];
    switch (face.type) {
      case FaceBC::kPeriodic:
        d[a] = Box::wrap(d[a], n[a]);
        break;
      case FaceBC::kWall:
        bounce = true;
        for (int b = 0; b < 3; ++b) {
          t.cu_wall += static_cast<real_t>(c[b]) * face.u_wall[static_cast<std::size_t>(b)];
        }
        break;
      case FaceBC::kOpen:
        dropped = true;
        break;
    }
  }

  // A population leaving through an open face is gone even if the link also
  // grazes a wall corner; open faces dominate.
  if (dropped) {
    t.kind = StreamTarget::Kind::kDropped;
  } else if (bounce) {
    t.kind = StreamTarget::Kind::kBounce;
  } else if (geo.has_solids() && geo.solid(d[0], d[1], d[2])) {
    // Solid obstacle node: half-way bounceback off a static surface, same
    // reflection as a wall face but with zero wall velocity. The has_solids
    // guard keeps dense geometries on the exact pre-existing path.
    t.kind = StreamTarget::Kind::kBounce;
  } else {
    t.kind = StreamTarget::Kind::kInterior;
    t.x = d[0];
    t.y = d[1];
    t.z = d[2];
  }
  return t;
}

}  // namespace mlbm
