#include "geometry/geometry.hpp"

#include <cstring>

namespace mlbm {

namespace {

template <class T>
std::uint64_t fnv1a_pod(std::uint64_t h, const T& v) {
  return fnv1a(h, &v, sizeof(T));
}

}  // namespace

std::uint64_t Geometry::hash() const {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a_pod(h, box.nx);
  h = fnv1a_pod(h, box.ny);
  h = fnv1a_pod(h, box.nz);
  for (int a = 0; a < 3; ++a) {
    for (int side = 0; side < 2; ++side) {
      const FaceSpec& f = bc.face[static_cast<std::size_t>(a)]
                                 [static_cast<std::size_t>(side)];
      h = fnv1a_pod(h, static_cast<std::uint8_t>(f.type));
      for (real_t u : f.u_wall) h = fnv1a_pod(h, u);
    }
  }
  h = fnv1a(h, kind.data(), kind.size() * sizeof(NodeKind));
  return h;
}

TileStats TileMap::stats() const {
  TileStats s;
  s.cells = cells;
  s.n_fluid = n_fluid;
  s.n_fluid_tiles = static_cast<int>(fluid_tiles.size());
  s.n_mixed_tiles = static_cast<int>(mixed_tiles.size());
  s.n_solid_tiles = ntiles() - s.n_fluid_tiles - s.n_mixed_tiles;
  s.n_slots = n_slots();
  return s;
}

TileMap TileMap::build(const Box& box, const std::vector<NodeKind>& kind) {
  TileMap m;
  const bool is3d = box.nz > 1;
  m.tdx = is3d ? 4 : 8;
  m.tdy = is3d ? 4 : 8;
  m.tdz = is3d ? 4 : 1;
  m.nx = box.nx;
  m.ny = box.ny;
  m.nz = box.nz;
  m.ntx = (box.nx + m.tdx - 1) / m.tdx;
  m.nty = (box.ny + m.tdy - 1) / m.tdy;
  m.ntz = (box.nz + m.tdz - 1) / m.tdz;
  m.cells = box.cells();

  const int ntiles = m.ntiles();
  m.cls.assign(static_cast<std::size_t>(ntiles), TileClass::kAllSolid);
  m.slot.assign(static_cast<std::size_t>(ntiles), -1);
  m.mixed_begin.push_back(0);

  for (int tz = 0; tz < m.ntz; ++tz) {
    for (int ty = 0; ty < m.nty; ++ty) {
      for (int tx = 0; tx < m.ntx; ++tx) {
        const int tile = m.tile_id(tx, ty, tz);
        const int x0 = tx * m.tdx, y0 = ty * m.tdy, z0 = tz * m.tdz;
        const bool full = x0 + m.tdx <= box.nx && y0 + m.tdy <= box.ny &&
                          z0 + m.tdz <= box.nz;
        std::uint64_t mask = 0;
        int n_in_box = 0, n_fluid = 0;
        for (int lz = 0; lz < m.tdz; ++lz) {
          for (int ly = 0; ly < m.tdy; ++ly) {
            for (int lx = 0; lx < m.tdx; ++lx) {
              const int x = x0 + lx, y = y0 + ly, z = z0 + lz;
              if (!box.inside(x, y, z)) continue;
              ++n_in_box;
              if (kind[static_cast<std::size_t>(box.idx(x, y, z))] !=
                  NodeKind::kSolid) {
                ++n_fluid;
                mask |= 1ull << ((lz * m.tdy + ly) * m.tdx + lx);
              }
            }
          }
        }
        m.n_fluid += n_fluid;
        if (n_fluid == 0) {
          m.cls[static_cast<std::size_t>(tile)] = TileClass::kAllSolid;
          continue;
        }
        const int slot = m.n_slots();
        m.slot[static_cast<std::size_t>(tile)] =
            static_cast<std::int32_t>(slot);
        m.slot_tile.push_back(static_cast<std::int32_t>(tile));
        if (full && n_fluid == kSlots) {
          m.cls[static_cast<std::size_t>(tile)] = TileClass::kAllFluid;
          m.fluid_tiles.push_back(static_cast<std::int32_t>(tile));
        } else {
          m.cls[static_cast<std::size_t>(tile)] = TileClass::kMixed;
          m.mixed_tiles.push_back(static_cast<std::int32_t>(tile));
          m.mixed_mask.push_back(mask);
          for (int local = 0; local < kSlots; ++local) {
            if (mask >> local & 1u) {
              m.mixed_local.push_back(static_cast<std::uint16_t>(local));
            }
          }
          m.mixed_begin.push_back(
              static_cast<std::int32_t>(m.mixed_local.size()));
        }
      }
    }
  }
  return m;
}

}  // namespace mlbm
