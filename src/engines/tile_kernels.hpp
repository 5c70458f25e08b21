// Device-side tile index of the distribution-engine chassis' tile loop.
//
// The sparse engines map one simulated thread to one *tile* (the analogue of
// a thread block owning a tile on a real GPU): the thread loads the tile's
// 3^D neighbour-tile slots from the slot grid once into a register stash,
// then sweeps the tile's 64 locals with purely arithmetic neighbour
// addressing. All index structures live in counted GlobalArrays, so the
// indirection overhead — the tile-id list entry, the slot-grid stash and the
// mixed-tile occupancy mask — is part of the measured byte budget (about
// (3^D)*4/64 bytes per node; the perfmodel's sparse crossover term).
//
// Tile lists are sorted by tile x so a frontier/interior split step can
// launch contiguous list ranges: the left frontier is a prefix, the right
// frontier a suffix (see FrontierTilePartition).
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "geometry/geometry.hpp"
#include "gpusim/global_array.hpp"

namespace mlbm {

/// Tile-grid extents, copied by value into kernel bodies.
struct TileGridInfo {
  int tdx = 1, tdy = 1, tdz = 1;
  int ntx = 1, nty = 1, ntz = 1;
};

/// Counted device copies of the TileMap structures one sparse engine needs.
struct TileIndexDev {
  gpusim::GlobalArray<std::int32_t> slots;  ///< tile id -> slot (-1 none)
  gpusim::GlobalArray<std::int32_t> fluid;  ///< all-fluid tile ids, by tx
  gpusim::GlobalArray<std::int32_t> mixed;  ///< mixed tile ids, by tx
  gpusim::GlobalArray<std::uint64_t> mask;  ///< occupancy, parallel to mixed
  TileGridInfo grid;
  int n_fluid_tiles = 0;
  int n_mixed_tiles = 0;

  void build(const TileMap& tm, gpusim::TrafficCounter* counter) {
    grid = TileGridInfo{tm.tdx, tm.tdy, tm.tdz, tm.ntx, tm.nty, tm.ntz};
    slots.allocate(tm.slot.size(), counter);
    for (std::size_t i = 0; i < tm.slot.size(); ++i) {
      slots.raw(static_cast<index_t>(i)) = tm.slot[i];
    }
    // Sort both lists by tile x (stable: ties keep tile-id order) so split
    // steps launch contiguous ranges.
    const auto tx_of = [&](std::int32_t tile) { return tile % tm.ntx; };
    std::vector<std::int32_t> f = tm.fluid_tiles;
    std::stable_sort(f.begin(), f.end(), [&](std::int32_t a, std::int32_t b) {
      return tx_of(a) < tx_of(b);
    });
    std::vector<std::size_t> morder(tm.mixed_tiles.size());
    for (std::size_t i = 0; i < morder.size(); ++i) morder[i] = i;
    std::stable_sort(morder.begin(), morder.end(),
                     [&](std::size_t a, std::size_t b) {
                       return tx_of(tm.mixed_tiles[a]) <
                              tx_of(tm.mixed_tiles[b]);
                     });
    n_fluid_tiles = static_cast<int>(f.size());
    n_mixed_tiles = static_cast<int>(morder.size());
    fluid.allocate(f.size(), counter);
    for (std::size_t i = 0; i < f.size(); ++i) {
      fluid.raw(static_cast<index_t>(i)) = f[i];
    }
    mixed.allocate(morder.size(), counter);
    mask.allocate(morder.size(), counter);
    for (std::size_t i = 0; i < morder.size(); ++i) {
      mixed.raw(static_cast<index_t>(i)) = tm.mixed_tiles[morder[i]];
      mask.raw(static_cast<index_t>(i)) = tm.mixed_mask[morder[i]];
    }
  }

  [[nodiscard]] std::size_t bytes() const {
    return slots.size_bytes() + fluid.size_bytes() + mixed.size_bytes() +
           mask.size_bytes();
  }

  /// Registers the index arrays with the sanitizer and replays their host
  /// initialization (they were written at construction, before any sanitizer
  /// existed; without the replay initcheck would flag the first kernel read).
  /// Read-only data: no staleness window.
  void set_sanitizer(gpusim::SanitizerHook* san) {
    slots.set_sanitizer(san, "tile_slots", /*sliding_window=*/false);
    fluid.set_sanitizer(san, "tile_fluid", /*sliding_window=*/false);
    mixed.set_sanitizer(san, "tile_mixed", /*sliding_window=*/false);
    mask.set_sanitizer(san, "tile_mask", /*sliding_window=*/false);
    if (san == nullptr) return;
    const auto replay = [](auto& arr) {
      for (std::size_t i = 0; i < arr.size(); ++i) {
        const auto v = std::as_const(arr).raw(static_cast<index_t>(i));
        arr.raw(static_cast<index_t>(i)) = v;
      }
    };
    replay(slots);
    replay(fluid);
    replay(mixed);
    replay(mask);
  }
};

/// Contiguous tile-list ranges of a frontier/interior split: [0, left) and
/// [right, n) are frontier, [left, right) interior. degenerate() means the
/// regions overlap (slab thinner than a tile) — run the whole step frontier.
struct TileRange {
  int left = 0;
  int right = 0;
  int n = 0;
  [[nodiscard]] bool degenerate() const { return left > right; }
};

/// Partition of a tx-sorted tile list for frontier planes [0, fl) and
/// [nx - fr, nx): a tile with origin x0 = tx*tdx covering [x0, x0 + tdx) is
/// left-frontier iff x0 < fl and right-frontier iff x0 + tdx > nx - fr.
template <class ArrayT>
TileRange partition_tiles(const ArrayT& list, int count, int tdx, int ntx,
                          int nx, int fl, int fr) {
  TileRange r;
  r.n = count;
  r.left = 0;
  if (fl > 0) {
    while (r.left < count && (list.raw(r.left) % ntx) * tdx < fl) ++r.left;
  }
  r.right = count;
  if (fr > 0) {
    while (r.right > 0 &&
           (list.raw(r.right - 1) % ntx) * tdx + tdx > nx - fr) {
      --r.right;
    }
  }
  return r;
}

/// Loads the 3^D neighbour-tile slots of tile (tx, ty, tz) into `stash`
/// (indexed [(dz+1)*9 + (dy+1)*3 + (dx+1)]). Tile-grid coordinates wrap
/// toroidally — consistent with node-level periodic wrap for any box size,
/// and never consulted for links resolve_stream turns into bounces/drops.
/// Counted: 9 (2D) or 27 (3D) int32 loads per tile per launch.
inline void load_tile_stash(const gpusim::GlobalArray<std::int32_t>& slots,
                            const TileGridInfo& g, int tx, int ty, int tz,
                            bool is3d, std::int32_t (&stash)[27]) {
  const int dzlo = is3d ? -1 : 0;
  const int dzhi = is3d ? 1 : 0;
  for (int dz = dzlo; dz <= dzhi; ++dz) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        int nx_ = tx + dx, ny_ = ty + dy, nz_ = tz + dz;
        nx_ = Box::wrap(nx_, g.ntx);
        ny_ = Box::wrap(ny_, g.nty);
        nz_ = Box::wrap(nz_, g.ntz);
        stash[(dz + 1) * 9 + (dy + 1) * 3 + (dx + 1)] =
            slots.load(((static_cast<index_t>(nz_) * g.nty + ny_) * g.ntx) +
                       nx_);
      }
    }
  }
}

/// Compressed element index of node (X, Y, Z) — already wrapped in-box —
/// resolved through the stash of tile (tx, ty, tz). Valid only for non-solid
/// destinations (their tiles are allocated, so the stash entry is >= 0).
inline index_t stash_elem(const std::int32_t (&stash)[27],
                          const TileGridInfo& g, int tx, int ty, int tz,
                          int X, int Y, int Z) {
  int dx = X / g.tdx - tx;
  int dy = Y / g.tdy - ty;
  int dz = Z / g.tdz - tz;
  if (dx > 1) dx -= g.ntx;
  if (dx < -1) dx += g.ntx;
  if (dy > 1) dy -= g.nty;
  if (dy < -1) dy += g.nty;
  if (dz > 1) dz -= g.ntz;
  if (dz < -1) dz += g.ntz;
  const std::int32_t slot = stash[(dz + 1) * 9 + (dy + 1) * 3 + (dx + 1)];
  const int local =
      ((Z % g.tdz) * g.tdy + (Y % g.tdy)) * g.tdx + (X % g.tdx);
  return static_cast<index_t>(slot) * TileMap::kSlots + local;
}

}  // namespace mlbm
