// The geometry layer: per-node flags over a box, plus the tile-compressed
// index the sparse engines address through.
//
// A Geometry is the full domain description an engine is constructed from:
// the box extents, the six face boundary conditions, and a per-node NodeKind
// flag field (FluidX3D-style). PRs before this one treated the box itself as
// the domain — every node carried state and every kernel iterated the raw
// box. With kSolid flags that assumption breaks in two steps:
//
//  * has_solids() — any solid node present. Streaming resolution
//    (engines/streaming.hpp) then bounces populations off solid nodes
//    exactly like half-way wall faces, in every engine.
//  * sparse() — the engines allocate tile-compressed state (see
//    tile_map.hpp) instead of dense lattices and iterate the active-tile
//    lists instead of the raw box. A dense geometry (no solids, no
//    force_sparse) keeps the pre-existing code paths bit-identically:
//    same arrays, same loops, same traffic counters.
//
// force_sparse_storage() runs the sparse path on an all-fluid geometry; the
// invariance tests use it to pin sparse == dense on fields while the only
// traffic delta is the (counted, documented) tile-index overhead.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/box.hpp"
#include "geometry/tile_map.hpp"
#include "util/types.hpp"

namespace mlbm {

/// 64-bit FNV-1a: folds `n` bytes at `data` into hash state `h` (start from
/// kFnvOffsetBasis). Geometry::hash and the checkpoint payload digest use it.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Per-node classification grid plus boundary data (inlet velocities etc.).
struct Geometry {
  Box box;
  DomainBC bc;
  std::vector<NodeKind> kind;  // size box.cells()

  explicit Geometry(Box b)
      : box(b), kind(static_cast<std::size_t>(b.cells()), NodeKind::kFluid) {}

  [[nodiscard]] NodeKind at(int x, int y, int z = 0) const {
    return kind[static_cast<std::size_t>(box.idx(x, y, z))];
  }
  void set(int x, int y, int z, NodeKind k) {
    auto& cell = kind[static_cast<std::size_t>(box.idx(x, y, z))];
    n_solid_ += (k == NodeKind::kSolid) - (cell == NodeKind::kSolid);
    cell = k;
    tiles_.reset();
  }

  [[nodiscard]] index_t count(NodeKind k) const {
    index_t n = 0;
    for (auto v : kind) n += (v == k);
    return n;
  }

  // ---- solid flags --------------------------------------------------------
  [[nodiscard]] bool solid(int x, int y, int z = 0) const {
    return kind[static_cast<std::size_t>(box.idx(x, y, z))] ==
           NodeKind::kSolid;
  }
  void set_solid(int x, int y, int z = 0) { set(x, y, z, NodeKind::kSolid); }
  [[nodiscard]] index_t solid_count() const { return n_solid_; }
  [[nodiscard]] index_t fluid_count() const { return box.cells() - n_solid_; }
  [[nodiscard]] bool has_solids() const { return n_solid_ > 0; }

  // ---- storage-path selection --------------------------------------------
  /// True when engines should allocate tile-compressed state. Any solid node
  /// forces it; force_sparse_storage() opts an all-fluid geometry in (test /
  /// bench knob for the sparse-vs-dense overhead comparison).
  [[nodiscard]] bool sparse() const { return has_solids() || force_sparse_; }
  void force_sparse_storage(bool on) { force_sparse_ = on; }
  [[nodiscard]] bool forced_sparse() const { return force_sparse_; }

  // ---- tile index ---------------------------------------------------------
  /// The tile-compressed index, built lazily and cached; mutating the flag
  /// field invalidates it. Copies of a Geometry share the built map (it is
  /// immutable once built).
  [[nodiscard]] const TileMap& tiles() const {
    if (!tiles_) tiles_ = std::make_shared<TileMap>(TileMap::build(box, kind));
    return *tiles_;
  }

  /// FNV-1a over extents, face BCs and the flag field. Checkpoint format v3
  /// records it so a restore onto a different geometry fails loudly instead
  /// of silently imposing moments through a mismatched tile map.
  [[nodiscard]] std::uint64_t hash() const;

 private:
  index_t n_solid_ = 0;
  bool force_sparse_ = false;
  mutable std::shared_ptr<const TileMap> tiles_;
};

}  // namespace mlbm
