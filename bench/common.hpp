// Shared helpers for the benchmark harnesses: benchmark geometries, unique
// read counts of the instrumented engines and the paper's problem-size
// sweeps.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engines/engine_spec.hpp"
#include "engines/mr_engine.hpp"
#include "engines/st_engine.hpp"
#include "perfmodel/efficiency.hpp"
#include "perfmodel/opcount.hpp"
#include "perfmodel/pattern.hpp"
#include "perfmodel/roofline.hpp"
#include "util/precision.hpp"
#include "workloads/taylor_green.hpp"

namespace mlbm::bench {

inline Geometry periodic_geo(int nx, int ny, int nz) {
  Geometry geo(Box{nx, ny, nz});
  geo.bc.set_axis(0, FaceBC::kPeriodic);
  geo.bc.set_axis(1, FaceBC::kPeriodic);
  geo.bc.set_axis(2, FaceBC::kPeriodic);
  return geo;
}

/// Channel-type variant for multi-device rows: bounceback walls on x (the
/// decomposition axis must not be periodic), periodic cross axes.
inline Geometry wallx_geo(int nx, int ny, int nz) {
  Geometry geo(Box{nx, ny, nz});
  geo.bc.set_axis(0, FaceBC::kWall);
  geo.bc.set_axis(1, FaceBC::kPeriodic);
  geo.bc.set_axis(2, FaceBC::kPeriodic);
  return geo;
}

/// Distinct global elements read in one step, per node — the DRAM read
/// traffic under an ideal cache (what nvvp/rocprof attribute to DRAM).
template <class L, class E>
double measure_unique_read_bytes_per_node(E& eng) {
  eng.initialize(
      [](int, int, int) { return equilibrium_moments<L>(1.0, {}); });
  eng.set_unique_read_tracking(true);
  eng.step();
  eng.clear_unique_reads();
  eng.step();
  const double bytes = static_cast<double>(eng.unique_read_bytes());
  eng.set_unique_read_tracking(false);
  return bytes / static_cast<double>(eng.geometry().box.cells());
}

/// Thread blocks launched per timestep at a given domain shape.
inline long long blocks_for(perf::Pattern p, int dim, long long nx,
                            long long ny, long long nz,
                            const perf::KernelCharacteristics& kc) {
  const long long cells = nx * ny * nz;
  if (p == perf::Pattern::kST) {
    return (cells + kc.threads_per_block - 1) / kc.threads_per_block;
  }
  const MrConfig cfg = default_mr_config(dim);
  const long long c0 = (nx + cfg.tile_x - 1) / cfg.tile_x;
  const long long c1 =
      dim == 3 ? (ny + cfg.tile_y - 1) / cfg.tile_y : 1;
  return c0 * c1;
}

/// The paper's problem-size sweeps (Figures 2 and 3).
inline std::vector<long long> sweep_sizes_2d() {
  return {256, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192};
}
inline std::vector<long long> sweep_sizes_3d() {
  return {32, 48, 64, 96, 128, 160, 192, 256, 320, 384, 448};
}

}  // namespace mlbm::bench
