// EngineSpec: the one name of an engine configuration.
//
// Every command line, bench, test and fleet job names its engine in one
// grammar,
//
//   pattern[:precision[:tile]]
//
//   pattern    st | st-push | aa | ep | mr-p | mr-r | ref
//   precision  fp64 (default) | fp32          (ref: fp64 only)
//   tile       XxYxS MR tile extents, each >= 1 (mr-p/mr-r only;
//              default: default_mr_config of the lattice's dimension)
//
// e.g. `mr-p`, `ep:fp32`, `mr-r:fp64:16x1x4`. parse() and to_string()
// round-trip, and to_string() omits trailing default fields. make_engine()
// builds the spec through the runtime-precision factories (factory.hpp);
// make_multi_engine() builds a slab decomposition of it. The execution mode
// is their separate argument, not a spec field; threads per block and the
// collision scheme stay at the factories' defaults (256, BGK).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engines/engine.hpp"
#include "perfmodel/pattern.hpp"
#include "util/precision.hpp"

namespace mlbm {

class Cli;
struct MrConfig;
namespace perf {
struct KernelCharacteristics;
}
template <class L>
class MultiDomainEngine;

/// Default MR tile per dimension (chosen so V100 and MI100 both fit at least
/// two blocks per SM; see bench/ablation_tile for the sweep).
MrConfig default_mr_config(int dim);

struct EngineSpec {
  enum class Pattern { kST, kSTPush, kAA, kEP, kMRP, kMRR, kRef };

  /// MR tile extents along x, y (3D only) and the sweep axis.
  struct Tile {
    int x = 0;
    int y = 0;
    int s = 0;
    friend bool operator==(const Tile&, const Tile&) = default;
  };

  Pattern pattern = Pattern::kST;
  StoragePrecision precision = StoragePrecision::kFP64;
  std::optional<Tile> tile;  ///< unset: default_mr_config of the dimension

  /// Parses the grammar above; throws ConfigError naming the valid tokens.
  static EngineSpec parse(std::string_view text);
  [[nodiscard]] std::string to_string() const;
  /// Every pattern at every precision it supports, default tile.
  static std::vector<EngineSpec> all();

  [[nodiscard]] bool is_mr() const {
    return pattern == Pattern::kMRP || pattern == Pattern::kMRR;
  }
  /// Ghost planes per slab interface: the in-place patterns (AA, EP)
  /// scatter one plane past the node they execute on, so they need two.
  [[nodiscard]] int ghost_depth() const {
    return pattern == Pattern::kAA || pattern == Pattern::kEP ? 2 : 1;
  }
  /// The performance model's projection: every distribution pattern moves
  /// ST's kernel shape.
  [[nodiscard]] perf::Pattern perf_pattern() const;
  /// The MR engine configuration of this spec on a `dim`-dimensional lattice.
  [[nodiscard]] MrConfig mr_config(int dim) const;

  friend bool operator==(const EngineSpec&, const EngineSpec&) = default;
};

/// The spec an example's `--pattern` (default `fallback`) and `--precision`
/// flags name. `--precision P` is the spec's `:P` field, so it cannot be
/// combined with a `--pattern` that already names a precision.
EngineSpec spec_from_cli(const Cli& cli, std::string_view fallback);

/// One engine of `spec` over `geo`.
template <class L>
std::unique_ptr<Engine<L>> make_engine(const EngineSpec& spec, Geometry geo,
                                       real_t tau,
                                       ExecMode exec = default_exec_mode());

/// `global` split into `ndev` slabs of `spec` engines, with
/// spec.ghost_depth() ghost planes. AA slabs are built with open faces
/// allowed, since every slab interface is an open face whose ghost band the
/// exchange re-imposes; an open face of `global` itself is still rejected
/// with AaEngine's ConfigError.
template <class L>
std::unique_ptr<MultiDomainEngine<L>> make_multi_engine(
    const EngineSpec& spec, Geometry global, real_t tau, int ndev,
    ExecMode exec = default_exec_mode());

/// Per-node traffic of a few instrumented steps of `eng`, started at rest
/// after one uncounted warm-up step. Exact on any box: the engines' access
/// pattern does not depend on its size.
struct MeasuredTraffic {
  double read_bytes_per_node = 0;
  double write_bytes_per_node = 0;
  double halo_read_fraction = 0;  ///< extra logical reads over the nominal M
};
template <class L>
MeasuredTraffic measure_traffic(Engine<L>& eng, int steps = 3);

/// The kernel shape the performance model prices for `spec`: flops from the
/// op counter and the storage width of its precision; distribution patterns
/// run 256-thread blocks without shared memory, while MR block geometry,
/// shared bytes and halo read fraction come from a few instrumented steps of
/// an FP64 engine at the spec's tile on a small periodic box.
template <class L>
perf::KernelCharacteristics kernel_characteristics(const EngineSpec& spec);

}  // namespace mlbm
