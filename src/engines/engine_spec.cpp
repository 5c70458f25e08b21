#include "engines/engine_spec.hpp"

#include <algorithm>
#include <array>
#include <charconv>

#include "engines/factory.hpp"
#include "engines/reference_engine.hpp"
#include "multidev/multi_domain.hpp"
#include "perfmodel/efficiency.hpp"
#include "perfmodel/opcount.hpp"
#include "perfmodel/roofline.hpp"
#include "util/cli.hpp"

namespace mlbm {

namespace {

using Pattern = EngineSpec::Pattern;

/// Pattern tokens, indexed by EngineSpec::Pattern.
constexpr std::array<std::string_view, 7> kNames = {
    "st", "st-push", "aa", "ep", "mr-p", "mr-r", "ref"};

[[noreturn]] void reject(std::string_view text, const std::string& what) {
  throw ConfigError("engine spec '" + std::string(text) + "': " + what +
                    " (grammar: pattern[:precision[:tile]]; patterns: st, "
                    "st-push, aa, ep, mr-p, mr-r, ref; precisions: fp64, "
                    "fp32; tile: XxYxS, each >= 1, mr-p/mr-r only)");
}

/// `XxYxS`, every extent >= 1; nullopt on anything else.
std::optional<EngineSpec::Tile> parse_tile(std::string_view t) {
  int v[3] = {};
  const char* p = t.data();
  const char* const end = p + t.size();
  for (int i = 0; i < 3; ++i) {
    if (i > 0 && (p == end || *p++ != 'x')) return std::nullopt;
    const auto [next, ec] = std::from_chars(p, end, v[i]);
    if (ec != std::errc() || v[i] < 1) return std::nullopt;
    p = next;
  }
  if (p != end) return std::nullopt;
  return EngineSpec::Tile{v[0], v[1], v[2]};
}

template <class L>
std::unique_ptr<Engine<L>> build(const EngineSpec& spec, Geometry geo,
                                 real_t tau, ExecMode exec, bool slab) {
  const StoragePrecision prec = spec.precision;
  switch (spec.pattern) {
    case Pattern::kST:
    case Pattern::kSTPush:
      return make_st_engine<L>(prec, std::move(geo), tau,
                               CollisionScheme::kBGK, 256,
                               spec.pattern == Pattern::kSTPush
                                   ? StreamMode::kPush
                                   : StreamMode::kPull,
                               exec);
    case Pattern::kAA:
      return make_aa_engine<L>(prec, std::move(geo), tau,
                               CollisionScheme::kBGK, 256, exec, slab);
    case Pattern::kEP:
      return make_ep_engine<L>(prec, std::move(geo), tau,
                               CollisionScheme::kBGK, 256, exec);
    case Pattern::kMRP:
    case Pattern::kMRR:
      return make_mr_engine<L>(prec, std::move(geo), tau,
                               spec.pattern == Pattern::kMRR
                                   ? Regularization::kRecursive
                                   : Regularization::kProjective,
                               spec.mr_config(L::D), exec);
    case Pattern::kRef:
      return std::make_unique<ReferenceEngine<L>>(std::move(geo), tau,
                                                  CollisionScheme::kBGK);
  }
  throw ConfigError("make_engine: unknown pattern");
}

}  // namespace

MrConfig default_mr_config(int dim) {
  return dim == 2 ? MrConfig{32, 1, 4} : MrConfig{8, 8, 1};
}

EngineSpec EngineSpec::parse(std::string_view text) {
  std::vector<std::string_view> fields;
  for (std::string_view rest = text;;) {
    const auto colon = rest.find(':');
    fields.push_back(rest.substr(0, colon));
    if (colon == std::string_view::npos) break;
    rest.remove_prefix(colon + 1);
  }
  if (fields.size() > 3) reject(text, "too many fields");

  EngineSpec spec;
  const auto* named = std::find(kNames.begin(), kNames.end(), fields[0]);
  if (named == kNames.end()) {
    reject(text, "unknown pattern '" + std::string(fields[0]) + "'");
  }
  spec.pattern = static_cast<Pattern>(named - kNames.begin());
  if (fields.size() > 1) {
    const auto prec = parse_precision(fields[1]);
    if (!prec) {
      reject(text, "unknown precision '" + std::string(fields[1]) + "'");
    }
    if (spec.pattern == Pattern::kRef && *prec != StoragePrecision::kFP64) {
      reject(text, "ref stores fp64 only");
    }
    spec.precision = *prec;
  }
  if (fields.size() > 2) {
    spec.tile = parse_tile(fields[2]);
    if (!spec.tile) reject(text, "bad tile '" + std::string(fields[2]) + "'");
    if (!spec.is_mr()) reject(text, "only mr-p/mr-r take a tile");
  }
  return spec;
}

std::string EngineSpec::to_string() const {
  std::string out(kNames[static_cast<std::size_t>(pattern)]);
  if (precision != StoragePrecision::kFP64 || tile) {
    out += std::string(":") + mlbm::to_string(precision);
  }
  if (tile) {
    out += ":" + std::to_string(tile->x) + "x" + std::to_string(tile->y) +
           "x" + std::to_string(tile->s);
  }
  return out;
}

std::vector<EngineSpec> EngineSpec::all() {
  std::vector<EngineSpec> out;
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    const auto pattern = static_cast<Pattern>(i);
    out.push_back({pattern, StoragePrecision::kFP64, std::nullopt});
    if (pattern != Pattern::kRef) {
      out.push_back({pattern, StoragePrecision::kFP32, std::nullopt});
    }
  }
  return out;
}

perf::Pattern EngineSpec::perf_pattern() const {
  switch (pattern) {
    case Pattern::kMRP: return perf::Pattern::kMRP;
    case Pattern::kMRR: return perf::Pattern::kMRR;
    default: return perf::Pattern::kST;
  }
}

MrConfig EngineSpec::mr_config(int dim) const {
  return tile ? MrConfig{tile->x, tile->y, tile->s} : default_mr_config(dim);
}

EngineSpec spec_from_cli(const Cli& cli, std::string_view fallback) {
  std::string text = cli.get("pattern", std::string(fallback));
  if (cli.has("precision")) {
    if (text.find(':') != std::string::npos) {
      reject(text, "--precision given, but --pattern already names one");
    }
    text += ":" + cli.get("precision", "");
  }
  return EngineSpec::parse(text);
}

template <class L>
std::unique_ptr<Engine<L>> make_engine(const EngineSpec& spec, Geometry geo,
                                       real_t tau, ExecMode exec) {
  return build<L>(spec, std::move(geo), tau, exec, /*slab=*/false);
}

template <class L>
std::unique_ptr<MultiDomainEngine<L>> make_multi_engine(
    const EngineSpec& spec, Geometry global, real_t tau, int ndev,
    ExecMode exec) {
  // Slab interfaces are open faces that AA accepts; a physical inlet or
  // outlet of the global domain is still rejected.
  if (spec.pattern == Pattern::kAA) AaEngine<L>::reject_open_faces(global);
  return std::make_unique<MultiDomainEngine<L>>(
      std::move(global), tau, ndev,
      [=](Geometry g, int) {
        return build<L>(spec, std::move(g), tau, exec, /*slab=*/true);
      },
      spec.ghost_depth());
}

template <class L>
MeasuredTraffic measure_traffic(Engine<L>& eng, int steps) {
  eng.initialize(
      [](int, int, int) { return equilibrium_moments<L>(1.0, {}); });
  eng.step();  // exclude warm-up
  const auto before = eng.profiler()->total_traffic();
  eng.run(steps);
  const auto t = eng.profiler()->total_traffic() - before;
  const double nodes =
      static_cast<double>(eng.geometry().box.cells()) * steps;
  MeasuredTraffic m;
  m.read_bytes_per_node = static_cast<double>(t.bytes_read) / nodes;
  m.write_bytes_per_node = static_cast<double>(t.bytes_written) / nodes;
  const double nominal = m.write_bytes_per_node;  // writes have no halo
  m.halo_read_fraction =
      nominal > 0 ? m.read_bytes_per_node / nominal - 1.0 : 0.0;
  return m;
}

template <class L>
perf::KernelCharacteristics kernel_characteristics(const EngineSpec& spec) {
  perf::KernelCharacteristics kc;
  kc.flops_per_flup = perf::flops_per_flup<L>(spec.perf_pattern());
  kc.storage_elem_bytes = perf::elem_bytes_of(spec.precision);
  if (!spec.is_mr()) {
    kc.threads_per_block = 256;
    kc.shared_bytes_per_block = 0;
    return kc;
  }
  const MrConfig cfg = spec.mr_config(L::D);
  const int sweep = cfg.tile_s * 4 + 4;
  Geometry geo(Box{cfg.tile_x * 2, L::D == 3 ? cfg.tile_y * 2 : sweep,
                   L::D == 3 ? sweep : 1});
  for (int axis = 0; axis < 3; ++axis) {
    geo.bc.set_axis(axis, FaceBC::kPeriodic);
  }
  MrEngine<L> eng(std::move(geo), 0.8,
                  spec.pattern == Pattern::kMRR ? Regularization::kRecursive
                                                : Regularization::kProjective,
                  cfg);
  kc.halo_read_fraction = measure_traffic<L>(eng).halo_read_fraction;
  kc.threads_per_block = eng.threads_per_block();
  kc.shared_bytes_per_block = eng.shared_bytes_per_block();
  return kc;
}

#define MLBM_INSTANTIATE(L)                                                \
  template std::unique_ptr<Engine<L>> make_engine<L>(                      \
      const EngineSpec&, Geometry, real_t, ExecMode);                      \
  template std::unique_ptr<MultiDomainEngine<L>> make_multi_engine<L>(     \
      const EngineSpec&, Geometry, real_t, int, ExecMode);                 \
  template MeasuredTraffic measure_traffic<L>(Engine<L>&, int);            \
  template perf::KernelCharacteristics kernel_characteristics<L>(          \
      const EngineSpec&);
MLBM_INSTANTIATE(D2Q9)
MLBM_INSTANTIATE(D3Q19)
MLBM_INSTANTIATE(D3Q27)
MLBM_INSTANTIATE(D3Q15)
#undef MLBM_INSTANTIATE

}  // namespace mlbm
