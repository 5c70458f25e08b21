#include "analysis/static/verify.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>

#include "analysis/static/analyzer.hpp"
#include "analysis/static/traffic.hpp"
#include "engines/engine_spec.hpp"
#include "engines/factory.hpp"
#include "perfmodel/roofline.hpp"

namespace mlbm::analysis {

namespace {

/// Dense fully periodic probe box: every contract formula is exact here.
/// Extents are deliberately not multiples of the MR tile sizes, so the
/// ragged-tile halo terms of the derivation are exercised, and the 2D sweep
/// extent (ny) and 3D one (nz) satisfy the circular-shift minimum.
Geometry probe_geometry(int dim) {
  return Geometry(dim == 2 ? Box{40, 24, 1} : Box{16, 12, 10});
}

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

/// Per-step exact comparison of one measured counter against the derived
/// value; any mismatch is a verify failure, to the byte / transaction.
void expect_eq(std::uint64_t got, std::uint64_t want, const char* what,
               int step, CaseResult& cr) {
  if (got != want) {
    cr.failures.push_back(std::string("traffic: step ") +
                          std::to_string(step) + " " + what + " measured " +
                          fmt_u64(got) + " != derived " + fmt_u64(want));
  }
}

/// Everything checked about one constructed engine probe. `model_bpf` is
/// perfmodel's independent Table 2 prediction for this configuration (the
/// third corner of the agreement gate).
template <class L>
void run_probe(Engine<L>& eng, const std::string& config, double model_bpf,
               const VerifyOptions& opt, VerifyReport& rep) {
  CaseResult cr;
  cr.config = config;

  EngineContract contract = eng.access_contract();
  if (!opt.mutate.empty()) {
    const auto names = applicable_mutations(contract);
    if (std::find(names.begin(), names.end(), opt.mutate) != names.end()) {
      apply_mutation(contract, opt.mutate);
    }
  }

  // Gate 1: static cleanliness for all domain sizes.
  const AnalysisReport ar = analyze(contract);
  for (const auto& f : ar.findings) {
    cr.failures.push_back("static: " + to_string(f));
  }

  // Gate 2a: per-step counter deltas, exact. Mutated contracts are derived
  // from too (a span overrun changes the predicted counts, so demonstration
  // mode shows the traffic gate failing as well as the static one).
  const Box& b = eng.geometry().box;
  eng.initialize([](int, int, int) {
    return equilibrium_moments<L>(real_t(1), {});
  });
  eng.set_unique_read_tracking(true);
  const auto n = static_cast<std::uint64_t>(b.cells());
  double measured_cycle_bpf = 0.0;
  for (int s = 0; s < opt.steps; ++s) {
    eng.clear_unique_reads();
    const auto before = eng.profiler()->total_traffic();
    eng.step();
    const auto delta = eng.profiler()->total_traffic() - before;
    const StepTraffic want =
        derive_step_traffic(contract, b.nx, b.ny, b.nz, s);
    expect_eq(delta.bytes_read, want.bytes_read, "bytes_read", s, cr);
    expect_eq(delta.bytes_written, want.bytes_written, "bytes_written", s, cr);
    expect_eq(delta.reads, want.reads, "read txns", s, cr);
    expect_eq(delta.writes, want.writes, "write txns", s, cr);
    expect_eq(eng.unique_read_bytes(), want.unique_read_bytes,
              "unique read bytes", s, cr);
    // Ideal-L2 bytes per update of this step: unique reads + all writes.
    if (s < contract.steps_per_cycle) {
      measured_cycle_bpf +=
          static_cast<double>(eng.unique_read_bytes() + delta.bytes_written) /
          static_cast<double>(n);
    }
  }

  // Gate 2b: closed-form bytes/FLUP — contract == perfmodel == measurement,
  // exactly (every term is an integer multiple of the storage width).
  const double derived_bpf = derived_bytes_per_flup(contract);
  measured_cycle_bpf /= static_cast<double>(contract.steps_per_cycle);
  if (derived_bpf != model_bpf) {
    cr.failures.push_back(
        "bytes/FLUP: contract derives " + std::to_string(derived_bpf) +
        " but perfmodel predicts " + std::to_string(model_bpf));
  }
  if (derived_bpf != measured_cycle_bpf) {
    cr.failures.push_back(
        "bytes/FLUP: contract derives " + std::to_string(derived_bpf) +
        " but the probe measured " + std::to_string(measured_cycle_bpf));
  }

  // Gate 3: every registered kernel record must name a declared contract
  // and be listed under it.
  std::set<std::string> tags;
  for (const auto& nk : contract.node_kernels) tags.insert(nk.tag);
  for (const auto& rk : contract.ring_kernels) tags.insert(rk.tag);
  const auto covered = [&](const std::string& tag, const std::string& name) {
    for (const auto& nk : contract.node_kernels) {
      if (nk.tag == tag &&
          std::find(nk.kernels.begin(), nk.kernels.end(), name) !=
              nk.kernels.end()) {
        return true;
      }
    }
    for (const auto& rk : contract.ring_kernels) {
      if (rk.tag == tag &&
          std::find(rk.kernels.begin(), rk.kernels.end(), name) !=
              rk.kernels.end()) {
        return true;
      }
    }
    return false;
  };
  for (const auto& rec : eng.profiler()->all_records()) {
    if (rec.contract.empty()) {
      cr.failures.push_back("coverage: kernel '" + rec.name +
                            "' registered without a contract tag");
    } else if (tags.find(rec.contract) == tags.end()) {
      cr.failures.push_back("coverage: kernel '" + rec.name +
                            "' tagged '" + rec.contract +
                            "' which the engine contract does not declare");
    } else if (!covered(rec.contract, rec.name)) {
      cr.failures.push_back("coverage: kernel '" + rec.name +
                            "' is not listed under contract '" +
                            rec.contract + "'");
    }
  }

  // Gate 4: the kill matrix — every applicable seeded mutation must trip
  // the analyzer. (Built from the engine's pristine contract, independent
  // of demonstration mode.)
  for (const auto& name : applicable_mutations(eng.access_contract())) {
    EngineContract mutated = eng.access_contract();
    apply_mutation(mutated, name);
    const AnalysisReport mar = analyze(mutated);
    MutationResult mr;
    mr.config = config;
    mr.mutation = name;
    mr.killed = !mar.clean();
    if (mr.killed) mr.first_finding = mar.findings.front().check;
    rep.mutations.push_back(std::move(mr));
  }

  rep.cases.push_back(std::move(cr));
}

constexpr real_t kTau = real_t(0.6);

template <class L>
void run_lattice(const VerifyOptions& opt, VerifyReport& rep) {
  using Pattern = EngineSpec::Pattern;
  const auto lat = perf::lattice_info<L>();
  for (EngineSpec spec : EngineSpec::all()) {
    if (spec.pattern == Pattern::kRef) continue;  // host engine, no contract
    if (spec.is_mr()) spec.tile = EngineSpec::Tile{32, 8, 1};  // MrConfig{}
    const double e = perf::elem_bytes_of(spec.precision);
    const double model_bpf =
        spec.pattern == Pattern::kAA   ? perf::aa_bytes_per_flup(lat, e)
        : spec.pattern == Pattern::kEP ? perf::ep_bytes_per_flup(lat, e)
                                       : perf::bytes_per_flup(
                                             spec.perf_pattern(), lat, e);
    const std::string config = spec.to_string() + " " + L::name();
    run_probe(*make_engine<L>(spec, probe_geometry(L::D), kTau), config,
              model_bpf, opt, rep);
    if (spec.pattern == Pattern::kMRP) {
      // Single-buffer moment storage is an MrConfig option, not a spec field.
      MrConfig cfg = spec.mr_config(L::D);
      cfg.storage = MomentStorage::kCircularShift;
      run_probe(*make_mr_engine<L>(spec.precision, probe_geometry(L::D), kTau,
                                   Regularization::kProjective, cfg),
                config + "/circ", model_bpf, opt, rep);
    }
  }
}

}  // namespace

std::vector<std::string> all_mutation_names() {
  // Union over the matrix = union over one engine of each family; build the
  // contracts directly so listing does not construct engines.
  std::set<std::string> names;
  const auto lat = make_lattice_desc<D2Q9>();
  for (const auto& c :
       {st_contract(lat, 8, false), aa_contract(lat, 8), ep_contract(lat, 8),
        mr_contract(lat, 8, true, /*single_buffer=*/true, 32, 8, 1)}) {
    for (const auto& n : applicable_mutations(c)) names.insert(n);
  }
  return {names.begin(), names.end()};
}

VerifyReport run_verify_matrix(const VerifyOptions& opt) {
  VerifyReport rep;
  run_lattice<D2Q9>(opt, rep);
  run_lattice<D3Q19>(opt, rep);
  run_lattice<D3Q15>(opt, rep);
  run_lattice<D3Q27>(opt, rep);
  return rep;
}

std::string to_string(const VerifyReport& rep) {
  std::ostringstream os;
  int failed = 0;
  for (const auto& c : rep.cases) {
    if (c.ok()) continue;
    ++failed;
    os << "FAIL " << c.config << "\n";
    for (const auto& f : c.failures) os << "  " << f << "\n";
  }
  for (const auto& m : rep.mutations) {
    if (!m.killed) {
      os << "SURVIVED " << m.config << " mutation '" << m.mutation << "'\n";
    }
  }
  os << rep.cases.size() << " configurations, " << failed << " failed; "
     << rep.mutations.size() << " seeded mutations, "
     << rep.mutations_killed() << " killed\n";
  return os.str();
}

}  // namespace mlbm::analysis
