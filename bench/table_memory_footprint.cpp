// Section 4.1 memory comparison: simulation-state footprint of each pattern,
// verified on real engine allocations and extrapolated to the paper's
// 15-million-node example (ST ~2 GB / 4.2 GB vs MR ~1.3 GB / 2.23 GB,
// i.e. ~35% / ~47% savings). Also reports the circular-shift MR storage,
// which halves the MR footprint again.
#include <cstdio>
#include <string>

#include "common.hpp"
#include "engines/aa_engine.hpp"
#include "engines/ep_engine.hpp"
#include "perfmodel/report.hpp"
#include "perfmodel/roofline.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace mlbm;
using perf::Pattern;

namespace {

template <class L>
void verify_engine_allocations(AsciiTable& t) {
  // Engine allocations at a concrete small size must match the formulas
  // that the 15M extrapolation uses.
  const int nx = L::D == 2 ? 64 : 24, ny = L::D == 2 ? 48 : 20,
            nz = L::D == 2 ? 1 : 16;
  Geometry geo = bench::periodic_geo(nx, ny, nz);
  const double cells = static_cast<double>(nx) * ny * nz;

  StEngine<L> st(geo, 0.8);
  AaEngine<L> aa(geo, 0.8);
  EpEngine<L> ep(geo, 0.8);
  MrEngine<L> mr_pp(geo, 0.8, Regularization::kProjective,
                    default_mr_config(L::D));
  MrConfig cs_cfg = default_mr_config(L::D);
  cs_cfg.storage = MomentStorage::kCircularShift;
  MrEngine<L> mr_cs(geo, 0.8, Regularization::kProjective, cs_cfg);

  std::string extent = std::to_string(nx) + "x" + std::to_string(ny);
  if (L::D == 3) {
    extent += "x";
    extent += std::to_string(nz);
  }
  auto row = [&](const char* name, double bytes) {
    t.row({name, L::name(), extent,
           AsciiTable::num(bytes / 1024.0, 1),
           AsciiTable::num(bytes / cells, 1)});
  };
  row("ST (2 lattices)", static_cast<double>(st.state_bytes()));
  row("ST-AA (in place)", static_cast<double>(aa.state_bytes()));
  row("EP (in place)", static_cast<double>(ep.state_bytes()));
  row("MR ping-pong", static_cast<double>(mr_pp.state_bytes()));
  row("MR circular-shift", static_cast<double>(mr_cs.state_bytes()));
}

}  // namespace

int main() {
  perf::print_banner("Memory", "Simulation-state footprint (Section 4.1)");

  AsciiTable meas({"Storage", "Lattice", "Domain", "allocated KiB",
                   "bytes/node"});
  verify_engine_allocations<D2Q9>(meas);
  verify_engine_allocations<D3Q19>(meas);
  meas.print();

  std::printf("\nExtrapolation to the paper's 15M fluid nodes:\n");
  AsciiTable t({"Model", "Lattice", "GB (model)", "GB (paper)", "saving vs ST"});
  CsvWriter csv(perf::results_dir() + "/table_memory_footprint.csv",
                {"model", "lattice", "gb_model", "gb_paper", "saving_pct"});

  const long long n = 15'000'000;
  struct Row {
    Pattern p;
    const char* name;
    perf::LatticeInfo lat;
    double paper_gb;
    bool single_buffer;
  };
  const Row rows[] = {
      {Pattern::kST, "ST", perf::lattice_info<D2Q9>(), 2.0, false},
      {Pattern::kST, "ST", perf::lattice_info<D3Q19>(), 4.2, false},
      // ST-AA stores one lattice: half of ST, same traffic (related work's
      // answer to the footprint problem before the moment representation).
      {Pattern::kMRP, "MR (ping-pong)", perf::lattice_info<D2Q9>(), 1.3, false},
      {Pattern::kMRP, "MR (ping-pong)", perf::lattice_info<D3Q19>(), 2.23,
       false},
      {Pattern::kMRP, "MR (circ-shift)", perf::lattice_info<D2Q9>(), 0, true},
      {Pattern::kMRP, "MR (circ-shift)", perf::lattice_info<D3Q19>(), 0, true},
  };
  const double st2 = perf::state_bytes(Pattern::kST, perf::lattice_info<D2Q9>(), n);
  const double st3 =
      perf::state_bytes(Pattern::kST, perf::lattice_info<D3Q19>(), n);
  // Hand-inserted in-place rows (single lattice: Q doubles per node). AA
  // and EP share the formula — both store exactly one distribution lattice;
  // they differ in addressing, not footprint.
  for (const auto* name : {"ST-AA (1 lattice)", "EP (1 lattice)"}) {
    for (const auto* lat : {"D2Q9", "D3Q19"}) {
      const bool is2d = std::string(lat) == "D2Q9";
      const double gb = (is2d ? 9.0 : 19.0) * 8.0 * n / 1e9;
      const double st_ref = (is2d ? st2 : st3) / 1e9;
      t.row({name, lat, AsciiTable::num(gb, 2), "-",
             AsciiTable::num(100 * (1 - gb / st_ref), 0) + "%"});
      csv.row({std::string(name).substr(0, std::string(name).find(' ')), lat,
               CsvWriter::num(gb), CsvWriter::num(0),
               CsvWriter::num(100 * (1 - gb / st_ref))});
    }
  }
  for (const Row& r : rows) {
    const double gb = perf::state_bytes(r.p, r.lat, n, r.single_buffer) / 1e9;
    const double st_ref = (r.lat.dim == 2 ? st2 : st3) / 1e9;
    const double saving = 100 * (1 - gb / st_ref);
    t.row({r.name, r.lat.name, AsciiTable::num(gb, 2),
           r.paper_gb > 0 ? AsciiTable::num(r.paper_gb, 2) : "-",
           AsciiTable::num(saving, 0) + "%"});
    csv.row({r.name, r.lat.name, CsvWriter::num(gb),
             CsvWriter::num(r.paper_gb), CsvWriter::num(saving)});
  }
  t.print();
  std::printf("\npaper: reductions of ~35%% (2D) and ~47%% (3D) for MR.\n");
  return 0;
}
