// Future-work extension (Section 5): "further research should focus on
// lattices with a large number of components, such as the single-speed
// D3Q27, because their increased runtime is often cited as a reason for not
// using them." The moment representation stores the same M = 10 moments
// regardless of Q, so its advantage *grows* with Q: B/F drops from
// 2*27*8 = 432 to 160 bytes — a 63% traffic reduction vs 47% for D3Q19.
#include <cstdio>

#include "common.hpp"
#include "perfmodel/mflups_model.hpp"
#include "perfmodel/report.hpp"
#include "perfmodel/roofline.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace mlbm;
using perf::Pattern;

int main() {
  perf::print_banner("Extension", "D3Q27 moment representation (future work)");

  const auto v100 = gpusim::DeviceSpec::v100();
  const auto mi100 = gpusim::DeviceSpec::mi100();
  const auto lat = perf::lattice_info<D3Q27>();

  // Functional verification on the instrumented engines.
  Geometry geo = bench::periodic_geo(16, 16, 12);
  StEngine<D3Q27> st(geo, 0.8);
  MrEngine<D3Q27> mr(geo, 0.8, Regularization::kProjective, {8, 8, 1});
  const auto t_st = measure_traffic<D3Q27>(st);
  const auto t_mr = measure_traffic<D3Q27>(mr);

  AsciiTable meas({"pattern", "B/F nominal", "measured write B/node",
                   "measured read B/node"});
  meas.row({"ST", AsciiTable::num(perf::bytes_per_flup(Pattern::kST, lat), 0),
            AsciiTable::num(t_st.write_bytes_per_node, 1),
            AsciiTable::num(t_st.read_bytes_per_node, 1)});
  meas.row({"MR", AsciiTable::num(perf::bytes_per_flup(Pattern::kMRP, lat), 0),
            AsciiTable::num(t_mr.write_bytes_per_node, 1),
            AsciiTable::num(t_mr.read_bytes_per_node, 1)});
  meas.print();

  // Modeled performance across the whole single-speed 3D lattice family:
  // the MR advantage scales with Q while M stays fixed at 10.
  AsciiTable t({"Device", "Lattice", "Pattern", "roofline", "MFLUPS",
                "speedup vs ST"});
  CsvWriter csv(perf::results_dir() + "/d3q27_extension.csv",
                {"device", "lattice", "pattern", "roofline", "mflups",
                 "speedup"});
  auto sweep = [&](auto lattice_tag) {
    using LL = decltype(lattice_tag);
    const auto li = perf::lattice_info<LL>();
    for (const auto& dev : {v100, mi100}) {
      double st_mflups = 0;
      for (const char* name : {"st", "mr-p", "mr-r"}) {
        const EngineSpec spec = EngineSpec::parse(name);
        const Pattern p = spec.perf_pattern();
        const auto kc = kernel_characteristics<LL>(spec);
        const auto e = perf::estimate_saturated(dev, p, li, kc);
        if (p == Pattern::kST) st_mflups = e.mflups;
        const double sp = e.mflups / st_mflups;
        t.row({dev.name, li.name, perf::to_string(p),
               AsciiTable::num(e.roofline_mflups, 0),
               AsciiTable::num(e.mflups, 0), AsciiTable::num(sp, 2) + "x"});
        csv.row({dev.name, li.name, perf::to_string(p),
                 CsvWriter::num(e.roofline_mflups), CsvWriter::num(e.mflups),
                 CsvWriter::num(sp)});
      }
    }
  };
  sweep(D3Q15{});
  sweep(D3Q19{});
  sweep(D3Q27{});
  t.print();

  std::printf(
      "\ntraffic ratio ST/MR: %.2f (D3Q15), %.2f (D3Q19), %.2f (D3Q27) —\n"
      "the moment representation's advantage grows with lattice size, as the\n"
      "paper's future-work section anticipates.\n",
      perf::bytes_per_flup(Pattern::kST, perf::lattice_info<D3Q15>()) /
          perf::bytes_per_flup(Pattern::kMRP, perf::lattice_info<D3Q15>()),
      perf::bytes_per_flup(Pattern::kST, perf::lattice_info<D3Q19>()) /
          perf::bytes_per_flup(Pattern::kMRP, perf::lattice_info<D3Q19>()),
      perf::bytes_per_flup(Pattern::kST, lat) /
          perf::bytes_per_flup(Pattern::kMRP, lat));
  return 0;
}
