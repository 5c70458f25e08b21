// Table 4 + Sections 4.2/4.3 bandwidth discussion: achieved DRAM bandwidth
// (GB/s and % of peak) per device, pattern and lattice, from the calibrated
// efficiency model driven by measured kernel characteristics.
//
// Note: the paper's Table 4 is internally inconsistent with its own MFLUPS
// numbers in places (e.g. MR D3Q19 on MI100: 664 GB/s and 3200 MFLUPS imply
// different B/F); we report the model's self-consistent values
// (bandwidth = MFLUPS x B/F) next to the paper's and flag the deviation.
#include <cstdio>

#include "common.hpp"
#include "perfmodel/mflups_model.hpp"
#include "perfmodel/report.hpp"
#include "perfmodel/roofline.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace mlbm;
using perf::Pattern;

namespace {

struct PaperBw {
  double v100_d2q9, v100_d3q19, mi100_d2q9, mi100_d3q19;
};

}  // namespace

int main() {
  perf::print_banner("Table 4", "Achieved bandwidth (GB/s, % of peak)");

  const auto v100 = gpusim::DeviceSpec::v100();
  const auto mi100 = gpusim::DeviceSpec::mi100();
  const auto d2q9 = perf::lattice_info<D2Q9>();
  const auto d3q19 = perf::lattice_info<D3Q19>();

  const PaperBw paper_st = {790, 765, 665, 655};
  const PaperBw paper_mr = {664, 650, 614, 664};

  AsciiTable t({"Model", "Device", "Lattice", "model GB/s", "% peak",
                "paper GB/s", "dev %"});
  CsvWriter csv(perf::results_dir() + "/table4_bandwidth.csv",
                {"model", "device", "lattice", "model_gbs", "peak_fraction",
                 "paper_gbs", "deviation_pct"});

  auto add = [&](const char* name, const gpusim::DeviceSpec& dev,
                 const perf::LatticeInfo& lat, double paper_gbs) {
    const EngineSpec spec = EngineSpec::parse(name);
    const Pattern p = spec.perf_pattern();
    const auto kc = lat.dim == 2 ? kernel_characteristics<D2Q9>(spec)
                                 : kernel_characteristics<D3Q19>(spec);
    const auto e = perf::estimate_saturated(dev, p, lat, kc);
    const double frac = e.achieved_bw_gbs / dev.bandwidth_gbs;
    t.row({perf::to_string(p), dev.name, lat.name,
           AsciiTable::num(e.achieved_bw_gbs, 0),
           AsciiTable::num(100 * frac, 0) + "%",
           AsciiTable::num(paper_gbs, 0),
           AsciiTable::num(perf::deviation_pct(e.achieved_bw_gbs, paper_gbs),
                           1)});
    csv.row({perf::to_string(p), dev.name, lat.name,
             CsvWriter::num(e.achieved_bw_gbs), CsvWriter::num(frac),
             CsvWriter::num(paper_gbs),
             CsvWriter::num(perf::deviation_pct(e.achieved_bw_gbs,
                                                paper_gbs))});
  };

  add("st", v100, d2q9, paper_st.v100_d2q9);
  add("st", v100, d3q19, paper_st.v100_d3q19);
  add("st", mi100, d2q9, paper_st.mi100_d2q9);
  add("st", mi100, d3q19, paper_st.mi100_d3q19);
  add("mr-p", v100, d2q9, paper_mr.v100_d2q9);
  add("mr-p", v100, d3q19, paper_mr.v100_d3q19);
  add("mr-p", mi100, d2q9, paper_mr.mi100_d2q9);
  add("mr-p", mi100, d3q19, paper_mr.mi100_d3q19);
  t.print();

  std::printf(
      "\nmodel bandwidth = saturated MFLUPS x B/F (self-consistent);\n"
      "paper Table 4 values are profiler DRAM measurements, which deviate\n"
      "where L2 served part of the traffic. See EXPERIMENTS.md.\n");
  return 0;
}
