// Section 5 headline numbers: saturated MFLUPS per device/pattern/lattice
// and the MR-P vs ST speedups (paper: 1.32x / 1.38x for D2Q9 and
// 1.46x / 1.14x for D3Q19 on V100 / MI100).
#include <cstdio>

#include "common.hpp"
#include "perfmodel/mflups_model.hpp"
#include "perfmodel/report.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace mlbm;

int main() {
  perf::print_banner("Speedups", "Saturated MFLUPS and MR-P/ST speedups");

  const auto v100 = gpusim::DeviceSpec::v100();
  const auto mi100 = gpusim::DeviceSpec::mi100();

  struct Cell {
    double st, ep, mrp, mrr;
  };
  auto compute = [&](const gpusim::DeviceSpec& dev, auto lattice_tag) -> Cell {
    using L = decltype(lattice_tag);
    const auto lat = perf::lattice_info<L>();
    Cell c{};
    const auto saturated = [&](const char* spec) {
      const EngineSpec s = EngineSpec::parse(spec);
      return perf::estimate_saturated(dev, s.perf_pattern(), lat,
                                      kernel_characteristics<L>(s))
          .mflups;
    };
    c.st = saturated("st");
    // EP keeps ST's kernel shape and flop count and moves ST's 2Q elements
    // (ep_bytes_per_flup == bytes_per_flup(kST), pinned in the verify
    // matrix), so the saturated model evaluates it through the ST pattern.
    // It appears as its own column because EP is the strongest streaming
    // baseline: same speed as ST at HALF the footprint, so MR-P/EP is the
    // honest remaining speedup claim.
    c.ep = c.st;
    c.mrp = saturated("mr-p");
    c.mrr = saturated("mr-r");
    return c;
  };

  const Cell v2 = compute(v100, D2Q9{});
  const Cell v3 = compute(v100, D3Q19{});
  const Cell m2 = compute(mi100, D2Q9{});
  const Cell m3 = compute(mi100, D3Q19{});

  AsciiTable t({"Device", "Lattice", "ST", "EP", "MR-P", "MR-R", "MR-P/ST",
                "MR-P/EP", "paper speedup"});
  CsvWriter csv(perf::results_dir() + "/speedup_summary.csv",
                {"device", "lattice", "st_mflups", "ep_mflups", "mrp_mflups",
                 "mrr_mflups", "speedup", "speedup_vs_ep", "paper_speedup"});

  struct Row {
    const char* dev;
    const char* lat;
    Cell c;
    double paper;
  };
  const Row rows[] = {{"V100", "D2Q9", v2, 1.32},
                      {"MI100", "D2Q9", m2, 1.38},
                      {"V100", "D3Q19", v3, 1.46},
                      {"MI100", "D3Q19", m3, 1.14}};
  for (const Row& r : rows) {
    const double sp = r.c.mrp / r.c.st;
    const double sp_ep = r.c.mrp / r.c.ep;
    t.row({r.dev, r.lat, AsciiTable::num(r.c.st, 0),
           AsciiTable::num(r.c.ep, 0), AsciiTable::num(r.c.mrp, 0),
           AsciiTable::num(r.c.mrr, 0), AsciiTable::num(sp, 2) + "x",
           AsciiTable::num(sp_ep, 2) + "x",
           AsciiTable::num(r.paper, 2) + "x"});
    csv.row({r.dev, r.lat, CsvWriter::num(r.c.st), CsvWriter::num(r.c.ep),
             CsvWriter::num(r.c.mrp), CsvWriter::num(r.c.mrr),
             CsvWriter::num(sp), CsvWriter::num(sp_ep),
             CsvWriter::num(r.paper)});
  }
  t.print();

  std::printf("\nMR-R penalty vs MR-P: V100 D3Q19 %.0f MFLUPS (paper ~800), "
              "MI100 D3Q19 %.0f (paper ~700)\n",
              v3.mrp - v3.mrr, m3.mrp - m3.mrr);
  return 0;
}
