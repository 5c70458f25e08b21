// Shared driver for the Figure 2 / Figure 3 problem-size sweeps.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "gpusim/device.hpp"
#include "perfmodel/mflups_model.hpp"
#include "perfmodel/report.hpp"
#include "perfmodel/roofline.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace mlbm::bench {

struct FigSpec {
  const char* fig_id;
  const char* title;
  int dim;  // 2 -> NxN sweep, 3 -> NxNxN sweep
};

template <class L>
void run_figure(const FigSpec& spec, const std::string& csv_name,
                const std::vector<double>& paper_saturated_v100,
                const std::vector<double>& paper_saturated_mi100) {
  using perf::Pattern;
  perf::print_banner(spec.fig_id, spec.title);

  const std::vector<gpusim::DeviceSpec> devices = {
      gpusim::DeviceSpec::v100(), gpusim::DeviceSpec::mi100()};
  const std::vector<EngineSpec> specs = {EngineSpec::parse("st"),
                                         EngineSpec::parse("mr-p"),
                                         EngineSpec::parse("mr-r")};
  const auto lat = perf::lattice_info<L>();
  const auto sizes = spec.dim == 2 ? sweep_sizes_2d() : sweep_sizes_3d();

  CsvWriter csv(perf::results_dir() + "/" + csv_name,
                {"device", "pattern", "n", "cells", "mflups",
                 "roofline_mflups"});

  for (std::size_t d = 0; d < devices.size(); ++d) {
    const auto& dev = devices[d];
    std::printf("\n-- %s --\n", dev.name.c_str());
    AsciiTable t({"N", "cells", "ST", "EP", "MR-P", "MR-R", "roof ST",
                  "roof MR"});

    std::vector<std::vector<double>> series(specs.size());
    for (std::size_t p = 0; p < specs.size(); ++p) {
      const Pattern pattern = specs[p].perf_pattern();
      const auto kc = lat.dim == 2 ? kernel_characteristics<D2Q9>(specs[p])
                                   : kernel_characteristics<L>(specs[p]);
      for (long long n : sizes) {
        const long long ny = n, nz = spec.dim == 3 ? n : 1;
        const long long cells = n * ny * nz;
        const long long blocks = blocks_for(pattern, spec.dim, n, ny, nz, kc);
        series[p].push_back(
            perf::mflups_at_size(dev, pattern, lat, kc, cells, blocks));
      }
    }
    // EP column: the in-place engine keeps ST's kernel shape, flop count
    // and 2Q-element traffic (ep_bytes_per_flup == ST's figure, a pinned
    // identity), so its model series IS the ST series — the figures show it
    // explicitly because EP halves the footprint, which moves the largest
    // problem a device fits, not the MFLUPS curve.
    const double roof_st =
        perf::roofline_mflups(dev, perf::bytes_per_flup(Pattern::kST, lat));
    const double roof_ep =
        perf::roofline_mflups(dev, perf::ep_bytes_per_flup(lat));
    if (roof_ep != roof_st) {
      std::printf("warning: EP roofline %.0f != ST roofline %.0f\n", roof_ep,
                  roof_st);
    }
    const std::vector<double>& series_ep = series[0];
    const double roof_mr =
        perf::roofline_mflups(dev, perf::bytes_per_flup(Pattern::kMRP, lat));

    for (std::size_t s = 0; s < sizes.size(); ++s) {
      const long long n = sizes[s];
      const long long cells = spec.dim == 2 ? n * n : n * n * n;
      t.row({std::to_string(n), std::to_string(cells),
             AsciiTable::num(series[0][s], 0),
             AsciiTable::num(series_ep[s], 0),
             AsciiTable::num(series[1][s], 0),
             AsciiTable::num(series[2][s], 0), AsciiTable::num(roof_st, 0),
             AsciiTable::num(roof_mr, 0)});
      for (std::size_t p = 0; p < specs.size(); ++p) {
        csv.row({dev.name, perf::to_string(specs[p].perf_pattern()),
                 std::to_string(n), std::to_string(cells),
                 CsvWriter::num(series[p][s]),
                 CsvWriter::num(p == 0 ? roof_st : roof_mr)});
      }
      csv.row({dev.name, "EP", std::to_string(n), std::to_string(cells),
               CsvWriter::num(series_ep[s]), CsvWriter::num(roof_ep)});
    }
    t.print();

    const auto& paper =
        d == 0 ? paper_saturated_v100 : paper_saturated_mi100;
    std::printf("saturated (largest size): ST %.0f, EP %.0f, MR-P %.0f, "
                "MR-R %.0f | paper ~: ST %.0f, MR-P %.0f, MR-R %.0f\n",
                series[0].back(), series_ep.back(), series[1].back(),
                series[2].back(), paper[0], paper[1], paper[2]);
    std::printf("speedup MR-P/ST = %.2fx (paper %.2fx); MR-P/EP = %.2fx\n",
                series[1].back() / series[0].back(), paper[1] / paper[0],
                series[1].back() / series_ep.back());
  }
}

}  // namespace mlbm::bench
