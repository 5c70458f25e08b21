// Ablation: push vs pull ordering of the ST pattern (Section 3.1).
//
// "Introduced by [Wellein et al.], the pull configuration is considered the
// fastest GPU implementation of the standard distribution representation."
// Both orderings move the same bytes (verified on the instrumented
// engines); the difference is *which* side of the transfer is irregular:
// pull gathers (misaligned loads, stores coalesced), push scatters
// (misaligned stores, loads coalesced). Misaligned stores cost more than
// misaligned loads on both architectures — modelled here as a store-side
// bandwidth penalty on the push kernel.
//
// Results go to stdout, results/ablation_push_pull.csv and
// results/ablation_push_pull.json (the machine-readable artifact the smoke
// test gates on).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "perfmodel/mflups_model.hpp"
#include "perfmodel/report.hpp"
#include "perfmodel/roofline.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace mlbm;
using perf::Pattern;

namespace {

/// Write-side efficiency of scatter (push) relative to gather (pull):
/// misaligned stores serialize partial cache-line updates. Calibrated to
/// the ~10-20% pull advantage reported by Wellein et al. and successors.
constexpr double kPushStorePenalty = 0.88;

struct Row {
  std::string lattice;
  std::string config;
  std::string irregular_side;
  double bytes_per_node = 0;  ///< measured read+write bytes per node-update
  double v100_mflups = 0;
  double mi100_mflups = 0;
};

template <class L>
void compare(std::vector<Row>& rows) {
  Geometry geo = bench::periodic_geo(L::D == 2 ? 32 : 12,
                                     L::D == 2 ? 24 : 10, L::D == 2 ? 1 : 8);
  StEngine<L> pull(geo, 0.8, CollisionScheme::kBGK, 256, StreamMode::kPull);
  StEngine<L> push(geo, 0.8, CollisionScheme::kBGK, 256, StreamMode::kPush);
  const auto t_pull = measure_traffic<L>(pull);
  const auto t_push = measure_traffic<L>(push);

  const auto lat = perf::lattice_info<L>();
  const auto kc = kernel_characteristics<L>(EngineSpec{});

  const auto v100 = gpusim::DeviceSpec::v100();
  const auto mi100 = gpusim::DeviceSpec::mi100();
  const double pull_v =
      perf::estimate_saturated(v100, Pattern::kST, lat, kc).mflups;
  const double pull_m =
      perf::estimate_saturated(mi100, Pattern::kST, lat, kc).mflups;

  rows.push_back({L::name(), "pull", "loads (gather)",
                  t_pull.read_bytes_per_node + t_pull.write_bytes_per_node,
                  pull_v, pull_m});
  rows.push_back({L::name(), "push", "stores (scatter)",
                  t_push.read_bytes_per_node + t_push.write_bytes_per_node,
                  pull_v * kPushStorePenalty, pull_m * kPushStorePenalty});
}

bool write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\n  \"bench\": \"ablation_push_pull\",\n"
    << "  \"push_store_penalty\": " << kPushStorePenalty << ",\n"
    << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    f << "    {\"lattice\": \"" << r.lattice << "\", \"config\": \""
      << r.config << "\", \"irregular_side\": \"" << r.irregular_side
      << "\", \"bytes_per_node\": " << r.bytes_per_node
      << ", \"v100_mflups\": " << r.v100_mflups
      << ", \"mi100_mflups\": " << r.mi100_mflups << "}"
      << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  return f.good();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.reject_unknown({"out"});
  const std::string out =
      cli.get("out", perf::results_dir() + "/ablation_push_pull.json");

  perf::print_banner("Ablation", "ST push vs pull configuration");

  std::vector<Row> rows;
  compare<D2Q9>(rows);
  compare<D3Q19>(rows);

  AsciiTable t({"lattice", "config", "irregular side", "B/node measured",
                "V100 MFLUPS", "MI100 MFLUPS"});
  CsvWriter csv(perf::results_dir() + "/ablation_push_pull.csv",
                {"lattice", "config", "v100_mflups", "mi100_mflups"});
  for (const Row& r : rows) {
    t.row({r.lattice, r.config, r.irregular_side,
           AsciiTable::num(r.bytes_per_node, 0),
           AsciiTable::num(r.v100_mflups, 0),
           AsciiTable::num(r.mi100_mflups, 0)});
    csv.row({r.lattice, r.config, CsvWriter::num(r.v100_mflups),
             CsvWriter::num(r.mi100_mflups)});
  }
  t.print();

  std::printf(
      "\nboth configurations move identical bytes; pull wins by keeping the\n"
      "store stream coalesced, which is why the paper benchmarks ST as pull.\n");

  // Gate: push and pull must move the same bytes (pairwise within 0.1%) and
  // the pull prediction must beat push on both devices.
  for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
    const Row& pull = rows[i];
    const Row& push = rows[i + 1];
    if (std::abs(pull.bytes_per_node - push.bytes_per_node) >
        1e-3 * pull.bytes_per_node) {
      std::fprintf(stderr, "error: %s push/pull bytes diverge\n",
                   pull.lattice.c_str());
      return 1;
    }
    if (pull.v100_mflups <= push.v100_mflups ||
        pull.mi100_mflups <= push.mi100_mflups) {
      std::fprintf(stderr, "error: %s pull does not win\n",
                   pull.lattice.c_str());
      return 1;
    }
  }

  if (!write_json(out, rows)) {
    std::fprintf(stderr, "\nerror: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
