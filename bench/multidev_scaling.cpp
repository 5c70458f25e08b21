// Multi-device scaling: measured lockstep-vs-overlap ghost exchange plus the
// analytic scaling projection (context: the paper's group runs LBM across
// whole machines — refs [9], [11]).
//
// Three layers, cross-validated:
//
//   1. Functional: a decomposed run reproduces the monolithic one, and the
//      overlapped schedule reproduces the lockstep schedule BIT-identically
//      (fields and per-slab traffic counters) — overlap reorders the modeled
//      timeline, not the dataflow. Violations exit nonzero.
//   2. Measured weak/strong scaling over 2–16 slabs (D3Q19, MR-P): each
//      decomposition steps under both ExchangeMode::kLockstep and kOverlap
//      with the stream/event timeline model installed, and the per-slab
//      CommStats report how much of the exchange the interior compute hides.
//      The perfmodel's predict_overlap_slab must agree with the profiler's
//      exposed fraction within 15 points, and at 4+ slabs (weak scaling)
//      the overlap must hide >= 60% of the lockstep-exposed exchange time —
//      both gated, so this binary doubles as the ctest smoke check.
//   3. The analytic strong-scaling efficiency projection at paper scale
//      (256^3 on V100s over NVLink2 / PCIe3), unchanged output for the
//      committed CSV history.
//
// The moment exchange moves M values per face node; a distribution-
// representation code must move its boundary populations (Q values in the
// general case) — another place the compressed representation pays off.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "engines/mr_engine.hpp"
#include "multidev/multi_domain.hpp"
#include "perfmodel/mflups_model.hpp"
#include "perfmodel/overlap.hpp"
#include "perfmodel/report.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workloads/channel.hpp"

using namespace mlbm;
using perf::Pattern;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

struct ScaleRow {
  std::string scaling;  // "weak" | "strong"
  int ndev = 0;
  int nx = 0, ny = 0, nz = 0, steps = 0;
  std::string mode;
  double seconds = 0;        ///< host wall clock of the run
  double comm_s = 0;         ///< modeled exchange time per step (all slabs)
  double exposed_frac = 0;   ///< profiler: exposed / comm
  double hidden_frac = 0;    ///< profiler: hidden / comm
  double model_exposed_frac = 0;  ///< perfmodel prediction (overlap rows)
  double step_s = 0;         ///< modeled per-step wall clock, max over slabs
  double model_speedup = 0;  ///< perfmodel lockstep/overlap (overlap rows)
};

template <class L>
std::uint64_t field_mismatches(const Engine<L>& a, const Engine<L>& b,
                               const Box& box) {
  std::uint64_t bad = 0;
  for (int z = 0; z < box.nz; ++z) {
    for (int y = 0; y < box.ny; ++y) {
      for (int x = 0; x < box.nx; ++x) {
        const auto ma = a.moments_at(x, y, z);
        const auto mb = b.moments_at(x, y, z);
        bool same = ma.rho == mb.rho;
        for (int i = 0; i < L::D; ++i) {
          same = same && ma.u[static_cast<std::size_t>(i)] ==
                             mb.u[static_cast<std::size_t>(i)];
        }
        for (int p = 0; p < Moments<L>::NP; ++p) {
          same = same && ma.pi[static_cast<std::size_t>(p)] ==
                             mb.pi[static_cast<std::size_t>(p)];
        }
        if (!same) ++bad;
      }
    }
  }
  return bad;
}

/// Builds a channel decomposition with MR-P slabs, steps it in `mode` with
/// the timeline model installed, and reports the communication attribution.
std::unique_ptr<MultiDomainEngine<D3Q19>> run_mode(
    const Channel<D3Q19>& ch, int ndev, ExchangeMode mode,
    const gpusim::LinkSpec& link, int steps, ScaleRow& row) {
  const real_t tau = ch.tau;
  // tile_x = 2 keeps the frontier launch at exactly 2 planes per interface
  // side (the split is tile-granular), so even the thinnest strong-scaling
  // slabs retain a real interior launch and the perfmodel's plane-based
  // frontier/interior partition matches the engine's exactly.
  auto multi = make_multi_engine<D3Q19>(EngineSpec::parse("mr-p:fp64:2x8x1"),
                                        ch.geo, tau, ndev);
  multi->set_exchange_mode(mode);
  multi->set_timeline_model(gpusim::DeviceSpec::v100(), link);
  ch.attach(*multi);
  Timer t;
  multi->run(steps);
  row.mode = to_string(mode);
  row.seconds = t.elapsed_s();

  const gpusim::CommStats total = multi->comm_stats();
  row.comm_s = total.steps > 0
                   ? total.comm_s / static_cast<double>(total.steps)
                   : 0.0;
  row.exposed_frac = total.exposed_fraction();
  row.hidden_frac = total.comm_s > 0 ? total.hidden_s / total.comm_s : 0.0;
  // Modeled per-step wall clock: the slowest slab's compute plus whatever
  // communication it could not hide.
  double step_s = 0;
  for (int d = 0; d < multi->devices(); ++d) {
    const gpusim::CommStats& cs =
        multi->device_engine(d).profiler()->comm_stats();
    if (cs.steps == 0) continue;
    step_s = std::max(step_s, (cs.compute_s + cs.exposed_s) /
                                  static_cast<double>(cs.steps));
  }
  row.step_s = step_s;
  return multi;
}

/// Aggregate perfmodel prediction across the decomposition's slabs: edge
/// slabs have one incoming link, interior slabs two.
perf::OverlapPrediction model_aggregate(const MultiDomainEngine<D3Q19>& multi,
                                        const gpusim::LinkSpec& link,
                                        double bytes_per_cell) {
  const Box& b = multi.geometry().box;
  const auto dev = gpusim::DeviceSpec::v100();
  perf::OverlapPrediction agg;
  double overlap_wall = 0;
  double lockstep_wall = 0;
  for (int d = 0; d < multi.devices(); ++d) {
    const SlabInfo& s = multi.slab(d);
    const int sides = (s.has_left ? 1 : 0) + (s.has_right ? 1 : 0);
    const auto p = perf::predict_overlap_slab(
        dev, link, bytes_per_cell, s.x_end - s.x_begin, b.ny, b.nz,
        s.ghost_depth, sides, D3Q19::M, sizeof(real_t));
    agg.comm_s += p.comm_s;
    agg.exposed_s += p.exposed_s;
    agg.hidden_s += p.hidden_s;
    overlap_wall = std::max(overlap_wall, p.overlap_step_s);
    lockstep_wall = std::max(lockstep_wall, p.lockstep_step_s);
  }
  agg.overlap_step_s = overlap_wall;
  agg.lockstep_step_s = lockstep_wall;
  return agg;
}

bool write_json(const std::string& path, const std::vector<ScaleRow>& rows) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\n  \"benchmark\": \"multidev_scaling\",\n"
       "  \"lattice\": \"D3Q19\", \"pattern\": \"MR-P\",\n"
       "  \"link\": \"PCIe3\", \"device\": \"V100\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    f << "    {\"scaling\": \"" << r.scaling << "\", \"ndev\": " << r.ndev
      << ", \"nx\": " << r.nx << ", \"ny\": " << r.ny << ", \"nz\": " << r.nz
      << ", \"steps\": " << r.steps << ", \"mode\": \"" << r.mode
      << "\", \"seconds\": " << r.seconds << ", \"comm_s\": " << r.comm_s
      << ", \"exposed_frac\": " << r.exposed_frac
      << ", \"hidden_frac\": " << r.hidden_frac
      << ", \"model_exposed_frac\": " << r.model_exposed_frac
      << ", \"step_s\": " << r.step_s
      << ", \"model_speedup\": " << r.model_speedup << "}"
      << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  return f.good();
}

// ---- Section 3: the analytic projection at paper scale (unchanged). ----

struct Link {
  const char* name;
  double gbs;
};

double efficiency(const gpusim::DeviceSpec& dev, Pattern p,
                  const perf::LatticeInfo& lat,
                  const perf::KernelCharacteristics& kc, long long n, int k,
                  double link_gbs, double values_per_face_node) {
  const long long cells = n * n * n;
  const long long cells_k = (cells + k - 1) / k;
  const auto sat = perf::estimate_saturated(dev, p, lat, kc);
  // Per-device compute time per step (utilization of the slab's blocks).
  const long long blocks =
      bench::blocks_for(p, 3, n, n, n, kc) / std::max(1, k);
  const double util =
      perf::size_utilization(dev, std::max<long long>(blocks, 1),
                             sat.blocks_per_sm);
  const double t_compute =
      static_cast<double>(cells_k) / (sat.mflups * 1e6 * std::max(util, 1e-3));
  // Ghost exchange: two faces per interior slab, n*n face nodes each.
  const double bytes =
      (k > 1 ? 2.0 : 0.0) * n * n * values_per_face_node * sizeof(real_t);
  const double t_comm = bytes / (link_gbs * 1e9);
  const double t1 = static_cast<double>(cells) / (sat.mflups * 1e6);
  return t1 / (k * (t_compute + t_comm));
}

void analytic_projection() {
  const auto v100 = gpusim::DeviceSpec::v100();
  const auto lat = perf::lattice_info<D3Q19>();
  const long long n = 256;
  const Link links[] = {{"NVLink2", 50.0}, {"PCIe3", 12.0}};

  CsvWriter csv(perf::results_dir() + "/multidev_scaling.csv",
                {"pattern", "link", "devices", "efficiency"});
  for (const Link& link : links) {
    std::printf("-- %s (%.0f GB/s per direction) --\n", link.name, link.gbs);
    AsciiTable t({"devices", "MR-P eff. (M=10/face)", "ST eff. (Q=19/face)"});
    for (int k = 1; k <= 16; k *= 2) {
      const auto kc_mr =
          kernel_characteristics<D3Q19>(EngineSpec::parse("mr-p"));
      const auto kc_st = kernel_characteristics<D3Q19>(EngineSpec{});
      const double e_mr =
          efficiency(v100, Pattern::kMRP, lat, kc_mr, n, k, link.gbs, 10);
      const double e_st =
          efficiency(v100, Pattern::kST, lat, kc_st, n, k, link.gbs, 19);
      t.row({std::to_string(k), AsciiTable::num(100 * e_mr, 1) + "%",
             AsciiTable::num(100 * e_st, 1) + "%"});
      csv.row({"MR-P", link.name, std::to_string(k), CsvWriter::num(e_mr)});
      csv.row({"ST", link.name, std::to_string(k), CsvWriter::num(e_st)});
    }
    t.print();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.reject_unknown({"ncross", "out", "smoke", "steps", "strong-nx", "weak-width"});
  const bool smoke = cli.has("smoke");
  const std::string out = cli.get("out", "BENCH_multidev.json");
  // Weak scaling: fixed owned width per slab. Strong scaling: fixed global
  // extent. Sizes keep the interior launch wide enough to hide a PCIe3-class
  // transfer (the perfmodel's crossover sits below these widths).
  const int weak_w = cli.get_int("weak-width", smoke ? 10 : 16, 1);
  const int strong_nx = cli.get_int("strong-nx", smoke ? 32 : 64, 1);
  const int ncross = cli.get_int("ncross", smoke ? 12 : 24, 1);
  const int steps = cli.get_int("steps", smoke ? 4 : 10, 1);
  const int max_ndev = smoke ? 4 : 16;
  const real_t tau = 0.8;
  const auto link = gpusim::LinkSpec::pcie3();  // the harder link to hide

  perf::print_banner("Scaling",
                     "Multi-device lockstep vs overlapped ghost exchange");

  // ---- Section 1: functional + bit-identity gates. ----
  {
    const int fx = 16, fy = 8, fz = 6;
    const auto ch = Channel<D3Q19>::create(fx, fy, fz, tau, 0.04);
    MrEngine<D3Q19> mono(ch.geo, tau, Regularization::kProjective, {4, 4, 1});
    ch.attach(mono);
    mono.run(6);

    auto make = [&](ExchangeMode m) {
      auto e = make_multi_engine<D3Q19>(
          EngineSpec::parse("mr-p:fp64:4x4x1"), ch.geo, tau, 4);
      e->set_exchange_mode(m);
      ch.attach(*e);
      e->run(6);
      return e;
    };
    const auto lock = make(ExchangeMode::kLockstep);
    const auto over = make(ExchangeMode::kOverlap);

    double worst = 0;
    for (int z = 0; z < fz; ++z) {
      for (int y = 0; y < fy; ++y) {
        for (int x = 0; x < fx; ++x) {
          worst = std::max(worst, std::abs(static_cast<double>(
                                      mono.moments_at(x, y, z).u[0] -
                                      lock->moments_at(x, y, z).u[0])));
        }
      }
    }
    std::printf("functional check: |mono - 4-slab| = %.2e (exact to fp)\n",
                worst);
    check(worst < 1e-12, "decomposed run must reproduce the monolithic one");

    const std::uint64_t bad = field_mismatches(*lock, *over, ch.geo.box);
    std::printf("overlap vs lockstep: %llu mismatched nodes (must be 0)\n",
                static_cast<unsigned long long>(bad));
    check(bad == 0, "overlapped schedule must be bit-identical to lockstep");
    for (int d = 0; d < lock->devices(); ++d) {
      const auto tl = lock->device_engine(d).profiler()->total_traffic();
      const auto to = over->device_engine(d).profiler()->total_traffic();
      check(tl.bytes_read == to.bytes_read &&
                tl.bytes_written == to.bytes_written,
            "slab " + std::to_string(d) +
                ": overlap must not change traffic totals");
    }
    std::printf("measured exchange: %llu values/step (= ifaces x 2 dirs x "
                "face nodes x M=%d)\n\n",
                static_cast<unsigned long long>(
                    lock->exchanged_values_per_step()),
                D3Q19::M);
  }

  // Per-cell kernel traffic for the perfmodel, measured on a small
  // instrumented monolithic run (the access pattern is size-independent).
  double bytes_per_cell = 0;
  {
    MrEngine<D3Q19> probe(bench::periodic_geo(16, 16, 8), tau,
                          Regularization::kProjective,
                          default_mr_config(3));
    const auto t = measure_traffic<D3Q19>(probe);
    bytes_per_cell = t.read_bytes_per_node + t.write_bytes_per_node;
  }

  // ---- Section 2: measured weak/strong scaling, both exchange modes. ----
  std::vector<ScaleRow> rows;
  for (const bool weak : {true, false}) {
    std::printf("-- measured %s scaling (D3Q19 MR-P, %s, V100 model) --\n",
                weak ? "weak" : "strong", link.name.c_str());
    AsciiTable t({"slabs", "grid", "mode", "step(model)", "comm/step",
                  "exposed", "hidden", "model exp.", "speedup(model)"});
    for (int ndev = 2; ndev <= max_ndev; ndev *= 2) {
      const int nx = weak ? weak_w * ndev : strong_nx;
      const auto ch = Channel<D3Q19>::create(nx, ncross, ncross, tau, 0.04);
      ScaleRow base;
      base.scaling = weak ? "weak" : "strong";
      base.ndev = ndev;
      base.nx = nx;
      base.ny = ncross;
      base.nz = ncross;
      base.steps = steps;

      ScaleRow rl = base;
      auto ml = run_mode(ch, ndev, ExchangeMode::kLockstep, link, steps, rl);
      ScaleRow ro = base;
      auto mo = run_mode(ch, ndev, ExchangeMode::kOverlap, link, steps, ro);

      const auto pred = model_aggregate(*mo, link, bytes_per_cell);
      ro.model_exposed_frac = pred.exposed_fraction();
      ro.model_speedup = pred.overlap_step_s > 0
                             ? pred.lockstep_step_s / pred.overlap_step_s
                             : 0.0;
      rl.model_exposed_frac = 1.0;  // lockstep exposes everything

      check(field_mismatches(*ml, *mo, ch.geo.box) == 0,
            base.scaling + " " + std::to_string(ndev) +
                " slabs: overlap fields must match lockstep");
      check(std::abs(ro.exposed_frac - ro.model_exposed_frac) <= 0.15,
            base.scaling + " " + std::to_string(ndev) +
                " slabs: perfmodel exposed fraction within 15 points of "
                "profiler");
      if (weak && ndev >= 4) {
        check(ro.hidden_frac >= 0.60,
              "weak scaling " + std::to_string(ndev) +
                  " slabs: overlap must hide >= 60% of the exchange");
      }

      for (const ScaleRow& r : {rl, ro}) {
        t.row({std::to_string(r.ndev),
               std::to_string(r.nx) + "x" + std::to_string(r.ny) + "x" +
                   std::to_string(r.nz),
               r.mode, AsciiTable::num(r.step_s * 1e6, 2) + " us",
               AsciiTable::num(r.comm_s * 1e6, 2) + " us",
               AsciiTable::num(100 * r.exposed_frac, 1) + "%",
               AsciiTable::num(100 * r.hidden_frac, 1) + "%",
               AsciiTable::num(100 * r.model_exposed_frac, 1) + "%",
               r.mode == "overlap" ? AsciiTable::num(r.model_speedup, 3)
                                   : "-"});
        rows.push_back(r);
      }
    }
    t.print();
    std::printf("\n");
  }

  // ---- Section 3: analytic projection at paper scale. ----
  if (!smoke) {
    analytic_projection();
    std::printf(
        "\nthe moment exchange ships M=10 doubles per face node vs the\n"
        "distribution representation's Q=19, so MR loses less efficiency per\n"
        "interface — and its exchange is exact for regularized collisions.\n");
  }

  if (!write_json(out, rows)) {
    std::fprintf(stderr, "error: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  if (g_failures > 0) {
    std::printf("%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
