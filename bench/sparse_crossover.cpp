// Sparse-vs-dense traffic crossover (geometry layer).
//
// Sweeps the fluid fraction phi from ~0.1 to 1.0 with random porous
// geometries and measures, with the instrumented engines' traffic counters,
// the bytes each pattern moves per *fluid* lattice update on the
// tile-compressed sparse path. Against it stands the dense alternative: a
// dense kernel over the same box updates every node, so its cost per fluid
// update is bpf_dense / phi. The two curves cross near phi* = 1 -
// idx_bytes/(tile * bpf) (perfmodel/sparse.hpp); this harness reports the
// measured crossover next to the model's prediction and exits nonzero when
//
//   * the sparse path's measured bytes/FLUP exceeds 1.15x the dense
//     bytes/FLUP at phi ~ 0.3 (the index overhead must stay amortized), or
//   * measured and predicted crossover disagree by more than 0.15 in phi, or
//   * total sparse bytes fail to scale with the fluid fraction (the point of
//     the sparse path: solid regions must not cost bandwidth).
//
// Results go to stdout and results/BENCH_sparse.json.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "geometry/shapes.hpp"
#include "perfmodel/report.hpp"
#include "perfmodel/sparse.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace mlbm;
using perf::Pattern;

namespace {

struct Point {
  double phi = 1;          ///< actual fluid fraction of the geometry
  double sparse_bpf = 0;   ///< measured bytes per fluid update, sparse path
  double dense_bpf = 0;    ///< dense bytes per fluid update = dense / phi
  double model_bpf = 0;    ///< perfmodel sparse prediction
  double total_bytes = 0;  ///< total sparse bytes per step (scaling gate)
};

struct Series {
  std::string lattice;
  std::string pattern;
  double dense_unit_bpf = 0;  ///< dense kernel on the all-fluid box
  std::vector<Point> points;
  double measured_crossover = 1;
  double predicted_crossover = 1;
};

/// Bytes per fluid update over `steps` steps (warm-up excluded; steps stays
/// even so AA measures full even/odd cycles).
template <class L>
std::pair<double, double> measure_bpf(Engine<L>& eng, long long fluid,
                                      int steps) {
  eng.initialize(
      [](int, int, int) { return equilibrium_moments<L>(1.0, {}); });
  eng.step();
  eng.step();
  const auto before = eng.profiler()->total_traffic();
  eng.run(steps);
  const auto t = eng.profiler()->total_traffic() - before;
  const double total =
      static_cast<double>(t.bytes_read + t.bytes_written) / steps;
  return {total / static_cast<double>(fluid), total};
}

template <class L>
Series sweep(const EngineSpec& spec, int n0, int n1, int n2, int steps) {
  Series s;
  s.lattice = L::name();
  s.pattern = spec.to_string();
  const auto lat = perf::lattice_info<L>();
  // AA moves ST's bytes (single lattice, two accesses per value).
  const Pattern p = spec.perf_pattern();

  {
    Geometry geo = bench::periodic_geo(n0, n1, n2);
    auto eng = make_engine<L>(spec, geo, 0.8);
    s.dense_unit_bpf =
        measure_bpf<L>(*eng, geo.box.cells(), steps).first;
  }

  // Solid fractions dialing phi across ~0.1 .. 1.0; the last entry is the
  // forced-sparse all-fluid box (phi = 1) where dense must win.
  const double solid_fracs[] = {0.9, 0.7, 0.5, 0.3, 0.2, 0.1, 0.05, 0.0};
  for (double sf : solid_fracs) {
    Geometry geo = bench::periodic_geo(n0, n1, n2);
    if (sf > 0) {
      shapes::add_random_solids(geo, sf, /*seed=*/1234);
    } else {
      geo.force_sparse_storage(true);
    }
    const long long fluid = geo.fluid_count();
    if (fluid == 0) continue;
    const double phi =
        static_cast<double>(fluid) / static_cast<double>(geo.box.cells());
    auto eng = make_engine<L>(spec, geo, 0.8);
    const auto [bpf, total] = measure_bpf<L>(*eng, fluid, steps);
    Point pt;
    pt.phi = phi;
    pt.sparse_bpf = bpf;
    pt.dense_bpf = s.dense_unit_bpf / phi;
    pt.model_bpf = perf::sparse_traffic_model(p, lat, 8.0, phi).bpf_sparse;
    pt.total_bytes = total;
    s.points.push_back(pt);
  }

  // Measured crossover: the phi where (dense_bpf - sparse_bpf) changes sign,
  // linearly interpolated; 1.0 if the sparse path wins everywhere.
  s.measured_crossover = 1.0;
  for (std::size_t i = 0; i + 1 < s.points.size(); ++i) {
    const double a = s.points[i].dense_bpf - s.points[i].sparse_bpf;
    const double b = s.points[i + 1].dense_bpf - s.points[i + 1].sparse_bpf;
    if (a > 0 && b <= 0) {
      const double t = a / (a - b);
      s.measured_crossover =
          s.points[i].phi + t * (s.points[i + 1].phi - s.points[i].phi);
      break;
    }
  }
  s.predicted_crossover = perf::sparse_dense_crossover(p, lat, 8.0);
  return s;
}

bool write_json(const std::string& path, const std::vector<Series>& all) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\n  \"bench\": \"sparse_crossover\",\n  \"series\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Series& s = all[i];
    f << "    {\"lattice\": \"" << s.lattice << "\", \"pattern\": \""
      << s.pattern << "\", \"dense_bpf\": " << s.dense_unit_bpf
      << ", \"measured_crossover\": " << s.measured_crossover
      << ", \"predicted_crossover\": " << s.predicted_crossover
      << ", \"points\": [\n";
    for (std::size_t j = 0; j < s.points.size(); ++j) {
      const Point& p = s.points[j];
      f << "      {\"phi\": " << p.phi << ", \"sparse_bpf\": " << p.sparse_bpf
        << ", \"dense_bpf\": " << p.dense_bpf
        << ", \"model_bpf\": " << p.model_bpf
        << ", \"total_bytes_per_step\": " << p.total_bytes << "}"
        << (j + 1 < s.points.size() ? "," : "") << "\n";
    }
    f << "    ]}" << (i + 1 < all.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  return f.good();
}

bool gate(const Series& s) {
  bool ok = true;
  const Point* p1 = nullptr;  // forced-sparse all-fluid point
  for (const Point& p : s.points) {
    if (p.phi >= 0.999) p1 = &p;
    // Amortization gate at phi >= 0.3: value traffic dominates, so sparse
    // bytes per fluid update stay within 1.15x of the dense kernel's.
    if (p.phi >= 0.3 && p.sparse_bpf > 1.15 * s.dense_unit_bpf) {
      std::fprintf(stderr,
                   "error: %s/%s sparse bytes/FLUP %.1f exceeds 1.15x dense "
                   "%.1f at phi=%.2f\n",
                   s.lattice.c_str(), s.pattern.c_str(), p.sparse_bpf,
                   s.dense_unit_bpf, p.phi);
      ok = false;
    }
  }
  if (std::abs(s.measured_crossover - s.predicted_crossover) > 0.15) {
    std::fprintf(stderr,
                 "error: %s/%s crossover measured %.3f vs predicted %.3f\n",
                 s.lattice.c_str(), s.pattern.c_str(), s.measured_crossover,
                 s.predicted_crossover);
    ok = false;
  }
  // Scaling gate: total sparse bytes track the fluid fraction (within 30%
  // of proportionality against the all-fluid forced-sparse run).
  if (p1 != nullptr) {
    for (const Point& p : s.points) {
      if (p.phi < 0.25 || &p == p1) continue;
      const double ratio = p.total_bytes / p1->total_bytes;
      if (ratio > 1.3 * p.phi || ratio < 0.7 * p.phi) {
        std::fprintf(stderr,
                     "error: %s/%s total bytes ratio %.3f at phi=%.2f does "
                     "not scale with fluid fraction\n",
                     s.lattice.c_str(), s.pattern.c_str(), ratio, p.phi);
        ok = false;
      }
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.reject_unknown({"n2d", "n3d", "out", "smoke", "steps"});
  const bool smoke = cli.get_bool("smoke", false);
  const int steps = cli.get_int("steps", smoke ? 4 : 8, 1);
  const int n2d = cli.get_int("n2d", smoke ? 48 : 96, 1);
  const int n3d = cli.get_int("n3d", smoke ? 16 : 32, 1);
  const std::string out =
      cli.get("out", perf::results_dir() + "/BENCH_sparse.json");

  perf::print_banner("Geometry", "sparse vs dense traffic crossover");

  std::vector<Series> all;
  for (const char* name : {"st", "aa", "mr-p"}) {
    const EngineSpec spec = EngineSpec::parse(name);
    all.push_back(sweep<D2Q9>(spec, n2d, n2d, 1, steps));
    all.push_back(sweep<D3Q19>(spec, n3d, n3d, n3d, steps));
  }

  AsciiTable t({"lattice", "pattern", "dense B/FLUP", "sparse B/FLUP @0.3",
                "crossover meas", "crossover pred"});
  for (const Series& s : all) {
    double at03 = 0;
    for (const Point& p : s.points) {
      if (std::abs(p.phi - 0.3) < 0.1) at03 = p.sparse_bpf;
    }
    t.row({s.lattice, s.pattern, AsciiTable::num(s.dense_unit_bpf, 1),
           AsciiTable::num(at03, 1), AsciiTable::num(s.measured_crossover, 3),
           AsciiTable::num(s.predicted_crossover, 3)});
  }
  t.print();

  bool ok = true;
  for (const Series& s : all) ok = gate(s) && ok;

  if (!write_json(out, all)) {
    std::fprintf(stderr, "error: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  if (!ok) return 1;
  std::printf(
      "\nsolid tiles cost no bandwidth: sparse bytes track the fluid count,\n"
      "and the dense path only wins within ~1%% of an all-fluid box.\n");
  return 0;
}
