// Sanitizer overhead ablation: host MFLUPS with the mlbm-sanitizer off
// (the null-hook production path) and on (full shadow tracking).
//
// Two numbers matter:
//  * off-mode MFLUPS must sit on top of the host benchmark's baseline — the
//    sanitizer hook plumbing compiles to one hoisted null-pointer test per
//    launch/loop, so an un-instrumented run must not pay for the feature
//    (<2% is the acceptance gate; compare against perfbench's
//    counters-off rows);
//  * on-mode overhead is reported, not gated — shadow stamps on every
//    global element and shared word are expected to cost a few x, exactly
//    like compute-sanitizer on real hardware.
//
// The sanitized runs double as a correctness gate: a clean configuration
// reporting any hazard fails the benchmark with a nonzero exit.
//
//   ./bench/ablation_sanitizer [--n 192] [--steps 24] [--n3d 32]
//                              [--steps3d 6] [--out results/...json]
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/sanitizer/sanitizer.hpp"
#include "common.hpp"
#include "perfmodel/report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace mlbm;

namespace {

struct Result {
  std::string pattern;
  std::string lattice;
  int n;
  int steps;
  bool sanitize;
  double seconds;
  double mflups;
  std::uint64_t hazards;
};

template <class L>
void measure(std::vector<Result>& out, const char* pattern, Geometry geo,
             int steps, bool& hazard_seen, const auto& make) {
  const Box& b = geo.box;
  for (const bool sanitize : {false, true}) {
    auto eng = make();
    analysis::Sanitizer san;
    if (sanitize) eng->set_sanitizer(&san);
    eng->initialize(
        [](int, int, int) { return equilibrium_moments<L>(1.0, {}); });
    eng->profiler()->counter().set_enabled(false);
    eng->step();  // warm-up excluded
    Timer t;
    eng->run(steps);
    const double s = t.elapsed_s();
    const std::uint64_t hazards = sanitize ? san.report().total() : 0;
    if (hazards != 0) {
      std::fprintf(stderr, "HAZARDS on clean config %s:\n%s", pattern,
                   san.report().to_string().c_str());
      hazard_seen = true;
    }
    if (sanitize) eng->set_sanitizer(nullptr);
    const double nodes =
        static_cast<double>(b.cells()) * static_cast<double>(steps);
    out.push_back({pattern, L::name(), b.nx, steps, sanitize, s,
                   nodes / 1e6 / s, hazards});
  }
}

bool write_json(const std::string& path, const std::vector<Result>& rows) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\n  \"benchmark\": \"ablation_sanitizer\",\n  \"unit\": \"MFLUPS "
       "(host)\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Result& r = rows[i];
    f << "    {\"pattern\": \"" << r.pattern << "\", \"lattice\": \""
      << r.lattice << "\", \"n\": " << r.n << ", \"steps\": " << r.steps
      << ", \"sanitize\": " << (r.sanitize ? "true" : "false")
      << ", \"seconds\": " << r.seconds << ", \"mflups\": " << r.mflups
      << ", \"hazards\": " << r.hazards << "}"
      << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  return f.good();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.reject_unknown({"n", "n3d", "out", "steps", "steps3d"});
  const int n = cli.get_int("n", 192, 1);
  const int steps = cli.get_int("steps", 24, 1);
  const int n3d = cli.get_int("n3d", 32, 1);
  const int steps3d = cli.get_int("steps3d", 6, 1);
  const std::string out = cli.get("out", "results/ablation_sanitizer.json");
  const real_t tau = 0.8;

  perf::print_banner("Sanitizer ablation",
                     "Host MFLUPS with the mlbm-sanitizer off/on");

  bool hazard_seen = false;
  std::vector<Result> rows;
  {
    const Geometry geo = bench::periodic_geo(n, n, 1);
    const MrConfig cfg = default_mr_config(2);
    const MrConfig circ{cfg.tile_x, cfg.tile_y, cfg.tile_s,
                        MomentStorage::kCircularShift};
    measure<D2Q9>(rows, "ST", geo, steps, hazard_seen,
                  [&] { return std::make_unique<StEngine<D2Q9>>(geo, tau); });
    measure<D2Q9>(rows, "MR-P", geo, steps, hazard_seen, [&] {
      return std::make_unique<MrEngine<D2Q9>>(
          geo, tau, Regularization::kProjective, circ);
    });
    measure<D2Q9>(rows, "MR-R", geo, steps, hazard_seen, [&] {
      return std::make_unique<MrEngine<D2Q9>>(
          geo, tau, Regularization::kRecursive, circ);
    });
  }
  {
    const Geometry geo = bench::periodic_geo(n3d, n3d, n3d);
    const MrConfig cfg = default_mr_config(3);
    const MrConfig circ{cfg.tile_x, cfg.tile_y, cfg.tile_s,
                        MomentStorage::kCircularShift};
    measure<D3Q19>(rows, "ST", geo, steps3d, hazard_seen, [&] {
      return std::make_unique<StEngine<D3Q19>>(geo, tau);
    });
    measure<D3Q19>(rows, "MR-P", geo, steps3d, hazard_seen, [&] {
      return std::make_unique<MrEngine<D3Q19>>(
          geo, tau, Regularization::kProjective, circ);
    });
  }

  AsciiTable t({"Pattern", "Lattice", "N", "Sanitize", "Seconds", "MFLUPS"});
  for (const Result& r : rows) {
    t.row({r.pattern, r.lattice, std::to_string(r.n), r.sanitize ? "on" : "off",
           AsciiTable::num(r.seconds, 3), AsciiTable::num(r.mflups, 2)});
  }
  t.print();

  std::printf("\nsanitizer overhead (time on / time off):\n");
  for (std::size_t i = 0; i + 1 < rows.size(); i += 2) {
    std::printf("  %-5s %-6s %.2fx\n", rows[i].pattern.c_str(),
                rows[i].lattice.c_str(),
                rows[i + 1].seconds / rows[i].seconds);
  }
  std::printf(
      "\noff-mode rows are the null-hook production path; compare them to\n"
      "perfbench's counters-off rows for the <2%% plumbing gate.\n");

  if (!write_json(out, rows)) {
    std::fprintf(stderr, "\nerror: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  return hazard_seen ? 2 : 0;
}
