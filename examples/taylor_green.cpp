// Taylor-Green vortex decay study: validates the viscosity of every engine
// against the exact Navier-Stokes solution and writes the energy decay
// series to CSV for plotting.
//
//   ./examples/taylor_green [--n 48] [--tau 0.8] [--u0 0.03] [--steps 400]
//                           [--pattern all|SPEC] [--precision fp64|fp32]
//                           [--csv decay.csv] [--sanitize]
//
// SPEC is the engine spec grammar (README, "Engine specs"); `all` runs every
// pattern at the chosen precision.
//
// --sanitize runs every engine under the mlbm-sanitizer (racecheck /
// memcheck / initcheck / freshness / synccheck; docs/sanitizer.md) and exits
// nonzero if any hazard is reported.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/sanitizer/sanitizer.hpp"
#include "engines/engine_spec.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "workloads/analytic.hpp"
#include "workloads/taylor_green.hpp"

int main(int argc, char** argv) {
  using namespace mlbm;
  const Cli cli(argc, argv);
  cli.reject_unknown({"csv", "n", "pattern", "precision", "sanitize", "steps", "tau", "u0"});
  const int n = cli.get_int("n", 48, 1);
  const real_t tau = cli.get_double("tau", 0.8);
  const real_t u0 = cli.get_double("u0", 0.03);
  const int steps = cli.get_int("steps", 400, 1);
  const bool sanitize = cli.has("sanitize");
  const int sample_every = std::max(1, steps / 20);

  const auto tg = TaylorGreen<D2Q9>::create(n, u0);

  std::vector<EngineSpec> specs;
  if (cli.get("pattern", "all") == "all") {
    const StoragePrecision prec =
        EngineSpec::parse("st:" + cli.get("precision", "fp64")).precision;
    for (const EngineSpec& s : EngineSpec::all()) {
      if (s.precision == prec) specs.push_back(s);
    }
  } else {
    specs.push_back(spec_from_cli(cli, "all"));
  }
  std::vector<std::unique_ptr<Engine<D2Q9>>> owned;
  for (const EngineSpec& s : specs) {
    owned.push_back(make_engine<D2Q9>(s, tg.geo, tau));
  }

  const real_t nu = D2Q9::cs2 * (tau - real_t(0.5));
  std::printf("taylor_green: %dx%d, tau=%.3f (nu=%.4f), u0=%.3f, storage %s\n\n",
              n, n, tau, nu, u0, to_string(specs.front().precision));

  std::unique_ptr<CsvWriter> csv;
  if (cli.has("csv")) {
    csv = std::make_unique<CsvWriter>(
        cli.get("csv", "decay.csv"),
        std::vector<std::string>{"pattern", "t", "ke", "ke_analytic"});
  }

  int hazard_total = 0;
  for (const auto& e : owned) {
    analysis::Sanitizer san;
    if (sanitize) e->set_sanitizer(&san);
    tg.attach(*e);
    if (e->profiler() != nullptr) {
      e->profiler()->counter().set_enabled(false);
    }
    const real_t e0 = TaylorGreen<D2Q9>::kinetic_energy(*e);
    for (int t = 0; t < steps; t += sample_every) {
      e->run(sample_every);
      const real_t ke = TaylorGreen<D2Q9>::kinetic_energy(*e);
      const real_t decay = analytic::taylor_green_decay(n, nu, e->time());
      if (csv) {
        csv->row({e->pattern_name(), std::to_string(e->time()),
                  CsvWriter::num(ke), CsvWriter::num(e0 * decay * decay)});
      }
    }
    const real_t e1 = TaylorGreen<D2Q9>::kinetic_energy(*e);
    const real_t k = 2 * 3.14159265358979323846 / n;
    const double nu_meas = -std::log(e1 / e0) / (4 * k * k * e->time());
    std::printf("%-5s  nu measured %.5f  expected %.5f  error %+.2f%%\n",
                e->pattern_name(), nu_meas, nu,
                100 * (nu_meas - nu) / nu);
    if (sanitize) {
      std::printf("%s", san.report().to_string().c_str());
      hazard_total += static_cast<int>(san.report().total());
      e->set_sanitizer(nullptr);  // `san` dies with this loop iteration
    }
  }
  if (sanitize && hazard_total > 0) {
    std::fprintf(stderr, "sanitizer: %d hazard(s) reported\n", hazard_total);
    return 2;
  }

  if (csv) std::printf("\nwrote %s\n", cli.get("csv", "decay.csv").c_str());
  return 0;
}
