// Lid-driven cavity at moderate Reynolds number: a closed-box benchmark with
// a moving wall, run with the MR-R engine (recursive regularization improves
// stability at higher Re). Prints the centreline velocity profile and writes
// VTK output for visualization.
//
//   ./examples/lid_driven_cavity [--n 48] [--re 100] [--ulid 0.1]
//                                [--steps 8000] [--pattern SPEC (mr-r)]
//                                [--precision fp64|fp32]
//                                [--vtk cavity.vtk] [--sanitize]
//
// SPEC is the engine spec grammar (README, "Engine specs").
//
// --sanitize runs the engine under the mlbm-sanitizer (docs/sanitizer.md)
// and exits nonzero if any hazard is reported.
#include <cmath>
#include <cstdio>

#include "analysis/sanitizer/sanitizer.hpp"
#include "engines/engine_spec.hpp"
#include "io/vtk_writer.hpp"
#include "util/cli.hpp"
#include "workloads/cavity.hpp"

int main(int argc, char** argv) {
  using namespace mlbm;
  const Cli cli(argc, argv);
  cli.reject_unknown({"n", "pattern", "precision", "re", "sanitize", "steps", "ulid", "vtk"});
  const int n = cli.get_int("n", 48, 1);
  const real_t re = cli.get_double("re", 100);
  const real_t ulid = cli.get_double("ulid", 0.1);
  const int steps = cli.get_int("steps", 8000, 1);
  const EngineSpec spec = spec_from_cli(cli, "mr-r");

  // Choose tau from the requested Reynolds number: nu = ulid * n / Re.
  const real_t nu = ulid * n / re;
  const real_t tau = nu / D2Q9::cs2 + real_t(0.5);
  std::printf(
      "lid_driven_cavity: %dx%d, Re=%.0f, u_lid=%.2f -> tau=%.4f, storage "
      "%s\n",
      n, n, re, ulid, tau, to_string(spec.precision));

  const auto cav = LidDrivenCavity<D2Q9>::create(n, ulid);
  const auto eng_ptr = make_engine<D2Q9>(spec, cav.geo, tau);
  Engine<D2Q9>& eng = *eng_ptr;
  analysis::Sanitizer san;
  if (cli.has("sanitize")) eng.set_sanitizer(&san);
  cav.attach(eng);
  eng.profiler()->counter().set_enabled(false);

  const real_t mass0 = LidDrivenCavity<D2Q9>::total_mass(eng);
  eng.run(steps);
  const real_t mass1 = LidDrivenCavity<D2Q9>::total_mass(eng);

  // Vertical centreline u_x profile (the classic Ghia et al. diagnostic).
  std::printf("\n%6s %12s\n", "y/n", "u_x/u_lid");
  real_t u_min = 0;
  int y_min = 0;
  for (int y = 0; y < n; ++y) {
    const auto m = eng.moments_at(n / 2, y, 0);
    if (m.u[0] < u_min) {
      u_min = m.u[0];
      y_min = y;
    }
    if (y % std::max(1, n / 12) == 0) {
      std::printf("%6.3f %12.4f\n", (y + 0.5) / n, m.u[0] / ulid);
    }
  }
  std::printf("\nreturn-flow minimum u_x/u_lid = %.3f at y/n = %.2f "
              "(Ghia Re=100: about -0.21 at 0.46)\n",
              u_min / ulid, (y_min + 0.5) / n);
  std::printf("mass drift over %d steps: %.2e (bounceback conserves mass)\n",
              steps, std::abs(mass1 - mass0) / mass0);

  if (cli.has("vtk")) {
    write_vtk(eng, cli.get("vtk", "cavity.vtk"));
    std::printf("wrote %s\n", cli.get("vtk", "cavity.vtk").c_str());
  }
  if (cli.has("sanitize")) {
    std::printf("%s", san.report().to_string().c_str());
    if (!san.report().clean()) {
      std::fprintf(stderr, "sanitizer: %llu hazard(s) reported\n",
                   static_cast<unsigned long long>(san.report().total()));
      return 2;
    }
  }
  return 0;
}
