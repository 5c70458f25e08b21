// Flow past a circular cylinder (Schaefer-Turek 2D-1, laminar Re = 20):
// a momentum-exchange benchmark with a curved obstacle. Prints the drag and
// lift coefficients against the benchmark references and writes VTK output
// for visualization.
//
//   ./examples/cylinder_wake [--d 12] [--re 20] [--umean 0.05]
//                            [--steps 6000] [--pattern SPEC (mr-p)]
//                            [--precision fp64|fp32]
//                            [--vtk wake.vtk] [--sanitize]
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
#include "workloads/cylinder_wake.hpp"

int main(int argc, char** argv) {
  using namespace mlbm;
  const Cli cli(argc, argv);
  cli.reject_unknown({"d", "pattern", "precision", "re", "sanitize", "steps",
                      "umean", "vtk"});
  const int d = cli.get_int("d", 12, 4);
  const real_t re = cli.get_double("re", 20);
  const real_t umean = cli.get_double("umean", 0.05);
  const int steps = cli.get_int("steps", 6000, 1);
  const EngineSpec spec = spec_from_cli(cli, "mr-p");

  const auto wake = CylinderWake<D2Q9>::create(d, umean, re);
  std::printf(
      "cylinder_wake: %dx%d, D=%d nodes, Re=%.0f, u_mean=%.3f -> tau=%.4f, "
      "storage %s\n",
      wake.geo.box.nx, wake.geo.box.ny, d, re, umean, wake.tau,
      to_string(spec.precision));

  const auto eng_ptr = make_engine<D2Q9>(spec, wake.geo, wake.tau);
  Engine<D2Q9>& eng = *eng_ptr;
  analysis::Sanitizer san;
  if (cli.has("sanitize")) eng.set_sanitizer(&san);
  wake.attach(eng);
  eng.profiler()->counter().set_enabled(false);

  // Converge in chunks and report the load history: the 2D-1 case is steady,
  // so Cd/Cl settling flat is the convergence diagnostic.
  const int chunks = 6;
  std::printf("\n%8s %10s %10s\n", "step", "Cd", "Cl");
  for (int c = 0; c < chunks; ++c) {
    eng.run(steps / chunks);
    std::printf("%8d %10.4f %10.4f\n", eng.time(),
                wake.drag_coefficient(eng), wake.lift_coefficient(eng));
  }
  const real_t cd = wake.drag_coefficient(eng);
  const real_t cl = wake.lift_coefficient(eng);
  std::printf("\nCd = %.4f (Schaefer-Turek 2D-1: 5.5795), "
              "Cl = %.4f (reference 0.0106)\n",
              cd, cl);

  if (cli.has("vtk")) {
    write_vtk(eng, cli.get("vtk", "wake.vtk"));
    std::printf("wrote %s\n", cli.get("vtk", "wake.vtk").c_str());
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
