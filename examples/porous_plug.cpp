// Pressure-driven flow through a random porous plug: the sparse path's
// stress workload. Sweeping --solid dials the fluid fraction the
// tile-compressed engines see; the superficial velocity the flow settles to
// is the Darcy flux a permeability estimate reads.
//
//   ./examples/porous_plug [--nx 96] [--ny 32] [--nz 1] [--tau 0.8]
//                          [--uin 0.02] [--solid 0.3] [--seed 11]
//                          [--steps 3000] [--pattern SPEC (mr-p)]
//                          [--precision fp64|fp32] [--lattice d2q9|d3q19]
//                          [--vtk plug.vtk] [--sanitize]
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
#include "workloads/porous_plug.hpp"

namespace {

using namespace mlbm;

template <class L>
int run(const Cli& cli) {
  const int nx = cli.get_int("nx", 96, 16);
  const int ny = cli.get_int("ny", 32, 4);
  const int nz = cli.get_int("nz", L::D == 2 ? 1 : 16, 1);
  const real_t tau = cli.get_double("tau", 0.8);
  const real_t uin = cli.get_double("uin", 0.02);
  const double solid = cli.get_double("solid", 0.3);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 11, 0));
  const int steps = cli.get_int("steps", 3000, 1);
  const EngineSpec spec = spec_from_cli(cli, "mr-p");

  const auto plug = PorousPlug<L>::create(nx, ny, nz, tau, uin, solid, seed);
  std::printf(
      "porous_plug: %s %dx%dx%d, tau=%.3f, u_in=%.3f, solid fraction %.2f "
      "(fluid fraction seen: %.3f), storage %s\n",
      L::name(), nx, ny, nz, tau, uin, solid, plug.fluid_fraction,
      to_string(spec.precision));

  const auto eng_ptr = make_engine<L>(spec, plug.geo, tau);
  Engine<L>& eng = *eng_ptr;
  analysis::Sanitizer san;
  if (cli.has("sanitize")) eng.set_sanitizer(&san);
  plug.attach(eng);
  eng.profiler()->counter().set_enabled(false);

  // Run in chunks; the superficial velocity settling flat signals the flow
  // has found its way through the matrix.
  const int chunks = 6;
  std::printf("\n%8s %14s %12s\n", "step", "u_superficial", "u_s/u_in");
  for (int c = 0; c < chunks; ++c) {
    eng.run(steps / chunks);
    const real_t us = plug.superficial_velocity(eng);
    std::printf("%8d %14.6f %12.4f\n", eng.time(), us, us / uin);
  }
  const real_t us = plug.superficial_velocity(eng);
  std::printf("\nDarcy flux u_s = %.6f (%.1f%% of the open-channel inflow); "
              "flow resistance u_in/u_s = %.2f\n",
              us, 100 * us / uin, uin / us);
  std::printf("footprint: %.2f MiB simulation state (%s)\n",
              eng.state_bytes() / 1048576.0, eng.pattern_name());

  if (cli.has("vtk")) {
    write_vtk(eng, cli.get("vtk", "plug.vtk"));
    std::printf("wrote %s\n", cli.get("vtk", "plug.vtk").c_str());
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

}  // namespace

int main(int argc, char** argv) {
  const mlbm::Cli cli(argc, argv);
  cli.reject_unknown({"lattice", "nx", "ny", "nz", "pattern", "precision",
                      "sanitize", "seed", "solid", "steps", "tau", "uin",
                      "vtk"});
  const std::string lattice = cli.get("lattice", "d2q9");
  if (lattice == "d2q9") return run<mlbm::D2Q9>(cli);
  if (lattice == "d3q19") return run<mlbm::D3Q19>(cli);
  std::fprintf(stderr, "error: --lattice must be d2q9 or d3q19\n");
  return 1;
}
