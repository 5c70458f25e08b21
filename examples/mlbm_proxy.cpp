// mlbm_proxy — the configurable proxy application.
//
// The paper evaluates "CUDA and HIP proxy applications" that simulate
// channel flow with each propagation pattern; this driver is that artifact
// for the simulator: pick a lattice, pattern, workload, size and (optional)
// slab decomposition from the command line, run, and get a physics summary
// plus the traffic/footprint report of the run.
//
//   ./examples/mlbm_proxy --lattice d2q9 --pattern mr-p --workload channel
//                         --nx 96 --ny 32 --steps 2000 [--devices 2]
//                         [--tau 0.8] [--umax 0.05] [--vtk out.vtk]
//                         [--save state.ckpt] [--load state.ckpt]
//
// Patterns: the engine spec grammar (README, "Engine specs"), e.g. mr-p,
// ep:fp32, mr-r:fp64:16x1x4
// Workloads: channel | cavity | taylor-green | shear-layer
// Lattices: d2q9 | d3q19 | d3q15 | d3q27
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "engines/engine_spec.hpp"
#include "io/checkpoint.hpp"
#include "io/vtk_writer.hpp"
#include "multidev/multi_domain.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"
#include "workloads/cavity.hpp"
#include "workloads/channel.hpp"
#include "workloads/shear_layer.hpp"
#include "workloads/taylor_green.hpp"

namespace {

using namespace mlbm;

template <class L>
int run(const Cli& cli) {
  const EngineSpec spec = EngineSpec::parse(cli.get("pattern", "mr-p"));
  const std::string workload = cli.get("workload", "channel");
  const int nx = cli.get_int("nx", L::D == 2 ? 96 : 48, 1);
  const int ny = cli.get_int("ny", 32, 1);
  const int nz = cli.get_int("nz", L::D == 2 ? 1 : 16, 1);
  const real_t tau = cli.get_double("tau", 0.8);
  const real_t umax = cli.get_double("umax", 0.05);
  const int steps = cli.get_int("steps", 1000, 1);
  const int devices = cli.get_int("devices", 1, 1);

  // Build the workload geometry + attach hooks.
  Geometry geo(Box{1, 1, 1});
  std::function<void(Engine<L>&)> attach;
  if (workload == "channel") {
    auto ch = std::make_shared<Channel<L>>(
        Channel<L>::create(nx, ny, nz, tau, umax));
    geo = ch->geo;
    attach = [ch](Engine<L>& e) { ch->attach(e); };
  } else if (workload == "cavity") {
    auto cav = std::make_shared<LidDrivenCavity<L>>(
        LidDrivenCavity<L>::create(nx, umax));
    geo = cav->geo;
    attach = [cav](Engine<L>& e) { cav->attach(e); };
  } else if (workload == "taylor-green") {
    auto tg = std::make_shared<TaylorGreen<L>>(
        TaylorGreen<L>::create(nx, umax, L::D == 2 ? 1 : nz));
    geo = tg->geo;
    attach = [tg](Engine<L>& e) { tg->attach(e); };
  } else if (workload == "shear-layer") {
    if constexpr (L::D == 2 || L::Q == 19) {
      auto sl = std::make_shared<DoubleShearLayer<L>>(
          DoubleShearLayer<L>::create(nx, umax));
      geo = sl->geo;
      attach = [sl](Engine<L>& e) { sl->attach(e); };
    } else {
      throw std::invalid_argument("shear-layer supports d2q9/d3q19 only");
    }
  } else {
    throw std::invalid_argument("unknown --workload " + workload);
  }

  // Engine (optionally decomposed into slabs).
  const std::unique_ptr<Engine<L>> eng =
      devices > 1 ? make_multi_engine<L>(spec, geo, tau, devices)
                  : make_engine<L>(spec, geo, tau);
  attach(*eng);

  if (cli.has("load")) load_checkpoint(*eng, cli.get("load", ""));

  std::printf("mlbm_proxy: %s | %s | %s | %dx%dx%d | tau=%.3f | %d steps"
              "%s\n",
              L::name(), eng->pattern_name(), workload.c_str(), geo.box.nx,
              geo.box.ny, geo.box.nz, tau, steps,
              devices > 1 ? (" | " + std::to_string(devices) + " devices").c_str()
                          : "");

  Timer timer;
  eng->run(steps);
  const double elapsed = timer.elapsed_s();
  const double mlups =
      static_cast<double>(geo.box.cells()) * steps / elapsed / 1e6;

  // Physics summary: bulk statistics of the final state.
  real_t rho_min = 1e30, rho_max = -1e30, umax_seen = 0;
  for (int z = 0; z < geo.box.nz; ++z) {
    for (int y = 0; y < geo.box.ny; ++y) {
      for (int x = 0; x < geo.box.nx; ++x) {
        const auto m = eng->moments_at(x, y, z);
        rho_min = std::min(rho_min, m.rho);
        rho_max = std::max(rho_max, m.rho);
        for (int a = 0; a < L::D; ++a) {
          umax_seen = std::max(umax_seen,
                               std::abs(m.u[static_cast<std::size_t>(a)]));
        }
      }
    }
  }
  std::printf("host throughput: %.2f MLUPS (%.2fs)\n", mlups, elapsed);
  std::printf("state: rho in [%.6f, %.6f], max |u| = %.5f\n", rho_min,
              rho_max, umax_seen);
  std::printf("footprint: %.2f MiB simulation state\n",
              eng->state_bytes() / 1048576.0);
  if (eng->profiler() != nullptr) {
    const auto t = eng->profiler()->total_traffic();
    std::printf("simulated DRAM traffic: %.1f MiB (%.1f B per node-update)\n",
                t.bytes_total() / 1048576.0,
                static_cast<double>(t.bytes_total()) /
                    (static_cast<double>(geo.box.cells()) * eng->time()));
  }
  if (auto* multi = dynamic_cast<MultiDomainEngine<L>*>(eng.get())) {
    std::printf("ghost exchange: %llu values (%.2f MiB) over the run\n",
                static_cast<unsigned long long>(multi->exchanged_values_total()),
                multi->exchanged_values_total() * sizeof(real_t) / 1048576.0);
  }

  if (cli.has("save")) {
    save_checkpoint(*eng, cli.get("save", "state.ckpt"));
    std::printf("saved %s\n", cli.get("save", "state.ckpt").c_str());
  }
  if (cli.has("vtk")) {
    write_vtk(*eng, cli.get("vtk", "proxy.vtk"));
    std::printf("wrote %s\n", cli.get("vtk", "proxy.vtk").c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const mlbm::Cli cli(argc, argv);
  cli.reject_unknown({"devices", "lattice", "load", "nx", "ny", "nz", "pattern", "save", "steps", "tau", "umax", "vtk", "workload"});
  const std::string lattice = cli.get("lattice", "d2q9");
  try {
    if (lattice == "d2q9") return run<mlbm::D2Q9>(cli);
    if (lattice == "d3q19") return run<mlbm::D3Q19>(cli);
    if (lattice == "d3q15") return run<mlbm::D3Q15>(cli);
    if (lattice == "d3q27") return run<mlbm::D3Q27>(cli);
    std::fprintf(stderr, "unknown --lattice %s\n", lattice.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mlbm_proxy: %s\n", e.what());
  }
  return 1;
}
