// Pattern comparison walk-through: runs the same 2D channel on all three
// propagation patterns, prints the per-pattern traffic/footprint/occupancy
// story of the paper, and demonstrates checkpoint portability between
// representations.
//
//   ./examples/pattern_comparison [--nx 128] [--ny 64] [--steps 200]
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "engines/mr_engine.hpp"
#include "engines/st_engine.hpp"
#include "gpusim/occupancy.hpp"
#include "io/checkpoint.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads/channel.hpp"

int main(int argc, char** argv) {
  using namespace mlbm;
  const Cli cli(argc, argv);
  cli.reject_unknown({"nx", "ny", "steps"});
  const int nx = cli.get_int("nx", 128, 1);
  const int ny = cli.get_int("ny", 64, 1);
  const int steps = cli.get_int("steps", 200, 1);
  const real_t tau = 0.8, umax = 0.05;

  const auto ch = Channel<D2Q9>::create(nx, ny, 1, tau, umax);

  StEngine<D2Q9> st(ch.geo, tau);
  MrEngine<D2Q9> mrp(ch.geo, tau, Regularization::kProjective, {32, 1, 4});
  MrEngine<D2Q9> mrr(ch.geo, tau, Regularization::kRecursive, {32, 1, 4});

  AsciiTable t({"pattern", "state MiB", "GB moved / 1k steps", "bytes/node/step",
                "V100 blocks/SM"});
  const auto v100 = gpusim::DeviceSpec::v100();

  auto report = [&](Engine<D2Q9>& e, int threads, std::size_t shared) {
    ch.attach(e);
    e.run(steps);
    const auto traffic = e.profiler()->total_traffic();
    const double per_node =
        static_cast<double>(traffic.bytes_total()) /
        (static_cast<double>(e.geometry().box.cells()) * steps);
    const auto occ = gpusim::compute_occupancy(v100, threads, shared);
    t.row({e.pattern_name(),
           AsciiTable::num(e.state_bytes() / 1048576.0, 2),
           AsciiTable::num(per_node * e.geometry().box.cells() * 1000 / 1e9, 2),
           AsciiTable::num(per_node, 1), std::to_string(occ.blocks_per_sm)});
  };

  report(st, st.threads_per_block(), 0);
  report(mrp, mrp.threads_per_block(), mrp.shared_bytes_per_block());
  report(mrr, mrr.threads_per_block(), mrr.shared_bytes_per_block());
  t.print();

  // Checkpoint portability: continue the ST run inside an MR engine.
  // Per-process name: concurrent runs must not share the file.
  const std::string ckpt =
      (std::filesystem::temp_directory_path() /
       ("pattern_comparison." + std::to_string(::getpid()) + ".ckpt"))
          .string();
  save_checkpoint(st, ckpt);
  MrEngine<D2Q9> resumed(ch.geo, tau, Regularization::kProjective, {32, 1, 4});
  ch.attach(resumed);  // installs the BC pass
  load_checkpoint(resumed, ckpt);
  resumed.run(50);
  std::printf("\nresumed the ST run inside an MR-P engine for 50 more steps; "
              "mid-channel u_x = %.5f\n",
              resumed.moments_at(nx / 2, ny / 2, 0).u[0]);
  std::filesystem::remove(ckpt);
  return 0;
}
