// Ablation: storage precision (FP64 vs FP32 storage, FP64 compute).
//
// The storage-precision policy stores device-resident state in FP32 while
// every collision/regularization stays FP64. Per pattern x precision this
// harness reports the three quantities the policy trades against each other:
//
//   footprint   state bytes per node (engine-reported and model),
//   traffic     measured read/write bytes per fluid lattice update — FP32
//               must be exactly half of FP64 for every pattern,
//   speed       predicted saturated MFLUPS on the paper's V100 (Eq. 15 with
//               the halved B/FLUP),
//
// plus the price: the maximum L2 velocity error of a Taylor-Green run
// against the FP64 host ReferenceEngine, which bounds what FP32 storage
// rounding does to the physics (compute-precision effects are excluded by
// construction — the fp64 row measures pure scheme/representation error).
//
// Results go to stdout and results/ablation_precision.json.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "engines/reference_engine.hpp"
#include "perfmodel/mflups_model.hpp"
#include "perfmodel/report.hpp"
#include "perfmodel/roofline.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace mlbm;

namespace {

struct Row {
  std::string lattice;
  std::string pattern;
  std::string precision;
  double state_bpn = 0;        ///< engine-reported state bytes per node
  double model_state_bpn = 0;  ///< perf::state_bytes per node
  double read_bpf = 0;         ///< measured read bytes per FLUP
  double write_bpf = 0;        ///< measured write bytes per FLUP
  double model_bpf = 0;        ///< Table 2 bytes per FLUP at this width
  double pred_mflups = 0;      ///< predicted saturated MFLUPS (V100)
  double roofline_mflups = 0;  ///< Eq. 15 ideal at this width
  double max_l2_err = 0;       ///< max L2 velocity error vs FP64 reference
};

CollisionScheme reference_scheme(perf::Pattern p) {
  switch (p) {
    case perf::Pattern::kST: return CollisionScheme::kBGK;
    case perf::Pattern::kMRP: return CollisionScheme::kProjective;
    case perf::Pattern::kMRR: return CollisionScheme::kRecursive;
  }
  return CollisionScheme::kBGK;
}

/// Max-over-time L2 velocity error of a Taylor-Green run against the FP64
/// host reference with the matching collision scheme.
template <class L>
double taylor_green_error(const EngineSpec& spec, int n, int nz, int steps) {
  const real_t tau = 0.8;
  const auto tg = TaylorGreen<L>::create(n, 0.03, nz);
  ReferenceEngine<L> ref(tg.geo, tau, reference_scheme(spec.perf_pattern()));
  auto eng = make_engine<L>(spec, tg.geo, tau);
  tg.attach(ref);
  tg.attach(*eng);

  const Box& b = tg.geo.box;
  double max_err = 0;
  for (int s = 0; s < steps; ++s) {
    ref.step();
    eng->step();
    double sum = 0;
    for (int z = 0; z < b.nz; ++z) {
      for (int y = 0; y < b.ny; ++y) {
        for (int x = 0; x < b.nx; ++x) {
          const Moments<L> a = eng->moments_at(x, y, z);
          const Moments<L> r = ref.moments_at(x, y, z);
          for (int d = 0; d < L::D; ++d) {
            const double du = a.u[static_cast<std::size_t>(d)] -
                              r.u[static_cast<std::size_t>(d)];
            sum += du * du;
          }
        }
      }
    }
    max_err = std::max(max_err,
                       std::sqrt(sum / static_cast<double>(b.cells())));
  }
  return max_err;
}

template <class L>
void run_lattice(std::vector<Row>& rows,
                 const std::vector<StoragePrecision>& precs, int traffic_n,
                 int tg_n, int tg_nz, int tg_steps) {
  const gpusim::DeviceSpec v100 = gpusim::DeviceSpec::v100();
  const perf::LatticeInfo lat = perf::lattice_info<L>();
  const Geometry geo = bench::periodic_geo(
      traffic_n, traffic_n, L::D == 3 ? traffic_n : 1);

  for (const char* name : {"st", "mr-p", "mr-r"}) {
    for (const StoragePrecision prec : precs) {
      EngineSpec spec = EngineSpec::parse(name);
      spec.precision = prec;
      const perf::Pattern p = spec.perf_pattern();
      Row r;
      r.lattice = L::name();
      r.pattern = perf::to_string(p);
      r.precision = to_string(prec);

      auto eng = make_engine<L>(spec, geo, 0.8);
      const auto t = measure_traffic<L>(*eng);
      const double cells = static_cast<double>(geo.box.cells());
      r.state_bpn = static_cast<double>(eng->state_bytes()) / cells;
      r.read_bpf = t.read_bytes_per_node;
      r.write_bpf = t.write_bytes_per_node;

      const double eb = perf::elem_bytes_of(prec);
      r.model_state_bpn = perf::state_bytes(p, lat, 1, false, eb);
      r.model_bpf = perf::bytes_per_flup(p, lat, eb);

      const perf::KernelCharacteristics kc = kernel_characteristics<L>(spec);
      const perf::PerfEstimate est = perf::estimate_saturated(v100, p, lat, kc);
      r.pred_mflups = est.mflups;
      r.roofline_mflups = est.roofline_mflups;

      r.max_l2_err = taylor_green_error<L>(spec, tg_n, tg_nz, tg_steps);
      rows.push_back(r);
    }
  }
}

bool write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\n  \"benchmark\": \"ablation_precision\",\n"
       "  \"device\": \"V100\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    f << "    {\"lattice\": \"" << r.lattice << "\", \"pattern\": \""
      << r.pattern << "\", \"precision\": \"" << r.precision
      << "\", \"state_bytes_per_node\": " << r.state_bpn
      << ", \"model_state_bytes_per_node\": " << r.model_state_bpn
      << ", \"read_bytes_per_flup\": " << r.read_bpf
      << ", \"write_bytes_per_flup\": " << r.write_bpf
      << ", \"model_bytes_per_flup\": " << r.model_bpf
      << ", \"predicted_mflups\": " << r.pred_mflups
      << ", \"roofline_mflups\": " << r.roofline_mflups
      << ", \"max_tg_l2_velocity_error\": " << r.max_l2_err << "}"
      << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  return f.good();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.reject_unknown({"out", "precision", "tg-steps"});
  const std::string prec_arg = cli.get("precision", "both");
  const int tg_steps = cli.get_int("tg-steps", 30, 1);
  const std::string out =
      cli.get("out", perf::results_dir() + "/ablation_precision.json");

  std::vector<StoragePrecision> precs;
  if (prec_arg == "both") {
    precs = {StoragePrecision::kFP64, StoragePrecision::kFP32};
  } else if (const auto p = parse_precision(prec_arg)) {
    precs = {*p};
  } else {
    std::fprintf(stderr, "error: --precision must be both, fp64 or fp32\n");
    return 1;
  }

  perf::print_banner("Ablation",
                     "Storage precision: FP32 store / FP64 compute");

  std::vector<Row> rows;
  run_lattice<D2Q9>(rows, precs, 64, 32, 1, tg_steps);
  run_lattice<D3Q19>(rows, precs, 16, 16, 8, tg_steps);

  AsciiTable t({"Lattice", "Pattern", "Prec", "state B/node", "read B/FLUP",
                "write B/FLUP", "model B/FLUP", "pred MFLUPS", "max L2 err"});
  for (const Row& r : rows) {
    t.row({r.lattice, r.pattern, r.precision, AsciiTable::num(r.state_bpn, 1),
           AsciiTable::num(r.read_bpf, 1), AsciiTable::num(r.write_bpf, 1),
           AsciiTable::num(r.model_bpf, 1), AsciiTable::num(r.pred_mflups, 0),
           AsciiTable::num(r.max_l2_err, 10)});
  }
  t.print();

  std::printf(
      "\nFP32 storage halves footprint, bytes/FLUP and therefore doubles the\n"
      "bandwidth-bound MFLUPS prediction; compute stays FP64, so the extra\n"
      "Taylor-Green error over the fp64 rows is pure storage rounding.\n");

  if (!write_json(out, rows)) {
    std::fprintf(stderr, "\nerror: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
