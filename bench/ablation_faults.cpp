// Ablation: fault injection and recovery (resilience subsystem).
//
// Three questions about wrapping an engine in the ResilientRunner:
//
//   overhead      what does checkpoint/sentinel protection cost when nothing
//                 ever faults? (Target: < 2% wall clock vs the bare engine.)
//   survival      do runs under injected storage bit flips, transient launch
//                 failures and halo corruption still *complete* Taylor-Green
//                 (or the channel flow), and is the final physical error
//                 within the no-fault bound? Recovery from *detected* faults
//                 is bit-exact (rollback + deterministic replay); undetected
//                 low-mantissa flips perturb at round-off, far below the
//                 scheme error, so the bound holds either way.
//   determinism   does the same fault seed reproduce the same fault trace,
//                 the same recovery sequence and the same final state?
//
// Results go to stdout and results/ablation_faults.json. Exit status is
// non-zero when a fault run fails to complete or breaks its error bound /
// reproducibility contract (the overhead row is reported but not gated —
// tiny smoke grids are timing-noise dominated).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engines/engine_spec.hpp"
#include "engines/mr_engine.hpp"
#include "engines/st_engine.hpp"
#include "multidev/multi_domain.hpp"
#include "perfmodel/report.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/runner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads/channel.hpp"
#include "workloads/taylor_green.hpp"

using namespace mlbm;
using resilience::FaultConfig;
using resilience::FaultInjector;
using resilience::ResilientRunner;
using resilience::RunnerConfig;

namespace {

using EngineFactory = std::function<std::unique_ptr<Engine<D2Q9>>()>;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct OverheadRow {
  std::string pattern;
  int steps = 0;
  double bare_ms = 0;
  double runner_ms = 0;
  [[nodiscard]] double overhead_pct() const {
    return bare_ms > 0 ? (runner_ms - bare_ms) / bare_ms * 100.0 : 0;
  }
};

struct FaultRow {
  std::string workload;
  std::string pattern;
  double bitflip_rate = 0;
  double launch_fail_rate = 0;
  double halo_corrupt_rate = 0;
  int steps = 0;
  bool completed = false;
  int rollbacks = 0;
  int launch_failures = 0;
  int sentinel_trips = 0;
  int faults_injected = 0;
  double no_fault_err = 0;  ///< final L2 velocity error, unfaulted run
  double final_err = 0;     ///< final L2 velocity error, faulted run
  double max_dev = 0;       ///< max abs moment deviation vs unfaulted run
  bool within_bound = false;
  bool reproducible = false;
};

std::vector<double> dump_moments(const Engine<D2Q9>& e) {
  std::vector<double> out;
  const Box& b = e.geometry().box;
  for (int y = 0; y < b.ny; ++y) {
    for (int x = 0; x < b.nx; ++x) {
      const auto m = e.moments_at(x, y, 0);
      out.push_back(m.rho);
      out.push_back(m.u[0]);
      out.push_back(m.u[1]);
      out.push_back(m.pi[0]);
      out.push_back(m.pi[1]);
      out.push_back(m.pi[2]);
    }
  }
  return out;
}

double max_abs_dev(const std::vector<double>& a, const std::vector<double>& b) {
  double dev = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    dev = std::max(dev, std::abs(a[i] - b[i]));
  }
  return dev;
}

/// L2 velocity error of a Taylor-Green run against the analytic decay.
double tg_error(const Engine<D2Q9>& eng, const TaylorGreen<D2Q9>& tg,
                int steps) {
  const Box& b = eng.geometry().box;
  const real_t nu = eng.viscosity();
  double sum = 0;
  for (int y = 0; y < b.ny; ++y) {
    for (int x = 0; x < b.nx; ++x) {
      const auto ua = tg.velocity(x, y, nu, static_cast<real_t>(steps));
      const auto m = eng.moments_at(x, y, 0);
      const double du = m.u[0] - ua[0];
      const double dv = m.u[1] - ua[1];
      sum += du * du + dv * dv;
    }
  }
  return std::sqrt(sum / static_cast<double>(b.cells()));
}

/// Survival sentinel: tight enough around the Taylor-Green / channel state
/// (rho ~ 1, |u| <= a few percent) that exponent-scale corruption trips it.
resilience::SentinelConfig tight_sentinel(int cadence) {
  resilience::SentinelConfig s;
  s.cadence = cadence;
  s.min_rho = real_t(0.5);
  s.max_rho = real_t(2.0);
  s.max_speed = real_t(0.3);
  return s;
}

/// Median-of-reps wall clock of `fn`.
double median_ms(int reps, const std::function<double()>& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) times.push_back(fn());
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

OverheadRow measure_overhead(const std::string& pattern,
                             const EngineFactory& make, int steps, int reps) {
  OverheadRow row;
  row.pattern = pattern;
  row.steps = steps;
  row.bare_ms = median_ms(reps, [&make, steps]() {
    auto eng = make();
    const double t0 = now_ms();
    eng->run(steps);
    return now_ms() - t0;
  });
  row.runner_ms = median_ms(reps, [&make, steps]() {
    RunnerConfig rc;
    rc.checkpoint_interval = 128;
    rc.sentinel.cadence = 64;
    ResilientRunner<D2Q9> runner(make(), rc);
    const double t0 = now_ms();
    runner.run(steps);
    return now_ms() - t0;
  });
  return row;
}

/// Runs `make`'s engine for `steps` under the given fault rates (twice, same
/// seed, to pin reproducibility) and compares against the unfaulted run.
/// `tg` is null for non-Taylor-Green workloads (skips the analytic error).
FaultRow run_faulted(const std::string& workload, const std::string& pattern,
                     const EngineFactory& make, const TaylorGreen<D2Q9>* tg,
                     int steps, FaultConfig fc) {
  FaultRow row;
  row.workload = workload;
  row.pattern = pattern;
  row.bitflip_rate = fc.bitflip_rate;
  row.launch_fail_rate = fc.launch_fail_rate;
  row.halo_corrupt_rate = fc.halo_corrupt_rate;
  row.steps = steps;

  auto clean = make();
  clean->run(steps);
  const auto clean_dump = dump_moments(*clean);
  if (tg != nullptr) row.no_fault_err = tg_error(*clean, *tg, steps);

  RunnerConfig rc;
  rc.checkpoint_interval = 8;
  // With every injected flip detectable, a window only completes when no
  // fault lands in it: give the retry loop enough budget that survival is
  // essentially certain at the configured rates.
  rc.max_retries_per_window = 12;
  rc.sentinel = tight_sentinel(4);

  auto one_run = [&](std::string& trace, std::string& recovery,
                     std::vector<double>& dump, FaultRow& out) -> bool {
    FaultInjector inj(fc);
    ResilientRunner<D2Q9> runner(make(), rc);
    runner.set_fault_injector(&inj);
    try {
      const auto rep = runner.run(steps);
      out.rollbacks = rep.rollbacks;
      out.launch_failures = rep.launch_failures;
      out.sentinel_trips = rep.sentinel_trips;
      out.faults_injected = static_cast<int>(inj.trace().size());
      trace = inj.trace_string();
      recovery = rep.describe();
      dump = dump_moments(runner.engine());
      if (tg != nullptr) out.final_err = tg_error(runner.engine(), *tg, steps);
      return rep.steps == steps;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "  [%s/%s] run did not complete: %s\n",
                   workload.c_str(), pattern.c_str(), e.what());
      return false;
    }
  };

  std::string trace_a, trace_b, rec_a, rec_b;
  std::vector<double> dump_a, dump_b;
  FaultRow scratch = row;
  row.completed = one_run(trace_a, rec_a, dump_a, row);
  const bool completed_b = one_run(trace_b, rec_b, dump_b, scratch);

  if (row.completed) {
    row.max_dev = max_abs_dev(clean_dump, dump_a);
    // The no-fault bound: detected faults recover bit-exactly; undetected
    // low-bit flips may perturb at round-off, orders below the scheme error.
    row.within_bound =
        tg == nullptr
            ? row.max_dev == 0
            : row.final_err <= row.no_fault_err * 1.01 + 1e-10;
    row.reproducible = completed_b && trace_a == trace_b && rec_a == rec_b &&
                       dump_a == dump_b;
  }
  return row;
}

bool write_json(const std::string& path, const std::vector<OverheadRow>& ov,
                const std::vector<FaultRow>& faults) {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\n  \"benchmark\": \"ablation_faults\",\n  \"overhead\": [\n";
  for (std::size_t i = 0; i < ov.size(); ++i) {
    const OverheadRow& r = ov[i];
    f << "    {\"pattern\": \"" << r.pattern << "\", \"steps\": " << r.steps
      << ", \"bare_ms\": " << r.bare_ms << ", \"runner_ms\": " << r.runner_ms
      << ", \"overhead_pct\": " << r.overhead_pct() << "}"
      << (i + 1 < ov.size() ? "," : "") << "\n";
  }
  f << "  ],\n  \"fault_runs\": [\n";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultRow& r = faults[i];
    f << "    {\"workload\": \"" << r.workload << "\", \"pattern\": \""
      << r.pattern << "\", \"bitflip_rate\": " << r.bitflip_rate
      << ", \"launch_fail_rate\": " << r.launch_fail_rate
      << ", \"halo_corrupt_rate\": " << r.halo_corrupt_rate
      << ", \"steps\": " << r.steps
      << ", \"completed\": " << (r.completed ? "true" : "false")
      << ", \"faults_injected\": " << r.faults_injected
      << ", \"rollbacks\": " << r.rollbacks
      << ", \"launch_failures\": " << r.launch_failures
      << ", \"sentinel_trips\": " << r.sentinel_trips
      << ", \"no_fault_error\": " << r.no_fault_err
      << ", \"final_error\": " << r.final_err
      << ", \"max_deviation_vs_clean\": " << r.max_dev
      << ", \"within_no_fault_bound\": " << (r.within_bound ? "true" : "false")
      << ", \"seed_reproducible\": " << (r.reproducible ? "true" : "false")
      << "}" << (i + 1 < faults.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  return f.good();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  cli.reject_unknown({"n", "out", "ov-n", "ov-steps", "reps", "steps"});
  const int n = cli.get_int("n", 32, 1);            // fault-run grid
  const int steps = cli.get_int("steps", 96, 1);    // fault-run steps
  const int ov_n = cli.get_int("ov-n", 48, 1);      // overhead grid
  const int ov_steps = cli.get_int("ov-steps", 384, 1);
  const int reps = cli.get_int("reps", 3, 1);
  const std::string out =
      cli.get("out", perf::results_dir() + "/ablation_faults.json");

  perf::print_banner("Ablation",
                     "Fault injection: runner overhead, survival, determinism");

  const real_t tau = 0.8;
  const auto tg_ov = TaylorGreen<D2Q9>::create(ov_n, 0.03);
  const auto tg = TaylorGreen<D2Q9>::create(n, 0.03);

  const EngineFactory st_ov = [&tg_ov, tau]() -> std::unique_ptr<Engine<D2Q9>> {
    auto e = std::make_unique<StEngine<D2Q9>>(tg_ov.geo, tau);
    tg_ov.attach(*e);
    return e;
  };
  const EngineFactory mrp_ov = [&tg_ov,
                                tau]() -> std::unique_ptr<Engine<D2Q9>> {
    auto e = std::make_unique<MrEngine<D2Q9>>(tg_ov.geo, tau,
                                              Regularization::kProjective);
    tg_ov.attach(*e);
    return e;
  };
  const EngineFactory st_tg = [&tg, tau]() -> std::unique_ptr<Engine<D2Q9>> {
    auto e = std::make_unique<StEngine<D2Q9>>(tg.geo, tau);
    tg.attach(*e);
    return e;
  };
  const EngineFactory mrp_tg = [&tg, tau]() -> std::unique_ptr<Engine<D2Q9>> {
    auto e = std::make_unique<MrEngine<D2Q9>>(tg.geo, tau,
                                              Regularization::kProjective);
    tg.attach(*e);
    return e;
  };
  const auto ch = Channel<D2Q9>::create(2 * n, std::max(n / 2, 6), 1, tau,
                                        0.04);
  const EngineFactory multi_ch = [&ch, tau]() -> std::unique_ptr<Engine<D2Q9>> {
    auto m = make_multi_engine<D2Q9>(EngineSpec{}, ch.geo, tau, 2);
    ch.attach(*m);
    return m;
  };

  std::vector<OverheadRow> overhead;
  overhead.push_back(measure_overhead("ST", st_ov, ov_steps, reps));
  overhead.push_back(measure_overhead("MR-P", mrp_ov, ov_steps, reps));

  std::vector<FaultRow> faults;
  {
    FaultConfig fc;
    fc.seed = 5;
    fc.bitflip_rate = 0.15;
    fc.bitflip_bit = 62;      // detectable (exponent-scale) fault regime
    fc.step_end = steps / 2;  // fault-free tail: recovery must stick
    faults.push_back(run_faulted("taylor-green", "ST", st_tg, &tg, steps, fc));
  }
  {
    FaultConfig fc;
    fc.seed = 7;
    fc.launch_fail_rate = 0.05;
    faults.push_back(run_faulted("taylor-green", "ST", st_tg, &tg, steps, fc));
  }
  {
    FaultConfig fc;
    fc.seed = 9;
    fc.bitflip_rate = 0.15;
    fc.bitflip_bit = 62;
    fc.step_end = steps / 2;
    faults.push_back(
        run_faulted("taylor-green", "MR-P", mrp_tg, &tg, steps, fc));
  }
  {
    FaultConfig fc;
    fc.seed = 11;
    fc.halo_corrupt_rate = 0.1;
    fc.step_end = steps / 2;
    faults.push_back(
        run_faulted("channel", "MULTIx2-ST", multi_ch, nullptr, steps, fc));
  }

  AsciiTable ot({"Pattern", "steps", "bare ms", "runner ms", "overhead %"});
  for (const OverheadRow& r : overhead) {
    ot.row({r.pattern, std::to_string(r.steps), AsciiTable::num(r.bare_ms, 1),
            AsciiTable::num(r.runner_ms, 1),
            AsciiTable::num(r.overhead_pct(), 2)});
  }
  ot.print();
  std::printf("\n");

  AsciiTable ft({"Workload", "Pattern", "flip", "launch", "halo", "done",
                 "faults", "rollbk", "err/no-fault err", "dev", "repro"});
  bool ok = true;
  for (const FaultRow& r : faults) {
    ft.row({r.workload, r.pattern, AsciiTable::num(r.bitflip_rate, 2),
            AsciiTable::num(r.launch_fail_rate, 2),
            AsciiTable::num(r.halo_corrupt_rate, 2), r.completed ? "y" : "N",
            std::to_string(r.faults_injected), std::to_string(r.rollbacks),
            AsciiTable::num(r.final_err, 8) + "/" +
                AsciiTable::num(r.no_fault_err, 8),
            AsciiTable::num(r.max_dev, 3), r.reproducible ? "y" : "N"});
    ok = ok && r.completed && r.within_bound && r.reproducible;
  }
  ft.print();

  std::printf(
      "\nZero-fault protection costs the checkpoint captures (every %d steps)\n"
      "plus strided sentinel scans; fault runs complete via rollback/retry,\n"
      "recover detected faults bit-exactly, and reproduce the same fault\n"
      "trace, recovery sequence and final state from the same seed.\n",
      128);

  if (!write_json(out, overhead, faults)) {
    std::fprintf(stderr, "\nerror: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  if (!ok) {
    std::fprintf(stderr,
                 "error: a fault run failed completion, bound or "
                 "reproducibility (see table)\n");
    return 1;
  }
  return 0;
}
