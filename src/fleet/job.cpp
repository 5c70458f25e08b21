#include "fleet/job.hpp"

#include <sstream>

#include "util/error.hpp"
#include "workloads/cavity.hpp"
#include "workloads/cylinder_wake.hpp"
#include "workloads/taylor_green.hpp"

namespace mlbm::fleet {

std::string JobSpec::name() const {
  std::ostringstream os;
  os << "job" << id << ":" << to_string(workload) << "-" << engine.to_string()
     << "-n" << n;
  return os.str();
}

std::unique_ptr<Engine<D2Q9>> make_job_engine(const JobSpec& spec) {
  if (spec.n < 4) {
    throw ConfigError("fleet job " + std::to_string(spec.id) +
                      ": n must be >= 4");
  }
  if (spec.steps <= 0) {
    throw ConfigError("fleet job " + std::to_string(spec.id) +
                      ": steps must be positive");
  }
  EngineSpec engine = spec.engine;
  if (engine.is_mr() && !engine.tile) engine.tile = kJobMrTile;
  const auto tau = static_cast<real_t>(spec.tau);
  switch (spec.workload) {
    case Workload::kTaylorGreen: {
      const auto tg =
          TaylorGreen<D2Q9>::create(spec.n, static_cast<real_t>(spec.amplitude));
      auto eng = make_engine<D2Q9>(engine, tg.geo, tau);
      tg.attach(*eng);
      return eng;
    }
    case Workload::kCavity: {
      const auto cav = LidDrivenCavity<D2Q9>::create(
          spec.n, static_cast<real_t>(spec.amplitude));
      auto eng = make_engine<D2Q9>(engine, cav.geo, tau);
      cav.attach(*eng);
      return eng;
    }
    case Workload::kCylinder: {
      const auto wake = CylinderWake<D2Q9>::create(
          spec.n, static_cast<real_t>(spec.amplitude),
          static_cast<real_t>(spec.re));
      // The wake prescribes its own tau from the Reynolds number; the
      // boundary pass it registers captures its state by shared_ptr, so the
      // engine stays valid after `wake` goes out of scope.
      auto eng = make_engine<D2Q9>(engine, wake.geo, wake.tau);
      wake.attach(*eng);
      return eng;
    }
  }
  throw ConfigError("fleet job " + std::to_string(spec.id) +
                    ": unknown workload");
}

JobFields job_fields(const Engine<D2Q9>& eng) {
  JobFields out;
  std::uint64_t h = kFnvOffsetBasis;
  const auto mix = [&h](double v) { h = fnv1a(h, &v, sizeof v); };
  const Box& b = eng.geometry().box;
  for_each_row(eng, NodeRange{0, b.nx, 0, b.ny, 0, 1},
               [&](int, int, std::span<const Moments<D2Q9>> row) {
                 for (const Moments<D2Q9>& m : row) {
                   mix(m.rho);
                   mix(m.u[0]);
                   mix(m.u[1]);
                   mix(m.pi[0]);
                   mix(m.pi[1]);
                   mix(m.pi[2]);
                   out.mass += m.rho;
                   out.kinetic_energy +=
                       0.5 * m.rho * (m.u[0] * m.u[0] + m.u[1] * m.u[1]);
                 }
               });
  out.moment_hash = h;
  return out;
}

}  // namespace mlbm::fleet
