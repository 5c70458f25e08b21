#include "fleet/device_pool.hpp"

#include <array>
#include <limits>

#include "perfmodel/efficiency.hpp"
#include "perfmodel/mflups_model.hpp"
#include "perfmodel/roofline.hpp"
#include "util/error.hpp"

namespace mlbm::fleet {

namespace {

/// Kernel characteristics of the fleet's job patterns at the fleet's MR
/// tile, measured once per perf::Pattern (the MR block geometry and halo
/// fraction are properties of the kernel, not the problem size).
const perf::KernelCharacteristics& pattern_characteristics(
    perf::Pattern pattern) {
  using P = EngineSpec::Pattern;
  static const std::array<perf::KernelCharacteristics, 3> kTable = {
      kernel_characteristics<D2Q9>(EngineSpec{}),
      kernel_characteristics<D2Q9>({P::kMRP, StoragePrecision::kFP64,
                                    kJobMrTile}),
      kernel_characteristics<D2Q9>({P::kMRR, StoragePrecision::kFP64,
                                    kJobMrTile}),
  };
  return kTable[static_cast<std::size_t>(pattern)];
}

}  // namespace

int DevicePool::add_device(gpusim::DeviceSpec spec) {
  const int id = static_cast<int>(devices_.size());
  FleetDevice dev;
  dev.id = id;
  dev.spec = std::move(spec);
  devices_.push_back(std::move(dev));
  return id;
}

int DevicePool::alive_count() const {
  int n = 0;
  for (const auto& d : devices_) {
    n += d.alive ? 1 : 0;
  }
  return n;
}

FleetDevice& DevicePool::device(int id) {
  if (id < 0 || id >= size()) {
    throw OutOfRangeError("fleet device id " + std::to_string(id) +
                          " outside pool of " + std::to_string(size()));
  }
  return devices_[static_cast<std::size_t>(id)];
}

const FleetDevice& DevicePool::device(int id) const {
  return const_cast<DevicePool*>(this)->device(id);
}

double DevicePool::predicted_mflups(int id, perf::Pattern pattern,
                                    StoragePrecision prec) const {
  const FleetDevice& dev = device(id);
  perf::KernelCharacteristics kc = pattern_characteristics(pattern);
  kc.storage_elem_bytes = perf::elem_bytes_of(prec);
  const auto est = perf::estimate_saturated(dev.spec, pattern,
                                            perf::lattice_info<D2Q9>(), kc);
  return est.mflups;
}

double DevicePool::step_seconds(int id, const JobSpec& spec,
                                long long cells) const {
  const double mflups = predicted_mflups(id, spec.engine.perf_pattern(),
                                         spec.engine.precision);
  if (mflups <= 0) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(cells) / (mflups * 1e6);
}

bool DevicePool::admits(int id, std::size_t bytes) const {
  return bytes <= device(id).free_bytes();
}

bool DevicePool::fits_anywhere(std::size_t bytes) const {
  for (const auto& d : devices_) {
    if (bytes <= d.capacity_bytes()) {
      return true;
    }
  }
  return false;
}

int DevicePool::place(const JobSpec& spec, long long cells, std::size_t bytes,
                      int remaining_steps, int exclude) const {
  int best = -1;
  double best_finish = std::numeric_limits<double>::infinity();
  for (const auto& d : devices_) {
    if (!d.alive || d.id == exclude || bytes > d.free_bytes()) {
      continue;
    }
    const double finish =
        d.busy_s + d.reserved_s +
        static_cast<double>(remaining_steps) * step_seconds(d.id, spec, cells) *
            d.slowdown;
    if (finish < best_finish) {
      best_finish = finish;
      best = d.id;
    }
  }
  return best;
}

}  // namespace mlbm::fleet
