#include "multidev/multi_domain.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "gpusim/traffic.hpp"
#include "util/error.hpp"

namespace mlbm {

std::vector<SlabInfo> make_slabs(int nx, int ndev, int ghost_depth) {
  if (ndev < 1 || ndev > nx) {
    throw ConfigError("make_slabs: need 1 <= ndev <= nx, got ndev=" +
                      std::to_string(ndev) + " nx=" + std::to_string(nx));
  }
  if (ghost_depth < 1) {
    throw ConfigError("make_slabs: ghost_depth must be >= 1, got " +
                      std::to_string(ghost_depth));
  }
  const int base = nx / ndev;
  if (ndev > 1 && base < ghost_depth) {
    // The exchange reads `ghost_depth` owned planes per interface side; a
    // narrower slab would have to forward a neighbour's ghost data.
    throw ConfigError("make_slabs: slab width " + std::to_string(base) +
                      " is narrower than ghost depth " +
                      std::to_string(ghost_depth));
  }
  std::vector<SlabInfo> slabs(static_cast<std::size_t>(ndev));
  const int rem = nx % ndev;
  int x = 0;
  for (int d = 0; d < ndev; ++d) {
    SlabInfo& s = slabs[static_cast<std::size_t>(d)];
    s.x_begin = x;
    s.x_end = x + base + (d < rem ? 1 : 0);
    s.has_left = d > 0;
    s.has_right = d < ndev - 1;
    s.ghost_depth = ghost_depth;
    x = s.x_end;
  }
  return slabs;
}

Geometry slab_geometry(const Geometry& global, const SlabInfo& slab) {
  Box local = global.box;
  local.nx = slab.local_nx();
  Geometry geo(local);
  geo.bc = global.bc;
  // Interior interfaces drop outgoing populations; their planes are ghost
  // nodes rebuilt by the exchange after every step.
  if (slab.has_left) geo.bc.face[0][0].type = FaceBC::kOpen;
  if (slab.has_right) geo.bc.face[0][1].type = FaceBC::kOpen;

  // Copy node kinds for the owned range plus ghost planes (ghost kinds are
  // irrelevant to the update but keep diagnostics meaningful).
  const int g0 = slab.x_begin - (slab.has_left ? slab.ghost_depth : 0);
  for (int z = 0; z < local.nz; ++z) {
    for (int y = 0; y < local.ny; ++y) {
      for (int lx = 0; lx < local.nx; ++lx) {
        const int gx = g0 + lx;
        geo.set(lx, y, z, global.at(gx, y, z));
      }
    }
  }
  return geo;
}

template <class L>
MultiDomainEngine<L>::MultiDomainEngine(Geometry global, real_t tau, int ndev,
                                        const EngineFactory& factory,
                                        int ghost_depth)
    : Engine<L>(std::move(global), tau),
      slabs_(make_slabs(this->geo_.box.nx, ndev, ghost_depth)),
      ghost_depth_(ghost_depth) {
  // Degenerate decompositions must fail loudly here, not as UB on
  // engines_.front() (or worse, inside a slab engine) later: make_slabs
  // already enforces 1 <= ndev <= nx, this validates what it produced and
  // the cross extents the slabs share.
  const Box& gb = this->geo_.box;
  if (gb.nx < 1 || gb.ny < 1 || gb.nz < 1) {
    throw ConfigError("MultiDomainEngine: empty global box " +
                      std::to_string(gb.nx) + "x" + std::to_string(gb.ny) +
                      "x" + std::to_string(gb.nz));
  }
  if (slabs_.empty()) {
    throw ConfigError("MultiDomainEngine: decomposition produced no slabs");
  }
  for (const SlabInfo& s : slabs_) {
    if (s.x_end <= s.x_begin) {
      throw ConfigError("MultiDomainEngine: empty slab [" +
                        std::to_string(s.x_begin) + ", " +
                        std::to_string(s.x_end) + ")");
    }
  }
  if (ndev > 1 && this->geo_.bc.periodic(0)) {
    throw ConfigError(
        "MultiDomainEngine: a periodic decomposition axis is not supported; "
        "decompose channel-type (open/wall x) domains");
  }
  if (!factory) {
    throw ConfigError("MultiDomainEngine: engine factory must not be null");
  }
  engines_.reserve(slabs_.size());
  for (int d = 0; d < static_cast<int>(slabs_.size()); ++d) {
    engines_.push_back(
        factory(slab_geometry(this->geo_, slabs_[static_cast<std::size_t>(d)]), d));
    if (engines_.back() == nullptr) {
      throw ConfigError("MultiDomainEngine: factory returned null for slab " +
                        std::to_string(d));
    }
    if (std::abs(engines_.back()->tau() - tau) > real_t(1e-12)) {
      throw ConfigError(
          "MultiDomainEngine: slab engine tau differs from global tau");
    }
  }
}

template <class L>
std::uint64_t MultiDomainEngine<L>::fault_sites() const {
  std::uint64_t total = 0;
  for (const auto& e : engines_) total += e->fault_sites();
  return total;
}

template <class L>
void MultiDomainEngine<L>::inject_storage_bitflip(std::uint64_t site,
                                                  unsigned bit) {
  const std::uint64_t total = fault_sites();
  if (total == 0) return;
  std::uint64_t s = site % total;
  for (auto& e : engines_) {
    const std::uint64_t n = e->fault_sites();
    if (s < n) {
      e->inject_storage_bitflip(s, bit);
      return;
    }
    s -= n;
  }
}

template <class L>
std::string MultiDomainEngine<L>::raw_state_tag() const {
  std::string tag = "MULTI";
  for (const auto& e : engines_) {
    const std::string sub = e->raw_state_tag();
    if (sub.empty()) return {};
    tag += "[" + sub + "]";
  }
  return tag;
}

template <class L>
void MultiDomainEngine<L>::serialize_raw_state(std::vector<real_t>& out) const {
  // Length-prefix each slab blob. The count fits a real_t exactly (state
  // sizes are far below 2^53 elements), so the snapshot stays one flat
  // real_t vector like the moment payload.
  std::vector<real_t> sub;
  for (const auto& e : engines_) {
    sub.clear();
    e->serialize_raw_state(sub);
    out.push_back(static_cast<real_t>(sub.size()));
    out.insert(out.end(), sub.begin(), sub.end());
  }
}

template <class L>
void MultiDomainEngine<L>::restore_raw_state(const std::vector<real_t>& in) {
  std::size_t pos = 0;
  for (auto& e : engines_) {
    if (pos >= in.size()) {
      throw ConfigError("MultiDomainEngine: raw snapshot truncated");
    }
    const auto n = static_cast<std::size_t>(in[pos]);
    ++pos;
    if (pos + n > in.size()) {
      throw ConfigError("MultiDomainEngine: raw snapshot slab overruns blob");
    }
    const auto* base = in.data() + pos;
    e->restore_raw_state(std::vector<real_t>(base, base + n));
    pos += n;
  }
  if (pos != in.size()) {
    throw ConfigError("MultiDomainEngine: raw snapshot has trailing data");
  }
}

template <class L>
void MultiDomainEngine<L>::set_time(int t) {
  this->t_ = t;
  for (auto& e : engines_) e->set_time(t);
}

template <class L>
void MultiDomainEngine<L>::initialize(const typename Engine<L>::InitFn& init) {
  // Each slab initializes its whole local domain, ghosts included, mapping
  // local to global coordinates. Equal to the default walk through the
  // mirroring write_moments, but it goes through each slab's own
  // initialize, so a slab engine's preconditions (AA's even-step guard)
  // still hold for a decomposed run.
  for (int d = 0; d < devices(); ++d) {
    const SlabInfo& s = slabs_[static_cast<std::size_t>(d)];
    const int g0 = s.x_begin - (s.has_left ? s.ghost_depth : 0);
    engines_[static_cast<std::size_t>(d)]->initialize(
        [&init, g0](int lx, int y, int z) { return init(g0 + lx, y, z); });
  }
}

template <class L>
template <class Fn>
void MultiDomainEngine<L>::split(const NodeRange& r, bool held,
                                 Fn&& fn) const {
  const int depth = ghost_depth_;
  const auto nxr = static_cast<std::size_t>(r.x1 - r.x0);
  for (int d = 0; d < devices(); ++d) {
    const SlabInfo& s = slabs_[static_cast<std::size_t>(d)];
    // Held planes include the ghost bands, which copy the neighbours'
    // first/last `depth` owned planes.
    const int g0 = s.x_begin - (held && s.has_left ? depth : 0);
    const int g1 = s.x_end + (held && s.has_right ? depth : 0);
    const int a = std::max(r.x0, g0);
    const int b = std::min(r.x1, g1);
    if (a >= b) continue;
    const int la = s.local_x(a);
    const int lb = s.local_x(b);
    if (a == r.x0 && b == r.x1) {
      fn(d, NodeRange{la, lb, r.y0, r.y1, r.z0, r.z1}, 0, r.size());
      continue;
    }
    // The slab holds part of each row: one call per row segment.
    std::size_t at = static_cast<std::size_t>(a - r.x0);
    for (int z = r.z0; z < r.z1; ++z) {
      for (int y = r.y0; y < r.y1; ++y, at += nxr) {
        fn(d, NodeRange::row(la, lb, y, z), at,
           static_cast<std::size_t>(b - a));
      }
    }
  }
}

template <class L>
void MultiDomainEngine<L>::read_moments(const NodeRange& r,
                                        std::span<Moments<L>> out) const {
  this->check_range(r, out.size());
  split(r, /*held=*/false,
        [&](int d, const NodeRange& local, std::size_t at, std::size_t n) {
          engines_[static_cast<std::size_t>(d)]->read_moments(
              local, out.subspan(at, n));
        });
}

template <class L>
void MultiDomainEngine<L>::write_moments(const NodeRange& r,
                                         std::span<const Moments<L>> in) {
  this->check_range(r, in.size());
  split(r, /*held=*/true,
        [&](int d, const NodeRange& local, std::size_t at, std::size_t n) {
          engines_[static_cast<std::size_t>(d)]->write_moments(
              local, in.subspan(at, n));
        });
}

template <class L>
std::size_t MultiDomainEngine<L>::state_bytes() const {
  std::size_t total = 0;
  for (const auto& e : engines_) total += e->state_bytes();
  return total;
}

template <class L>
std::uint64_t MultiDomainEngine<L>::exchanged_values_per_step() const {
  const Box& b = this->geo_.box;
  const auto interfaces = static_cast<std::uint64_t>(devices() - 1);
  return interfaces * 2ull * static_cast<std::uint64_t>(ghost_depth_) *
         static_cast<std::uint64_t>(b.ny) * static_cast<std::uint64_t>(b.nz) *
         static_cast<std::uint64_t>(L::M);
}

template <class L>
gpusim::CommStats MultiDomainEngine<L>::comm_stats() const {
  gpusim::CommStats total;
  for (const auto& e : engines_) {
    if (const gpusim::Profiler* p = e->profiler()) {
      total += p->comm_stats();
    }
  }
  // Per-device steps would sum to devices() x the step count; report the
  // global step count instead.
  total.steps = 0;
  for (const auto& e : engines_) {
    if (const gpusim::Profiler* p = e->profiler()) {
      total.steps = std::max(total.steps, p->comm_stats().steps);
    }
  }
  return total;
}

template <class L>
void MultiDomainEngine<L>::capture_interface_planes(int d, int par) {
  const Box& b = this->geo_.box;
  const int depth = ghost_depth_;
  const std::size_t block_n = static_cast<std::size_t>(depth) *
                              static_cast<std::size_t>(b.ny) *
                              static_cast<std::size_t>(b.nz);
  stage_[par].resize(static_cast<std::size_t>(devices() - 1) * 2 * block_n);
  const SlabInfo& s = slabs_[static_cast<std::size_t>(d)];
  const Engine<L>& e = *engines_[static_cast<std::size_t>(d)];
  auto capture_block = [&](std::size_t block, int gx0) {
    const int lx = s.local_x(gx0);
    e.read_moments(NodeRange::x_planes(b, lx, lx + depth),
                   std::span<Moments<L>>(stage_[par]).subspan(block * block_n,
                                                              block_n));
  };
  // Block (interface * 2 + dir): dir 0 carries slab i's last owned planes
  // rightward, dir 1 slab i+1's first owned planes leftward.
  if (s.has_right) {
    capture_block(static_cast<std::size_t>(d) * 2, s.x_end - depth);
  }
  if (s.has_left) {
    capture_block(static_cast<std::size_t>(d - 1) * 2 + 1, s.x_begin);
  }
}

template <class L>
void MultiDomainEngine<L>::apply_staged_ghosts(int par) {
  const Box& b = this->geo_.box;
  const int depth = ghost_depth_;
  const std::size_t block_n = static_cast<std::size_t>(depth) *
                              static_cast<std::size_t>(b.ny) *
                              static_cast<std::size_t>(b.nz);
  const std::span<const Moments<L>> stage(stage_[par]);
  auto apply_block = [&](std::size_t block, Engine<L>& e, int lx0) {
    e.write_moments(NodeRange::x_planes(b, lx0, lx0 + depth),
                    stage.subspan(block * block_n, block_n));
  };
  for (int i = 0; i + 1 < devices(); ++i) {
    const SlabInfo& ls = slabs_[static_cast<std::size_t>(i)];
    const SlabInfo& rs = slabs_[static_cast<std::size_t>(i + 1)];
    // dir 0 (left slab's planes) lands in the right slab's left ghost band,
    // local x [0, depth); dir 1 lands in the left slab's right ghost band,
    // starting one past its last owned plane.
    apply_block(static_cast<std::size_t>(i) * 2,
                *engines_[static_cast<std::size_t>(i + 1)],
                rs.local_x(rs.x_begin) - depth);
    apply_block(static_cast<std::size_t>(i) * 2 + 1,
                *engines_[static_cast<std::size_t>(i)],
                ls.local_x(ls.x_end - 1) + 1);
  }
  exchanged_total_ += exchanged_values_per_step();
}

template <class L>
void MultiDomainEngine<L>::account_overlap(
    const std::vector<std::uint64_t>& frontier_bytes,
    const std::vector<std::uint64_t>& interior_bytes) {
  const int n = devices();
  const std::uint64_t ghost_bytes = ghost_bytes_per_direction();
  gpusim::Timeline tl;
  std::vector<int> dev_stream(static_cast<std::size_t>(n));
  for (int d = 0; d < n; ++d) {
    dev_stream[static_cast<std::size_t>(d)] =
        tl.add_stream("dev" + std::to_string(d));
  }
  // Per-device compute stream: frontier launch, then interior launch (the
  // stream orders them; no event needed).
  std::vector<gpusim::Event> frontier_ev(static_cast<std::size_t>(n));
  std::vector<gpusim::Event> interior_ev(static_cast<std::size_t>(n));
  // A zero-byte phase means the engine fell back to a single whole-step
  // launch (degenerate split, e.g. a slab thinner than the tile granule):
  // no second launch happened, so no launch overhead is charged for it.
  auto phase_s = [&](std::uint64_t bytes) {
    return bytes > 0 ? gpusim::kernel_duration_s(dev_spec_, bytes) : 0.0;
  };
  for (int d = 0; d < n; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    frontier_ev[sd] = tl.enqueue(dev_stream[sd], phase_s(frontier_bytes[sd]),
                                 {}, "frontier d" + std::to_string(d));
    interior_ev[sd] = tl.enqueue(dev_stream[sd], phase_s(interior_bytes[sd]),
                                 {}, "interior d" + std::to_string(d));
  }
  // Each interface gets one modeled link stream per direction (full-duplex
  // DMA engines); a transfer departs once its source's frontier completes.
  std::vector<gpusim::Event> from_left(static_cast<std::size_t>(n));
  std::vector<gpusim::Event> from_right(static_cast<std::size_t>(n));
  const double xfer_s = link_spec_.transfer_s(ghost_bytes);
  for (int i = 0; i + 1 < n; ++i) {
    const auto si = static_cast<std::size_t>(i);
    const int lr = tl.add_stream("link" + std::to_string(i) + ".lr");
    const int rl = tl.add_stream("link" + std::to_string(i) + ".rl");
    from_left[si + 1] = tl.enqueue(lr, xfer_s, {frontier_ev[si]},
                                   "ghost " + std::to_string(i) + "->" +
                                       std::to_string(i + 1));
    from_right[si] = tl.enqueue(rl, xfer_s, {frontier_ev[si + 1]},
                                "ghost " + std::to_string(i + 1) + "->" +
                                    std::to_string(i));
  }
  // Attribution: a device's next step can start only when its interior
  // launch AND every incoming ghost transfer have completed; communication
  // time past the interior completion is exposed, the rest is hidden.
  for (int d = 0; d < n; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    gpusim::Profiler* p = engines_[sd]->profiler();
    if (p == nullptr) continue;
    double comm = 0;
    double arrival = 0;
    if (from_left[sd].valid()) {
      comm += xfer_s;
      arrival = std::max(arrival, tl.complete_time(from_left[sd]));
    }
    if (from_right[sd].valid()) {
      comm += xfer_s;
      arrival = std::max(arrival, tl.complete_time(from_right[sd]));
    }
    const double interior_end = tl.complete_time(interior_ev[sd]);
    const double exposed =
        std::min(comm, std::max(0.0, arrival - interior_end));
    gpusim::CommStats cs;
    cs.compute_s = tl.complete_time(interior_ev[sd]);
    cs.comm_s = comm;
    cs.exposed_s = exposed;
    cs.hidden_s = comm - exposed;
    cs.steps = 1;
    p->comm_stats() += cs;
  }
  last_tl_ = std::move(tl);
}

template <class L>
void MultiDomainEngine<L>::step_lockstep() {
  const std::uint64_t ghost_bytes = ghost_bytes_per_direction();
  const double xfer_s = link_spec_.transfer_s(ghost_bytes);
  for (int d = 0; d < devices(); ++d) {
    const auto sd = static_cast<std::size_t>(d);
    Engine<L>& e = *engines_[sd];
    gpusim::Profiler* p = have_model_ ? e.profiler() : nullptr;
    gpusim::TrafficSnapshot before;
    if (p != nullptr) before = p->counter().snapshot();
    e.step();
    if (p == nullptr) continue;
    // Lockstep exposes all communication: the exchange starts only after
    // every slab has finished its full step, and the next step waits for it.
    const gpusim::TrafficSnapshot delta = p->counter().snapshot() - before;
    gpusim::CommStats cs;
    cs.compute_s = gpusim::kernel_duration_s(
        dev_spec_, delta.bytes_read + delta.bytes_written);
    if (!skip_exchange_) {
      const SlabInfo& s = slabs_[sd];
      cs.comm_s = ((s.has_left ? 1 : 0) + (s.has_right ? 1 : 0)) * xfer_s;
      cs.exposed_s = cs.comm_s;
    }
    cs.steps = 1;
    p->comm_stats() += cs;
  }
  if (skip_exchange_) return;
  const int par = static_cast<int>(this->t_ & 1);
  for (int d = 0; d < devices(); ++d) capture_interface_planes(d, par);
  apply_staged_ghosts(par);
}

template <class L>
void MultiDomainEngine<L>::step_overlapped() {
  const int n = devices();
  const int par = static_cast<int>(this->t_ & 1);

  std::vector<std::uint64_t> frontier_bytes(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> interior_bytes(static_cast<std::size_t>(n), 0);
  for (int d = 0; d < n; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    const SlabInfo& s = slabs_[sd];
    Engine<L>& e = *engines_[sd];
    // The frontier must finalize the ghost band (depth planes of open-face
    // junk the exchange overwrites) plus the owned planes the neighbours
    // need — 2 x depth planes per interface side.
    const FrontierSpec fs{s.has_left ? 2 * ghost_depth_ : 0,
                          s.has_right ? 2 * ghost_depth_ : 0};
    gpusim::Profiler* p = have_model_ ? e.profiler() : nullptr;
    gpusim::TrafficSnapshot t0, t1;
    if (p != nullptr) t0 = p->counter().snapshot();
    e.step_split(fs, [&] {
      if (p != nullptr) t1 = p->counter().snapshot();
    });
    if (p != nullptr) {
      const gpusim::TrafficSnapshot t2 = p->counter().snapshot();
      const gpusim::TrafficSnapshot df = t1 - t0;
      const gpusim::TrafficSnapshot di = t2 - t1;
      frontier_bytes[sd] = df.bytes_read + df.bytes_written;
      interior_bytes[sd] = di.bytes_read + di.bytes_written;
    }
    // Capture after the step: the frontier contract guarantees the
    // interface planes are final when on_frontier fires and that no later
    // launch touches them, so capturing here reads the same values while
    // the engine's phase bookkeeping (ping-pong side, AA parity, clock) is
    // consistent for read_moments.
    capture_interface_planes(d, par);
  }
  apply_staged_ghosts(par);
  if (have_model_) account_overlap(frontier_bytes, interior_bytes);
}

template <class L>
void MultiDomainEngine<L>::do_step() {
  if (mode_ == ExchangeMode::kOverlap && devices() > 1 && !skip_exchange_) {
    step_overlapped();
    return;
  }
  step_lockstep();
}

template class MultiDomainEngine<D2Q9>;
template class MultiDomainEngine<D3Q19>;
template class MultiDomainEngine<D3Q27>;
template class MultiDomainEngine<D3Q15>;

}  // namespace mlbm
