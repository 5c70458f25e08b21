#include "analysis/static/contract.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace mlbm::analysis {

namespace {

std::vector<int> iota_comps(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

std::array<int, 3> neg(const std::array<int, 3>& c) {
  return {-c[0], -c[1], -c[2]};
}

}  // namespace

EngineContract st_contract(LatticeDesc lat, int elem_bytes, bool push) {
  EngineContract ec;
  ec.pattern = push ? "ST-push" : "ST";
  ec.elem_bytes = elem_bytes;
  ec.arrays = {{"f_src", lat.q}, {"f_dst", lat.q}};
  ec.ghost_depth_declared = 1;

  NodeKernelContract k;
  k.tag = push ? "st.push" : "st.pull";
  const std::string base =
      std::string(push ? "st_push_collide_stream_" : "st_stream_collide_") +
      lat.name;
  k.kernels = {base, base + "_frontier"};
  if (!push) {
    // The sparse path is pull-only; its tile launches obey the same contract.
    k.kernels.push_back("st_sparse_" + lat.name + "_fluid");
    k.kernels.push_back("st_sparse_" + lat.name + "_mixed");
    k.kernels.push_back("st_sparse_" + lat.name + "_fluid_frontier");
    k.kernels.push_back("st_sparse_" + lat.name + "_mixed_frontier");
  }
  if (push) {
    // Collide-then-stream: one coalesced span load of the node's own
    // populations, then Q scalar scatters to the downwind neighbours.
    AccessDesc rd;
    rd.array = 0;
    rd.comps = iota_comps(lat.q);
    rd.span = true;
    k.accesses.push_back(rd);
    for (int i = 0; i < lat.q; ++i) {
      AccessDesc wr;
      wr.array = 1;
      wr.write = true;
      wr.off = lat.c[static_cast<std::size_t>(i)];
      wr.comps = {i};
      k.accesses.push_back(wr);
    }
  } else {
    // Stream-then-collide: Q scalar gathers from the upwind neighbours, then
    // one coalesced span store of the node's own populations.
    for (int i = 0; i < lat.q; ++i) {
      AccessDesc rd;
      rd.array = 0;
      rd.off = neg(lat.c[static_cast<std::size_t>(i)]);
      rd.comps = {i};
      k.accesses.push_back(rd);
    }
    AccessDesc wr;
    wr.array = 1;
    wr.write = true;
    wr.comps = iota_comps(lat.q);
    wr.span = true;
    k.accesses.push_back(wr);
  }
  ec.node_kernels.push_back(std::move(k));
  ec.lattice = std::move(lat);
  return ec;
}

EngineContract aa_contract(LatticeDesc lat, int elem_bytes) {
  EngineContract ec;
  ec.pattern = "ST-AA";
  ec.elem_bytes = elem_bytes;
  ec.steps_per_cycle = 2;
  ec.arrays = {{"f", lat.q}};
  ec.ghost_depth_declared = 2;

  // Even step (t % 2 == 0): pure node-local slot swap — every access lands
  // on the executing node's own cell, so in-place safety is immediate.
  NodeKernelContract even;
  even.tag = "aa.even";
  even.kernels = {"aa_even_" + lat.name, "aa_even_" + lat.name + "_frontier",
                  "aa_sparse_" + lat.name + "_even_fluid",
                  "aa_sparse_" + lat.name + "_even_mixed",
                  "aa_sparse_" + lat.name + "_even_fluid_frontier",
                  "aa_sparse_" + lat.name + "_even_mixed_frontier"};
  {
    AccessDesc rd;
    rd.array = 0;
    rd.comps = iota_comps(lat.q);
    rd.span = true;
    even.accesses.push_back(rd);
    AccessDesc wr = rd;
    wr.write = true;
    even.accesses.push_back(wr);
  }
  ec.node_kernels.push_back(std::move(even));

  // Odd step (t % 2 == 1): the two half-streams. Node x gathers slot
  // opposite(i) of x - c_i and scatters slot i of x + c_i — the Bailey
  // construction whose in-place safety the analyzer re-proves: the gather
  // and scatter descriptors that share a component also share an offset, so
  // every lattice word has reader == writer.
  NodeKernelContract odd;
  odd.tag = "aa.odd";
  odd.kernels = {"aa_odd_" + lat.name, "aa_odd_" + lat.name + "_frontier",
                 "aa_sparse_" + lat.name + "_odd_fluid",
                 "aa_sparse_" + lat.name + "_odd_mixed",
                 "aa_sparse_" + lat.name + "_odd_fluid_frontier",
                 "aa_sparse_" + lat.name + "_odd_mixed_frontier"};
  for (int i = 0; i < lat.q; ++i) {
    AccessDesc rd;
    rd.array = 0;
    rd.off = neg(lat.c[static_cast<std::size_t>(i)]);
    rd.comps = {lat.opposite[static_cast<std::size_t>(i)]};
    odd.accesses.push_back(rd);
  }
  for (int i = 0; i < lat.q; ++i) {
    AccessDesc wr;
    wr.array = 0;
    wr.write = true;
    wr.off = lat.c[static_cast<std::size_t>(i)];
    wr.comps = {i};
    odd.accesses.push_back(wr);
  }
  ec.node_kernels.push_back(std::move(odd));
  ec.lattice = std::move(lat);
  return ec;
}

EngineContract ep_contract(LatticeDesc lat, int elem_bytes) {
  EngineContract ec;
  ec.pattern = "EP";
  ec.elem_bytes = elem_bytes;
  ec.steps_per_cycle = 2;
  ec.arrays = {{"f", lat.q}};
  ec.ghost_depth_declared = 2;

  // With the plus half-set H = { i : i < opposite(i) }, the even step reads
  // slot opposite(i) — of the node itself for i in H and the rest, of the
  // upwind neighbour for i not in H — and writes slot i of the downwind
  // neighbour (i in H) or the node itself (otherwise); the odd step swaps
  // the slot roles. In both parities the read and write descriptors that
  // share a slot also share an offset, so every lattice word has
  // reader == writer — the esoteric invariant the analyzer re-proves.
  const auto phase = [&](bool even) {
    NodeKernelContract k;
    const std::string par = even ? "even" : "odd";
    k.tag = "ep." + par;
    k.kernels = {"ep_" + par + "_" + lat.name,
                 "ep_" + par + "_" + lat.name + "_frontier",
                 "ep_sparse_" + lat.name + "_" + par + "_fluid",
                 "ep_sparse_" + lat.name + "_" + par + "_mixed",
                 "ep_sparse_" + lat.name + "_" + par + "_fluid_frontier",
                 "ep_sparse_" + lat.name + "_" + par + "_mixed_frontier"};
    for (int i = 0; i < lat.q; ++i) {
      const int j = lat.opposite[static_cast<std::size_t>(i)];
      AccessDesc rd;
      rd.array = 0;
      rd.comps = {even ? j : i};
      rd.off = i <= j ? std::array<int, 3>{0, 0, 0}
                      : neg(lat.c[static_cast<std::size_t>(i)]);
      k.accesses.push_back(rd);
    }
    for (int i = 0; i < lat.q; ++i) {
      const int j = lat.opposite[static_cast<std::size_t>(i)];
      AccessDesc wr;
      wr.array = 0;
      wr.write = true;
      wr.comps = {even ? i : j};
      wr.off = i < j ? lat.c[static_cast<std::size_t>(i)]
                     : std::array<int, 3>{0, 0, 0};
      k.accesses.push_back(wr);
    }
    return k;
  };
  ec.node_kernels.push_back(phase(true));
  ec.node_kernels.push_back(phase(false));
  ec.lattice = std::move(lat);
  return ec;
}

EngineContract mr_contract(LatticeDesc lat, int elem_bytes, bool projective,
                           bool single_buffer, int tile_x, int tile_y,
                           int tile_s, int write_behind,
                           int ring_shift_bias, bool barrier_between_phases,
                           int cross_halo) {
  EngineContract ec;
  ec.pattern = projective ? "MR-P" : "MR-R";
  ec.elem_bytes = elem_bytes;
  ec.arrays = single_buffer
                  ? std::vector<ArrayDecl>{{"mom", lat.m}}
                  : std::vector<ArrayDecl>{{"mom_src", lat.m},
                                           {"mom_dst", lat.m}};
  ec.ghost_depth_declared = 1;

  RingKernelContract rk;
  rk.tag = "mr.sweep";
  const std::string base =
      std::string(projective ? "mr_p_" : "mr_r_") + lat.name;
  rk.kernels = {base, base + "_frontier"};
  rk.tile_x = tile_x;
  rk.tile_y = lat.dim == 2 ? 1 : tile_y;
  rk.tile_s = tile_s;
  rk.cross_halo = cross_halo;
  rk.ring_slots_extra = 2;
  rk.single_buffer = single_buffer;
  rk.layers_extra = 2;
  rk.shift_per_step = 2;
  rk.write_behind = write_behind;
  rk.ring_shift_bias = ring_shift_bias;
  rk.barrier_between_phases = barrier_between_phases;
  rk.min_sweep_extent_periodic = tile_s + 3;

  rk.src_load.array = 0;
  rk.src_load.comps = iota_comps(lat.m);
  rk.src_load.span = true;
  rk.dst_store.array = single_buffer ? 0 : 1;
  rk.dst_store.write = true;
  rk.dst_store.comps = iota_comps(lat.m);
  rk.dst_store.span = true;

  ec.ring_kernels.push_back(std::move(rk));
  ec.lattice = std::move(lat);
  return ec;
}

std::vector<std::string> applicable_mutations(const EngineContract& c) {
  std::vector<std::string> out;
  if (c.empty()) return out;
  out.emplace_back("shrunk-ghost-depth");
  // Span widening only applies to contracts that batch I/O somewhere; the
  // EP pattern is span-free.
  bool has_span = !c.ring_kernels.empty();
  for (const auto& nk : c.node_kernels) {
    for (const auto& a : nk.accesses) has_span = has_span || a.span;
  }
  if (has_span) out.emplace_back("span-overrun");
  if (!c.ring_kernels.empty()) {
    const bool circ = c.ring_kernels.front().single_buffer;
    if (circ) {
      out.emplace_back("shifted-ring-window-up");
      out.emplace_back("shifted-ring-window-down");
      out.emplace_back("short-write-behind");
    }
    out.emplace_back("dropped-barrier-phase");
    out.emplace_back("shrunk-cross-halo");
    out.emplace_back("shrunk-shared-ring");
  }
  // Both in-place patterns (the two-phase contracts) expose an odd-parity
  // gather whose offset sign is load-bearing for the reader == writer
  // invariant.
  if (c.steps_per_cycle == 2) {
    out.emplace_back("skewed-inplace-gather");
  }
  return out;
}

void apply_mutation(EngineContract& c, const std::string& name) {
  const auto names = applicable_mutations(c);
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    throw ConfigError("apply_mutation: '" + name +
                      "' not applicable to pattern " + c.pattern);
  }
  if (name == "shrunk-ghost-depth") {
    c.ghost_depth_declared -= 1;
    return;
  }
  if (name == "span-overrun") {
    // Extend the first span access one component past the array: the exact
    // shape of an off-by-one span count, which span_ok only catches at run
    // time on a large enough domain.
    for (auto& nk : c.node_kernels) {
      for (auto& a : nk.accesses) {
        if (a.span) {
          a.comps.push_back(static_cast<int>(a.comps.size()));
          return;
        }
      }
    }
    for (auto& rk : c.ring_kernels) {
      rk.src_load.comps.push_back(static_cast<int>(rk.src_load.comps.size()));
      return;
    }
    throw ConfigError("span-overrun: contract has no span access");
  }
  if (name == "skewed-inplace-gather") {
    // Flip the sign of one odd-step gather offset: the touched word gains a
    // second accessing thread, breaking the reader == writer invariant.
    NodeKernelContract& odd = c.node_kernels.at(1);
    for (auto& a : odd.accesses) {
      if (!a.write && (a.off[0] != 0 || a.off[1] != 0 || a.off[2] != 0)) {
        a.off = {-a.off[0], -a.off[1], -a.off[2]};
        return;
      }
    }
    throw ConfigError("skewed-inplace-gather: no offset gather found");
  }
  RingKernelContract& rk = c.ring_kernels.front();
  if (name == "shifted-ring-window-up") {
    rk.ring_shift_bias = 1;
  } else if (name == "shifted-ring-window-down") {
    rk.ring_shift_bias = -1;
  } else if (name == "short-write-behind") {
    rk.write_behind = 1;
  } else if (name == "dropped-barrier-phase") {
    rk.barrier_between_phases = false;
  } else if (name == "shrunk-cross-halo") {
    rk.cross_halo = 0;
  } else if (name == "shrunk-shared-ring") {
    rk.ring_slots_extra = 1;
  }
}

}  // namespace mlbm::analysis
