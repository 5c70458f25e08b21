// Kernel launch facilities.
//
// Two launch shapes cover every kernel in this repository:
//
//  * `launch` — independent blocks, executed in parallel over host threads.
//    Used by the ST stream-collide kernel (Algorithm 1) and the boundary
//    condition kernels, whose blocks never communicate.
//
//  * `launch_level_synced` — blocks with per-block persistent state that
//    advance through a sequence of *levels* (the MR sliding window's tiles,
//    Algorithm 2), with a barrier between levels. On a real GPU all columns
//    run concurrently inside one kernel launch and the circular array shift
//    bounds the inter-column skew; the level barrier is the simulator's
//    scheduler that enforces the same bounded-skew contract (DESIGN.md §3).
//    All levels execute inside ONE persistent parallel region — mirroring
//    the single persistent kernel launch on hardware — with an OpenMP
//    barrier between levels instead of a fork/join per level.
//
// Both launchers dispatch the block body as a template parameter (no
// std::function anywhere on the per-block path), and both exist in two
// overloads: a by-name form that looks the KernelRecord up in the profiler,
// and a by-record form taking a cached `KernelRecord&` so steady-state
// stepping does no string hashing (records have stable addresses; see
// profiler.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/block.hpp"
#include "gpusim/dim3.hpp"
#include "gpusim/profiler.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace mlbm::gpusim {

namespace detail {

inline Dim3 unflatten(long long b, const Dim3& grid) {
  Dim3 idx;
  idx.x = static_cast<int>(b % grid.x);
  idx.y = static_cast<int>((b / grid.x) % grid.y);
  idx.z = static_cast<int>(b / (static_cast<long long>(grid.x) * grid.y));
  return idx;
}

#ifdef _OPENMP
/// OpenMP team size of a launch: never more threads than blocks, so a launch
/// with few blocks neither wakes nor barrier-waits on idle threads.
inline int team_size(long long nblocks) {
  return static_cast<int>(
      std::clamp<long long>(nblocks, 1, omp_get_max_threads()));
}
#endif

/// Runs `fn(b)` for b in [0, nblocks) across the host threads. `fn` is a
/// template parameter: the inner loop is a direct (inlinable) call.
template <class Fn>
void parallel_for_blocks(long long nblocks, Fn&& fn) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(team_size(nblocks))
  for (long long b = 0; b < nblocks; ++b) {
    fn(b);
  }
#else
  for (long long b = 0; b < nblocks; ++b) {
    fn(b);
  }
#endif
}

}  // namespace detail

/// Launches `body(BlockCtx&)` once per block. Blocks are independent and may
/// execute concurrently; aggregates traffic and barrier counts into `rec`.
template <class Body>
void launch(Profiler& prof, KernelRecord& rec, Dim3 grid, Dim3 block,
            Body&& body) {
  // Fault-injection point: a hook may throw TransientLaunchError here, i.e.
  // before any block runs or any counter moves — the failed launch left the
  // device untouched and the caller may retry.
  if (LaunchFaultHook* hook = prof.launch_fault_hook()) hook->on_launch(rec);
  SanitizerHook* san = prof.sanitizer_hook();
  if (san != nullptr) san->on_launch_begin(rec, grid, block, /*levels=*/1);
  const TrafficSnapshot before = prof.counter().snapshot();
  const long long nblocks = grid.count();

  std::vector<std::uint64_t> syncs(static_cast<std::size_t>(nblocks), 0);
  std::vector<std::size_t> shared(static_cast<std::size_t>(nblocks), 0);

  detail::parallel_for_blocks(nblocks, [&](long long b) {
    BlockCtx ctx(detail::unflatten(b, grid), block);
    if (san != nullptr) {
      ctx.attach_sanitizer(san, b);
      san->on_block_begin(b, /*level=*/0);
    }
    body(ctx);
    if (san != nullptr) san->on_block_end();
    syncs[static_cast<std::size_t>(b)] = ctx.sync_count();
    shared[static_cast<std::size_t>(b)] = ctx.shared_bytes();
  });

  rec.grid = grid;
  rec.block = block;
  rec.launches += 1;
  for (long long b = 0; b < nblocks; ++b) {
    rec.syncs += syncs[static_cast<std::size_t>(b)];
    if (shared[static_cast<std::size_t>(b)] > rec.shared_bytes_per_block) {
      rec.shared_bytes_per_block = shared[static_cast<std::size_t>(b)];
    }
  }
  rec.traffic += prof.counter().snapshot() - before;
  if (san != nullptr) san->on_launch_end(syncs);
}

/// By-name convenience form: looks up (creating if needed) the kernel record.
/// Steady-state callers should cache `prof.record(name)` and use the
/// by-record overload instead.
template <class Body>
void launch(Profiler& prof, const std::string& name, Dim3 grid, Dim3 block,
            Body&& body) {
  launch(prof, prof.record(name), grid, block, std::forward<Body>(body));
}

/// Launches blocks that carry persistent per-block state through `levels`
/// barrier-separated steps.
///
/// `make_state(BlockCtx&) -> State` runs once per block (allocating shared
/// memory, initializing registers); `level_fn(BlockCtx&, State&, int level)`
/// runs for every block at every level, with a global barrier between
/// levels. The whole level sequence runs inside a single persistent parallel
/// region: one fork at entry, one join at exit, and a barrier (the implicit
/// one at the end of each worksharing loop) between levels — the same
/// execution shape as one persistent GPU kernel.
template <class MakeState, class LevelFn>
void launch_level_synced(Profiler& prof, KernelRecord& rec, Dim3 grid,
                         Dim3 block, int levels, MakeState&& make_state,
                         LevelFn&& level_fn) {
  using State = decltype(make_state(std::declval<BlockCtx&>()));
  // Same fault-injection point as `launch`: throws happen before any
  // per-block state exists.
  if (LaunchFaultHook* hook = prof.launch_fault_hook()) hook->on_launch(rec);
  SanitizerHook* san = prof.sanitizer_hook();
  if (san != nullptr) san->on_launch_begin(rec, grid, block, levels);
  const TrafficSnapshot before = prof.counter().snapshot();
  const long long nblocks = grid.count();

  std::vector<BlockCtx> ctxs;
  ctxs.reserve(static_cast<std::size_t>(nblocks));
  std::vector<State> states;
  states.reserve(static_cast<std::size_t>(nblocks));
  for (long long b = 0; b < nblocks; ++b) {
    ctxs.emplace_back(detail::unflatten(b, grid), block);
    // Attach before make_state so shared allocations register their spans.
    if (san != nullptr) ctxs.back().attach_sanitizer(san, b);
    states.push_back(make_state(ctxs.back()));
  }

  // Each level boundary is a barrier epoch for every block (the worksharing
  // barrier orders phases exactly like an intra-block sync), and each
  // (block, level) slice sets the sanitizer's attribution context.
  auto run_block_level = [&](long long b, int level) {
    BlockCtx& ctx = ctxs[static_cast<std::size_t>(b)];
    ctx.begin_phase();
    if (san != nullptr) san->on_block_begin(b, level);
    level_fn(ctx, states[static_cast<std::size_t>(b)], level);
    if (san != nullptr) san->on_block_end();
  };

#ifdef _OPENMP
#pragma omp parallel default(shared) num_threads(detail::team_size(nblocks))
  {
    for (int level = 0; level < levels; ++level) {
#pragma omp for schedule(static)
      for (long long b = 0; b < nblocks; ++b) {
        run_block_level(b, level);
      }
      // The worksharing loop's implicit barrier is the level barrier: every
      // block finishes the level before any block starts the next.
    }
  }
#else
  for (int level = 0; level < levels; ++level) {
    for (long long b = 0; b < nblocks; ++b) {
      run_block_level(b, level);
    }
  }
#endif

  rec.grid = grid;
  rec.block = block;
  rec.launches += 1;
  std::vector<std::uint64_t> syncs(static_cast<std::size_t>(nblocks), 0);
  for (long long b = 0; b < nblocks; ++b) {
    BlockCtx& ctx = ctxs[static_cast<std::size_t>(b)];
    syncs[static_cast<std::size_t>(b)] = ctx.sync_count();
    rec.syncs += ctx.sync_count();
    if (ctx.shared_bytes() > rec.shared_bytes_per_block) {
      rec.shared_bytes_per_block = ctx.shared_bytes();
    }
  }
  rec.traffic += prof.counter().snapshot() - before;
  if (san != nullptr) san->on_launch_end(syncs);
}

/// By-name convenience form of `launch_level_synced` (see `launch`).
template <class MakeState, class LevelFn>
void launch_level_synced(Profiler& prof, const std::string& name, Dim3 grid,
                         Dim3 block, int levels, MakeState&& make_state,
                         LevelFn&& level_fn) {
  launch_level_synced(prof, prof.record(name), grid, block, levels,
                      std::forward<MakeState>(make_state),
                      std::forward<LevelFn>(level_fn));
}

}  // namespace mlbm::gpusim
