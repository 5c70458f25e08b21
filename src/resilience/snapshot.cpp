#include "resilience/snapshot.hpp"

#include <span>
#include <vector>

#include "multidev/multi_domain.hpp"
#include "util/error.hpp"

namespace mlbm::resilience {

template <class L>
StateSnapshot<L> capture_state(const Engine<L>& eng, int step,
                               bool with_moments) {
  constexpr int NV = Moments<L>::NV;
  const Box& b = eng.geometry().box;

  StateSnapshot<L> snap;
  snap.step = step;
  snap.time = eng.time();
  snap.raw_tag = eng.raw_state_tag();
  if (!snap.raw_tag.empty()) eng.serialize_raw_state(snap.raw);

  // The portable moment payload is the expensive part of a capture (a full
  // read_moments sweep); callers that can only ever restore into the same
  // engine (raw tag match guaranteed) may skip it. A moment-only engine
  // always needs it — it is the only state representation available.
  if (with_moments || snap.raw_tag.empty()) {
    snap.values.resize(static_cast<std::size_t>(b.cells()) *
                       static_cast<std::size_t>(NV));
    real_t* v = snap.values.data();
    for_each_row(eng, NodeRange{0, b.nx, 0, b.ny, 0, b.nz},
                 [&v](int, int, std::span<const Moments<L>> row) {
                   for (const Moments<L>& m : row) {
                     m.pack(v);
                     v += NV;
                   }
                 });
  }

  for_each_profiler(eng, [&snap](const gpusim::Profiler& p) {
    snap.profilers.push_back(p.state());
  });
  if (const auto* md = dynamic_cast<const MultiDomainEngine<L>*>(&eng)) {
    snap.exchanged_total = md->exchanged_values_total();
  }
  return snap;
}

template <class L>
void restore_state(Engine<L>& eng, const StateSnapshot<L>& snap) {
  constexpr int NV = Moments<L>::NV;
  const Box& b = eng.geometry().box;

  // Re-time FIRST: buffer parity (AA) and circular-shift layer addressing
  // follow the clock, so both restore paths must write under the capture
  // step's addressing — and the raw tag itself is parity-dependent.
  eng.set_time(snap.time);

  if (!snap.raw_tag.empty() && eng.raw_state_tag() == snap.raw_tag) {
    // Same layout as the capture source: exact restore.
    eng.restore_raw_state(snap.raw);
  } else {
    // Different engine (degrade path) or moment-only source: portable
    // moment restore.
    if (snap.values.empty()) {
      throw ConfigError(
          "restore_state: snapshot carries no moment payload for an engine "
          "with a different raw layout (captured with with_moments=false)");
    }
    if (snap.values.size() != static_cast<std::size_t>(b.cells()) *
                                  static_cast<std::size_t>(NV)) {
      throw ConfigError("restore_state: snapshot does not match engine box");
    }
    const real_t* v = snap.values.data();
    std::vector<Moments<L>> row(static_cast<std::size_t>(b.nx));
    for (int z = 0; z < b.nz; ++z) {
      for (int y = 0; y < b.ny; ++y) {
        for (Moments<L>& m : row) {
          m = Moments<L>::unpack(v);
          v += NV;
        }
        eng.write_moments(NodeRange::row(0, b.nx, y, z), row);
      }
    }
  }

  std::size_t i = 0;
  for_each_profiler(eng, [&snap, &i](gpusim::Profiler& p) {
    if (i < snap.profilers.size()) p.restore(snap.profilers[i]);
    ++i;
  });
  if (auto* md = dynamic_cast<MultiDomainEngine<L>*>(&eng)) {
    md->set_exchanged_total(snap.exchanged_total);
  }
}

template struct StateSnapshot<D2Q9>;
template struct StateSnapshot<D3Q19>;
template struct StateSnapshot<D3Q27>;
template struct StateSnapshot<D3Q15>;
template StateSnapshot<D2Q9> capture_state<D2Q9>(const Engine<D2Q9>&, int,
                                                 bool);
template StateSnapshot<D3Q19> capture_state<D3Q19>(const Engine<D3Q19>&, int,
                                                   bool);
template StateSnapshot<D3Q27> capture_state<D3Q27>(const Engine<D3Q27>&, int,
                                                   bool);
template StateSnapshot<D3Q15> capture_state<D3Q15>(const Engine<D3Q15>&, int,
                                                   bool);
template void restore_state<D2Q9>(Engine<D2Q9>&, const StateSnapshot<D2Q9>&);
template void restore_state<D3Q19>(Engine<D3Q19>&,
                                   const StateSnapshot<D3Q19>&);
template void restore_state<D3Q27>(Engine<D3Q27>&,
                                   const StateSnapshot<D3Q27>&);
template void restore_state<D3Q15>(Engine<D3Q15>&,
                                   const StateSnapshot<D3Q15>&);

}  // namespace mlbm::resilience
