// Binary checkpointing of the moment state. Because every engine exposes its
// full state through the moment interface, checkpoints are portable across
// propagation patterns: a run saved from an ST engine restores into an MR
// engine and vice versa.
//
// Format v2 ("MLBMCP02") records the engine's declared storage precision and
// writes node values in that precision — an FP32 run's checkpoint is half
// the size and loses nothing beyond what device storage already rounded.
// Format v3 ("MLBMCP03") additionally records the geometry hash and — when
// the domain has solid nodes — the per-node flag field; load validates both
// against the target engine and raises CheckpointError::Kind::kGeometry on
// mismatch, so a restore onto the wrong obstacle layout fails loudly.
// Format v4 ("MLBMCP04") appends a 64-bit FNV-1a digest of the payload
// bytes; a mismatch raises Kind::kDigest before any state is written.
// v1-v3 files remain loadable.
#pragma once

#include <string>

#include "engines/engine.hpp"

namespace mlbm {

template <class L>
void save_checkpoint(const Engine<L>& eng, const std::string& path);

/// Restores node states row by row via write_moments; the target engine must
/// have matching box extents. The engine's step counter is not part of the
/// state.
///
/// The file is validated in full (magic, header, extents, precision tag,
/// exact payload size, payload digest) before the first write: a malformed,
/// truncated or corrupted file raises a `CheckpointError` with the
/// malformation classified and leaves the engine untouched.
template <class L>
void load_checkpoint(Engine<L>& eng, const std::string& path);

extern template void save_checkpoint<D2Q9>(const Engine<D2Q9>&,
                                           const std::string&);
extern template void save_checkpoint<D3Q19>(const Engine<D3Q19>&,
                                            const std::string&);
extern template void save_checkpoint<D3Q27>(const Engine<D3Q27>&,
                                            const std::string&);
extern template void save_checkpoint<D3Q15>(const Engine<D3Q15>&,
                                            const std::string&);
extern template void load_checkpoint<D2Q9>(Engine<D2Q9>&, const std::string&);
extern template void load_checkpoint<D3Q19>(Engine<D3Q19>&,
                                            const std::string&);
extern template void load_checkpoint<D3Q27>(Engine<D3Q27>&,
                                            const std::string&);
extern template void load_checkpoint<D3Q15>(Engine<D3Q15>&,
                                            const std::string&);

}  // namespace mlbm
