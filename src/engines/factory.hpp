// Runtime-precision engine construction.
//
// The storage-precision policy is a compile-time template parameter of the
// gpusim engines (StEngine<L, ST>, AaEngine<L, ST>, EpEngine<L, ST>,
// MrEngine<L, ST>), which keeps the FP64 path bit-identical and the byte
// accounting exact. CLI tools and benches, however, select the precision at
// runtime (--precision fp32); these helpers dispatch a StoragePrecision value
// to the right instantiation behind the type-erasing Engine<L> interface.
//
// Every lattice x {double, float} instantiation is already compiled into the
// library (dist_engine_<lattice>.cpp, mr_engine_<lattice>.cpp), so these
// templates add no object code beyond the dispatch.
#pragma once

#include <memory>

#include "engines/aa_engine.hpp"
#include "engines/ep_engine.hpp"
#include "engines/mr_engine.hpp"
#include "engines/st_engine.hpp"
#include "util/precision.hpp"

namespace mlbm {

template <class L>
std::unique_ptr<Engine<L>> make_st_engine(
    StoragePrecision prec, Geometry geo, real_t tau,
    CollisionScheme scheme = CollisionScheme::kBGK, int threads_per_block = 256,
    StreamMode mode = StreamMode::kPull, ExecMode exec = default_exec_mode()) {
  if (prec == StoragePrecision::kFP32) {
    return std::make_unique<StEngine<L, float>>(std::move(geo), tau, scheme,
                                                threads_per_block, mode, exec);
  }
  return std::make_unique<StEngine<L, double>>(std::move(geo), tau, scheme,
                                               threads_per_block, mode, exec);
}

template <class L>
std::unique_ptr<Engine<L>> make_aa_engine(
    StoragePrecision prec, Geometry geo, real_t tau,
    CollisionScheme scheme = CollisionScheme::kBGK, int threads_per_block = 256,
    ExecMode exec = default_exec_mode(), bool allow_open_faces = false) {
  if (prec == StoragePrecision::kFP32) {
    return std::make_unique<AaEngine<L, float>>(
        std::move(geo), tau, scheme, threads_per_block, exec, allow_open_faces);
  }
  return std::make_unique<AaEngine<L, double>>(
      std::move(geo), tau, scheme, threads_per_block, exec, allow_open_faces);
}

template <class L>
std::unique_ptr<Engine<L>> make_ep_engine(
    StoragePrecision prec, Geometry geo, real_t tau,
    CollisionScheme scheme = CollisionScheme::kBGK, int threads_per_block = 256,
    ExecMode exec = default_exec_mode()) {
  if (prec == StoragePrecision::kFP32) {
    return std::make_unique<EpEngine<L, float>>(std::move(geo), tau, scheme,
                                                threads_per_block, exec);
  }
  return std::make_unique<EpEngine<L, double>>(std::move(geo), tau, scheme,
                                               threads_per_block, exec);
}

template <class L>
std::unique_ptr<Engine<L>> make_mr_engine(StoragePrecision prec, Geometry geo,
                                          real_t tau, Regularization scheme,
                                          MrConfig config = {},
                                          ExecMode exec = default_exec_mode()) {
  if (prec == StoragePrecision::kFP32) {
    return std::make_unique<MrEngine<L, float>>(std::move(geo), tau, scheme,
                                                config, exec);
  }
  return std::make_unique<MrEngine<L, double>>(std::move(geo), tau, scheme,
                                               config, exec);
}

}  // namespace mlbm
