// D3Q19 instantiations of the distribution-engine chassis.
#include "engines/dist_engine_impl.hpp"

namespace mlbm {

template class DistEngine<D3Q19, double, StAddressing>;
template class DistEngine<D3Q19, float, StAddressing>;
template class DistEngine<D3Q19, double, AaAddressing>;
template class DistEngine<D3Q19, float, AaAddressing>;
template class DistEngine<D3Q19, double, EpAddressing>;
template class DistEngine<D3Q19, float, EpAddressing>;

}  // namespace mlbm
