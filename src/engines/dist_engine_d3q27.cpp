// D3Q27 instantiations of the distribution-engine chassis.
#include "engines/dist_engine_impl.hpp"

namespace mlbm {

template class DistEngine<D3Q27, double, StAddressing>;
template class DistEngine<D3Q27, float, StAddressing>;
template class DistEngine<D3Q27, double, AaAddressing>;
template class DistEngine<D3Q27, float, AaAddressing>;
template class DistEngine<D3Q27, double, EpAddressing>;
template class DistEngine<D3Q27, float, EpAddressing>;

}  // namespace mlbm
