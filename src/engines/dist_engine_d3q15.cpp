// D3Q15 instantiations of the distribution-engine chassis.
#include "engines/dist_engine_impl.hpp"

namespace mlbm {

template class DistEngine<D3Q15, double, StAddressing>;
template class DistEngine<D3Q15, float, StAddressing>;
template class DistEngine<D3Q15, double, AaAddressing>;
template class DistEngine<D3Q15, float, AaAddressing>;
template class DistEngine<D3Q15, double, EpAddressing>;
template class DistEngine<D3Q15, float, EpAddressing>;

}  // namespace mlbm
