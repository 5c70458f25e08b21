// D2Q9 instantiations of the distribution-engine chassis.
#include "engines/dist_engine_impl.hpp"

namespace mlbm {

template class DistEngine<D2Q9, double, StAddressing>;
template class DistEngine<D2Q9, float, StAddressing>;
template class DistEngine<D2Q9, double, AaAddressing>;
template class DistEngine<D2Q9, float, AaAddressing>;
template class DistEngine<D2Q9, double, EpAddressing>;
template class DistEngine<D2Q9, float, EpAddressing>;

}  // namespace mlbm
