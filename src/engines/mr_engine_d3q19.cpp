// D3Q19 instantiations of the moment-representation engine.
#include "engines/mr_engine_impl.hpp"

namespace mlbm {

template class MrEngine<D3Q19, double>;
template class MrEngine<D3Q19, float>;

}  // namespace mlbm
