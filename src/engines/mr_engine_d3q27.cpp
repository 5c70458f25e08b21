// D3Q27 instantiations of the moment-representation engine.
#include "engines/mr_engine_impl.hpp"

namespace mlbm {

template class MrEngine<D3Q27, double>;
template class MrEngine<D3Q27, float>;

}  // namespace mlbm
