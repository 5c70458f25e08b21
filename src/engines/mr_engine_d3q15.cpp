// D3Q15 instantiations of the moment-representation engine.
#include "engines/mr_engine_impl.hpp"

namespace mlbm {

template class MrEngine<D3Q15, double>;
template class MrEngine<D3Q15, float>;

}  // namespace mlbm
