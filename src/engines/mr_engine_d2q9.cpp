// D2Q9 instantiations of the moment-representation engine.
#include "engines/mr_engine_impl.hpp"

namespace mlbm {

template class MrEngine<D2Q9, double>;
template class MrEngine<D2Q9, float>;

}  // namespace mlbm
