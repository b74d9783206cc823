#include "crypto/ec_typed.hpp"

namespace argus::crypto {

template class EcGroupT<FieldP224>;
template class EcGroupT<FieldP256>;
#if defined(ARGUS_FIELD_ADX)
template class EcGroupT<FieldP224Adx>;
template class EcGroupT<FieldP256Adx>;
#endif
template class EcGroupT<FieldP384>;
template class EcGroupT<FieldP521>;

}  // namespace argus::crypto
