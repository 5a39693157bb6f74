#include "simd/kernels.h"

namespace vantage::simd {

const Ops kScalarOps = {
    &scalar::findTag,    &scalar::findTagAt,     &scalar::judge,
    &scalar::oldestRank, &scalar::minLastAccess, &scalar::xorRows8,
};

} // namespace vantage::simd
