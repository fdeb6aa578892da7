#include "fabric/pool_unit.hpp"

#include "core/errors.hpp"

namespace tincy::fabric {

int64_t pool_cycles(const PoolSpec& spec, int64_t pe) {
  TINCY_CHECK(pe > 0);
  const int64_t groups = (spec.channels + pe - 1) / pe;
  return groups * spec.out_height() * spec.out_width();
}

}  // namespace tincy::fabric
