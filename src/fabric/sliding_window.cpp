#include "fabric/sliding_window.hpp"

#include "core/errors.hpp"

namespace tincy::fabric {

SlidingWindowUnit::SlidingWindowUnit(const gemm::ConvGeometry& g) : geom_(g) {
  TINCY_CHECK_MSG(g.out_height() > 0 && g.out_width() > 0, "degenerate SWU");
}

}  // namespace tincy::fabric
