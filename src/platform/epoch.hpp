// Compatibility stub. Graph versions published through lagraph::GraphService
// are reference counted and free when their last holder lets go, so there is
// nothing left to drain. The header and this no-op exist only for the
// Epoch::drain() calls in perfbench/traffic.cpp and perfbench/layers.cpp;
// the next benchmark-only change removes both those calls and this header.
#pragma once

#include <cstddef>

namespace gb::platform {

struct Epoch {
  /// No-op kept for existing callers; always returns 0.
  static std::size_t drain() noexcept { return 0; }
};

}  // namespace gb::platform
