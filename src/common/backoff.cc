#include "common/backoff.h"

#include <algorithm>

namespace bistro {

Duration NextBackoff(Duration last, Duration min, Duration max,
                     double multiplier, Rng* jitter) {
  const Duration base = std::max<Duration>(min, 1);
  const Duration cap = std::max<Duration>(max, base);
  if (last <= 0) return base;
  const double grown = static_cast<double>(last) * std::max(multiplier, 1.0);
  const Duration next =
      grown >= static_cast<double>(cap) ? cap : static_cast<Duration>(grown);
  if (jitter == nullptr || next <= base) return next;
  return base + static_cast<Duration>(
                    jitter->Uniform(static_cast<uint64_t>(next - base) + 1));
}

}  // namespace bistro
