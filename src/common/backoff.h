#ifndef BISTRO_COMMON_BACKOFF_H_
#define BISTRO_COMMON_BACKOFF_H_

#include "common/random.h"
#include "common/time.h"

namespace bistro {

/// The wait after a failure whose previous wait was `last` (0 = first
/// failure). The first wait is exactly `min`; each later one grows `last`
/// by `multiplier`, capped at `max`. With a `jitter` Rng the grown wait is
/// replaced by a uniform draw from [min, grown] — decorrelated jitter: the
/// next wait grows from this draw, not from the deterministic envelope.
/// No draw is taken when the grown wait is `min` itself. `min` is clamped
/// to at least 1 and `max` to at least `min`. Delivery retries and socket
/// reconnects both use this schedule.
Duration NextBackoff(Duration last, Duration min, Duration max,
                     double multiplier, Rng* jitter);

}  // namespace bistro

#endif  // BISTRO_COMMON_BACKOFF_H_
