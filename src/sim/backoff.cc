#include "sim/backoff.h"

#include "sim/logging.h"

namespace muxwise::sim {

Duration BackoffDelay(const ExponentialBackoff& policy, int attempt) {
  MUX_CHECK(policy.initial >= 0);
  MUX_CHECK(policy.multiplier >= 1.0);
  Duration delay = policy.initial;
  if (delay >= policy.cap) return policy.cap;
  for (int i = 1; i < attempt; ++i) {
    // A next delay past the largest Duration is past any cap; each branch
    // tests for it before computing it, since the overflow is undefined.
    Duration next = 0;
    if (policy.multiplier == 2.0) {
      // Doubling stays in integer arithmetic so the shared helper is
      // bit-identical to the retry loop it replaced in sim::Channel.
      if (delay > kTimeNever / 2) return policy.cap;
      next = delay * 2;
    } else {
      const double scaled = static_cast<double>(delay) * policy.multiplier;
      if (scaled >= 0x1p63) return policy.cap;
      next = static_cast<Duration>(scaled);
    }
    if (next >= policy.cap) return policy.cap;
    delay = next;
  }
  return delay;
}

}  // namespace muxwise::sim
