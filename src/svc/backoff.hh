/**
 * @file
 * Capped jittered exponential backoff.
 *
 * One policy shared by nowlabd's retrying clients: `nowlab submit`
 * honouring a busy/retry_after_ms reply, and `nowlab storm` riding out
 * backpressure. The delay doubles from `baseMs` up to `capMs`, and
 * each step is jittered uniformly over [delay/2, delay] ("equal
 * jitter") so a thundering herd of retriers decorrelates instead of
 * re-colliding on the same tick.
 *
 * Deterministic: the jitter stream comes from the repo's own xoshiro
 * Rng seeded at construction, so tests can assert exact schedules.
 */

#ifndef NOWCLUSTER_SVC_BACKOFF_HH_
#define NOWCLUSTER_SVC_BACKOFF_HH_

#include <algorithm>
#include <cstdint>

#include "base/random.hh"

namespace nowcluster::svc {

class Backoff
{
  public:
    explicit Backoff(int baseMs = 50, int capMs = 5000,
                     std::uint64_t seed = 1)
        : baseMs_(std::max(1, baseMs)),
          capMs_(std::max(std::max(1, baseMs), capMs)),
          currentMs_(baseMs_), rng_(seed, 0x6261636bULL /* "back" */)
    {
    }

    /** The next delay in milliseconds: jittered over
     *  [current/2, current], then the window doubles (capped). */
    int nextMs()
    {
        int window = currentMs_;
        currentMs_ = std::min(capMs_, currentMs_ * 2);
        int half = std::max(1, window / 2);
        return half + static_cast<int>(rng_.below(
                          static_cast<std::uint64_t>(window - half + 1)));
    }

    /** Back to the base delay (after a success). */
    void reset() { currentMs_ = baseMs_; }

    int baseMs() const { return baseMs_; }
    int capMs() const { return capMs_; }

  private:
    int baseMs_;
    int capMs_;
    int currentMs_;
    Rng rng_;
};

} // namespace nowcluster::svc

#endif // NOWCLUSTER_SVC_BACKOFF_HH_
