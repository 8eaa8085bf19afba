/**
 * @file
 * The simulation kernel: a clock plus an event queue.
 */

#ifndef NOWCLUSTER_SIM_SIMULATOR_HH_
#define NOWCLUSTER_SIM_SIMULATOR_HH_

#include <cstdint>

#include "base/logging.hh"
#include "base/types.hh"
#include "sim/event_queue.hh"
#include "sim/inline_fn.hh"

namespace nowcluster {

/**
 * Owns virtual time. Components schedule closures; run() drains the
 * queue in timestamp order, advancing now().
 */
class Simulator
{
  public:
    /** Current virtual time. */
    Tick now() const { return now_; }

    /** Schedule fn at absolute virtual time when (must be >= now()). */
    void
    schedule(Tick when, InlineFn fn)
    {
        panic_if(when < now_, "scheduling event in the past (%lld < %lld)",
                 static_cast<long long>(when),
                 static_cast<long long>(now_));
        events_.schedule(when, std::move(fn));
    }

    /** Schedule fn delta ticks from now. */
    void
    scheduleIn(Tick delta, InlineFn fn)
    {
        // >=, not >: kTickNever itself is the "no event" sentinel, so
        // landing exactly on it is as corrupt as wrapping past it.
        panic_if(delta >= kTickNever - now_,
                 "scheduleIn overflows the Tick clock "
                 "(now %lld + delta %lld)",
                 static_cast<long long>(now_),
                 static_cast<long long>(delta));
        schedule(now_ + delta, std::move(fn));
    }

    /**
     * Run events until the queue is empty or a safety limit of
     * max_events is reached (0 = unlimited).
     * @return number of events executed.
     */
    std::uint64_t
    run(std::uint64_t max_events = 0)
    {
        std::uint64_t executed = 0;
        while (!events_.empty()) {
            if (max_events && executed >= max_events)
                break;
            auto [when, fn] = events_.pop();
            now_ = when;
            fn();
            ++executed;
        }
        executed_ += executed;
        return executed;
    }

    /** Run events with time <= limit. */
    std::uint64_t
    runUntil(Tick limit)
    {
        std::uint64_t executed = 0;
        while (!events_.empty() && events_.nextTime() <= limit) {
            auto [when, fn] = events_.pop();
            now_ = when;
            fn();
            ++executed;
        }
        if (now_ < limit)
            now_ = limit;
        executed_ += executed;
        return executed;
    }

    /** Time of the earliest pending event (kTickNever if idle). */
    Tick nextTime() const { return events_.nextTime(); }

    /**
     * Execute exactly one event (the earliest).
     * @return false if the queue was empty.
     */
    bool
    step()
    {
        if (events_.empty())
            return false;
        auto [when, fn] = events_.pop();
        now_ = when;
        fn();
        ++executed_;
        return true;
    }

    bool idle() const { return events_.empty(); }
    std::size_t pendingEvents() const { return events_.size(); }

    /** Lifetime count of executed events (perf accounting). */
    std::uint64_t executed() const { return executed_; }

  private:
    Tick now_ = 0;
    std::uint64_t executed_ = 0;
    EventQueue events_;
};

} // namespace nowcluster

#endif // NOWCLUSTER_SIM_SIMULATOR_HH_
