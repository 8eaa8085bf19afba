/**
 * @file
 * Trace replay: LogGOPSim-style "what-if" analysis. The messages of a
 * span trace captured from one run (obs/tracer.hh; on disk, the
 * NOWOBS01 file `nowlab trace --bin` writes) are decomposed into
 * per-processor schedules of (think time, send) steps; replaying the
 * schedules on a cluster with *different* LogGP parameters predicts
 * how the same communication structure would fare on another machine
 * -- without re-running the application.
 *
 * The decomposition assumes think time is what separated consecutive
 * sends beyond their send costs (the standard trace-replay
 * approximation): it preserves burstiness and per-processor load but
 * not data-dependent control flow, so replay is a complement to -- not
 * a substitute for -- the full-application sweeps.
 */

#ifndef NOWCLUSTER_REPLAY_REPLAY_HH_
#define NOWCLUSTER_REPLAY_REPLAY_HH_

#include <vector>

#include "net/loggp.hh"
#include "obs/tracer.hh"

namespace nowcluster {

/** One step of a processor's extracted schedule. */
struct ReplayStep
{
    Tick think;        ///< Local compute before this send.
    NodeId dst;
    bool bulk;         ///< Replay as a bulk store of `bytes`.
    std::uint32_t bytes;
};

/** Per-processor send schedules extracted from a trace. */
struct ReplaySchedule
{
    int nprocs = 0;
    std::vector<std::vector<ReplayStep>> steps; ///< [proc][i].

    std::size_t
    totalSends() const
    {
        std::size_t n = 0;
        for (const auto &s : steps)
            n += s.size();
        return n;
    }
};

/**
 * Decompose a trace's messages into per-processor schedules,
 * subtracting the send cost of the *recording* machine from inter-send
 * gaps to recover think time.
 *
 * Replies and StoreAck-like traffic regenerate naturally during
 * replay, so only requests, one-ways, and bulk operations (first
 * fragments) are scheduled; retransmitted flights are skipped, since
 * replay regenerates reliability traffic itself. A message naming a
 * node outside [0, nprocs) is fatal.
 */
ReplaySchedule extractSchedule(const SpanTracer &trace, int nprocs,
                               const LogGPParams &recorded_on);

/** Result of replaying a schedule. */
struct ReplayResult
{
    Tick makespan = 0;        ///< Last processor's completion.
    std::uint64_t sends = 0;  ///< Messages replayed.
    bool ok = false;
};

/**
 * Replay the schedule on a cluster with the given parameters. Sends
 * become one-way short messages (or bulk stores), so flow control,
 * NIC queueing, and every knob act exactly as in a real run.
 */
ReplayResult replaySchedule(const ReplaySchedule &schedule,
                            const LogGPParams &params);

} // namespace nowcluster

#endif // NOWCLUSTER_REPLAY_REPLAY_HH_
