/**
 * @file
 * A simulated processor: a fiber coupled to the event-driven kernel.
 *
 * The fiber never runs ahead of virtual time. Every operation that
 * consumes processor time goes through compute(), which schedules a wake
 * event and yields; every blocking operation goes through block(), which
 * suspends until some component calls wake(). This gives deterministic,
 * faithful interleaving with the network model.
 */

#ifndef NOWCLUSTER_SIM_PROC_HH_
#define NOWCLUSTER_SIM_PROC_HH_

#include <functional>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "obs/tracer.hh"
#include "sim/fiber.hh"
#include "sim/simulator.hh"

namespace nowcluster {

/** Execution state of a simulated processor. */
enum class ProcState
{
    Created,   ///< Not yet started.
    Ready,     ///< Wake event scheduled; will run at that event.
    Running,   ///< Fiber currently executing.
    Blocked,   ///< Suspended; waiting for wake().
    Done,      ///< Body returned.
};

/**
 * One simulated processor. The body function runs on a fiber and calls
 * compute()/block() to interact with virtual time.
 */
class Proc
{
  public:
    /**
     * @param sim  The owning simulator.
     * @param id   Processor rank.
     * @param body Per-processor program; receives this Proc.
     */
    Proc(Simulator &sim, NodeId id, std::function<void(Proc &)> body);

    Proc(const Proc &) = delete;
    Proc &operator=(const Proc &) = delete;

    /** Schedule the first activation at virtual time at. */
    void start(Tick at = 0);

    /**
     * Consume dt of processor time: schedules a wake at now+dt and
     * yields to the kernel. Must be called from this proc's fiber.
     * dt == 0 is a no-op (no yield), keeping hot paths cheap.
     *
     * When a tracer is attached, the interval is recorded on this
     * node's CPU track under `cat` (tagged with message `msg` when the
     * time serves a specific packet). Recording is passive: timestamps
     * are identical with and without a tracer.
     */
    void compute(Tick dt, SpanCat cat = SpanCat::Compute,
                 std::uint64_t msg = 0);

    /**
     * Suspend until another component calls wake(). Must be called from
     * this proc's fiber. On return, virtual time is the wake time.
     */
    void block();

    /**
     * Make a blocked proc runnable again no earlier than time at
     * (defaults to the current virtual time). Spurious wakes of a
     * non-blocked proc are ignored, so components may wake unconditionally.
     */
    void wake(Tick at = -1);

    /**
     * Install a one-off stall window [from, from+duration): the
     * processor is preempted for the window's full extent. compute()
     * intervals overlapping a window stretch by the overlap, and
     * activations (wake/start) landing inside one are deferred to its
     * end. The stall models OS-jitter style CPU interference only --
     * NIC contexts keep running -- and is pure scenario state, so runs
     * stay deterministic. Windows must be installed before virtual time
     * reaches `from`; overlaps are merged.
     */
    void injectStall(Tick from, Tick duration);

    NodeId id() const { return id_; }
    ProcState state() const { return state_; }
    bool done() const { return state_ == ProcState::Done; }
    Simulator &sim() { return sim_; }

    /** Current virtual time (the proc's local clock == global clock). */
    Tick now() const { return sim_.now(); }

    /** Total time this proc has spent in compute(). */
    Tick busyTime() const { return busyTime_; }

    /** Attach (or detach, with nullptr) a span tracer. */
    void attachObs(SpanTracer *obs) { obs_ = obs; }
    SpanTracer *obs() const { return obs_; }

    /** True if the currently executing fiber belongs to this proc. */
    bool isCurrent() const { return Fiber::current() == fiber_.get(); }

  private:
    struct StallWindow
    {
        Tick from;
        Tick until; ///< Exclusive: time `until` is runnable again.
    };

    /** Event body: switch into the fiber. */
    void activate();

    /** First runnable instant at or after `at` (stall deferral). */
    Tick deferPastStalls(Tick at) const;

    Simulator &sim_;
    NodeId id_;
    std::function<void(Proc &)> body_;
    std::unique_ptr<Fiber> fiber_;
    ProcState state_ = ProcState::Created;
    Tick busyTime_ = 0;
    SpanTracer *obs_ = nullptr;
    // Wake bookkeeping: earliest requested wake while blocked.
    bool wakePending_ = false;
    Tick wakeAt_ = 0;
    /** One-off stall windows, sorted by `from` and disjoint. */
    std::vector<StallWindow> stalls_;
};

} // namespace nowcluster

#endif // NOWCLUSTER_SIM_PROC_HH_
