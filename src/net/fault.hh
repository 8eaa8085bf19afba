/**
 * @file
 * Deterministic fault injection for the cluster fabric.
 *
 * A FaultModel sits between packet injection and delivery: every wire
 * event (data packet or NIC-level ack) is offered to the model, which
 * decides — from a seeded private PRNG plus an explicit script — whether
 * the event is delivered, dropped, duplicated, delayed (reordering), or
 * corrupted (modeled as a CRC-detected discard at the receiving NIC,
 * counted separately from drops).
 *
 * Determinism: the model owns one xoshiro stream seeded from the fault
 * seed, and the simulator consults it in deterministic event order, so a
 * given (program, params, fault config) triple always produces the same
 * fault pattern. The scripted mode (drop exactly the Nth packet of a
 * class on a link, or blackhole a link for a tick window) exists for
 * regression tests that need one specific loss, not a statistical one.
 */

#ifndef NOWCLUSTER_NET_FAULT_HH_
#define NOWCLUSTER_NET_FAULT_HH_

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"

namespace nowcluster {

/** Wire-event classes the fault model distinguishes. */
enum class PacketClass : std::uint8_t
{
    Data, ///< An Active Message packet (short or bulk fragment).
    Ack,  ///< A NIC-level ack (credit return or reliability ack).
};

/**
 * One scripted one-off delay: processor `node` is preempted (stalled)
 * from virtual time `at` for `duration` ticks. The stall models
 * OS-jitter style CPU interference -- the NIC contexts keep moving, but
 * the fiber neither computes nor reacts to wakes inside the window.
 * Deterministic by construction (no randomness involved), so the same
 * (app, seed, delay spec) triple always produces the same run.
 */
struct DelaySpec
{
    NodeId node = 0;
    Tick at = 0;
    Tick duration = 0;
};

/**
 * Probabilistic fault configuration. All rates are independent per-event
 * probabilities in [0, 1]; the default (all zero) is the perfect fabric.
 * Lives inside LogGPParams so every existing construction path (tests,
 * harness, nowlab) can carry it without new plumbing.
 */
struct FaultConfig
{
    /** Master switch: the cluster builds a FaultModel only when set.
     *  Scripted-only tests enable this with all rates left at zero. */
    bool enabled = false;
    double dropRate = 0;    ///< P(event silently lost).
    double dupRate = 0;     ///< P(event delivered twice).
    double corruptRate = 0; ///< P(payload corrupted -> CRC discard).
    /** P(event gets a uniform extra delay in (0, reorderMaxDelay]). */
    double reorderRate = 0;
    Tick reorderMaxDelay = usec(50);
    /** Seed of the fault model's private PRNG stream. */
    std::uint64_t seed = 1;
    /** Scripted one-off processor stalls (Afzal-style transient
     *  perturbations), applied by the Cluster at run() start. */
    std::vector<DelaySpec> delays;

    /** True if any probabilistic fault can occur. */
    bool
    anyRate() const
    {
        return dropRate > 0 || dupRate > 0 || corruptRate > 0 ||
               reorderRate > 0;
    }
};

/** What the model decided for one offered wire event. */
struct FaultDecision
{
    bool drop = false;    ///< Discard the event (loss or CRC discard).
    bool duplicate = false; ///< Deliver a second copy as well.
    Tick extraDelay = 0;  ///< Added to the primary copy's arrival.
    Tick dupDelay = 0;    ///< Added to the duplicate's arrival.
};

/** Per-class tallies of everything the model did. */
struct FaultCounters
{
    std::uint64_t offered[2] = {0, 0};   ///< Indexed by PacketClass.
    std::uint64_t dropped[2] = {0, 0};   ///< Random + scripted losses.
    std::uint64_t corrupted[2] = {0, 0}; ///< CRC discards (subset of none).
    std::uint64_t duplicated[2] = {0, 0};
    std::uint64_t delayed[2] = {0, 0};

    std::uint64_t
    totalDropped() const
    {
        return dropped[0] + dropped[1] + corrupted[0] + corrupted[1];
    }
};

/**
 * The lossy-fabric model. One instance per Cluster; not thread safe
 * (the simulator is single threaded).
 */
class FaultModel
{
  public:
    explicit FaultModel(const FaultConfig &config)
        : config_(config), rng_(config.seed, 0xFA417u)
    {}

    /**
     * Script: drop the nth matching event (1-based) on the src->dst
     * link. Repeated calls accumulate independent script entries.
     */
    void
    dropNth(NodeId src, NodeId dst, PacketClass cls, std::uint64_t nth)
    {
        scripted_.push_back({src, dst, cls, nth});
    }

    /**
     * Script: drop every event on the src->dst link whose offer time t
     * satisfies from <= t < until. src or dst of -1 matches any node.
     */
    void
    blackhole(NodeId src, NodeId dst, Tick from, Tick until)
    {
        blackholes_.push_back({src, dst, from, until});
    }

    /**
     * Script: stall processor `node` at virtual time `at` for
     * `duration` ticks (a one-off delay, exact and deterministic like
     * dropNth). The entry is collected by Cluster::run() and installed
     * as a stall window on the owning Proc. Zero-duration entries are
     * ignored.
     */
    void
    delayNode(NodeId node, Tick at, Tick duration)
    {
        if (duration > 0)
            delays_.push_back({node, at, duration});
    }

    /** Scripted one-off delays accumulated via delayNode(). */
    const std::vector<DelaySpec> &delayScript() const { return delays_; }

    /**
     * Offer one wire event to the model at virtual time now.
     * Scripted drops take precedence over the probabilistic dice so
     * regression tests stay exact regardless of configured rates.
     */
    FaultDecision apply(NodeId src, NodeId dst, PacketClass cls, Tick now);

    const FaultCounters &counters() const { return ctrs_; }
    const FaultConfig &config() const { return config_; }

    /** Events offered so far on one link (scripted-index debugging). */
    std::uint64_t
    offeredOn(NodeId src, NodeId dst, PacketClass cls) const
    {
        auto it = linkCount_.find(linkKey(src, dst, cls));
        return it == linkCount_.end() ? 0 : it->second;
    }

  private:
    struct ScriptedDrop
    {
        NodeId src;
        NodeId dst;
        PacketClass cls;
        std::uint64_t nth; ///< 1-based index among matching events.
    };

    struct Blackhole
    {
        NodeId src;
        NodeId dst;
        Tick from;
        Tick until;
    };

    static std::tuple<NodeId, NodeId, int>
    linkKey(NodeId src, NodeId dst, PacketClass cls)
    {
        return {src, dst, static_cast<int>(cls)};
    }

    bool scriptedDrop(NodeId src, NodeId dst, PacketClass cls,
                      std::uint64_t count, Tick now);

    FaultConfig config_;
    Rng rng_;
    FaultCounters ctrs_;
    std::vector<ScriptedDrop> scripted_;
    std::vector<Blackhole> blackholes_;
    std::vector<DelaySpec> delays_;
    std::map<std::tuple<NodeId, NodeId, int>, std::uint64_t> linkCount_;
};

} // namespace nowcluster

#endif // NOWCLUSTER_NET_FAULT_HH_
