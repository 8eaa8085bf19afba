/**
 * @file
 * LogGP parameterization of the cluster communication system.
 *
 * Mirrors the paper's Figure 2: each parameter has a distinct insertion
 * point in the message path so the knobs are independent by construction:
 *
 *   o  - stall the host processor around each message write/read
 *   g  - stall the NIC tx context *after* a message is injected
 *   L  - defer the receive-side presence bit (delay queue)
 *   G  - stall the tx context per bulk fragment, proportional to size
 */

#ifndef NOWCLUSTER_NET_LOGGP_HH_
#define NOWCLUSTER_NET_LOGGP_HH_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "base/types.hh"
#include "net/fault.hh"

namespace nowcluster {

/**
 * Complete communication-performance description of a simulated machine.
 * Baseline values describe the hardware; the added* knobs emulate slower
 * designs exactly the way the paper's modified LANai firmware does.
 */
struct LogGPParams
{
    /** Host send overhead per message (time to write it to the NIC). */
    Tick oSend = usec(1.8);
    /** Host receive overhead per message (time to read it out). */
    Tick oRecv = usec(4.0);
    /** Overhead knob: added to *both* the send and the receive path. */
    Tick addedO = 0;

    /** NIC injection gap: tx-context occupancy per short message. */
    Tick gap = usec(5.8);

    /** Wire + interface latency from injection to receive presence. */
    Tick latency = usec(5.0);
    /** Latency knob: receive-side delay-queue addition. */
    Tick addedL = 0;

    /** Bulk Gap: tx DMA time per byte (ns/byte). 38 MB/s ~ 26.3 ns/B. */
    double gPerByte = 1e9 / (38.0 * 1e6);

    /**
     * Extension (after Holt et al.'s Flash study, discussed in the
     * paper's Related Work): receive-controller occupancy -- time the
     * receiving NIC's rx context spends on each arriving message. It
     * delays delivery like latency *and* serializes arrivals like gap,
     * which is why the Flash study found applications so sensitive to
     * it. 0 disables the rx pipeline stage entirely.
     */
    Tick occupancy = 0;

    /** Outstanding-message window per destination (fixed, L-independent:
     *  this is what makes effective g rise at huge L, as in Table 2). */
    int window = 8;

    /** NIC tx descriptor FIFO depth; the host stalls when it is full. */
    int txQueueDepth = 8;

    /** Bulk transfers are fragmented into pieces of at most this size. */
    std::size_t maxFragment = 4096;

    /**
     * Extension: two-level fat-tree topology model (net/topology.hh),
     * the switch-contention model. Off by default -- the paper's
     * constant-latency network. When on, hosts attach to leaf
     * switches, cross-leaf traffic queues on the source leaf's uplink
     * and the destination leaf's downlink, and the spine can be
     * oversubscribed; an idle tree with no hop latency adds nothing.
     */
    bool topo = false;
    int topoHostsPerLeaf = 32;
    double topoLinkMBps = 160.0;
    double topoOversub = 1.0;
    /** Extra wire latency per cross-leaf packet (the spine hops). */
    Tick topoHopLatency = 0;

    /**
     * Extension: lossy-fabric fault injection (net/fault.hh). When
     * fault.enabled is false no FaultModel is constructed and the wire
     * is perfect, exactly as before.
     */
    FaultConfig fault;

    /**
     * Extension: reliable-delivery protocol (am/reliable.hh) -- the
     * LANai firmware's timeout/retransmit/dup-suppression layer. When
     * false (default) the packet path is bit-identical to the
     * perfect-wire simulator; turn it on together with fault.enabled
     * to survive a lossy fabric.
     */
    bool reliable = false;
    /** Ack-return retransmission budget; 0 derives it from L, g, the
     *  rx occupancy, and the fault model's reorder bound. */
    Tick retxTimeout = 0;
    /** Retries (with exponential backoff) before a channel gives up on
     *  a packet, restores its credit, and reports the failure. */
    int retxMaxRetries = 12;

    /**
     * Extension: collective-algorithm selection policy, parsed by
     * coll::CollPolicy. "" or "naive" keeps the original code paths;
     * "tuned" picks per-invocation via the LogGP cost model;
     * "bcast=chain,allreduce=rdouble" pins individual collectives
     * (implying tuned for the rest).
     */
    std::string collAlg;

    /** Mean LogP overhead o = (oSend + oRecv) / 2 + addedO. */
    Tick
    meanOverhead() const
    {
        return (oSend + oRecv) / 2 + addedO;
    }

    /** Effective per-side send overhead including the knob. */
    Tick sendOverhead() const { return oSend + addedO; }
    /** Effective per-side receive overhead including the knob. */
    Tick recvOverhead() const { return oRecv + addedO; }
    /** Effective one-way latency including the knob. */
    Tick totalLatency() const { return latency + addedL; }

    /** Bulk bandwidth in MB/s implied by gPerByte. */
    double
    bulkMBps() const
    {
        return 1e9 / gPerByte / 1e6;
    }

    /** Set gPerByte from a bandwidth in MB/s. */
    void
    setBulkMBps(double mbps)
    {
        gPerByte = 1e9 / (mbps * 1e6);
    }

    /**
     * Paper-style knob: set the *desired mean overhead* in microseconds.
     * addedO = desired - baseline mean; fatal if below the baseline.
     */
    void setDesiredOverheadUsec(double o_us);

    /** Paper-style knob: set the desired gap in microseconds. */
    void setDesiredGapUsec(double g_us);

    /** Paper-style knob: set the desired latency in microseconds. */
    void setDesiredLatencyUsec(double l_us);

    /** Extension knob: set the rx-controller occupancy in microseconds. */
    void setOccupancyUsec(double o_us);
};

/** Named machine configurations for Table 1. */
struct MachineConfig
{
    std::string name;
    LogGPParams params;

    /** Berkeley NOW: o=2.9us g=5.8us L=5.0us 38 MB/s. */
    static MachineConfig berkeleyNow();
    /** Intel Paragon: o=1.8us g=7.6us L=6.5us 141 MB/s. */
    static MachineConfig intelParagon();
    /** Meiko CS-2: o=1.7us g=13.6us L=7.5us 47 MB/s. */
    static MachineConfig meikoCs2();

    /** The machine a key names ("now", "paragon" or "meiko"), or
     *  nullopt for any other key. */
    static std::optional<MachineConfig> byKey(std::string_view key);

    /** Every key byKey() knows, in Table-1 order, joined by `sep`. */
    static std::string keys(const char *sep);

    /** The key byKey() answers with this machine ("" if none). */
    std::string key() const;
};

} // namespace nowcluster

#endif // NOWCLUSTER_NET_LOGGP_HH_
