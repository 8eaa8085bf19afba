/**
 * @file
 * A two-level fat-tree topology model: the simulator's one switch-
 * contention model, from a handful of leaves to 1024-node clusters.
 *
 * Hosts attach to leaf switches (`hostsPerLeaf` each); leaves connect
 * to a spine through uplinks whose effective bandwidth is the edge
 * link rate divided by the oversubscription ratio. Same-leaf traffic
 * crosses only the leaf crossbar and sees no shared link. Cross-leaf
 * traffic pays, in order:
 *
 *   - `hopLatency` extra wire latency (the additional switch hops),
 *   - queueing on the source leaf's uplink (modelled at send time), and
 *   - queueing on the destination leaf's downlink (modelled when the
 *     packet reaches the leaf).
 *
 * Only *queueing* and the hop latency are extra: the uncontended
 * traversal cost is already inside the baseline LogGP latency L, so an
 * idle fat-tree with hopLatency 0 is exactly the constant-latency
 * network.
 */

#ifndef NOWCLUSTER_NET_TOPOLOGY_HH_
#define NOWCLUSTER_NET_TOPOLOGY_HH_

#include <cstddef>
#include <vector>

#include "base/types.hh"

namespace nowcluster {

class FatTreeTopology
{
  public:
    struct Config
    {
        int hostsPerLeaf = 32;
        /** Edge link bandwidth (leaf <-> host, and leaf <-> spine
         *  before oversubscription). */
        double linkMBps = 160.0;
        /** Oversubscription ratio: uplink capacity = linkMBps /
         *  oversub. 1.0 = fully provisioned. */
        double oversub = 1.0;
        /** Extra wire latency per cross-leaf packet (spine hops). */
        Tick hopLatency = 0;
        /** Short messages still occupy a minimum wire slot. */
        std::size_t minPacketBytes = 28;
    };

    FatTreeTopology(int nprocs, const Config &config);

    int leafOf(NodeId node) const { return node / config_.hostsPerLeaf; }
    int nLeaves() const { return nLeaves_; }
    Tick hopLatency() const { return config_.hopLatency; }
    bool sameLeaf(NodeId a, NodeId b) const { return leafOf(a) == leafOf(b); }

    /** Serialization time on an oversubscribed spine-facing link. */
    Tick serializationTime(std::size_t bytes) const;

    /**
     * Claim the source leaf's uplink for a packet offered at `inject`.
     * @return the queueing delay (0 when the link is idle).
     */
    Tick uplink(int leaf, std::size_t bytes, Tick inject);

    /**
     * Claim the destination leaf's downlink for a packet reaching the
     * leaf at `arrive`. @return the queueing delay.
     */
    Tick downlink(int leaf, std::size_t bytes, Tick arrive);

    /** Aggregate and per-leaf queueing, for stats and tests. */
    Tick totalUplinkQueueing() const;
    Tick totalDownlinkQueueing() const;
    Tick uplinkQueueing(int leaf) const { return upQueued_[leaf]; }
    Tick downlinkQueueing(int leaf) const { return downQueued_[leaf]; }

  private:
    Config config_;
    int nLeaves_;
    std::vector<Tick> upBusy_;
    std::vector<Tick> downBusy_;
    std::vector<Tick> upQueued_;
    std::vector<Tick> downQueued_;
};

} // namespace nowcluster

#endif // NOWCLUSTER_NET_TOPOLOGY_HH_
