/**
 * @file
 * One node's endpoint of the Active Message layer (Generic Active
 * Messages semantics): polling-based handler execution, request/reply
 * pairing, one-way messages, and fragmented bulk transfers.
 */

#ifndef NOWCLUSTER_AM_AM_NODE_HH_
#define NOWCLUSTER_AM_AM_NODE_HH_

#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "net/nic.hh"
#include "net/packet.hh"
#include "obs/metrics.hh"
#include "sim/proc.hh"

namespace nowcluster {

class Cluster;
class AmNode;
class ReliableEndpoint;

/** An Active Message handler: runs on the receiving node's fiber. */
using HandlerFn = std::function<void(AmNode &self, Packet &pkt)>;

/**
 * Message and synchronization counters for one node, sufficient to
 * regenerate the paper's Table 4 and Figure 4.
 *
 * The fields are plain integers that hot paths increment directly; the
 * constructor registers each one as a probe in the cluster's metrics
 * registry (obs/metrics.hh), so a single registry snapshot yields every
 * counter summed across nodes -- the aggregation the stats layer and
 * Cluster::totalMessages() used to hand-roll per consumer.
 */
struct AmCounters
{
    AmCounters(MetricsRegistry &reg, int nprocs);

    /** Total messages sent (requests + replies + one-ways + bulk ops). */
    std::uint64_t sent = 0;
    /** Total messages received (processed by poll). */
    std::uint64_t received = 0;

    std::uint64_t requests = 0;
    std::uint64_t replies = 0;
    std::uint64_t oneWays = 0;
    /** Bulk operations (a multi-fragment store counts once). */
    std::uint64_t bulkMsgs = 0;
    std::uint64_t bulkFrags = 0;
    std::uint64_t bulkBytesSent = 0;
    /** Bytes sent in short messages (4 words + header, as in GAM). */
    std::uint64_t shortBytesSent = 0;

    /** Messages that are read requests or read replies (Split-C tags). */
    std::uint64_t readMsgs = 0;

    /** Barriers this node has completed. */
    std::uint64_t barriers = 0;
    /** Failed lock acquisition attempts (Barnes livelock metric). */
    std::uint64_t lockFailures = 0;
    /** Successful lock acquisitions. */
    std::uint64_t lockAcquires = 0;

    /** Ticks this node spent stalled waiting for send credits. */
    Tick creditStall = 0;
    /** Ticks this node spent stalled on a full NIC tx queue. */
    Tick txQueueStall = 0;

    // Reliability protocol (am/reliable.hh; all zero when disabled).
    /** Packets retransmitted after a timeout. */
    std::uint64_t retransmits = 0;
    /** Packets abandoned after retxMaxRetries (channel failure). */
    std::uint64_t retxGiveUps = 0;
    /** Received duplicates suppressed by sequence-number matching. */
    std::uint64_t dupsSuppressed = 0;
    /** Packets parked in the reorder buffer before in-order delivery. */
    std::uint64_t outOfOrder = 0;
    /** Protocol acks sent (one cumulative ack per received packet). */
    std::uint64_t acksSent = 0;

    /** Per-destination message counts (Figure 4 density matrix row). */
    std::vector<std::uint64_t> sentTo;
};

/**
 * Per-node Active Message endpoint. All methods that send or wait must
 * be invoked from this node's fiber (enforced by the underlying Proc).
 */
class AmNode
{
  public:
    AmNode(Cluster &cluster, NodeId id, std::uint64_t seed);
    ~AmNode();

    AmNode(const AmNode &) = delete;
    AmNode &operator=(const AmNode &) = delete;

    NodeId id() const { return id_; }
    Proc &proc() { return *proc_; }
    Rng &rng() { return rng_; }
    Cluster &cluster() { return cluster_; }
    AmCounters &counters() { return ctrs_; }
    const AmCounters &counters() const { return ctrs_; }

    /** The attached span tracer, or nullptr (set via Cluster). */
    SpanTracer *obs() const { return obs_; }

    /** Current virtual time. */
    Tick now() const;

    /** Charge local computation time. */
    void compute(Tick dt);

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /** Send a short request; the handler at dst is expected to reply. */
    void request(NodeId dst, int handler, Word a0 = 0, Word a1 = 0,
                 Word a2 = 0, Word a3 = 0, Word a4 = 0, Word a5 = 0);

    /** Reply to the request `cause` (only from inside its handler). */
    void reply(const Packet &cause, int handler, Word a0 = 0, Word a1 = 0,
               Word a2 = 0, Word a3 = 0, Word a4 = 0, Word a5 = 0);

    /** Send a short message with no reply (credit returned by NIC ack). */
    void oneWay(NodeId dst, int handler, Word a0 = 0, Word a1 = 0,
                Word a2 = 0, Word a3 = 0, Word a4 = 0, Word a5 = 0);

    /**
     * Bulk store: copy len bytes from src into dst_addr at node dst,
     * fragmented at the NIC. On arrival of the last fragment, handler
     * (if >= 0) runs at the receiver with the packet's args; the AM
     * layer then automatically returns a StoreAck reply, which is what
     * storeSync() waits for. Counts as one bulk message plus one reply.
     */
    void store(NodeId dst, void *dst_addr, const void *src,
               std::size_t len, int handler = -1, Word a0 = 0,
               Word a1 = 0, std::function<void()> on_ack = nullptr);

    /**
     * Bulk data sent as part of a reply (e.g., serving a remote get).
     * Fragments are credit-free so this is safe from handler context.
     * handler (if >= 0) runs at the original requester on completion.
     */
    void replyStore(const Packet &cause, void *dst_addr, const void *src,
                    std::size_t len, int handler = -1, Word a0 = 0,
                    Word a1 = 0);

    /** Number of our stores not yet acknowledged. */
    int outstandingStores() const { return outstandingStores_; }

    /** Wait until all our bulk stores have been acknowledged. */
    void storeSync();

    /** Called by the built-in StoreAck handler. */
    void noteStoreAcked(std::uint64_t op);

    // ------------------------------------------------------------------
    // Receiving
    // ------------------------------------------------------------------

    /**
     * Drain the receive queue, charging receive overhead and running
     * handlers. Once the cluster is draining, arrivals are discarded
     * unhandled. @return number of messages processed.
     */
    int poll();

    /**
     * Poll until pred() holds, blocking between network events.
     * Returns immediately (pred unchecked) if the cluster is draining.
     *
     * @param what Optional label of what this wait is for; shown by the
     *             cluster's timeout diagnostics when the run drains
     *             while this node is still blocked here.
     */
    template <typename Pred>
    void
    pollUntil(Pred pred, const char *what = nullptr)
    {
        const char *prev = blockedOn_;
        if (what)
            blockedOn_ = what;
        for (;;) {
            poll();
            if (pred() || draining())
                break;
            proc_->block();
        }
        blockedOn_ = prev;
    }

    /** What this node is currently blocked on (timeout diagnostics). */
    const char *
    blockedOn() const
    {
        return blockedOn_ ? blockedOn_ : "unlabeled pollUntil";
    }

    // ------------------------------------------------------------------
    // Network-facing interface (called by Cluster/Network events)
    // ------------------------------------------------------------------

    /**
     * A packet's presence bit is set. Routes through the reliability
     * endpoint (duplicate suppression, reordering, acks) when enabled,
     * else straight to deliverNow().
     */
    void deliver(Packet &&pkt);

    /**
     * Unconditional delivery of an in-order, first-time packet:
     * credit-reply handling, bulk DMA, receive-queue append. Called by
     * deliver() or by the reliability endpoint once a packet clears
     * the protocol.
     */
    void deliverNow(Packet &&pkt);

    /** A NIC-level ack returned one send credit for destination dst. */
    void creditReturned(NodeId dst);

    /** A reliability-protocol ack from peer `from` arrived. */
    void reliableAckArrived(NodeId from, std::uint64_t cum_seq);

    /** The reliability endpoint, or nullptr when disabled. */
    ReliableEndpoint *reliable() { return rel_.get(); }

    /** Send credits currently available toward dst (window when all
     *  NIC-level acks have come home -- the leak check). */
    int credits(NodeId dst) const { return credits_[dst]; }

    /**
     * Occupancy extension: pass an arrival through the rx context.
     * @return when the rx context finishes processing it.
     */
    Tick rxOccupy(Tick arrival);

    /** Wake the proc if it is blocked in pollUntil. */
    void wakeIfBlocked();

    /** True if the cluster is in drain (timeout) mode. */
    bool draining() const;

  private:
    friend class Cluster;

    /** Block until a credit for dst is available, then consume it. */
    void acquireCredit(NodeId dst);

    /** Common send tail: pay overhead, traverse NIC, hand to network. */
    void sendPacket(Packet &&pkt, bool pay_overhead = true);

    /** Built-in handler index for StoreAck replies. */
    static constexpr int kStoreAckHandler = 0;

    Cluster &cluster_;
    NodeId id_;
    Proc *proc_ = nullptr;
    Rng rng_;
    NicTx nic_;
    AmCounters ctrs_;
    SpanTracer *obs_ = nullptr;
    /** Reliability protocol endpoint (null unless params().reliable). */
    std::unique_ptr<ReliableEndpoint> rel_;
    /** Label of the wait this node is blocked in, for diagnostics. */
    const char *blockedOn_ = nullptr;

    std::deque<Packet> rxQueue_;
    std::vector<int> credits_;
    Tick rxBusyUntil_ = 0;
    int outstandingStores_ = 0;
    std::uint64_t nextBulkOp_ = 1;
    bool inHandler_ = false;
    /** Per-store completion callbacks, keyed by bulk op id. */
    std::map<std::uint64_t, std::function<void()>> storeAcks_;
};

} // namespace nowcluster

#endif // NOWCLUSTER_AM_AM_NODE_HH_
