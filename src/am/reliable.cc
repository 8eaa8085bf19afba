#include "am/reliable.hh"

#include <algorithm>

#include "am/cluster.hh"
#include "base/logging.hh"

namespace nowcluster {

ReliableEndpoint::ReliableEndpoint(AmNode &node)
    : node_(node), cluster_(node.cluster()),
      peers_(static_cast<std::size_t>(node.cluster().nprocs()))
{
    const LogGPParams &p = cluster_.params();
    if (p.retxTimeout > 0) {
        rtoBase_ = p.retxTimeout;
    } else {
        // Auto timeout: the ack's return leg (L) plus everything that
        // can legitimately delay it -- rx occupancy, one injection gap,
        // and the fault model's bounded reorder delay on both legs --
        // plus slack. Spurious retransmissions are only wasteful
        // (duplicates are suppressed), so this need not be exact.
        rtoBase_ = p.latency + p.occupancy + p.gap + usec(20);
        if (p.fault.enabled)
            rtoBase_ += 2 * p.fault.reorderMaxDelay;
    }
}

void
ReliableEndpoint::onSend(Packet &pkt, bool credit_on_ack)
{
    Peer &peer = peers_[pkt.dst];
    pkt.seq = ++peer.nextSeq;

    TxEntry e;
    e.pkt = pkt; // Deep copy; owns the bulk payload for retransmission.
    e.creditOnAck = credit_on_ack;
    e.gen = ++genCounter_;
    std::uint64_t gen = e.gen;
    peer.unacked.emplace(pkt.seq, std::move(e));

    // First timeout counts from the packet's expected arrival, not from
    // now: a bulk fragment queued behind a busy tx context can take
    // arbitrarily long to even reach the wire.
    Tick due = std::max<Tick>(pkt.readyAt - cluster_.sim().now(), 0) +
               rtoBase_;
    armTimer(pkt.dst, pkt.seq, gen, due);
}

void
ReliableEndpoint::armTimer(NodeId dst, std::uint64_t seq,
                           std::uint64_t gen, Tick delay)
{
    cluster_.sim().scheduleIn(delay, [this, dst, seq, gen] {
        onTimeout(dst, seq, gen);
    });
}

void
ReliableEndpoint::onTimeout(NodeId dst, std::uint64_t seq,
                            std::uint64_t gen)
{
    if (cluster_.draining())
        return;
    Peer &peer = peers_[dst];
    auto it = peer.unacked.find(seq);
    if (it == peer.unacked.end() || it->second.gen != gen)
        return; // Acked, abandoned, or superseded by a newer timer.

    TxEntry &e = it->second;
    const LogGPParams &p = cluster_.params();
    if (e.retries >= p.retxMaxRetries) {
        // Channel failure. Restore the credit so the window cannot leak
        // permanently; the run will still stall (and be diagnosed) if
        // the payload mattered, but it can always drain.
        warn("node %d: giving up on seq %llu to node %d after %d "
             "retries",
             node_.id(), static_cast<unsigned long long>(seq), dst,
             e.retries);
        ++node_.counters().retxGiveUps;
        bool restore = e.creditOnAck;
        peer.unacked.erase(it);
        if (restore)
            node_.creditReturned(dst);
        return;
    }

    ++e.retries;
    ++node_.counters().retransmits;

    Packet copy = e.pkt;
    // Firmware retransmission: straight from NIC SRAM onto the wire.
    copy.readyAt = cluster_.sim().now() + p.totalLatency();

    if (node_.obs()) {
        // Instant marker on the tx track; the copy keeps the original
        // send's message id, so its new wire leg joins that flight.
        Tick t = cluster_.sim().now();
        node_.obs()->span(node_.id(), TrackKind::NicTx,
                          SpanCat::Retransmit, t, t, copy.obsMsg);
    }

    e.gen = ++genCounter_;
    Tick backoff = rtoBase_ << std::min(e.retries, 6);
    armTimer(dst, seq, e.gen, p.totalLatency() + backoff);
    cluster_.transmit(std::move(copy));
}

void
ReliableEndpoint::onData(Packet &&pkt)
{
    const NodeId src = pkt.src;
    Peer &peer = peers_[src];

    if (pkt.seq < peer.expected || peer.pending.count(pkt.seq)) {
        // Duplicate (retransmission raced the ack, or a duplicated
        // wire event). Suppress, but re-ack: the previous ack may be
        // the very thing that was lost.
        ++node_.counters().dupsSuppressed;
    } else if (pkt.seq == peer.expected) {
        ++peer.expected;
        node_.deliverNow(std::move(pkt));
        // Drain any directly following packets parked by reordering.
        auto it = peer.pending.begin();
        while (it != peer.pending.end() && it->first == peer.expected) {
            Packet next = std::move(it->second);
            it = peer.pending.erase(it);
            ++peer.expected;
            node_.deliverNow(std::move(next));
        }
    } else {
        // Gap: hold for in-order delivery. The cumulative ack below
        // does not cover this seq, so the sender keeps it queued until
        // the gap fills.
        ++node_.counters().outOfOrder;
        peer.pending.emplace(pkt.seq, std::move(pkt));
    }

    ++node_.counters().acksSent;
    cluster_.sendAck(node_.id(), src, peer.expected - 1);
}

void
ReliableEndpoint::onAck(NodeId from, std::uint64_t cum_seq)
{
    Peer &peer = peers_[from];
    if (cum_seq <= peer.maxAcked)
        return; // Stale or duplicated ack; cumulative, so a no-op.
    peer.maxAcked = cum_seq;
    auto it = peer.unacked.begin();
    while (it != peer.unacked.end() && it->first <= cum_seq) {
        bool restore = it->second.creditOnAck;
        it = peer.unacked.erase(it);
        if (restore)
            node_.creditReturned(from);
    }
}

std::uint64_t
ReliableEndpoint::unackedCount() const
{
    std::uint64_t n = 0;
    for (const Peer &peer : peers_)
        n += peer.unacked.size();
    return n;
}

} // namespace nowcluster
