#include "am/am_node.hh"

#include <algorithm>

#include "am/cluster.hh"
#include "am/reliable.hh"
#include "base/logging.hh"

namespace nowcluster {

namespace {

/** Wire footprint of a short message: header + 4 payload words. */
constexpr std::uint64_t kShortMsgBytes = 28;

} // namespace

AmCounters::AmCounters(MetricsRegistry &reg, int nprocs)
    : sentTo(nprocs, 0)
{
    reg.probe("am.sent", &sent);
    reg.probe("am.received", &received);
    reg.probe("am.requests", &requests);
    reg.probe("am.replies", &replies);
    reg.probe("am.oneWays", &oneWays);
    reg.probe("am.bulkMsgs", &bulkMsgs);
    reg.probe("am.bulkFrags", &bulkFrags);
    reg.probe("am.bulkBytesSent", &bulkBytesSent);
    reg.probe("am.shortBytesSent", &shortBytesSent);
    reg.probe("am.readMsgs", &readMsgs);
    reg.probe("am.barriers", &barriers);
    reg.probe("am.lockFailures", &lockFailures);
    reg.probe("am.lockAcquires", &lockAcquires);
    reg.probe("am.creditStallTicks", &creditStall);
    reg.probe("am.txQueueStallTicks", &txQueueStall);
    reg.probe("rel.retransmits", &retransmits);
    reg.probe("rel.giveUps", &retxGiveUps);
    reg.probe("rel.dupsSuppressed", &dupsSuppressed);
    reg.probe("rel.outOfOrder", &outOfOrder);
    reg.probe("rel.acksSent", &acksSent);
}

AmNode::AmNode(Cluster &cluster, NodeId id, std::uint64_t seed)
    : cluster_(cluster), id_(id), rng_(seed, static_cast<std::uint64_t>(id)),
      nic_(cluster.params()), ctrs_(cluster.metrics(), cluster.nprocs()),
      credits_(cluster.nprocs(), cluster.params().window)
{
    if (cluster.params().reliable)
        rel_ = std::make_unique<ReliableEndpoint>(*this);
}

AmNode::~AmNode() = default;

Tick
AmNode::now() const
{
    return proc_->now();
}

void
AmNode::compute(Tick dt)
{
    proc_->compute(dt);
}

bool
AmNode::draining() const
{
    return cluster_.draining();
}

void
AmNode::acquireCredit(NodeId dst)
{
    if (draining())
        return;
    if (credits_[dst] > 0) {
        --credits_[dst];
        return;
    }
    Tick t0 = now();
    pollUntil([&] { return credits_[dst] > 0; }, "credit wait");
    ctrs_.creditStall += now() - t0;
    if (obs_)
        obs_->containerSpan(id_, SpanCat::GapStall, t0, now());
    if (credits_[dst] > 0)
        --credits_[dst];
}

void
AmNode::sendPacket(Packet &&pkt, bool pay_overhead)
{
    const LogGPParams &p = cluster_.params();
    if (obs_)
        pkt.obsMsg = obs_->newMsgId();
    if (pay_overhead)
        proc_->compute(p.sendOverhead(), SpanCat::OSend, pkt.obsMsg);

    Tick h = now();
    NicTx::Accept a =
        pkt.isBulk() ? nic_.acceptBulk(h, pkt.bulk.size(), pkt.obsMsg)
                     : nic_.acceptShort(h, pkt.obsMsg);
    if (a.hostFreeAt > h) {
        ctrs_.txQueueStall += a.hostFreeAt - h;
        proc_->compute(a.hostFreeAt - h, SpanCat::GapStall, pkt.obsMsg);
    }

    // Physical arrival at the destination NIC; the latency knob defers
    // only the receive presence bit (the paper's delay queue), so NIC
    // level flow-control acks use the physical time.
    Tick physical = a.wireAt + p.latency;
    pkt.readyAt = physical + p.addedL;

    bool needs_nic_ack =
        pkt.kind == PacketKind::OneWay ||
        (pkt.kind == PacketKind::BulkFrag && !pkt.creditFree);
    if (rel_) {
        // Reliable mode: the credit rides the protocol ack, which can
        // be lost and recovered, instead of a bare fire-and-forget
        // event.
        rel_->onSend(pkt, needs_nic_ack);
    } else if (needs_nic_ack) {
        cluster_.scheduleCreditAck(id_, pkt.dst, physical);
    }

    if (obs_) {
        ObsMessage m;
        m.id = pkt.obsMsg;
        m.src = id_;
        m.dst = pkt.dst;
        m.issued = h;
        m.inject = a.injectStart;
        m.wire = a.wireAt;
        m.ready = pkt.readyAt; // Refined by the network (topo/fault).
        m.kind = static_cast<std::uint8_t>(pkt.kind);
        m.bytes = static_cast<std::uint32_t>(
            pkt.isBulk() ? pkt.bulk.size() : kShortMsgBytes);
        obs_->message(m);
    }

    cluster_.transmit(std::move(pkt));
}

void
AmNode::request(NodeId dst, int handler, Word a0, Word a1, Word a2, Word a3,
                Word a4, Word a5)
{
    panic_if(inHandler_, "request() is not legal from handler context");
    poll(); // GAM semantics: every request drains pending arrivals.
    acquireCredit(dst);
    Packet p;
    p.src = id_;
    p.dst = dst;
    p.kind = PacketKind::Request;
    p.handler = handler;
    p.args[0] = a0;
    p.args[1] = a1;
    p.args[2] = a2;
    p.args[3] = a3;
    p.args[4] = a4;
    p.args[5] = a5;
    ++ctrs_.sent;
    ++ctrs_.requests;
    ++ctrs_.sentTo[dst];
    ctrs_.shortBytesSent += kShortMsgBytes;
    sendPacket(std::move(p));
}

void
AmNode::reply(const Packet &cause, int handler, Word a0, Word a1, Word a2,
              Word a3, Word a4, Word a5)
{
    Packet p;
    p.src = id_;
    p.dst = cause.src;
    p.kind = PacketKind::Reply;
    p.creditReply = cause.kind == PacketKind::Request;
    p.handler = handler;
    p.args[0] = a0;
    p.args[1] = a1;
    p.args[2] = a2;
    p.args[3] = a3;
    p.args[4] = a4;
    p.args[5] = a5;
    ++ctrs_.sent;
    ++ctrs_.replies;
    ++ctrs_.sentTo[p.dst];
    ctrs_.shortBytesSent += kShortMsgBytes;
    sendPacket(std::move(p));
}

void
AmNode::oneWay(NodeId dst, int handler, Word a0, Word a1, Word a2, Word a3,
               Word a4, Word a5)
{
    panic_if(inHandler_, "oneWay() is not legal from handler context");
    poll();
    acquireCredit(dst);
    Packet p;
    p.src = id_;
    p.dst = dst;
    p.kind = PacketKind::OneWay;
    p.handler = handler;
    p.args[0] = a0;
    p.args[1] = a1;
    p.args[2] = a2;
    p.args[3] = a3;
    p.args[4] = a4;
    p.args[5] = a5;
    ++ctrs_.sent;
    ++ctrs_.oneWays;
    ++ctrs_.sentTo[dst];
    ctrs_.shortBytesSent += kShortMsgBytes;
    sendPacket(std::move(p));
}

void
AmNode::store(NodeId dst, void *dst_addr, const void *src, std::size_t len,
              int handler, Word a0, Word a1, std::function<void()> on_ack)
{
    panic_if(inHandler_, "store() is not legal from handler context; "
                         "use replyStore()");
    poll();
    const LogGPParams &p = cluster_.params();
    ++ctrs_.sent;
    ++ctrs_.bulkMsgs;
    ++ctrs_.sentTo[dst];
    ctrs_.bulkBytesSent += len;
    ++outstandingStores_;
    if (on_ack)
        storeAcks_.emplace(nextBulkOp_, std::move(on_ack));

    // The host pays one overhead to set up the DMA, not one per fragment.
    proc_->compute(p.sendOverhead());

    const std::uint8_t *s = static_cast<const std::uint8_t *>(src);
    std::uint64_t op = nextBulkOp_++;
    std::size_t off = 0;
    do {
        std::size_t frag = std::min(p.maxFragment, len - off);
        acquireCredit(dst);
        Packet pkt;
        pkt.src = id_;
        pkt.dst = dst;
        pkt.kind = PacketKind::BulkFrag;
        if (frag > 0)
            pkt.bulk.assign(s + off, s + off + frag);
        pkt.bulkDst = static_cast<std::uint8_t *>(dst_addr) + off;
        pkt.bulkOp = op;
        pkt.bulkTotal = len;
        off += frag;
        pkt.bulkLast = off >= len;
        if (pkt.bulkLast) {
            pkt.handler = handler;
            pkt.args[0] = a0;
            pkt.args[1] = a1;
        }
        ++ctrs_.bulkFrags;
        sendPacket(std::move(pkt), false);
    } while (off < len);
}

void
AmNode::replyStore(const Packet &cause, void *dst_addr, const void *src,
                   std::size_t len, int handler, Word a0, Word a1)
{
    const LogGPParams &p = cluster_.params();
    NodeId dst = cause.src;
    ++ctrs_.sent;
    ++ctrs_.bulkMsgs;
    ++ctrs_.sentTo[dst];
    ctrs_.bulkBytesSent += len;

    proc_->compute(p.sendOverhead());

    const std::uint8_t *s = static_cast<const std::uint8_t *>(src);
    std::uint64_t op = nextBulkOp_++;
    std::size_t off = 0;
    do {
        std::size_t frag = std::min(p.maxFragment, len - off);
        Packet pkt;
        pkt.src = id_;
        pkt.dst = dst;
        pkt.kind = PacketKind::BulkFrag;
        pkt.creditFree = true;
        pkt.creditReply = cause.kind == PacketKind::Request;
        if (frag > 0)
            pkt.bulk.assign(s + off, s + off + frag);
        pkt.bulkDst = static_cast<std::uint8_t *>(dst_addr) + off;
        pkt.bulkOp = op;
        pkt.bulkTotal = len;
        off += frag;
        pkt.bulkLast = off >= len;
        if (pkt.bulkLast) {
            pkt.handler = handler;
            pkt.args[0] = a0;
            pkt.args[1] = a1;
        }
        ++ctrs_.bulkFrags;
        sendPacket(std::move(pkt), false);
    } while (off < len);
}

void
AmNode::storeSync()
{
    pollUntil([&] { return outstandingStores_ == 0; },
              "bulk store-ack wait");
}

void
AmNode::noteStoreAcked(std::uint64_t op)
{
    --outstandingStores_;
    panic_if(outstandingStores_ < 0 && !draining(),
             "node %d: spurious store ack", id_);
    auto it = storeAcks_.find(op);
    if (it != storeAcks_.end()) {
        auto fn = std::move(it->second);
        storeAcks_.erase(it);
        fn();
    }
    wakeIfBlocked();
}

int
AmNode::poll()
{
    if (draining()) {
        // Drained blocking ops have already returned, so a late reply's
        // handler would write into a stack frame that is gone. A
        // draining run only unwinds: discard what arrives.
        rxQueue_.clear();
        return 0;
    }
    const LogGPParams &p = cluster_.params();
    int n = 0;
    while (!rxQueue_.empty()) {
        Packet pkt = std::move(rxQueue_.front());
        rxQueue_.pop_front();
        proc_->compute(p.recvOverhead(), SpanCat::ORecv, pkt.obsMsg);
        ++ctrs_.received;
        if (pkt.handler >= 0) {
            inHandler_ = true;
            cluster_.runHandler(pkt.handler, *this, pkt);
            inHandler_ = false;
        }
        // Completed (non-reply) bulk stores are acknowledged at the AM
        // level *after* the completion handler has run; this ack is
        // what the sender's storeSync() and per-store callbacks see.
        if (pkt.kind == PacketKind::BulkFrag && !pkt.creditFree)
            reply(pkt, kStoreAckHandler, static_cast<Word>(pkt.bulkOp));
        ++n;
    }
    return n;
}

void
AmNode::deliver(Packet &&pkt)
{
    if (rel_) {
        rel_->onData(std::move(pkt));
        return;
    }
    deliverNow(std::move(pkt));
}

void
AmNode::deliverNow(Packet &&pkt)
{
    if (pkt.kind == PacketKind::Reply && pkt.creditReply) {
        // Replies carry the request's flow-control credit back; the NIC
        // restores it on arrival, before the host polls the message.
        creditReturned(pkt.src);
    }
    if (pkt.isBulk()) {
        // A bulk reply serving a read request returns that request's
        // credit once its last fragment lands.
        if (pkt.creditReply && pkt.bulkLast)
            creditReturned(pkt.src);
        // The DMA engine deposits the payload without host involvement.
        if (!pkt.bulk.empty()) {
            std::memcpy(pkt.bulkDst, pkt.bulk.data(), pkt.bulk.size());
            pkt.bulk.clear();
        }
        if (!pkt.bulkLast)
            return; // Intermediate fragments are invisible to the host.
    }
    rxQueue_.push_back(std::move(pkt));
    wakeIfBlocked();
}

Tick
AmNode::rxOccupy(Tick arrival)
{
    Tick start = std::max(arrival, rxBusyUntil_);
    rxBusyUntil_ = start + cluster_.params().occupancy;
    if (obs_)
        obs_->span(id_, TrackKind::NicRx, SpanCat::GapStall, start,
                   rxBusyUntil_);
    return rxBusyUntil_;
}

void
AmNode::creditReturned(NodeId dst)
{
    ++credits_[dst];
    panic_if(!draining() && credits_[dst] > cluster_.params().window,
             "node %d: credit overflow for dst %d", id_, dst);
    wakeIfBlocked();
}

void
AmNode::reliableAckArrived(NodeId from, std::uint64_t cum_seq)
{
    if (rel_)
        rel_->onAck(from, cum_seq);
}

void
AmNode::wakeIfBlocked()
{
    if (proc_)
        proc_->wake();
}

} // namespace nowcluster
