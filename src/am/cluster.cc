#include "am/cluster.hh"

#include <algorithm>
#include <memory>
#include <string>

#include "am/reliable.hh"
#include "base/logging.hh"

namespace nowcluster {

Cluster::Cluster(int nprocs, const LogGPParams &params, std::uint64_t seed)
    : params_(params), nprocs_(nprocs), seed_(seed)
{
    fatal_if(nprocs < 1, "cluster needs at least one processor");
    fatal_if(params.window < 1, "flow-control window must be positive");
    fatal_if(params.txQueueDepth < 1, "tx queue depth must be positive");

    // Built-in handler 0: StoreAck (completes the sender's storeSync
    // and fires any per-store callback).
    handlers_.push_back([](AmNode &self, Packet &pkt) {
        self.noteStoreAcked(pkt.args[0]);
    });

    if (params.topo) {
        FatTreeTopology::Config tc;
        tc.hostsPerLeaf = params.topoHostsPerLeaf;
        tc.linkMBps = params.topoLinkMBps;
        tc.oversub = params.topoOversub;
        tc.hopLatency = params.topoHopLatency;
        topo_ = std::make_unique<FatTreeTopology>(nprocs, tc);
    }

    if (params.fault.enabled) {
        fault_ = std::make_unique<FaultModel>(params.fault);
        if (params.fault.anyRate() && !params.reliable)
            inform("fault injection active without params.reliable: "
                   "losses and duplicates have no recovery path");
        const FaultCounters &fc = fault_->counters();
        metrics_.probe("fault.offered.data", &fc.offered[0]);
        metrics_.probe("fault.offered.ack", &fc.offered[1]);
        metrics_.probe("fault.dropped.data", &fc.dropped[0]);
        metrics_.probe("fault.dropped.ack", &fc.dropped[1]);
        metrics_.probe("fault.corrupted.data", &fc.corrupted[0]);
        metrics_.probe("fault.corrupted.ack", &fc.corrupted[1]);
        metrics_.probe("fault.duplicated.data", &fc.duplicated[0]);
        metrics_.probe("fault.duplicated.ack", &fc.duplicated[1]);
        metrics_.probe("fault.delayed.data", &fc.delayed[0]);
        metrics_.probe("fault.delayed.ack", &fc.delayed[1]);
    }

    nodes_.reserve(nprocs);
    for (int i = 0; i < nprocs; ++i)
        nodes_.push_back(std::make_unique<AmNode>(*this, i, seed));
}

Cluster::~Cluster() = default;

int
Cluster::registerHandler(HandlerFn fn)
{
    panic_if(started_, "handlers must be registered before run()");
    handlers_.push_back(std::move(fn));
    return static_cast<int>(handlers_.size()) - 1;
}

void
Cluster::runHandler(int h, AmNode &self, Packet &pkt)
{
    panic_if(h < 0 || h >= static_cast<int>(handlers_.size()),
             "bad handler index %d", h);
    handlers_[h](self, pkt);
}

void
Cluster::scriptDelay(NodeId node, Tick at, Tick duration)
{
    panic_if(started_, "scriptDelay() must be called before run()");
    panic_if(node < 0 || node >= nprocs_, "scriptDelay node %d out of "
             "range", node);
    panic_if(!fault_, "scriptDelay needs params.fault.enabled = true");
    fault_->delayNode(node, at, duration);
}

void
Cluster::installDelays()
{
    // The scripted one-off delays: the parameter set's list plus the
    // fault model's delayNode() script. Stall windows are pure per-node
    // scenario state installed before any proc starts.
    auto install = [this](const DelaySpec &d) {
        fatal_if(d.node < 0 || d.node >= nprocs_,
                 "one-off delay names node %d outside [0, %d)", d.node,
                 nprocs_);
        fatal_if(d.at < 0 || d.duration < 0,
                 "one-off delay at %lld for %lld is negative",
                 static_cast<long long>(d.at),
                 static_cast<long long>(d.duration));
        procs_[d.node]->injectStall(d.at, d.duration);
    };
    for (const DelaySpec &d : params_.fault.delays)
        install(d);
    if (fault_)
        for (const DelaySpec &d : fault_->delayScript())
            install(d);
}

bool
Cluster::run(std::function<void(AmNode &)> main, Tick max_time)
{
    panic_if(started_, "Cluster::run() may only be called once");
    started_ = true;

    procs_.reserve(nprocs_);
    for (int i = 0; i < nprocs_; ++i) {
        procs_.push_back(std::make_unique<Proc>(
            sim_, i, [this, main, i](Proc &) {
                main(*nodes_[i]);
                ++doneCount_;
                runtime_ = std::max(runtime_, sim_.now());
            }));
        nodes_[i]->proc_ = procs_[i].get();
        procs_[i]->attachObs(tracer_);
    }
    // Stall windows must exist before the first activation is
    // scheduled: start() defers an activation landing inside one.
    installDelays();
    for (int i = 0; i < nprocs_; ++i)
        procs_[i]->start(0);

    while (doneCount_ < nprocs_) {
        if (sim_.idle()) {
            // Every remaining proc is blocked with nothing in flight: a
            // communication deadlock. Drain so fibers unwind and the
            // caller sees a failed run instead of a hang.
            panic_if(draining_, "cluster failed to drain after deadlock");
            startDrain("deadlock");
            continue;
        }
        if (!draining_ && sim_.nextTime() > max_time) {
            startDrain("time budget exhausted");
            continue;
        }
        sim_.step();
    }
    return !timedOut_;
}

void
Cluster::startDrain(const char *why)
{
    // Record who was still blocked and on what before the wakeups
    // destroy the evidence -- essential when debugging loss-induced
    // hangs (lost credit vs. lost reply vs. barrier skew look
    // identical from the outside).
    stallReport_.clear();
    int shown = 0, stalled = 0;
    for (int i = 0; i < nprocs_; ++i) {
        if (procs_[i]->done())
            continue;
        ++stalled;
        if (shown >= 16)
            continue;
        ++shown;
        stallReport_ += "\n  node ";
        stallReport_ += std::to_string(i);
        if (procs_[i]->state() == ProcState::Blocked) {
            stallReport_ += ": blocked on ";
            stallReport_ += nodes_[i]->blockedOn();
        } else {
            stallReport_ += ": runnable/computing";
        }
        if (nodes_[i]->reliable()) {
            std::uint64_t unacked =
                nodes_[i]->reliable()->unackedCount();
            if (unacked) {
                stallReport_ += " (";
                stallReport_ += std::to_string(unacked);
                stallReport_ += " unacked packets)";
            }
        }
    }
    if (stalled > shown) {
        stallReport_ += "\n  ... and ";
        stallReport_ += std::to_string(stalled - shown);
        stallReport_ += " more";
    }
    warn("cluster %s at %.3f ms with %d/%d procs done; draining%s", why,
         toMsec(sim_.now()), doneCount_, nprocs_, stallReport_.c_str());

    draining_ = true;
    timedOut_ = true;
    for (auto &pr : procs_)
        pr->wake(sim_.now());
}

void
Cluster::transmit(Packet &&pkt)
{
    panic_if(pkt.dst < 0 || pkt.dst >= nprocs_, "bad destination %d",
             pkt.dst);
    const std::size_t bytes = pkt.isBulk() ? pkt.bulk.size() : 0;
    if (topo_) {
        if (!topo_->sameLeaf(pkt.src, pkt.dst)) {
            // The source leaf's uplink is claimed here, at send time;
            // the destination leaf's downlink is claimed when the
            // packet reaches the leaf (see arrive()).
            pkt.readyAt += topo_->hopLatency();
            pkt.readyAt += topo_->uplink(topo_->leafOf(pkt.src), bytes,
                                         pkt.readyAt);
            pkt.spineHop = true;
        }
    }
    if (fault_) {
        FaultDecision d = fault_->apply(pkt.src, pkt.dst,
                                        PacketClass::Data, sim_.now());
        if (d.drop)
            return; // Lost on the wire (or discarded by the rx CRC).
        if (d.duplicate) {
            Packet copy = pkt;
            copy.readyAt += d.dupDelay;
            scheduleDelivery(std::move(copy));
        }
        pkt.readyAt += d.extraDelay;
    }
    scheduleDelivery(std::move(pkt));
}

void
Cluster::setTracer(SpanTracer *tracer)
{
    panic_if(started_, "setTracer() must be called before run()");
    tracer_ = tracer;
    for (auto &n : nodes_) {
        n->obs_ = tracer;
        n->nic_.attachObs(tracer, n->id());
    }
}

void
Cluster::scheduleDelivery(Packet &&pkt)
{
    if (tracer_ && pkt.obsMsg) {
        // The wire leg: everything between leaving the tx context and
        // the presence bit, on the destination's rx track. Uplink
        // queueing, fault delays, and retransmissions all land here,
        // which is why the span is emitted at this final hand-off and
        // the message's ready time is refined to match.
        tracer_->span(pkt.dst, TrackKind::NicRx, SpanCat::LWire,
                      pkt.readyAt - params_.totalLatency(), pkt.readyAt,
                      pkt.obsMsg);
        tracer_->updateMessageReady(pkt.obsMsg, pkt.readyAt);
    }
    // Wrapped in shared_ptr because std::function requires a copyable
    // closure; the packet is only ever moved out once.
    auto p = std::make_shared<Packet>(std::move(pkt));
    sim_.schedule(p->readyAt, [this, p] { arrive(p); });
}

void
Cluster::arrive(const std::shared_ptr<Packet> &p)
{
    if (p->spineHop && topo_) {
        // Destination-leaf downlink queueing, applied now that the
        // packet has reached the leaf switch.
        p->spineHop = false;
        const int leaf = topo_->leafOf(p->dst);
        Tick extra = topo_->downlink(
            leaf, p->isBulk() ? p->bulk.size() : 0, sim_.now());
        if (extra > 0) {
            p->readyAt = sim_.now() + extra;
            if (tracer_ && p->obsMsg) {
                tracer_->span(p->dst, TrackKind::NicRx, SpanCat::LWire,
                              sim_.now(), p->readyAt, p->obsMsg);
                tracer_->updateMessageReady(p->obsMsg, p->readyAt);
            }
            sim_.schedule(p->readyAt, [this, p] { arrive(p); });
            return;
        }
    }
    if (params_.occupancy == 0) {
        nodes_[p->dst]->deliver(std::move(*p));
        return;
    }
    // Occupancy extension: arrivals serialize through the receiving
    // NIC's rx context before the presence bit is set.
    Tick ready = nodes_[p->dst]->rxOccupy(sim_.now());
    sim_.schedule(ready,
                  [this, p] { nodes_[p->dst]->deliver(std::move(*p)); });
}

void
Cluster::scheduleCreditAck(NodeId src, NodeId dst, Tick deliver_time)
{
    Tick when = deliver_time + params_.latency;
    if (fault_) {
        // The bare NIC ack travels dst -> src. A drop here leaks the
        // credit for good -- exactly the failure mode the reliable
        // layer exists to close. Duplicates are ignored (a doubled
        // fire-and-forget ack would mint a phantom credit).
        FaultDecision d =
            fault_->apply(dst, src, PacketClass::Ack, sim_.now());
        if (d.drop)
            return;
        when += d.extraDelay;
    }
    sim_.schedule(when, [this, src, dst] {
        nodes_[src]->creditReturned(dst);
    });
}

void
Cluster::sendAck(NodeId from, NodeId to, std::uint64_t cum_seq)
{
    auto deliverAt = [this, from, to, cum_seq](Tick when) {
        sim_.schedule(when, [this, from, to, cum_seq] {
            nodes_[to]->reliableAckArrived(from, cum_seq);
        });
    };
    Tick when = sim_.now() + params_.latency;
    if (fault_) {
        FaultDecision d =
            fault_->apply(from, to, PacketClass::Ack, sim_.now());
        if (d.drop)
            return; // Recovered by the sender's retransmission timer.
        when += d.extraDelay;
        if (d.duplicate) {
            // Cumulative acks are idempotent, so duplicates are safe.
            deliverAt(when + d.dupDelay);
        }
    }
    deliverAt(when);
}

std::uint64_t
Cluster::settle(std::uint64_t max_events)
{
    std::uint64_t n = sim_.run(max_events);
    if (!sim_.idle())
        warn("cluster did not settle within %llu events",
             static_cast<unsigned long long>(max_events));
    return n;
}

std::uint64_t
Cluster::leakedCredits() const
{
    std::uint64_t leaked = 0;
    for (const auto &n : nodes_) {
        for (int dst = 0; dst < nprocs_; ++dst) {
            int have = n->credits(dst);
            if (have < params_.window)
                leaked += static_cast<std::uint64_t>(params_.window -
                                                     have);
        }
    }
    return leaked;
}

std::uint64_t
Cluster::totalMessages() const
{
    return metrics_.snapshot().counterOr("am.sent");
}

} // namespace nowcluster
