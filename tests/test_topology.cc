/**
 * @file
 * Tests of the fat-tree topology model, the one switch-contention
 * model, and of large or perturbed whole runs. The `Fabric` tests pin
 * the contention model: the leaf/spine link algebra on a small, fully
 * provisioned tree (4 hosts per leaf, oversubscription 1, no hop
 * latency), the idle-tree-is-free property through a cluster, incast
 * at the victim's downlink, and oversubscription scaling. The
 * `WholeRun` tests cover a 1024-node fat-tree smoke, the lossy-
 * deadlock drain, and one-off delay injection under tracing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "am/cluster.hh"
#include "apps/app.hh"
#include "harness/runner.hh"
#include "net/topology.hh"
#include "obs/tracer.hh"

namespace nowcluster {
namespace {

RunConfig
smallConfig(int nprocs, double scale)
{
    RunConfig c;
    c.nprocs = nprocs;
    c.scale = scale;
    return c;
}

/** The small tree: 4 hosts per leaf, oversubscription 1, no hop. */
FatTreeTopology::Config
leaf4(double mbps = 160.0)
{
    FatTreeTopology::Config c;
    c.hostsPerLeaf = 4;
    c.linkMBps = mbps;
    return c;
}

/** The same tree as cluster parameters. */
LogGPParams
leaf4Params(double mbps = 160.0)
{
    LogGPParams p = MachineConfig::berkeleyNow().params;
    p.topo = true;
    p.topoHostsPerLeaf = 4;
    p.topoLinkMBps = mbps;
    return p;
}

/**
 * One cross-leaf packet through the link model in the order Cluster
 * drives it: the source leaf's uplink when the packet is offered at
 * `inject`, then the destination leaf's downlink when it reaches that
 * leaf (here as soon as the uplink lets it go; the wire latency is a
 * constant shift). @return the packet's total queueing.
 */
Tick
crossLeaves(FatTreeTopology &t, NodeId src, NodeId dst, std::size_t bytes,
            Tick inject)
{
    Tick up = t.uplink(t.leafOf(src), bytes, inject);
    return up + t.downlink(t.leafOf(dst), bytes, inject + up);
}

Tick
totalQueueing(const FatTreeTopology &t)
{
    return t.totalUplinkQueueing() + t.totalDownlinkQueueing();
}

/** Request/reply round trip from node 0 to node 7 on 8 procs. */
Tick
roundTrip(const LogGPParams &p)
{
    Cluster c(8, p);
    bool got = false, stop = false;
    int done = c.registerHandler([&](AmNode &, Packet &) { got = true; });
    int echo = c.registerHandler([done](AmNode &self, Packet &pkt) {
        self.reply(pkt, done);
    });
    Tick rtt = 0;
    c.run([&](AmNode &n) {
        if (n.id() == 0) {
            Tick t0 = n.now();
            n.request(7, echo); // Cross-leaf with 4 hosts per leaf.
            n.pollUntil([&] { return got; });
            rtt = n.now() - t0;
            stop = true;
            n.oneWay(7, done);
        } else {
            n.pollUntil([&] { return stop; });
        }
    });
    return rtt;
}

TEST(Fabric, TopologyMapping)
{
    FatTreeTopology t(32, leaf4());
    EXPECT_EQ(t.nLeaves(), 8);
    EXPECT_EQ(t.leafOf(0), 0);
    EXPECT_EQ(t.leafOf(3), 0);
    EXPECT_EQ(t.leafOf(4), 1);
    EXPECT_EQ(t.leafOf(31), 7);
    EXPECT_TRUE(t.sameLeaf(0, 3));
    EXPECT_FALSE(t.sameLeaf(3, 4));
}

// Same-leaf traffic crosses only the leaf crossbar: a burst of bulk
// stores on 1 MB/s links runs exactly as on the constant-latency
// network and claims no shared link.
TEST(Fabric, SameSwitchTrafficIsFree)
{
    auto burst = [](const LogGPParams &p, Tick &queued) {
        Cluster c(8, p);
        std::vector<std::uint8_t> src(4096, 1), dst(4096);
        int seen = 0;
        int h = c.registerHandler([&](AmNode &, Packet &) { ++seen; });
        c.run([&](AmNode &n) {
            if (n.id() == 0) {
                for (int i = 0; i < 16; ++i)
                    n.store(1, dst.data(), src.data(), src.size(), h);
                n.storeSync();
            } else if (n.id() == 1) {
                n.pollUntil([&] { return seen == 16; });
            }
        });
        queued = c.topology() ? totalQueueing(*c.topology()) : 0;
        return c.runtime();
    };
    Tick flat_queued = 0, tree_queued = -1;
    EXPECT_EQ(burst(leaf4Params(1.0), tree_queued),
              burst(MachineConfig::berkeleyNow().params, flat_queued));
    EXPECT_EQ(tree_queued, 0);
}

// Same-leaf packets must not touch the shared-link state even while a
// cross-leaf burst congests the same leaf's uplink: every same-leaf
// message arrives exactly L after leaving its NIC, and the link
// counters hold exactly the cross-leaf messages' queueing.
TEST(Fabric, SameSwitchLeavesQueueingUntouched)
{
    const LogGPParams p = leaf4Params(1.0);
    Cluster c(8, p);
    SpanTracer tracer;
    c.setTracer(&tracer);
    int at4 = 0, at2 = 0;
    int h4 = c.registerHandler([&](AmNode &, Packet &) { ++at4; });
    int h2 = c.registerHandler([&](AmNode &, Packet &) { ++at2; });
    ASSERT_TRUE(c.run([&](AmNode &n) {
        if (n.id() == 0) {
            for (int i = 0; i < 8; ++i)
                n.oneWay(4, h4); // Cross-leaf: leaf 0 -> leaf 1.
        } else if (n.id() == 1) {
            for (int i = 0; i < 8; ++i)
                n.oneWay(2, h2); // Same leaf 0.
        } else if (n.id() == 4) {
            n.pollUntil([&] { return at4 == 8; });
        } else if (n.id() == 2) {
            n.pollUntil([&] { return at2 == 8; });
        }
    }));
    const FatTreeTopology *topo = c.topology();
    ASSERT_NE(topo, nullptr);
    Tick cross_queueing = 0;
    for (const ObsMessage &m : tracer.messages()) {
        Tick extra = m.ready - m.wire - p.totalLatency();
        if (topo->sameLeaf(m.src, m.dst))
            EXPECT_EQ(extra, 0) << m.src << " -> " << m.dst;
        else
            cross_queueing += extra;
    }
    EXPECT_GT(topo->uplinkQueueing(0), 0);
    EXPECT_EQ(totalQueueing(*topo), cross_queueing);
}

TEST(Fabric, TinyPacketsClampToMinWireSize)
{
    // Anything below minPacketBytes still occupies the wire for a
    // 28-byte packet's serialization time: a back-to-back burst of
    // 1-byte packets queues exactly like a burst of 28-byte packets.
    FatTreeTopology tiny(8, leaf4());
    FatTreeTopology wire(8, leaf4());
    EXPECT_EQ(tiny.serializationTime(1), wire.serializationTime(28));
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(crossLeaves(tiny, 0, 4, 1, 0),
                  crossLeaves(wire, 0, 4, 28, 0));
    }
    EXPECT_GT(totalQueueing(tiny), 0);
    EXPECT_EQ(totalQueueing(tiny), totalQueueing(wire));
}

TEST(Fabric, QueueingMonotoneAcrossBurst)
{
    // Total queueing is a nondecreasing running sum, and every packet
    // of a same-instant burst behind the first queues strictly longer.
    FatTreeTopology t(8, leaf4());
    Tick prev_total = 0;
    Tick prev_delay = -1;
    for (int i = 0; i < 32; ++i) {
        Tick delay = crossLeaves(t, 0, 4, 4096, 0);
        EXPECT_GT(delay, prev_delay);
        EXPECT_GE(totalQueueing(t), prev_total);
        prev_total = totalQueueing(t);
        prev_delay = delay;
    }
}

TEST(Fabric, IdleCrossSwitchPathAddsNothing)
{
    // Well-spaced packets see no queueing: the model only charges
    // contention, never the base traversal.
    FatTreeTopology t(8, leaf4());
    EXPECT_EQ(crossLeaves(t, 0, 4, 28, usec(100)), 0);
    EXPECT_EQ(crossLeaves(t, 0, 4, 28, usec(200)), 0);
}

TEST(Fabric, BackToBackPacketsQueueOnTheUplink)
{
    FatTreeTopology t(8, leaf4(1.0)); // 1 MB/s: 28 us per short packet.
    Tick first = crossLeaves(t, 0, 4, 28, 0);
    Tick second = crossLeaves(t, 1, 4, 28, 0);
    EXPECT_EQ(first, 0);
    // The second packet waits a full serialization on the shared
    // uplink (28 us at 1 MB/s).
    EXPECT_EQ(t.uplinkQueueing(0), usec(28.0));
    EXPECT_GE(second, usec(28.0));
}

TEST(Fabric, DownlinkIsSharedTooAcrossSourceSwitches)
{
    FatTreeTopology t(12, leaf4(1.0));
    // Sources on different leaves, same destination leaf.
    Tick a = crossLeaves(t, 0, 8, 28, 0);
    Tick b = crossLeaves(t, 4, 9, 28, 0);
    EXPECT_EQ(a, 0);
    EXPECT_GE(b, usec(28.0)); // Queued behind a on leaf 2's downlink.
    EXPECT_EQ(t.downlinkQueueing(2), usec(28.0));
}

TEST(Fabric, ClusterWithIdleFabricMatchesBaselineExactly)
{
    EXPECT_EQ(roundTrip(MachineConfig::berkeleyNow().params),
              roundTrip(leaf4Params()));
}

// The hop latency is charged once per cross-leaf packet: an idle round
// trip crosses twice (request and reply), so it pays exactly 2 hops.
TEST(Fabric, IdleCrossLeafRoundTripPaysOneHopPerCrossing)
{
    const double hop_us = 3.5;
    Knobs k;
    k.topoHosts = 4;
    k.topoHopUs = hop_us;
    LogGPParams p = MachineConfig::berkeleyNow().params;
    k.applyTo(p);
    ASSERT_TRUE(p.topo);
    EXPECT_EQ(roundTrip(p),
              roundTrip(MachineConfig::berkeleyNow().params) +
                  2 * usec(hop_us));
}

TEST(Fabric, SlowLinksStretchBursts)
{
    // A burst of cross-leaf one-ways through 1 MB/s links arrives
    // much later than through 160 MB/s links.
    auto last_arrival = [](double mbps) {
        Cluster c(8, leaf4Params(mbps));
        int seen = 0;
        Tick last = 0;
        int h = c.registerHandler([&](AmNode &self, Packet &) {
            ++seen;
            last = self.now();
        });
        c.run([&](AmNode &n) {
            if (n.id() == 0) {
                for (int i = 0; i < 16; ++i)
                    n.oneWay(4, h);
            } else if (n.id() == 4) {
                n.pollUntil([&] { return seen == 16; });
            }
        });
        return last;
    };
    EXPECT_GT(last_arrival(1.0), last_arrival(160.0) + usec(100));
}

// 1024 nodes on an oversubscribed fat-tree: the scenario the topology
// work exists for. em3d's constant node degree keeps this O(P) in
// messages, so the smoke stays fast; the all-to-all apps get their
// 1024-node runs in scripts/run_all.sh and bench_perf.
TEST(WholeRun, ThousandNodeFatTreeSmoke)
{
    RunConfig c = smallConfig(1024, 0.01);
    c.validate = false;
    c.knobs.topo = 1;
    c.knobs.topoOversub = 4;
    RunResult a = runApp("em3d-write", c);
    EXPECT_TRUE(a.ok);
    EXPECT_GT(a.simEvents, 0u);
}

// Incast at the AM layer: 31 off-leaf senders all target node 0. The
// victim leaf's downlink must absorb the contention -- its queueing
// dominates every other leaf's.
TEST(Fabric, IncastQueuesAtVictimDownlink)
{
    LogGPParams p = MachineConfig::berkeleyNow().params;
    p.topo = true;
    p.topoHostsPerLeaf = 8;
    p.topoOversub = 4.0;
    Cluster c(32, p);
    std::atomic<int> arrived{0};
    int sink = c.registerHandler(
        [&](AmNode &, Packet &) { arrived.fetch_add(1); });
    ASSERT_TRUE(c.run([&](AmNode &n) {
        if (n.id() == 0) {
            n.pollUntil([&] { return arrived.load() >= 24; });
        } else if (n.id() >= 8) { // Everyone outside leaf 0.
            for (int i = 0; i < 4; ++i)
                n.oneWay(0, sink);
        }
    }));
    const FatTreeTopology *topo = c.topology();
    ASSERT_NE(topo, nullptr);
    Tick victim = topo->downlinkQueueing(0);
    EXPECT_GT(victim, 0);
    for (int leaf = 1; leaf < topo->nLeaves(); ++leaf)
        EXPECT_GT(victim, topo->downlinkQueueing(leaf));
}

// Oversubscription ordering, straight on the link model: the same
// offered load queues strictly longer on a 4:1 fabric than on 1:1,
// and serialization itself stretches by the ratio.
TEST(Fabric, OversubscriptionScalesContention)
{
    FatTreeTopology::Config base;
    base.hostsPerLeaf = 8;
    base.oversub = 1.0;
    FatTreeTopology flat(64, base);
    base.oversub = 4.0;
    FatTreeTopology tight(64, base);

    EXPECT_EQ(tight.serializationTime(4096),
              4 * flat.serializationTime(4096));

    // Ten back-to-back packets offered at the same instant.
    for (int i = 0; i < 10; ++i) {
        flat.uplink(0, 4096, 0);
        tight.uplink(0, 4096, 0);
    }
    EXPECT_GT(tight.uplinkQueueing(0), flat.uplinkQueueing(0));
    EXPECT_EQ(tight.uplinkQueueing(0), 4 * flat.uplinkQueueing(0));
}

// Loss without recovery deadlocks the app; the run must drain -- wake
// everyone, report the stall, and return ok=false rather than crash.
TEST(WholeRun, LossyDeadlockDrainsCleanly)
{
    RunConfig c = smallConfig(8, 0.05);
    c.validate = false;
    c.knobs.dropRate = 0.02;
    c.knobs.reliable = 0;
    RunResult r = runApp("radix", c);
    EXPECT_FALSE(r.ok) << "lossy run without recovery completed?";
}

// The wavefront workflow traces both the baseline and the perturbed
// run; the tracer must observe the stall without perturbing it.
TEST(WholeRun, DelayInjectionUnperturbedByTracing)
{
    RunConfig plain = smallConfig(8, 0.05);
    plain.knobs.delayNode = 4;
    plain.knobs.delayAtUs = 500;
    plain.knobs.delayUs = 2000;
    std::string base = fingerprint(runApp("radix", plain));

    SpanTracer tracer;
    RunConfig c = plain;
    c.obs = &tracer;
    EXPECT_EQ(fingerprint(runApp("radix", c)), base)
        << "tracing perturbed the delayed run";
    EXPECT_FALSE(tracer.spans().empty());
}

// A delayed run must cost wall-clock-visible virtual time: runtime
// strictly above the undelayed run, by at most the stall duration.
TEST(WholeRun, DelayInjectionStretchesRuntime)
{
    RunConfig c = smallConfig(8, 0.05);
    RunResult base = runApp("radix", c);
    ASSERT_TRUE(base.ok);

    RunConfig d = c;
    d.knobs.delayNode = 4;
    d.knobs.delayAtUs = 500;
    d.knobs.delayUs = 4000;
    RunResult delayed = runApp("radix", d);
    ASSERT_TRUE(delayed.ok);
    EXPECT_GT(delayed.runtime, base.runtime);
    EXPECT_LE(delayed.runtime, base.runtime + usec(4000));
}

} // namespace
} // namespace nowcluster
