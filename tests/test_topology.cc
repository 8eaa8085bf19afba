/**
 * @file
 * Tests of the fat-tree topology model and of large or perturbed whole
 * runs on it. Topology tests pin the contention model: incast queues at
 * the victim's downlink, oversubscription scales it. Run tests cover a
 * 1024-node fat-tree smoke, the lossy-deadlock drain, and one-off delay
 * injection under tracing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>

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

// 1024 nodes on an oversubscribed fat-tree: the scenario the topology
// work exists for. em3d's constant node degree keeps this O(P) in
// messages, so the smoke stays fast; the all-to-all apps get their
// 1024-node runs in scripts/run_all.sh and bench_perf.
TEST(ParallelDes, ThousandNodeFatTreeSmoke)
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
TEST(ParallelTopology, IncastQueuesAtVictimDownlink)
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
TEST(ParallelTopology, OversubscriptionScalesContention)
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
TEST(ParallelDes, LossyDeadlockDrainsCleanlyWhenSharded)
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
TEST(ParallelDes, DelayInjectionUnperturbedByTracing)
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
TEST(ParallelDes, DelayInjectionStretchesRuntime)
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
