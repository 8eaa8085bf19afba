/**
 * @file
 * The lossy-fabric laboratory: unit tests of the deterministic
 * FaultModel (scripted drops, blackholes, seeded reproducibility) and
 * end-to-end tests of the reliable-delivery protocol recovering from
 * scripted losses of exactly the packets the acceptance criteria name
 * (a credit ack and a bulk fragment), plus the timeout diagnostics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "am/cluster.hh"
#include "am/reliable.hh"
#include "net/fault.hh"
#include "net/loggp.hh"

namespace nowcluster {
namespace {

LogGPParams
baseline()
{
    return MachineConfig::berkeleyNow().params;
}

LogGPParams
reliableParams()
{
    LogGPParams p = baseline();
    p.fault.enabled = true; // Zero rates: scripted faults only.
    p.reliable = true;
    return p;
}

// ----------------------------------------------------------------------
// FaultModel unit tests
// ----------------------------------------------------------------------

TEST(FaultModel, DropNthIsExactAndOneShot)
{
    FaultConfig cfg;
    cfg.enabled = true;
    FaultModel fm(cfg);
    fm.dropNth(0, 1, PacketClass::Data, 2);

    EXPECT_FALSE(fm.apply(0, 1, PacketClass::Data, 0).drop);
    EXPECT_TRUE(fm.apply(0, 1, PacketClass::Data, 0).drop);
    EXPECT_FALSE(fm.apply(0, 1, PacketClass::Data, 0).drop);
    // One-shot: the 2nd event on a *different* link is untouched.
    EXPECT_FALSE(fm.apply(1, 0, PacketClass::Data, 0).drop);
    EXPECT_FALSE(fm.apply(1, 0, PacketClass::Data, 0).drop);

    EXPECT_EQ(fm.counters().dropped[0], 1u);
    EXPECT_EQ(fm.counters().offered[0], 5u);
    EXPECT_EQ(fm.offeredOn(0, 1, PacketClass::Data), 3u);
}

TEST(FaultModel, ScriptedDropsDistinguishPacketClasses)
{
    FaultConfig cfg;
    cfg.enabled = true;
    FaultModel fm(cfg);
    fm.dropNth(0, 1, PacketClass::Ack, 1);

    EXPECT_FALSE(fm.apply(0, 1, PacketClass::Data, 0).drop);
    EXPECT_TRUE(fm.apply(0, 1, PacketClass::Ack, 0).drop);
    EXPECT_EQ(fm.counters().dropped[1], 1u);
    EXPECT_EQ(fm.counters().dropped[0], 0u);
}

TEST(FaultModel, BlackholeDropsOnlyInsideWindow)
{
    FaultConfig cfg;
    cfg.enabled = true;
    FaultModel fm(cfg);
    fm.blackhole(2, -1, usec(10), usec(20));

    EXPECT_FALSE(fm.apply(2, 0, PacketClass::Data, usec(5)).drop);
    EXPECT_TRUE(fm.apply(2, 0, PacketClass::Data, usec(10)).drop);
    EXPECT_TRUE(fm.apply(2, 7, PacketClass::Ack, usec(15)).drop);
    EXPECT_FALSE(fm.apply(2, 0, PacketClass::Data, usec(20)).drop);
    // Other source nodes are unaffected.
    EXPECT_FALSE(fm.apply(3, 0, PacketClass::Data, usec(15)).drop);
}

TEST(FaultModel, SameSeedSameDecisions)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.dropRate = 0.2;
    cfg.dupRate = 0.1;
    cfg.reorderRate = 0.3;
    cfg.seed = 42;

    FaultModel a(cfg), b(cfg);
    for (int i = 0; i < 500; ++i) {
        FaultDecision da = a.apply(0, 1, PacketClass::Data, i);
        FaultDecision db = b.apply(0, 1, PacketClass::Data, i);
        EXPECT_EQ(da.drop, db.drop);
        EXPECT_EQ(da.duplicate, db.duplicate);
        EXPECT_EQ(da.extraDelay, db.extraDelay);
        EXPECT_EQ(da.dupDelay, db.dupDelay);
    }
    EXPECT_EQ(a.counters().dropped[0], b.counters().dropped[0]);
    EXPECT_GT(a.counters().dropped[0], 0u);
    EXPECT_GT(a.counters().duplicated[0], 0u);
    EXPECT_GT(a.counters().delayed[0], 0u);
}

TEST(FaultModel, ZeroRatesNeverFault)
{
    FaultConfig cfg;
    cfg.enabled = true;
    FaultModel fm(cfg);
    EXPECT_FALSE(cfg.anyRate());
    for (int i = 0; i < 200; ++i) {
        FaultDecision d = fm.apply(i % 4, (i + 1) % 4,
                                   PacketClass::Data, i);
        EXPECT_FALSE(d.drop);
        EXPECT_FALSE(d.duplicate);
        EXPECT_EQ(d.extraDelay, 0);
    }
}

// ----------------------------------------------------------------------
// Reliable delivery end-to-end (scripted losses)
// ----------------------------------------------------------------------

TEST(Reliable, NoFaultsSameResultAsBaseline)
{
    // The protocol machinery (seq numbers, acks, timers) must not
    // change *when* anything is delivered on a clean fabric: runtimes
    // match the unreliable cluster exactly.
    auto run_once = [](const LogGPParams &p) {
        Cluster c(2, p);
        bool got = false;
        int done = c.registerHandler(
            [&](AmNode &, Packet &) { got = true; });
        int echo = c.registerHandler([done](AmNode &self, Packet &pkt) {
            self.reply(pkt, done);
        });
        bool stop = false;
        EXPECT_TRUE(c.run([&](AmNode &n) {
            if (n.id() == 0) {
                for (int i = 0; i < 20; ++i) {
                    got = false;
                    n.request(1, echo);
                    n.pollUntil([&] { return got; }, "reply wait");
                }
                stop = true;
                n.oneWay(1, done);
            } else {
                n.pollUntil([&] { return stop; }, "server loop");
            }
        }));
        return c.runtime();
    };

    Tick plain = run_once(baseline());
    Tick rel = run_once(reliableParams());
    EXPECT_EQ(plain, rel);
}

TEST(Reliable, ScriptedCreditAckLossIsRecovered)
{
    // Acceptance test 1: lose a protocol ack (the carrier of a one-way
    // message's send credit). The sender must retransmit, the receiver
    // must suppress the duplicate and re-ack, and the credit must come
    // home -- no leak, no deadlock.
    LogGPParams p = reliableParams();
    Cluster c(2, p);
    int counted = 0;
    int count = c.registerHandler(
        [&](AmNode &, Packet &) { ++counted; });

    const int kMsgs = 2 * p.window + 4; // Forces credit reuse.

    // Acks for traffic 0 -> 1 travel on link 1 -> 0. Lose the *last*
    // one: every earlier loss would be healed for free by the next
    // cumulative ack, but nothing follows the last -- only the
    // retransmission path can bring that credit home.
    c.faultModel()->dropNth(1, 0, PacketClass::Ack, kMsgs);
    ASSERT_TRUE(c.run([&](AmNode &n) {
        if (n.id() == 0) {
            for (int i = 0; i < kMsgs; ++i)
                n.oneWay(1, count);
        } else {
            n.pollUntil([&] { return counted == kMsgs; },
                        "count wait");
        }
    }, 10 * kSec));

    EXPECT_EQ(counted, kMsgs); // Exactly once each, despite the retx.
    EXPECT_EQ(c.faultModel()->counters().dropped[1], 1u);

    // The lost ack was the *last* one, so nothing later covers it
    // cumulatively: recovery (timer -> retransmit -> dup-suppress ->
    // re-ack -> credit home) plays out in the post-run settle.
    c.settle();
    EXPECT_GT(c.node(0).counters().retransmits, 0u);
    EXPECT_GT(c.node(1).counters().dupsSuppressed, 0u);
    EXPECT_EQ(c.leakedCredits(), 0u);
    EXPECT_EQ(c.node(0).reliable()->unackedCount(), 0u);
}

TEST(Reliable, ScriptedBulkFragmentLossIsRecovered)
{
    // Acceptance test 2: lose a middle fragment of a bulk store. The
    // reorder buffer must hold the later fragments, the retransmission
    // must fill the gap, and the payload must arrive bit-exact.
    LogGPParams p = reliableParams();
    Cluster c(2, p);

    const std::size_t len = 4 * p.maxFragment; // 4 fragments.
    std::vector<std::uint8_t> src(len), dst(len, 0);
    for (std::size_t i = 0; i < len; ++i)
        src[i] = static_cast<std::uint8_t>(i * 31 + 7);

    // Fragment 2 of the store is the 2nd data packet on link 0 -> 1.
    c.faultModel()->dropNth(0, 1, PacketClass::Data, 2);

    bool stop = false;
    int done = c.registerHandler([&](AmNode &, Packet &) {});
    ASSERT_TRUE(c.run([&](AmNode &n) {
        if (n.id() == 0) {
            n.store(1, dst.data(), src.data(), len, done);
            n.storeSync();
            stop = true;
            n.oneWay(1, done);
        } else {
            n.pollUntil([&] { return stop; }, "server loop");
        }
    }, 10 * kSec));

    EXPECT_EQ(std::memcmp(src.data(), dst.data(), len), 0);
    EXPECT_GT(c.node(0).counters().retransmits, 0u);
    EXPECT_GT(c.node(1).counters().outOfOrder, 0u);

    c.settle();
    EXPECT_EQ(c.leakedCredits(), 0u);
}

TEST(Reliable, RandomLossStormStillDeliversInOrder)
{
    // Statistical variant: heavy loss/dup/reorder on every wire event;
    // a stream of sequenced one-ways must still arrive exactly once,
    // in order.
    LogGPParams p = reliableParams();
    p.fault.dropRate = 0.05;
    p.fault.dupRate = 0.05;
    p.fault.reorderRate = 0.20;
    p.fault.reorderMaxDelay = usec(30);
    p.fault.seed = 9;
    Cluster c(2, p);

    std::vector<Word> seen;
    int take = c.registerHandler([&](AmNode &, Packet &pkt) {
        seen.push_back(pkt.args[0]);
    });

    const int kMsgs = 100;
    ASSERT_TRUE(c.run([&](AmNode &n) {
        if (n.id() == 0) {
            for (int i = 0; i < kMsgs; ++i)
                n.oneWay(1, take, static_cast<Word>(i));
        } else {
            n.pollUntil(
                [&] { return seen.size() ==
                             static_cast<std::size_t>(kMsgs); },
                "stream wait");
        }
    }, 60 * kSec));

    ASSERT_EQ(seen.size(), static_cast<std::size_t>(kMsgs));
    for (int i = 0; i < kMsgs; ++i)
        EXPECT_EQ(seen[static_cast<std::size_t>(i)],
                  static_cast<Word>(i));
    EXPECT_GT(c.faultModel()->counters().totalDropped(), 0u);

    c.settle();
    EXPECT_EQ(c.leakedCredits(), 0u);
}

TEST(Reliable, LossyRunsAreDeterministic)
{
    auto run_once = [] {
        LogGPParams p = reliableParams();
        p.fault.dropRate = 0.03;
        p.fault.dupRate = 0.02;
        p.fault.reorderRate = 0.10;
        p.fault.seed = 5;
        Cluster c(2, p);
        int counted = 0;
        int count = c.registerHandler(
            [&](AmNode &, Packet &) { ++counted; });
        EXPECT_TRUE(c.run([&](AmNode &n) {
            if (n.id() == 0) {
                for (int i = 0; i < 60; ++i)
                    n.oneWay(1, count);
            } else {
                n.pollUntil([&] { return counted == 60; },
                            "count wait");
            }
        }, 60 * kSec));
        return std::make_pair(c.runtime(),
                              c.node(0).counters().retransmits);
    };

    auto a = run_once();
    auto b = run_once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

// ----------------------------------------------------------------------
// One-off delay injection (the Afzal-style transient perturbation)
// ----------------------------------------------------------------------

namespace {

/** Serialized ping-pong runtime with an optional one-off delay. */
Tick
pingPongRuntime(const LogGPParams &p, int rounds = 20)
{
    Cluster c(2, p);
    bool got = false;
    int done = c.registerHandler([&](AmNode &, Packet &) { got = true; });
    int echo = c.registerHandler([done](AmNode &self, Packet &pkt) {
        self.reply(pkt, done);
    });
    bool stop = false;
    EXPECT_TRUE(c.run([&](AmNode &n) {
        if (n.id() == 0) {
            for (int i = 0; i < rounds; ++i) {
                got = false;
                n.request(1, echo);
                n.pollUntil([&] { return got; }, "reply wait");
            }
            stop = true;
            n.oneWay(1, done);
        } else {
            n.pollUntil([&] { return stop; }, "server loop");
        }
    }, 60 * kSec));
    return c.runtime();
}

} // namespace

TEST(DelayInjection, StallAtStartShiftsTheWholeRun)
{
    LogGPParams p = baseline();
    const Tick base = pingPongRuntime(p);

    // A stall covering time 0 on the initiating node defers its first
    // activation to the window's end; the serialized chain then plays
    // out unchanged, so the end shifts by exactly the duration.
    const Tick d = usec(150);
    p.fault.enabled = true;
    p.fault.delays.push_back({0, 0, d});
    EXPECT_EQ(pingPongRuntime(p), base + d);
}

TEST(DelayInjection, MidRunStallDelaysAtMostItsDuration)
{
    LogGPParams p = baseline();
    const Tick base = pingPongRuntime(p);

    const Tick d = usec(200);
    p.fault.enabled = true;
    p.fault.delays.push_back({1, base / 2, d});
    const Tick delayed = pingPongRuntime(p);
    EXPECT_GT(delayed, base);
    EXPECT_LE(delayed, base + d);
}

TEST(DelayInjection, ConfigDelaysWorkWithoutTheFaultModel)
{
    // params.fault.delays is scenario state installed by the Cluster
    // directly on the procs; it must take effect even when the wire
    // fault model itself is disabled.
    LogGPParams p = baseline();
    const Tick base = pingPongRuntime(p);
    const Tick d = usec(100);
    ASSERT_FALSE(p.fault.enabled);
    p.fault.delays.push_back({0, 0, d});
    EXPECT_EQ(pingPongRuntime(p), base + d);
}

TEST(DelayInjection, ScriptDelayMatchesConfigDelays)
{
    LogGPParams p = baseline();
    p.fault.enabled = true;
    const Tick d = usec(120);

    auto run_with = [&](bool scripted) {
        LogGPParams q = p;
        if (!scripted)
            q.fault.delays.push_back({1, usec(50), d});
        Cluster c(2, q);
        if (scripted)
            c.scriptDelay(1, usec(50), d);
        int counted = 0;
        int count = c.registerHandler(
            [&](AmNode &, Packet &) { ++counted; });
        EXPECT_TRUE(c.run([&](AmNode &n) {
            if (n.id() == 0) {
                for (int i = 0; i < 30; ++i)
                    n.oneWay(1, count);
            } else {
                n.pollUntil([&] { return counted == 30; }, "count wait");
            }
        }, 60 * kSec));
        return c.runtime();
    };

    EXPECT_EQ(run_with(true), run_with(false));
}

TEST(DelayInjection, SameSpecIsDeterministic)
{
    LogGPParams p = baseline();
    p.fault.enabled = true;
    p.fault.delays.push_back({1, usec(300), usec(250)});
    const Tick a = pingPongRuntime(p);
    const Tick b = pingPongRuntime(p);
    EXPECT_EQ(a, b);
}

TEST(DelayInjection, OverlappingWindowsMerge)
{
    // Two overlapping windows on one node act like their union: the
    // runtime must match a single merged window, not double-charge.
    LogGPParams p = baseline();
    const Tick base = pingPongRuntime(p);
    p.fault.enabled = true;
    p.fault.delays.push_back({0, 0, usec(100)});
    p.fault.delays.push_back({0, usec(60), usec(80)}); // Merges to 140.
    LogGPParams q = baseline();
    q.fault.enabled = true;
    q.fault.delays.push_back({0, 0, usec(140)});
    const Tick merged = pingPongRuntime(p);
    EXPECT_EQ(merged, pingPongRuntime(q));
    EXPECT_EQ(merged, base + usec(140));
}

// ----------------------------------------------------------------------
// Scripted faults on a multi-node run
// ----------------------------------------------------------------------

namespace {

struct DropRun
{
    Tick runtime;
    FaultCounters faults;
    std::uint64_t retransmits;
};

/** One-way stream of 24 messages src -> dst with the nth data packet
 *  on that link dropped, on an 8-node reliable cluster. */
DropRun
scriptedDropRun(NodeId src, NodeId dst, std::uint64_t nth)
{
    LogGPParams p = reliableParams();
    Cluster c(8, p);
    c.faultModel()->dropNth(src, dst, PacketClass::Data, nth);
    int counted = 0;
    int count = c.registerHandler(
        [&](AmNode &, Packet &) { ++counted; });
    const int kMsgs = 24;
    EXPECT_TRUE(c.run([&](AmNode &n) {
        if (n.id() == src) {
            for (int i = 0; i < kMsgs; ++i)
                n.oneWay(dst, count);
        } else if (n.id() == dst) {
            n.pollUntil([&] { return counted == kMsgs; }, "count wait");
        }
    }, 60 * kSec));
    EXPECT_EQ(counted, kMsgs);
    return {c.runtime(), c.faultModel()->counters(),
            c.node(src).counters().retransmits};
}

} // namespace

TEST(Reliable, ScriptedDataDropFiresOnceAndRunCompletes)
{
    // A drop scripted on a link between two nodes other than 0 must
    // fire on exactly one packet, and retransmission must still get
    // every message through.
    const DropRun r = scriptedDropRun(5, 6, 2);
    EXPECT_EQ(r.faults.dropped[0], 1u);
    EXPECT_GT(r.retransmits, 0u);
}

TEST(Reliable, ScriptedDataDropIsReproducible)
{
    // Two independent runs of the same drop script agree exactly: same
    // runtime, same offered and dropped counts, same retransmissions.
    const DropRun a = scriptedDropRun(5, 6, 2);
    const DropRun b = scriptedDropRun(5, 6, 2);
    EXPECT_EQ(a.faults.dropped[0], 1u);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.faults.offered[0], b.faults.offered[0]);
    EXPECT_EQ(a.faults.offered[1], b.faults.offered[1]);
    EXPECT_EQ(a.faults.dropped[0], b.faults.dropped[0]);
    EXPECT_EQ(a.retransmits, b.retransmits);
}

TEST(FaultModel, OfferedCountsFollowTheDirectedLink)
{
    // Every data packet 3 -> 7 is offered to the fault model on that
    // directed link, and none on the reverse one.
    LogGPParams p = reliableParams();
    Cluster c(8, p);
    int counted = 0;
    int count = c.registerHandler(
        [&](AmNode &, Packet &) { ++counted; });
    ASSERT_TRUE(c.run([&](AmNode &n) {
        if (n.id() == 3) {
            for (int i = 0; i < 10; ++i)
                n.oneWay(7, count);
        } else if (n.id() == 7) {
            n.pollUntil([&] { return counted == 10; }, "count wait");
        }
    }, 60 * kSec));
    const FaultModel *fm = c.faultModel();
    EXPECT_GE(fm->offeredOn(3, 7, PacketClass::Data), 10u);
    EXPECT_EQ(fm->offeredOn(7, 3, PacketClass::Data), 0u);
    EXPECT_GE(fm->counters().offered[0], 10u);
}

// ----------------------------------------------------------------------
// Timeout diagnostics (stall report)
// ----------------------------------------------------------------------

TEST(StallReport, LostReplyNamesTheBlockedWait)
{
    // Unreliable cluster, scripted loss of the reply: node 0 waits
    // forever, the run drains, and the report says exactly which node
    // was blocked on what.
    LogGPParams p = baseline();
    p.fault.enabled = true;
    Cluster c(2, p);
    bool got = false;
    int done = c.registerHandler(
        [&](AmNode &, Packet &) { got = true; });
    int echo = c.registerHandler([done](AmNode &self, Packet &pkt) {
        self.reply(pkt, done);
    });

    // The reply is the 1st data packet on link 1 -> 0.
    c.faultModel()->dropNth(1, 0, PacketClass::Data, 1);

    bool stop = false;
    EXPECT_FALSE(c.run([&](AmNode &n) {
        if (n.id() == 0) {
            n.request(1, echo);
            n.pollUntil([&] { return got; }, "reply wait");
            stop = true;
            n.oneWay(1, done);
        } else {
            n.pollUntil([&] { return stop; }, "server loop");
        }
    }, kSec));

    EXPECT_TRUE(c.timedOut());
    const std::string &report = c.stallReport();
    EXPECT_NE(report.find("node 0"), std::string::npos) << report;
    EXPECT_NE(report.find("reply wait"), std::string::npos) << report;
}

TEST(StallReport, CleanRunLeavesNoReport)
{
    Cluster c(2, baseline());
    int done = c.registerHandler([](AmNode &, Packet &) {});
    bool stop = false;
    ASSERT_TRUE(c.run([&](AmNode &n) {
        if (n.id() == 0) {
            n.oneWay(1, done);
            stop = true;
        } else {
            n.pollUntil([&] { return stop; }, "server loop");
        }
    }));
    EXPECT_TRUE(c.stallReport().empty());
}

} // namespace
} // namespace nowcluster
