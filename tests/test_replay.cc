/**
 * @file
 * Tests for trace replay: schedule extraction, fidelity of same-
 * parameter replay, sensitivity of replayed traces to the knobs, the
 * NOWOBS01 round trip the CLI uses, and refusal of traces that name
 * nodes outside the replay cluster.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "harness/experiment.hh"
#include "net/packet.hh"
#include "obs/export.hh"
#include "replay/replay.hh"

namespace nowcluster {
namespace {

/** Capture a span trace and baseline runtime of one app run. */
std::pair<SpanTracer, RunResult>
capture(const std::string &key, int nprocs, double scale)
{
    SpanTracer trace;
    RunConfig c;
    c.nprocs = nprocs;
    c.scale = scale;
    c.obs = &trace;
    RunResult r = runApp(key, c);
    return {std::move(trace), r};
}

TEST(Replay, ScheduleExtractionFiltersReplies)
{
    auto [trace, r] = capture("em3d-write", 4, 0.2);
    ASSERT_TRUE(r.ok);
    auto params = MachineConfig::berkeleyNow().params;
    ReplaySchedule sched = extractSchedule(trace, 4, params);
    EXPECT_EQ(sched.nprocs, 4);
    // Only requests/one-ways are scheduled; replies regenerate.
    std::uint64_t non_reply = 0;
    for (const ObsMessage &m : trace.messages()) {
        const auto kind = static_cast<PacketKind>(m.kind);
        if (kind != PacketKind::Reply && kind != PacketKind::BulkFrag)
            ++non_reply;
    }
    EXPECT_EQ(sched.totalSends(), non_reply);
    // Every step's destination is a valid, non-self node.
    for (int p = 0; p < 4; ++p) {
        for (const ReplayStep &s : sched.steps[p]) {
            EXPECT_GE(s.dst, 0);
            EXPECT_LT(s.dst, 4);
        }
    }
}

TEST(Replay, SameParametersReproduceTheRuntimeShape)
{
    auto [trace, r] = capture("em3d-write", 4, 0.2);
    ASSERT_TRUE(r.ok);
    auto params = MachineConfig::berkeleyNow().params;
    ReplaySchedule sched = extractSchedule(trace, 4, params);
    ReplayResult rr = replaySchedule(sched, params);
    ASSERT_TRUE(rr.ok);
    // Replay approximates the original (think-time extraction folds
    // receive overheads into think, so expect the same ballpark, not
    // equality).
    double ratio = static_cast<double>(rr.makespan) /
                   static_cast<double>(r.runtime);
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 1.6);
}

TEST(Replay, KnobsStretchReplayedTraces)
{
    auto [trace, r] = capture("radix", 4, 0.15);
    ASSERT_TRUE(r.ok);
    auto base = MachineConfig::berkeleyNow().params;
    ReplaySchedule sched = extractSchedule(trace, 4, base);

    ReplayResult fast = replaySchedule(sched, base);
    auto slow_params = base;
    slow_params.setDesiredGapUsec(55.0);
    ReplayResult slow = replaySchedule(sched, slow_params);
    ASSERT_TRUE(fast.ok && slow.ok);
    EXPECT_GT(slow.makespan, fast.makespan);
}

TEST(Replay, BulkRunsCoalesce)
{
    auto [trace, r] = capture("radb", 4, 0.15);
    ASSERT_TRUE(r.ok);
    auto params = MachineConfig::berkeleyNow().params;
    ReplaySchedule sched = extractSchedule(trace, 4, params);
    // Radb's distribution sends multi-fragment bulk messages; the
    // schedule must contain bulk steps with multi-kilobyte payloads.
    bool has_big_bulk = false;
    for (int p = 0; p < 4; ++p) {
        for (const ReplayStep &s : sched.steps[p])
            has_big_bulk = has_big_bulk || (s.bulk && s.bytes > 4096);
    }
    EXPECT_TRUE(has_big_bulk);
    ReplayResult rr = replaySchedule(sched, params);
    EXPECT_TRUE(rr.ok);
}

TEST(Replay, BinaryRoundTripFeedsReplay)
{
    auto [trace, r] = capture("em3d-write", 4, 0.15);
    ASSERT_TRUE(r.ok);
    std::string path = ::testing::TempDir() + "nowcluster_replay_test.obs";
    ASSERT_TRUE(writeBinaryTrace(trace, path));

    SpanTracer loaded;
    ASSERT_TRUE(readBinaryTrace(loaded, path));
    EXPECT_EQ(loaded.messages().size(), trace.messages().size());

    auto params = MachineConfig::berkeleyNow().params;
    ReplaySchedule a = extractSchedule(trace, 4, params);
    ReplaySchedule b = extractSchedule(loaded, 4, params);
    EXPECT_EQ(a.totalSends(), b.totalSends());
    ReplayResult ra = replaySchedule(a, params);
    ReplayResult rb = replaySchedule(b, params);
    EXPECT_EQ(ra.makespan, rb.makespan);
    std::remove(path.c_str());
}

TEST(Replay, EmptyTraceIsHarmless)
{
    SpanTracer empty;
    auto params = MachineConfig::berkeleyNow().params;
    ReplaySchedule sched = extractSchedule(empty, 3, params);
    EXPECT_EQ(sched.totalSends(), 0u);
    ReplayResult rr = replaySchedule(sched, params);
    EXPECT_TRUE(rr.ok);
}

// A trace from a larger run (or a hand-edited one) must be refused as a
// user error before replay indexes per-node state with its node ids.
TEST(ReplayDeathTest, NodeOutsideTheClusterIsFatal)
{
    auto params = MachineConfig::berkeleyNow().params;
    auto oneMessage = [](NodeId src, NodeId dst) {
        SpanTracer t;
        ObsMessage m;
        m.id = t.newMsgId();
        m.src = src;
        m.dst = dst;
        m.kind = static_cast<std::uint8_t>(PacketKind::OneWay);
        t.message(m);
        return t;
    };
    SpanTracer far_dst = oneMessage(0, 3);
    EXPECT_EXIT(extractSchedule(far_dst, 2, params),
                ::testing::ExitedWithCode(1), "outside the 2-proc");
    SpanTracer far_src = oneMessage(3, 0);
    EXPECT_EXIT(extractSchedule(far_src, 2, params),
                ::testing::ExitedWithCode(1), "outside the 2-proc");
}

} // namespace
} // namespace nowcluster
