/**
 * @file
 * Unit tests for the instrumentation summaries (Table 4 / Figure 4).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "splitc/splitc.hh"
#include "stats/comm_stats.hh"

namespace nowcluster {
namespace {

TEST(Stats, SummaryComputesRates)
{
    SplitCRuntime rt(4, MachineConfig::berkeleyNow().params);
    std::vector<std::int64_t> cell(4, 0);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        for (int i = 0; i < 50; ++i)
            sc.put(gptr((sc.myProc() + 1) % 4, &cell[sc.myProc()]),
                   std::int64_t(i));
        sc.sync();
        sc.barrier();
        sc.barrier();
    }));
    CommSummary s = summarizeComm(rt.cluster(), rt.runtime(), "test");
    EXPECT_EQ(s.nprocs, 4);
    EXPECT_GT(s.avgMsgsPerProc, 100u); // 50 puts + 50 acks + barriers.
    EXPECT_GT(s.msgsPerProcPerMs, 0.0);
    EXPECT_GT(s.msgIntervalUs, 0.0);
    EXPECT_GT(s.barrierIntervalMs, 0.0);
    EXPECT_EQ(s.pctBulk, 0.0);
    EXPECT_EQ(s.pctReads, 0.0);
    EXPECT_GT(s.smallKBps, 0.0);
    EXPECT_EQ(s.bulkKBps, 0.0);
}

TEST(Stats, ReadTaggingFlowsToSummary)
{
    SplitCRuntime rt(2, MachineConfig::berkeleyNow().params);
    std::vector<std::int64_t> cell(2, 7);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        if (sc.myProc() == 0) {
            for (int i = 0; i < 10; ++i)
                sc.read(gptr(1, &cell[1]));
        }
        sc.barrier();
    }));
    CommSummary s = summarizeComm(rt.cluster(), rt.runtime(), "t");
    EXPECT_GT(s.pctReads, 0.0);
}

TEST(Stats, MatrixRecordsPerDestinationCounts)
{
    SplitCRuntime rt(3, MachineConfig::berkeleyNow().params);
    std::vector<std::int64_t> cell(3, 0);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        if (sc.myProc() == 0) {
            for (int i = 0; i < 7; ++i)
                sc.put(gptr(1, &cell[1]), std::int64_t(1));
            sc.sync();
        }
        sc.barrier();
    }));
    CommMatrix m = commMatrix(rt.cluster());
    EXPECT_EQ(m.nprocs, 3);
    EXPECT_GE(m.at(0, 1), 7u);
    // Replies from 1 back to 0 (put acks).
    EXPECT_GE(m.at(1, 0), 7u);
    EXPECT_EQ(m.at(0, 0), 0u);
    EXPECT_GT(m.maxCount(), 0u);
}

TEST(Stats, AsciiArtHasOneRowPerProc)
{
    CommMatrix m;
    m.nprocs = 2;
    m.counts = {0, 10, 5, 0};
    std::string art = m.ascii();
    EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 2);
    EXPECT_NE(art.find('@'), std::string::npos); // Max cell is dark.
}

TEST(Stats, PgmRoundTrip)
{
    CommMatrix m;
    m.nprocs = 2;
    m.counts = {0, 4, 2, 0};
    std::string path = "/tmp/nowcluster_test_matrix.pgm";
    ASSERT_TRUE(m.writePgm(path, 2));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char magic[3] = {};
    ASSERT_EQ(std::fread(magic, 1, 2, f), 2u);
    EXPECT_EQ(std::string(magic), "P5");
    std::fclose(f);
    std::remove(path.c_str());
}

} // namespace
} // namespace nowcluster

// ----------------------------------------------------------------------
// Message statistics over span traces.
// ----------------------------------------------------------------------

#include "obs/tracer.hh"

namespace nowcluster {
namespace {

/** A trace of first flights from node 0 to node 1, one per
 *  (issued, ready) pair. */
SpanTracer
flights(const std::vector<std::pair<Tick, Tick>> &times)
{
    SpanTracer t;
    for (const auto &[issued, ready] : times) {
        ObsMessage m;
        m.id = t.newMsgId();
        m.src = 0;
        m.dst = 1;
        m.issued = issued;
        m.ready = ready;
        t.message(m);
    }
    return t;
}

TEST(Trace, RecordsEveryMessageOfARun)
{
    SplitCRuntime rt(2, MachineConfig::berkeleyNow().params);
    SpanTracer trace;
    rt.cluster().setTracer(&trace);
    std::vector<std::int64_t> cell(2, 0);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        if (sc.myProc() == 0) {
            for (int i = 0; i < 5; ++i)
                sc.put(gptr(1, &cell[1]), std::int64_t(i));
            sc.sync();
        }
        sc.barrier();
    }));
    std::uint64_t sent = rt.cluster().node(0).counters().sent +
                         rt.cluster().node(1).counters().sent;
    EXPECT_EQ(trace.messages().size(), sent);
    for (const ObsMessage &m : trace.messages()) {
        EXPECT_LT(m.issued, m.ready);
        EXPECT_GE(m.ready - m.issued, usec(5.0)); // >= L.
    }
    EXPECT_GT(meanFlightUs(trace), 5.0);
}

TEST(Trace, BurstFractionSeparatesBurstyFromPaced)
{
    std::vector<std::pair<Tick, Tick>> bursty, paced;
    for (int i = 0; i < 100; ++i) {
        bursty.push_back({i * usec(2), i * usec(2) + usec(5)});
        paced.push_back({i * usec(100), i * usec(100) + usec(5)});
    }
    EXPECT_DOUBLE_EQ(burstFraction(flights(bursty), usec(10)), 1.0);
    EXPECT_DOUBLE_EQ(burstFraction(flights(paced), usec(10)), 0.0);
}

TEST(Trace, StatsOnEmptyAndSingleRecordTraces)
{
    SpanTracer empty;
    EXPECT_DOUBLE_EQ(meanFlightUs(empty), 0.0);
    EXPECT_DOUBLE_EQ(burstFraction(empty, usec(10)), 0.0);

    SpanTracer one = flights({{usec(3), usec(9)}});
    EXPECT_DOUBLE_EQ(meanFlightUs(one), 6.0);
    // A single message has no consecutive pair, hence no bursts.
    EXPECT_DOUBLE_EQ(burstFraction(one, usec(10)), 0.0);
}

} // namespace
} // namespace nowcluster
