/**
 * @file
 * Integration tests for the ten benchmark applications: every app must
 * complete on a small cluster and produce *correct* output (each app
 * checks itself against a serial reference or an exact invariant).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "apps/app.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "model/models.hh"

namespace nowcluster {
namespace {

RunConfig
smallConfig(int nprocs = 8, double scale = 0.25)
{
    RunConfig c;
    c.nprocs = nprocs;
    c.scale = scale;
    c.seed = 3;
    c.maxTime = 600 * kSec;
    return c;
}

class EveryApp : public ::testing::TestWithParam<std::string>
{};

TEST_P(EveryApp, CompletesAndValidatesOn8Procs)
{
    RunResult r = runApp(GetParam(), smallConfig());
    EXPECT_TRUE(r.ok) << GetParam() << " timed out / deadlocked";
    EXPECT_TRUE(r.validated) << GetParam() << " produced wrong output";
    EXPECT_GT(r.runtime, 0);
    EXPECT_GT(r.summary.avgMsgsPerProc, 0u);
}

TEST_P(EveryApp, CompletesOn2Procs)
{
    RunResult r = runApp(GetParam(), smallConfig(2, 0.2));
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.validated) << GetParam();
}

TEST_P(EveryApp, CompletesOnNonPowerOfTwoProcs)
{
    RunResult r = runApp(GetParam(), smallConfig(5, 0.2));
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.validated) << GetParam();
}

TEST_P(EveryApp, DeterministicRuntime)
{
    RunResult a = runApp(GetParam(), smallConfig(4, 0.2));
    RunResult b = runApp(GetParam(), smallConfig(4, 0.2));
    EXPECT_EQ(a.runtime, b.runtime) << GetParam();
    EXPECT_EQ(a.summary.avgMsgsPerProc, b.summary.avgMsgsPerProc);
}

TEST_P(EveryApp, SlowsDownWithOverhead)
{
    RunConfig base = smallConfig(4, 0.2);
    RunConfig slow = base;
    slow.knobs.overheadUs = 52.9;
    RunResult a = runApp(GetParam(), base);
    RunResult b = runApp(GetParam(), slow);
    ASSERT_TRUE(a.ok);
    // Barnes may livelock at high overhead (the paper's result);
    // everything else must still complete, slower.
    if (GetParam() != "barnes") {
        ASSERT_TRUE(b.ok) << GetParam();
        EXPECT_GT(b.runtime, a.runtime) << GetParam();
    } else if (!b.ok) {
        SUCCEED(); // Livelock is an accepted outcome for Barnes.
        return;
    }
    EXPECT_GE(slowdown(b.runtime, a.runtime), 1.0);
}

/**
 * Run the drained point -- loss without recovery deadlocks the app, and
 * the cluster drains it -- write its fingerprint to `path`, and exit.
 * Runs only in a death-test child.
 */
[[noreturn]] void
runDrainedPoint(const std::string &app, const std::string &path)
{
    RunConfig c = smallConfig(8, 0.05);
    c.seed = 1;
    c.validate = false;
    c.knobs.dropRate = 0.02;
    c.knobs.reliable = 0;
    std::ofstream(path) << fingerprint(runApp(app, c));
    std::exit(0);
}

// A drained app unwinds on garbage (every blocking op returns at once),
// yet it must neither crash nor depend on the address layout. The
// drained point runs in two child processes -- the threadsafe death-
// test style re-executes the binary, so each child gets its own layout
// -- that must both exit cleanly with equal fingerprints.
TEST_P(EveryApp, DrainedLossyRunExitsCleanlyAndReproduces)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Relative to the working directory, which the children inherit and
    // which differs between build trees that may run this test at once.
    const std::string base = "drained_" + GetParam() + ".";
    std::string fp[2];
    for (int i = 0; i < 2; ++i) {
        const std::string path = base + std::to_string(i);
        EXPECT_EXIT(runDrainedPoint(GetParam(), path),
                    ::testing::ExitedWithCode(0), "");
        std::ifstream in(path);
        fp[i].assign(std::istreambuf_iterator<char>(in), {});
        std::remove(path.c_str());
    }
    EXPECT_EQ(fp[0].rfind("ok=0", 0), 0u) << "the point did not drain";
    EXPECT_EQ(fp[0], fp[1]);
}

INSTANTIATE_TEST_SUITE_P(Suite, EveryApp,
                         ::testing::ValuesIn(appKeys()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return n;
                         });

TEST(Apps, RegistryIsComplete)
{
    EXPECT_EQ(appKeys().size(), 10u);
    for (const auto &k : appKeys()) {
        auto app = makeApp(k);
        ASSERT_NE(app, nullptr);
        EXPECT_FALSE(app->name().empty());
    }
}

TEST(Apps, InputDescMentionsScale)
{
    auto app = makeApp("radix");
    app->setup(4, 0.25, 1);
    EXPECT_NE(app->inputDesc().find("keys"), std::string::npos);
}

TEST(Harness, KnobsApplyToParams)
{
    Knobs k;
    k.overheadUs = 52.9;
    k.latencyUs = 55.0;
    k.bulkMBps = 5.0;
    auto p = MachineConfig::berkeleyNow().params;
    k.applyTo(p);
    EXPECT_EQ(p.meanOverhead(), usec(52.9));
    EXPECT_EQ(p.totalLatency(), usec(55.0));
    EXPECT_NEAR(p.bulkMBps(), 5.0, 1e-9);
    EXPECT_EQ(p.gap, usec(5.8)); // Untouched.
}

TEST(Harness, MatrixAndSummaryPopulated)
{
    RunResult r = runApp("radix", smallConfig(4, 0.1));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.matrix.nprocs, 4);
    EXPECT_GT(r.matrix.maxCount(), 0u);
    EXPECT_GT(r.summary.msgsPerProcPerMs, 0.0);
    EXPECT_GT(r.summary.smallKBps, 0.0);
}

} // namespace
} // namespace nowcluster

namespace nowcluster {
namespace {

TEST(Apps, Em3dWriteAndReadComputeIdenticalFields)
{
    // The two EM3D variants are the same solver with different
    // communication; with the same seed they must produce bitwise
    // identical field values (both are checked against the serial
    // reference, so transitively they agree -- this verifies it
    // directly end to end).
    RunConfig c = smallConfig(4, 0.2);
    RunResult w = runApp("em3d-write", c);
    RunResult r = runApp("em3d-read", c);
    EXPECT_TRUE(w.validated);
    EXPECT_TRUE(r.validated);
    // Communication structure differs: the write variant sends no
    // read-tagged messages, the read variant is nearly all reads.
    EXPECT_EQ(w.summary.pctReads, 0.0);
    EXPECT_GT(r.summary.pctReads, 90.0);
}

TEST(Apps, RadixAndRadbSortTheSameKeysDifferently)
{
    RunConfig c = smallConfig(4, 0.2);
    RunResult a = runApp("radix", c);
    RunResult b = runApp("radb", c);
    EXPECT_TRUE(a.validated);
    EXPECT_TRUE(b.validated);
    // Radb moves its data in far fewer, bulk messages.
    EXPECT_LT(b.summary.avgMsgsPerProc, a.summary.avgMsgsPerProc / 4);
    EXPECT_GT(b.summary.pctBulk, 5.0);
    EXPECT_LT(a.summary.pctBulk, 1.0);
}

TEST(Apps, BarnesCountsLockTraffic)
{
    RunResult r = runApp("barnes", smallConfig(8, 0.25));
    ASSERT_TRUE(r.ok);
    EXPECT_GT(r.summary.lockAcquires, 0u);
}

TEST(Apps, MurphiLargerProtocolMeansMoreStates)
{
    auto small_app = makeApp("murphi");
    auto big_app = makeApp("murphi");
    small_app->setup(4, 0.5, 1); // values = 4
    big_app->setup(4, 1.5, 1);   // values = 12
    EXPECT_NE(small_app->inputDesc(), big_app->inputDesc());
}

TEST(Apps, TraceThroughHarnessSeesAppTraffic)
{
    SpanTracer trace;
    RunConfig c = smallConfig(4, 0.1);
    c.obs = &trace;
    RunResult r = runApp("em3d-write", c);
    ASSERT_TRUE(r.ok);
    // All messages of all nodes were traced.
    std::uint64_t expect = 0;
    expect = static_cast<std::uint64_t>(r.summary.avgMsgsPerProc) * 4;
    EXPECT_NEAR(static_cast<double>(trace.messages().size()),
                static_cast<double>(expect), 4.0);
    EXPECT_GT(burstFraction(trace, usec(29.0)), 0.3);
}

} // namespace
} // namespace nowcluster

// ----------------------------------------------------------------------
// Deeper per-application behaviors from Section 5.
// ----------------------------------------------------------------------

namespace nowcluster {
namespace {

TEST(AppBehavior, RadixSerializationGrowsWithProcessorCount)
{
    // Fixed total input: the histogram chain is proportional to P, so
    // overhead sensitivity must be larger on more processors (the
    // paper's Section 5.1 result, 16 vs 32 nodes).
    auto sensitivity = [](int nprocs) {
        RunConfig base = smallConfig(nprocs, 0.5);
        RunResult b = runApp("radix", base);
        RunConfig c = base;
        c.knobs.overheadUs = 52.9;
        c.validate = false;
        RunResult r = runApp("radix", c);
        return slowdown(r.runtime, b.runtime);
    };
    double s8 = sensitivity(8);
    double s16 = sensitivity(16);
    EXPECT_GT(s16, s8);
}

TEST(AppBehavior, NowSortIsBoundedBelowByDiskTime)
{
    RunConfig c = smallConfig(8, 0.5);
    RunResult r = runApp("nowsort", c);
    ASSERT_TRUE(r.ok);
    // Each processor must stream its records off a 5.5 MB/s disk and
    // back onto another: the run cannot beat one full disk pass.
    auto app = makeApp("nowsort");
    app->setup(8, 0.5, c.seed);
    // 32768*0.5/8 = 2048 records of 100 B at 5.5 MB/s.
    double bytes = 2048.0 * 100.0;
    Tick disk_pass = static_cast<Tick>(bytes / 5.5e6 * 1e9);
    EXPECT_GT(r.runtime, disk_pass);
}

TEST(AppBehavior, BarnesLockFailuresGrowWithOverhead)
{
    RunConfig base = smallConfig(8, 0.5);
    RunResult b = runApp("barnes", base);
    RunConfig c = base;
    c.knobs.overheadUs = 22.9;
    c.validate = false;
    RunResult r = runApp("barnes", c);
    ASSERT_TRUE(b.ok && r.ok);
    // Contention intensifies as lock hold times stretch.
    EXPECT_GE(r.lockFailures, b.lockFailures);
}

TEST(AppBehavior, MurphiScalesStateSpaceWithScale)
{
    RunResult small_run = runApp("murphi", smallConfig(4, 0.5));
    RunResult big_run = runApp("murphi", smallConfig(4, 1.0));
    ASSERT_TRUE(small_run.validated);
    ASSERT_TRUE(big_run.validated);
    // More protocol states => more traffic.
    EXPECT_GT(big_run.summary.avgMsgsPerProc,
              small_run.summary.avgMsgsPerProc);
}

TEST(AppBehavior, Em3dReadSendsRoughlyTwoMessagesPerRemoteEdgeVisit)
{
    RunConfig c = smallConfig(4, 0.25);
    RunResult r = runApp("em3d-read", c);
    ASSERT_TRUE(r.validated);
    // Every message is either a read request or its reply; nothing
    // else (barriers aside).
    EXPECT_GT(r.summary.pctReads, 90.0);
}

TEST(AppBehavior, SampleBucketsAreUnbalancedButBounded)
{
    RunConfig c = smallConfig(8, 0.5);
    RunResult r = runApp("sample", c);
    ASSERT_TRUE(r.validated);
    double imbalance = static_cast<double>(r.summary.maxMsgsPerProc) /
                       static_cast<double>(r.summary.avgMsgsPerProc);
    EXPECT_GT(imbalance, 1.01); // Visibly unbalanced (Figure 4d)...
    EXPECT_LT(imbalance, 3.0);  // ...but within the slack the
                                // oversampling guarantees.
}

TEST(AppBehavior, ConnectComponentCountIsScaleSensitive)
{
    // Sanity that the serial reference is doing real work: different
    // seeds give different component counts, all validated.
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        RunConfig c = smallConfig(4, 0.25);
        c.seed = seed;
        RunResult r = runApp("connect", c);
        EXPECT_TRUE(r.validated) << seed;
    }
}

} // namespace
} // namespace nowcluster
