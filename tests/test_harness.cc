/**
 * @file
 * Unit tests for the experiment harness: knob application, run
 * configuration defaults, and result bookkeeping.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/experiment.hh"
#include "harness/runner.hh"

namespace nowcluster {
namespace {

TEST(Knobs, DefaultsLeaveParamsUntouched)
{
    Knobs k;
    auto p = MachineConfig::berkeleyNow().params;
    auto q = p;
    k.applyTo(q);
    EXPECT_EQ(q.addedO, p.addedO);
    EXPECT_EQ(q.gap, p.gap);
    EXPECT_EQ(q.addedL, p.addedL);
    EXPECT_DOUBLE_EQ(q.gPerByte, p.gPerByte);
    EXPECT_EQ(q.occupancy, 0);
    EXPECT_EQ(q.window, p.window);
    EXPECT_FALSE(q.topo);
}

TEST(Knobs, EveryKnobLandsInItsField)
{
    Knobs k;
    k.overheadUs = 12.9;
    k.gapUs = 30;
    k.latencyUs = 55;
    k.bulkMBps = 10;
    k.occupancyUs = 7;
    k.window = 4;
    k.topo = 1;
    k.topoHosts = 8;
    k.topoLinkMBps = 80;
    k.topoOversub = 2;
    k.topoHopUs = 1.5;
    auto p = MachineConfig::berkeleyNow().params;
    k.applyTo(p);
    EXPECT_EQ(p.meanOverhead(), usec(12.9));
    EXPECT_EQ(p.gap, usec(30));
    EXPECT_EQ(p.totalLatency(), usec(55));
    EXPECT_NEAR(p.bulkMBps(), 10.0, 1e-9);
    EXPECT_EQ(p.occupancy, usec(7));
    EXPECT_EQ(p.window, 4);
    EXPECT_TRUE(p.topo);
    EXPECT_EQ(p.topoHostsPerLeaf, 8);
    EXPECT_DOUBLE_EQ(p.topoLinkMBps, 80.0);
    EXPECT_DOUBLE_EQ(p.topoOversub, 2.0);
    EXPECT_EQ(p.topoHopLatency, usec(1.5));
}

TEST(Harness, EnvConfigParsesAndRejectsGarbage)
{
    ::setenv("NOW_SCALE", "2.5", 1);
    ::setenv("NOW_JOBS", "4", 1);
    EnvConfig c = parseEnvConfig();
    EXPECT_TRUE(c.scaleSet);
    EXPECT_DOUBLE_EQ(c.scale, 2.5);
    EXPECT_EQ(c.jobs, 4);

    ::setenv("NOW_SCALE", "-3", 1);
    ::setenv("NOW_JOBS", "-2", 1);
    c = parseEnvConfig();
    EXPECT_FALSE(c.scaleSet);
    EXPECT_DOUBLE_EQ(c.scale, 1.0);
    EXPECT_EQ(c.jobs, 0);

    ::setenv("NOW_SCALE", "bogus", 1);
    c = parseEnvConfig();
    EXPECT_FALSE(c.scaleSet);
    EXPECT_DOUBLE_EQ(c.scale, 1.0);

    ::unsetenv("NOW_SCALE");
    ::unsetenv("NOW_JOBS");
    c = parseEnvConfig();
    EXPECT_FALSE(c.scaleSet);
    EXPECT_DOUBLE_EQ(c.scale, 1.0);
    EXPECT_EQ(c.jobs, 0);
}

TEST(Harness, EnvConfigIsReadOnceAndCached)
{
    // Worker threads must never race on getenv: the cached snapshot is
    // taken on first use and later environment changes are invisible.
    const EnvConfig &first = envConfig();
    double scale0 = envScale();
    int jobs0 = envJobs();
    ::setenv("NOW_SCALE", "7.5", 1);
    ::setenv("NOW_JOBS", "99", 1);
    EXPECT_DOUBLE_EQ(envScale(), scale0);
    EXPECT_EQ(envJobs(), jobs0);
    EXPECT_EQ(&envConfig(), &first);
    ::unsetenv("NOW_SCALE");
    ::unsetenv("NOW_JOBS");
}

TEST(Harness, RunResultCarriesEverything)
{
    RunConfig c;
    c.nprocs = 4;
    c.scale = 0.1;
    RunResult r = runApp("radix", c);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.runtime, 0);
    EXPECT_EQ(r.summary.nprocs, 4);
    EXPECT_EQ(r.matrix.nprocs, 4);
    EXPECT_GE(r.maxMsgsPerProc, r.summary.avgMsgsPerProc);
}

TEST(Harness, ValidateFlagSkipsValidation)
{
    RunConfig c;
    c.nprocs = 2;
    c.scale = 0.1;
    c.validate = false;
    RunResult r = runApp("radix", c);
    EXPECT_TRUE(r.ok);
    // validated mirrors ok when validation is skipped.
    EXPECT_TRUE(r.validated);
}

TEST(Harness, TimedOutRunIsFlagged)
{
    RunConfig c;
    c.nprocs = 2;
    c.scale = 0.1;
    c.maxTime = usec(10); // Nothing finishes in 10 us.
    RunResult r = runApp("radix", c);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.validated);
}

TEST(Harness, MachineConfigSelectsParams)
{
    RunConfig c;
    c.nprocs = 4;
    c.scale = 0.1;
    c.machine = MachineConfig::intelParagon();
    RunResult paragon = runApp("radb", c);
    c.machine = MachineConfig::berkeleyNow();
    RunResult now = runApp("radb", c);
    ASSERT_TRUE(paragon.ok && now.ok);
    // Radb is bulk-heavy: the Paragon's 141 MB/s should win.
    EXPECT_LT(paragon.runtime, now.runtime);
}

TEST(Harness, UnrunnableAllreducePinRunsLikeTuned)
{
    // The word all-reduce cannot run rabenseifner (vector-only), so
    // the pin falls back to the model's pick -- the same run as
    // "tuned" -- instead of aborting the process.
    RunConfig c;
    c.nprocs = 4;
    c.scale = 0.05;
    c.knobs.collAlg = "allreduce=rabenseifner";
    RunResult pinned = runApp("radix", c);
    c.knobs.collAlg = "tuned";
    RunResult tuned = runApp("radix", c);
    ASSERT_TRUE(pinned.ok);
    EXPECT_TRUE(pinned.validated);
    EXPECT_EQ(fingerprint(pinned), fingerprint(tuned));
}

} // namespace
} // namespace nowcluster
