/**
 * @file
 * Tests for trace replay, which answers what-if questions by lowering
 * a recorded span trace into the analytic backend's LP
 * (backend::AnalyticModel) at the parameters it was recorded under,
 * calibrated on the recorded runtime: exactness on the recorded
 * machine, sensitivity of replayed traces to the knobs, the NOWOBS02
 * round trip the CLI uses (its header names the run), the paper's
 * latency-bound app replayed from a file, and hostile traces that must
 * be refused or answered with a finite runtime.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "backend/model.hh"
#include "harness/experiment.hh"
#include "net/packet.hh"
#include "obs/export.hh"
#include "svc/json.hh"
#include "svc/service.hh"

namespace nowcluster {
namespace {

using backend::AnalyticModel;
using backend::AnalyticPrediction;

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

/** What `nowlab replay` builds: the trace lowered at the parameters it
 *  was recorded under and calibrated on the recorded runtime. */
AnalyticModel
lower(const SpanTracer &trace, const LogGPParams &recorded, Tick runtime)
{
    AnalyticModel m;
    EXPECT_TRUE(m.build(trace, recorded, runtime));
    return m;
}

Tick
replayedRuntime(const AnalyticModel &m, const LogGPParams &target)
{
    return std::llround(m.runtime(target).value_or(-1));
}

/** Write `trace` as NOWOBS02 under `header` and read it back, as the
 *  CLI does; the header must come back unchanged. */
SpanTracer
throughFile(const SpanTracer &trace, const TraceHeader &header,
            const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    EXPECT_TRUE(writeBinaryTrace(trace, header, path));
    SpanTracer loaded;
    TraceHeader back;
    EXPECT_EQ(readBinaryTrace(loaded, back, path), "");
    EXPECT_EQ(back.spec, header.spec);
    EXPECT_EQ(back.runtime, header.runtime);
    std::remove(path.c_str());
    return loaded;
}

TEST(Replay, SameParametersReproduceTheRuntimeShape)
{
    auto [trace, r] = capture("em3d-write", 4, 0.2);
    ASSERT_TRUE(r.ok);
    // The trace's last tick is the run's measured runtime, and the LP
    // calibrated on it reproduces it to the tick.
    EXPECT_EQ(trace.lastTick(), r.runtime);
    auto params = MachineConfig::berkeleyNow().params;
    AnalyticModel m = lower(trace, params, r.runtime);
    EXPECT_EQ(replayedRuntime(m, params), r.runtime);
}

TEST(Replay, KnobsStretchReplayedTraces)
{
    auto [trace, r] = capture("radix", 4, 0.15);
    ASSERT_TRUE(r.ok);
    auto base = MachineConfig::berkeleyNow().params;
    AnalyticModel m = lower(trace, base, r.runtime);

    auto slow_params = base;
    slow_params.setDesiredGapUsec(55.0);
    EXPECT_GT(replayedRuntime(m, slow_params), replayedRuntime(m, base));
    EXPECT_GT(m.slopes(slow_params).dTdG, 0.0);
}

TEST(Replay, BinaryRoundTripFeedsReplay)
{
    auto [trace, r] = capture("em3d-write", 4, 0.15);
    ASSERT_TRUE(r.ok);
    SpanTracer loaded =
        throughFile(trace, {"", r.runtime}, "nowcluster_replay_test.obs");
    EXPECT_EQ(loaded.messages().size(), trace.messages().size());

    // The file carries everything the lowering reads: the models built
    // in memory and from disk predict byte-equal answers.
    auto params = MachineConfig::berkeleyNow().params;
    AnalyticModel a = lower(trace, params, r.runtime);
    AnalyticModel b = lower(loaded, params, r.runtime);
    EXPECT_EQ(a.stats().lpEdges, b.stats().lpEdges);
    auto target = params;
    target.setDesiredOverheadUsec(12.9);
    target.setDesiredLatencyUsec(30.0);
    auto answer = [&](const AnalyticModel &m) {
        const AnalyticPrediction p = m.predict(target);
        const backend::AnalyticSlopes s = m.slopes(target);
        EXPECT_TRUE(p.ok && s.ok);
        return std::vector<double>{
            p.runtime, p.path.fixed, p.path.perL, p.path.perO,
            p.path.perG, p.path.perGb, static_cast<double>(p.pathEdges),
            s.dTdL, s.dTdO, s.dTdG, s.dTdGb};
    };
    const std::vector<double> want = answer(a), got = answer(b);
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << "field " << i;
}

TEST(Replay, EmptyTraceIsHarmless)
{
    SpanTracer empty;
    auto params = MachineConfig::berkeleyNow().params;
    AnalyticModel m;
    EXPECT_FALSE(m.build(empty, params, empty.lastTick()));
    EXPECT_FALSE(m.predict(params).ok);
    EXPECT_FALSE(m.runtime(params).has_value());
}

// The paper's latency-bound app: every remote read is a round trip the
// CPU waits on, so L = 80 us stretches it ~7x. A replay that turns
// those waits into fixed think time reads 1.01x here.
TEST(Replay, LatencyBoundAppFromAFileTracksTheSimulator)
{
    auto [trace, r] = capture("em3d-read", 8, 0.1);
    ASSERT_TRUE(r.ok);
    SpanTracer loaded =
        throughFile(trace, {"", r.runtime}, "nowcluster_replay_em3d.obs");
    auto params = MachineConfig::berkeleyNow().params;
    AnalyticModel m = lower(loaded, params, r.runtime);

    RunConfig c;
    c.nprocs = 8;
    c.scale = 0.1;
    c.knobs.latencyUs = 80;
    RunResult sim = runApp("em3d-read", c);
    ASSERT_TRUE(sim.ok);
    LogGPParams target = params;
    c.knobs.applyTo(target);
    const double err =
        std::fabs(static_cast<double>(replayedRuntime(m, target)) -
                  static_cast<double>(sim.runtime)) /
        static_cast<double>(sim.runtime);
    EXPECT_LE(err, 0.10) << "sim " << sim.runtime << " replay "
                         << replayedRuntime(m, target);
    EXPECT_GT(sim.runtime, 5 * r.runtime);
}

// At a traced point many paths tie, and the dual there is whichever of
// them binds first. One tick up a knob, the path that binds is the one
// that grows with it: the one-sided slope is the LP runtime's own
// finite difference over that tick.
TEST(Replay, OneSidedSlopesAreTheRuntimesOneTickDifference)
{
    auto [trace, r] = capture("em3d-read", 8, 0.1);
    ASSERT_TRUE(r.ok);
    const LogGPParams base = MachineConfig::berkeleyNow().params;
    const AnalyticModel m = lower(trace, base, r.runtime);
    const backend::AnalyticSlopes s = m.slopes(base);
    ASSERT_TRUE(s.ok);
    for (auto [slope, knob] : {std::pair{s.dTdL, &LogGPParams::latency},
                               {s.dTdO, &LogGPParams::addedO},
                               {s.dTdG, &LogGPParams::gap}}) {
        LogGPParams up = base;
        up.*knob += 1;
        EXPECT_GT(slope, 0);
        // Equal up to the float rounding of the LP's edge weights.
        EXPECT_NEAR(slope, *m.runtime(up) - *m.runtime(base), 1e-6 * slope);
    }
    // The dual at the point undercounts o: 1905 overhead phases against
    // the 2219 the runtime grows by.
    EXPECT_GT(s.dTdO, m.predict(base).path.perO);
}

// The header names the run, so a file off the NOW baseline lowers at
// the parameters it was recorded under, read back as nowlabd reads a
// submit request. Calibrated on the recorded runtime, the LP gives that
// runtime to the tick, although the trace's last span (a NIC gap after
// the final send) ends after the run.
TEST(Replay, AFileOffTheBaselineReplaysItsOwnRuntime)
{
    RunPoint pt;
    pt.app = "em3d-read";
    pt.config.nprocs = 8;
    pt.config.scale = 0.1;
    pt.config.knobs.gapUs = 30;
    pt.config.knobs.overheadUs = 12.9;
    SpanTracer trace;
    pt.config.obs = &trace;
    RunResult r = runApp(pt.app, pt.config);
    ASSERT_TRUE(r.ok);
    EXPECT_GT(trace.lastTick(), r.runtime);
    const TraceHeader header{svc::submitRequest(pt), r.runtime};
    SpanTracer loaded =
        throughFile(trace, header, "nowcluster_replay_offbase.obs");

    svc::JsonValue req;
    ASSERT_TRUE(svc::parseJson(header.spec, req));
    const RunPoint recordedPt = svc::pointOfRequest(req);
    ASSERT_EQ(svc::submitComplaint(req, recordedPt), "");
    LogGPParams recorded = recordedPt.config.machine.params;
    recordedPt.config.knobs.applyTo(recorded);
    const AnalyticModel m = lower(loaded, recorded, header.runtime);
    EXPECT_EQ(replayedRuntime(m, recorded), r.runtime);
}

/** Span and message builders for hand-made traces. */
void
cpuSpan(SpanTracer &t, NodeId node, SpanCat cat, Tick b, Tick e,
        std::uint64_t msg = 0)
{
    t.span(node, TrackKind::Cpu, cat, b, e, msg);
}

void
flight(SpanTracer &t, std::uint64_t id, NodeId src, NodeId dst,
       Tick issued, Tick ready)
{
    ObsMessage m;
    m.id = id;
    m.src = src;
    m.dst = dst;
    m.issued = issued;
    m.inject = issued;
    m.wire = issued;
    m.ready = ready;
    m.kind = static_cast<std::uint8_t>(PacketKind::OneWay);
    m.bytes = 32;
    t.message(m);
}

TEST(Replay, SingleSpanTraceIsFixedTimePlusResidual)
{
    // No message edges at all: the path is the span's 5 us of fixed
    // time, no wire crossing, and the idle 2 us before it is the
    // residual.
    SpanTracer t;
    cpuSpan(t, 0, SpanCat::Compute, usec(2), usec(7));
    const auto params = MachineConfig::berkeleyNow().params;
    const AnalyticModel m = lower(t, params, t.lastTick());
    const AnalyticPrediction p = m.predict(params);
    ASSERT_TRUE(p.ok);
    EXPECT_EQ(p.path.fixed, usec(5));
    EXPECT_EQ(p.path.perL, 0);
    EXPECT_EQ(m.stats().residual, usec(2));
    EXPECT_EQ(p.runtime, usec(7));
}

// Replay reads files from outside the program. Whatever a NOWOBS02
// file that passes readBinaryTrace holds, the lowering either refuses
// it or answers with a finite runtime: the LP keys nodes by id, so no
// node id indexes an array.
TEST(Replay, HostileTracesAreRefusedOrFinite)
{
    constexpr NodeId kFar = std::numeric_limits<NodeId>::max();
    constexpr Tick kHuge = Tick{1} << 62;
    std::vector<std::pair<const char *, SpanTracer>> cases;
    auto add = [&](const char *name) -> SpanTracer & {
        cases.emplace_back(name, SpanTracer{});
        return cases.back().second;
    };

    {
        SpanTracer &t = add("far node ids");
        cpuSpan(t, 0, SpanCat::OSend, 0, 100, 1);
        cpuSpan(t, kFar, SpanCat::ORecv, 200, 300, 1);
        flight(t, 1, 0, kFar, 100, 150);
    }
    {
        SpanTracer &t = add("dangling message ids");
        cpuSpan(t, 1, SpanCat::OSend, 0, 100, 7);   // no record for 7
        cpuSpan(t, 2, SpanCat::ORecv, 50, 90, 9);   // no record for 9
        flight(t, 42, 3, 4, 10, 20);                // no spans for 42
        flight(t, 43, kFar, 0, 10, 20);
        cpuSpan(t, 0, SpanCat::ORecv, 20, 30, 43);  // spanless sender
    }
    {
        // Container spans label waits; without leaf CPU spans there is
        // nothing to lower.
        SpanTracer &t = add("container spans only");
        t.containerSpan(0, SpanCat::BarrierWait, 0, 100);
    }
    {
        SpanTracer &t = add("timestamps near 2^62");
        cpuSpan(t, 0, SpanCat::Compute, 0, kHuge);
        cpuSpan(t, 0, SpanCat::OSend, kHuge, kHuge + 100, 1);
        cpuSpan(t, 1, SpanCat::ORecv, kHuge + 500, kHuge + 600, 1);
        flight(t, 1, 0, 1, kHuge + 100, kHuge + 400);
    }
    {
        // A retransmission's marker, and its message id flying twice.
        SpanTracer &t = add("a retransmitted flight");
        cpuSpan(t, 0, SpanCat::OSend, 0, 100, 1);
        cpuSpan(t, 1, SpanCat::ORecv, 300, 400, 1);
        flight(t, 1, 0, 1, 100, 200);
        flight(t, 1, 0, 1, 250, 300);
        t.span(0, TrackKind::NicTx, SpanCat::Retransmit, 250, 250, 1);
    }
    {
        // Each node receives (binding: the CPU is idle until it lands)
        // before it sends what the other one receives: a cycle.
        SpanTracer &t = add("a dependency cycle");
        cpuSpan(t, 0, SpanCat::ORecv, 10, 20, 2);
        cpuSpan(t, 0, SpanCat::OSend, 30, 40, 1);
        cpuSpan(t, 1, SpanCat::ORecv, 10, 20, 1);
        cpuSpan(t, 1, SpanCat::OSend, 30, 40, 2);
        flight(t, 1, 0, 1, 40, 10);
        flight(t, 2, 1, 0, 40, 10);
    }

    auto params = MachineConfig::berkeleyNow().params;
    auto target = params;
    target.setDesiredLatencyUsec(80.0);
    target.setDesiredGapUsec(30.0);
    std::vector<std::string> refused;
    for (auto &[name, t] : cases) {
        SpanTracer loaded = throughFile(t, {"", t.lastTick()},
                                        "nowcluster_replay_hostile.obs");
        AnalyticModel m;
        if (!m.build(loaded, params, loaded.lastTick())) {
            refused.push_back(name);
            EXPECT_FALSE(m.predict(target).ok) << name;
            continue;
        }
        const AnalyticPrediction p = m.predict(target);
        ASSERT_TRUE(p.ok) << name;
        EXPECT_TRUE(std::isfinite(p.runtime)) << name;
        EXPECT_GE(p.runtime, 0.0) << name;
        EXPECT_EQ(m.runtime(target).value_or(-1), p.runtime) << name;
    }
    // Only the container spans and the cycle cannot lower; `nowlab
    // replay` refuses a retransmitting run by its header before it
    // builds.
    EXPECT_EQ(refused, (std::vector<std::string>{"container spans only",
                                                 "a dependency cycle"}));
}

} // namespace
} // namespace nowcluster
