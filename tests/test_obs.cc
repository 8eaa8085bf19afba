/**
 * @file
 * Tests for the observability subsystem (src/obs/): the metrics
 * registry, the span tracer and its zero-perturbation guarantee, the
 * Perfetto/binary exporters, the critical-path report `nowlab trace`
 * prints from the analytic LP (backend/model.hh), and the wavefront
 * analyzer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "am/cluster.hh"
#include "backend/model.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "obs/wavefront.hh"

namespace nowcluster {
namespace {

// ----------------------------------------------------------------------
// Metrics registry.
// ----------------------------------------------------------------------

TEST(Metrics, CountersAndGaugesRoundTripThroughSnapshot)
{
    MetricsRegistry reg;
    std::uint64_t &c = reg.counter("am.sent");
    c += 5;
    reg.counter("am.sent") += 2; // Same counter, by name.
    reg.gauge("window") = 8;

    MetricsSnapshot s = reg.snapshot();
    EXPECT_EQ(s.counterOr("am.sent"), 7u);
    EXPECT_EQ(s.counterOr("missing", 42), 42u);
    EXPECT_EQ(s.gauges.at("window"), 8);
}

TEST(Metrics, ProbesSumPerNameAcrossNodes)
{
    // One probe per node against the same name models per-node counter
    // structs feeding one cluster-wide total.
    MetricsRegistry reg;
    std::uint64_t a = 3, b = 4;
    reg.probe("am.received", &a);
    reg.probe("am.received", &b);
    Tick t = 100;
    reg.probe("am.stallTicks", &t);

    MetricsSnapshot s = reg.snapshot();
    EXPECT_EQ(s.counterOr("am.received"), 7u);
    EXPECT_EQ(s.counterOr("am.stallTicks"), 100u);

    a += 10; // Live pointers: a later snapshot sees the new value.
    EXPECT_EQ(reg.snapshot().counterOr("am.received"), 17u);
}

TEST(Metrics, HistogramBucketsAndMerge)
{
    Histogram h({10, 100, 1000});
    h.observe(5);
    h.observe(50);
    h.observe(500);
    h.observe(5000); // Overflow bucket.
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 5555);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);

    Histogram g({10, 100, 1000});
    g.observe(7);
    g.mergeFrom(h);
    EXPECT_EQ(g.count(), 5u);
    EXPECT_EQ(g.buckets()[0], 2u);
}

TEST(Metrics, MergeSnapshotsIsOrderIndependentForSums)
{
    // The parallel runner merges per-point snapshots in submission
    // order; totals must not depend on that order.
    MetricsRegistry r1, r2;
    r1.counter("x") = 1;
    r1.counter("y") = 10;
    r2.counter("x") = 2;
    MetricsSnapshot a = mergeSnapshots({r1.snapshot(), r2.snapshot()});
    MetricsSnapshot b = mergeSnapshots({r2.snapshot(), r1.snapshot()});
    EXPECT_EQ(a.counterOr("x"), 3u);
    EXPECT_EQ(a.counterOr("y"), 10u);
    EXPECT_EQ(a.counterOr("x"), b.counterOr("x"));
    EXPECT_EQ(a.counterOr("y"), b.counterOr("y"));
}

TEST(Metrics, RenderListsEveryName)
{
    MetricsRegistry reg;
    reg.counter("am.sent") = 3;
    reg.gauge("depth") = -2;
    std::string out = reg.snapshot().render();
    EXPECT_NE(out.find("am.sent"), std::string::npos);
    EXPECT_NE(out.find("depth"), std::string::npos);
}

// ----------------------------------------------------------------------
// Span tracer on a live cluster.
// ----------------------------------------------------------------------

/** Request/reply ping-pong, optionally traced; returns the runtime. */
Tick
pingPong(int rounds, SpanTracer *tracer)
{
    Cluster c(2, MachineConfig::berkeleyNow().params);
    if (tracer)
        c.setTracer(tracer);
    int done = c.registerHandler([](AmNode &, Packet &) {});
    int echo = c.registerHandler([done](AmNode &self, Packet &pkt) {
        self.reply(pkt, done);
    });
    bool stop = false;
    c.run([&](AmNode &n) {
        if (n.id() == 0) {
            for (int i = 0; i < rounds; ++i) {
                n.request(1, echo);
                n.pollUntil([&] {
                    return n.counters().received >=
                           static_cast<std::uint64_t>(i + 1);
                });
            }
            stop = true;
            n.oneWay(1, done);
        } else {
            n.pollUntil([&] { return stop; });
        }
    });
    return c.runtime();
}

TEST(Tracer, RecordsAllThreeTrackKindsAndOrderedMessages)
{
    SpanTracer tracer;
    pingPong(5, &tracer);

    bool seen[kNumTrackKinds] = {};
    for (const Span &s : tracer.spans()) {
        ASSERT_LE(s.begin, s.end);
        seen[static_cast<int>(s.track)] = true;
    }
    EXPECT_TRUE(seen[static_cast<int>(TrackKind::Cpu)]);
    EXPECT_TRUE(seen[static_cast<int>(TrackKind::NicTx)]);
    EXPECT_TRUE(seen[static_cast<int>(TrackKind::NicRx)]);

    // 5 requests + 5 replies + the stop one-way, each crossing the
    // wire in the run's L (no fabric to queue on).
    EXPECT_EQ(tracer.messages().size(), 11u);
    const Tick wireL = MachineConfig::berkeleyNow().params.totalLatency();
    for (const ObsMessage &m : tracer.messages()) {
        EXPECT_LE(m.issued, m.inject);
        EXPECT_LE(m.inject, m.wire);
        EXPECT_LE(m.wire, m.ready);
        EXPECT_EQ(m.ready - m.wire, wireL);
    }
}

TEST(Tracer, AttachingTheTracerDoesNotPerturbVirtualTime)
{
    SpanTracer tracer;
    EXPECT_EQ(pingPong(20, nullptr), pingPong(20, &tracer));
}

TEST(Tracer, FingerprintIdenticalWithAndWithoutTracing)
{
    // The zero-cost-when-disabled guarantee, end to end: a full
    // application run produces a byte-identical fingerprint whether or
    // not a tracer is attached.
    RunConfig plain;
    plain.nprocs = 4;
    plain.scale = 0.05;
    RunConfig traced = plain;
    SpanTracer tracer;
    traced.obs = &tracer;

    RunResult a = runApp("radix", plain);
    RunResult b = runApp("radix", traced);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    EXPECT_GT(tracer.spans().size(), 0u);
}

TEST(Tracer, ReadyTimesReachTheMessageRecordedUnderTheirId)
{
    // Sends that overlap record their messages out of id order, and a
    // handed-out id may never be recorded.
    SpanTracer t;
    const std::uint64_t a = t.newMsgId();
    const std::uint64_t b = t.newMsgId();
    const std::uint64_t c = t.newMsgId();
    ObsMessage m;
    m.src = 0;
    m.dst = 1;
    m.id = c;
    m.ready = 30;
    t.message(m);
    m.id = a;
    m.ready = 10;
    t.message(m);
    // A second record under a: the first is the one refined.
    m.ready = 50;
    t.message(m);

    t.updateMessageReady(a, 11);
    t.updateMessageReady(c, 31);
    // No message under b, and ids this tracer never handed out.
    for (std::uint64_t id : {b, c + 1, std::uint64_t{0}, ~std::uint64_t{0}})
        t.updateMessageReady(id, 99);
    ASSERT_EQ(t.messages().size(), 3u);
    EXPECT_EQ(t.messages()[0].id, c);
    EXPECT_EQ(t.messages()[0].ready, 31);
    EXPECT_EQ(t.messages()[1].id, a);
    EXPECT_EQ(t.messages()[1].ready, 11);
    EXPECT_EQ(t.messages()[2].id, a);
    EXPECT_EQ(t.messages()[2].ready, 50);

    // absorb() keeps every message, in order, including ids that
    // repeat across the tracers; the stacked tracer handed none of
    // them out, so it refines none.
    SpanTracer other;
    m.id = c;
    m.ready = 70;
    other.message(m);
    SpanTracer stacked;
    stacked.absorb(t);
    stacked.absorb(other);
    stacked.updateMessageReady(a, 99);
    stacked.updateMessageReady(c, 99);
    ASSERT_EQ(stacked.messages().size(), 4u);
    const Tick ready[] = {31, 11, 50, 70};
    const std::uint64_t ids[] = {c, a, a, c};
    for (std::size_t i = 0; i < 4; i++) {
        EXPECT_EQ(stacked.messages()[i].id, ids[i]) << i;
        EXPECT_EQ(stacked.messages()[i].ready, ready[i]) << i;
    }
}

// ----------------------------------------------------------------------
// Exporters.
// ----------------------------------------------------------------------

TEST(Export, PerfettoJsonNamesEveryTrack)
{
    SpanTracer tracer;
    pingPong(3, &tracer);
    std::string json = perfettoJson(tracer);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("node 0"), std::string::npos);
    EXPECT_NE(json.find("node 1"), std::string::npos);
    EXPECT_NE(json.find("\"cpu\""), std::string::npos);
    EXPECT_NE(json.find("\"nic-tx\""), std::string::npos);
    EXPECT_NE(json.find("\"nic-rx\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos); // Flows.
    EXPECT_NE(json.find("o_send"), std::string::npos);
    EXPECT_NE(json.find("o_recv"), std::string::npos);
}

TEST(Export, BinaryRoundTripPreservesEverything)
{
    const std::string path = "/tmp/nowcluster_obs_rt.bin";
    SpanTracer tracer;
    const Tick runtime = pingPong(4, &tracer);
    const TraceHeader header{"{\"op\":\"submit\",\"app\":\"ping\"}", runtime};
    ASSERT_TRUE(writeBinaryTrace(tracer, header, path));

    SpanTracer back;
    TraceHeader backHeader;
    ASSERT_EQ(readBinaryTrace(back, backHeader, path), "");
    EXPECT_EQ(backHeader.spec, header.spec);
    EXPECT_EQ(backHeader.runtime, runtime);
    ASSERT_EQ(back.spans().size(), tracer.spans().size());
    ASSERT_EQ(back.messages().size(), tracer.messages().size());
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
        const Span &a = tracer.spans()[i], &b = back.spans()[i];
        EXPECT_EQ(a.begin, b.begin);
        EXPECT_EQ(a.end, b.end);
        EXPECT_EQ(a.node, b.node);
        EXPECT_EQ(a.track, b.track);
        EXPECT_EQ(a.cat, b.cat);
        EXPECT_EQ(a.container, b.container);
        EXPECT_EQ(a.msg, b.msg);
    }
    for (std::size_t i = 0; i < tracer.messages().size(); ++i) {
        const ObsMessage &a = tracer.messages()[i];
        const ObsMessage &b = back.messages()[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.src, b.src);
        EXPECT_EQ(a.dst, b.dst);
        EXPECT_EQ(a.issued, b.issued);
        EXPECT_EQ(a.inject, b.inject);
        EXPECT_EQ(a.wire, b.wire);
        EXPECT_EQ(a.ready, b.ready);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.bytes, b.bytes);
    }
    std::remove(path.c_str());
}

TEST(Export, CorruptBinaryTracesAreRejected)
{
    const std::string path = "/tmp/nowcluster_obs_corrupt.bin";
    SpanTracer tracer;
    const Tick runtime = pingPong(2, &tracer);
    const std::string spec = "{\"app\":\"ping\"}";
    ASSERT_TRUE(writeBinaryTrace(tracer, {spec, runtime}, path));

    // Read the good bytes back so each corruption starts clean.
    std::ifstream f(path, std::ios::binary);
    std::string good((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    f.close();

    auto writeAndExpectReject = [&](std::string bytes, const char *why) {
        std::ofstream o(path, std::ios::binary);
        o.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
        o.close();
        SpanTracer t;
        TraceHeader h;
        EXPECT_NE(readBinaryTrace(t, h, path).find(why), std::string::npos)
            << why;
        EXPECT_TRUE(t.spans().empty());
        EXPECT_TRUE(t.messages().empty());
        EXPECT_TRUE(h.spec.empty());
    };

    writeAndExpectReject("", "not a NOWOBS02 trace");          // Empty.
    writeAndExpectReject("NOTATRACE", "not a NOWOBS02 trace"); // Magic.
    {
        // The former format, which records no run.
        std::string v1 = good;
        v1[7] = '1';
        writeAndExpectReject(v1, "a NOWOBS01 trace");
    }
    {
        // A header length one byte longer than the whole file.
        std::string bad = good;
        const std::uint32_t n = static_cast<std::uint32_t>(good.size()) - 11;
        for (std::size_t i = 0; i < 4; ++i)
            bad[8 + i] = static_cast<char>((n >> (8 * i)) & 0xff);
        writeAndExpectReject(bad, "runs past the end of the file");
    }
    writeAndExpectReject(good.substr(0, good.size() - 3), // Truncated.
                         "truncated or corrupt");
    {
        std::string bad = good;
        bad[8 + 4 + spec.size() + 7] = static_cast<char>(0x80); // Runtime.
        writeAndExpectReject(bad, "truncated or corrupt");
    }
    // Offsets: magic, spec length, spec, runtime, two counts; then
    // 31-byte spans (begin, end, node, track, ...) and messages (id
    // precedes src and dst).
    const std::size_t first_span = 8 + 4 + spec.size() + 8 + 8 + 8;
    const std::size_t first_msg = first_span + tracer.spans().size() * 31;
    {
        std::string bad = good;
        bad[first_span + 8 + 8 + 4] = 77; // First span's track byte.
        writeAndExpectReject(bad, "an unknown track");
    }
    // Negative node ids: the first span's node, then the first
    // message's src and dst.
    auto negate = [&](std::size_t at, const char *why) {
        std::string bad = good;
        for (std::size_t i = 0; i < 4; ++i)
            bad[at + i] = static_cast<char>(0xff);
        writeAndExpectReject(bad, why);
    };
    negate(first_span + 8 + 8, "a negative node id");
    negate(first_msg + 8, "a negative node id");
    negate(first_msg + 8 + 4, "a negative node id");
    std::remove(path.c_str());
}

// ----------------------------------------------------------------------
// The critical path: the analytic LP's report on a recorded trace.
// ----------------------------------------------------------------------

TEST(AnalyticReport, PingPongPathCrossesTheWireEveryRound)
{
    // What `nowlab trace` reports on: the trace lowered into the LP at
    // the run's parameters and calibrated on its runtime.
    const int kRounds = 10;
    SpanTracer tracer;
    const Tick runtime = pingPong(kRounds, &tracer);
    const LogGPParams params = MachineConfig::berkeleyNow().params;
    backend::AnalyticModel m;
    ASSERT_TRUE(m.build(tracer, params, runtime));
    const backend::AnalyticPrediction p = m.predict(params);
    ASSERT_TRUE(p.ok);

    // Serialized request/reply: every round is two wire crossings, and
    // the trailing stop message adds at most one more.
    EXPECT_GE(p.path.perL, 2 * kRounds);
    EXPECT_LE(p.path.perL, 2 * kRounds + 1);

    // The binding path's terms plus the residual are the runtime.
    const backend::LpParams x = backend::AnalyticModel::pointOf(params);
    const double terms = p.path.fixed + p.path.perL * x.L +
                         p.path.perO * x.o + p.path.perG * x.g +
                         p.path.perGb * x.Gb + m.stats().residual;
    EXPECT_NEAR(terms, static_cast<double>(runtime), 1e-5 * runtime);
    EXPECT_EQ(std::llround(p.runtime), runtime);

    // The report names every term and slope; withheld slopes give way
    // to the reason.
    const std::string text = m.report(params);
    for (const char *name : {"fixed", "perL*L", "perO*o", "perG*g",
                             "perGb*G", "residual", "dT/dL", "dT/do",
                             "dT/dg", "dT/dG"})
        EXPECT_NE(text.find(name), std::string::npos) << name;
    const std::string withheld = m.report(params, "no such rule");
    EXPECT_NE(withheld.find("residual"), std::string::npos);
    EXPECT_NE(withheld.find("no such rule"), std::string::npos);
    EXPECT_EQ(withheld.find("dT/dL"), std::string::npos);
}

// ----------------------------------------------------------------------
// Wavefront analyzer (delay propagation & decay).
// ----------------------------------------------------------------------

namespace wavefront_fixture {

/**
 * Hand-built trace pair with an exactly-known wave: node 0 is stalled
 * for 20 us at t = 0 and the disturbance reaches node 1 at 30 us and
 * node 2 at 60 us (via messages 0 -> 1 -> 2); node 3 exchanges no
 * messages and is untouched.
 */
void
buildTraces(SpanTracer &base, SpanTracer &pert)
{
    for (NodeId n = 0; n < 4; ++n)
        base.span(n, TrackKind::Cpu, SpanCat::Compute, 0, usec(100));

    pert.span(0, TrackKind::Cpu, SpanCat::Compute, usec(20), usec(120));
    pert.span(1, TrackKind::Cpu, SpanCat::Compute, 0, usec(30));
    pert.span(1, TrackKind::Cpu, SpanCat::Compute, usec(50), usec(120));
    pert.span(2, TrackKind::Cpu, SpanCat::Compute, 0, usec(60));
    pert.span(2, TrackKind::Cpu, SpanCat::Compute, usec(80), usec(120));
    pert.span(3, TrackKind::Cpu, SpanCat::Compute, 0, usec(100));

    ObsMessage m;
    m.id = 1;
    m.src = 0;
    m.dst = 1;
    base.message(m);
    m.id = 2;
    m.src = 1;
    m.dst = 2;
    base.message(m);
}

WavefrontConfig
config()
{
    WavefrontConfig wc;
    wc.delayedNode = 0;
    wc.delayAt = 0;
    wc.delayDuration = usec(20);
    wc.threshold = 0.05; // Threshold excess idle: 1 us.
    return wc;
}

} // namespace wavefront_fixture

TEST(Wavefront, ArrivalPeakAndHopsOnAKnownWave)
{
    SpanTracer base, pert;
    wavefront_fixture::buildTraces(base, pert);
    WavefrontReport rep =
        analyzeWavefront(base, pert, 4, wavefront_fixture::config());

    ASSERT_EQ(rep.nodes.size(), 4u);
    // BFS hop distances over the directed message edges 0->1->2.
    EXPECT_EQ(rep.nodes[0].hops, 0);
    EXPECT_EQ(rep.nodes[1].hops, 1);
    EXPECT_EQ(rep.nodes[2].hops, 2);
    EXPECT_EQ(rep.nodes[3].hops, -1);

    // Excess idle rises at +1 per tick from the wave's onset, so each
    // arrival is onset + threshold (1 us); the peak is the full stall.
    EXPECT_EQ(rep.nodes[0].arrival, usec(1));
    EXPECT_EQ(rep.nodes[1].arrival, usec(31));
    EXPECT_EQ(rep.nodes[2].arrival, usec(61));
    EXPECT_EQ(rep.nodes[3].arrival, -1);
    for (int n = 0; n < 3; ++n)
        EXPECT_EQ(rep.nodes[n].excessIdle, usec(20)) << "node " << n;
    EXPECT_EQ(rep.nodes[3].excessIdle, 0);

    EXPECT_EQ(rep.reached, 3);
    EXPECT_EQ(rep.decayHops, 2);
    EXPECT_EQ(rep.excessRuntime, usec(20));

    // Arrivals 1/31/61 us at hops 0/1/2: exactly one hop per 30 us.
    ASSERT_TRUE(rep.speedFinite);
    EXPECT_NEAR(rep.speedHopsPerMs, 1000.0 / 30.0, 1e-6);
}

TEST(Wavefront, ExcessIdleIsThePeakNotTheFinalValue)
{
    // Both runs do the same total work, so E(t) returns to ~0 by run
    // end; a final-value analyzer would report nothing reached.
    SpanTracer base, pert;
    wavefront_fixture::buildTraces(base, pert);
    WavefrontReport rep =
        analyzeWavefront(base, pert, 4, wavefront_fixture::config());
    for (int n = 0; n < 3; ++n)
        EXPECT_GT(rep.nodes[n].excessIdle, 0) << "node " << n;
}

TEST(Wavefront, RenderIsByteStable)
{
    SpanTracer base, pert;
    wavefront_fixture::buildTraces(base, pert);
    WavefrontConfig wc = wavefront_fixture::config();
    std::string a = analyzeWavefront(base, pert, 4, wc).render();
    std::string b = analyzeWavefront(base, pert, 4, wc).render();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("decay distance"), std::string::npos);
    EXPECT_NE(a.find("hops/ms"), std::string::npos);
}

TEST(Wavefront, IdenticalTracesReportNothingReached)
{
    SpanTracer base, pert;
    for (NodeId n = 0; n < 4; ++n) {
        base.span(n, TrackKind::Cpu, SpanCat::Compute, 0, usec(100));
        pert.span(n, TrackKind::Cpu, SpanCat::Compute, 0, usec(100));
    }
    WavefrontReport rep =
        analyzeWavefront(base, pert, 4, wavefront_fixture::config());
    EXPECT_EQ(rep.reached, 0);
    EXPECT_EQ(rep.decayHops, -1);
    EXPECT_FALSE(rep.speedFinite);
    EXPECT_EQ(rep.excessRuntime, 0);
}

TEST(Wavefront, ExportSynthesizesIdleWaveSpansWhereExcessAccrues)
{
    SpanTracer base, pert, out;
    wavefront_fixture::buildTraces(base, pert);
    exportIdleWave(base, pert, 4, out);

    // Exactly one wave span per disturbed node, covering the interval
    // where the perturbed run idled while the baseline computed.
    ASSERT_EQ(out.spans().size(), 3u);
    for (const Span &s : out.spans()) {
        EXPECT_EQ(s.cat, SpanCat::IdleWave);
        EXPECT_EQ(s.track, TrackKind::Cpu);
    }
    EXPECT_EQ(out.spans()[0].node, 0);
    EXPECT_EQ(out.spans()[0].begin, 0);
    EXPECT_EQ(out.spans()[0].end, usec(20));
    EXPECT_EQ(out.spans()[1].node, 1);
    EXPECT_EQ(out.spans()[1].begin, usec(30));
    EXPECT_EQ(out.spans()[1].end, usec(50));
    EXPECT_EQ(out.spans()[2].node, 2);
    EXPECT_EQ(out.spans()[2].begin, usec(60));
    EXPECT_EQ(out.spans()[2].end, usec(80));

    // The synthesized spans must not feed back into a second analysis.
    SpanTracer stacked;
    stacked.absorb(pert);
    exportIdleWave(base, pert, 4, stacked);
    WavefrontReport again =
        analyzeWavefront(base, stacked, 4, wavefront_fixture::config());
    EXPECT_EQ(again.reached, 3);
    EXPECT_EQ(again.nodes[1].arrival, usec(31));
}

// ----------------------------------------------------------------------
// Exporter robustness: malformed span timestamps.
// ----------------------------------------------------------------------

TEST(Export, MalformedSpanDurationsAreClampedNotEmitted)
{
    // Only Retransmit records may be zero length, and a trace file
    // (readBinaryTrace trusts timestamps) can carry end < begin; both
    // must clamp to instant events -- a negative "dur" makes Perfetto
    // reject the whole document.
    SpanTracer t;
    t.span(0, TrackKind::Cpu, SpanCat::Retransmit, usec(10), usec(4));
    t.span(0, TrackKind::Cpu, SpanCat::Retransmit, usec(7), usec(7));
    t.span(0, TrackKind::Cpu, SpanCat::Compute, usec(1), usec(3));
    ASSERT_EQ(t.spans().size(), 3u);

    std::string json = perfettoJson(t);
    EXPECT_EQ(json.find("\"dur\":-"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

} // namespace
} // namespace nowcluster
