/**
 * @file
 * Tests for the experiment-backend subsystem (src/backend/): the LP
 * longest-path solver and its closed-form gradients, backend selection
 * and the ExperimentBackend contract, and -- the acceptance criterion
 * of the subsystem -- analytic-vs-simulated agreement on runtime and
 * dT/dL slope across an L x o grid for radix and em3d-read.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "backend/backend.hh"
#include "backend/lp.hh"
#include "backend/model.hh"
#include "harness/runner.hh"
#include "svc/spec.hh"

namespace nowcluster {
namespace {

using backend::AnalyticBackend;
using backend::AnalyticPrediction;
using backend::BackendKind;
using backend::BackendOptions;
using backend::CacheBackend;
using backend::ExperimentBackend;
using backend::LinCost;
using backend::LpDag;
using backend::LpParams;
using backend::LpSolution;
using backend::SimBackend;

// ----------------------------------------------------------------------
// The LP solver.
// ----------------------------------------------------------------------

TEST(Lp, LinCostEvaluatesLinearlyAndClampsAtZero)
{
    LinCost c;
    c.fixed = 10;
    c.perL = 2;
    c.perO = 1;
    EXPECT_DOUBLE_EQ(c.eval({0, 0, 0, 0}), 10);
    EXPECT_DOUBLE_EQ(c.eval({5, 3, 0, 0}), 23);
    c.fixed = -100;
    EXPECT_DOUBLE_EQ(c.eval({5, 3, 0, 0}), 0); // Never negative.
}

TEST(Lp, EmptyDagSolvesToZero)
{
    LpDag d;
    ASSERT_TRUE(d.prepare());
    LpSolution s = d.solve({});
    EXPECT_TRUE(s.ok);
    EXPECT_DOUBLE_EQ(s.makespan, 0);
}

TEST(Lp, ChainGradientCountsWireCrossings)
{
    // a -> b -> c, each edge one wire crossing plus fixed time: the
    // makespan slope against L is exactly the crossing count.
    LpDag d;
    int a = d.addNode(), b = d.addNode(), c = d.addNode();
    LinCost hop;
    hop.fixed = 3;
    hop.perL = 1;
    d.addEdge(a, b, hop);
    d.addEdge(b, c, hop);
    ASSERT_TRUE(d.prepare());
    LpSolution s = d.solve({10, 0, 0, 0});
    EXPECT_TRUE(s.ok);
    EXPECT_DOUBLE_EQ(s.makespan, 2 * (3 + 10));
    EXPECT_DOUBLE_EQ(s.gradient.perL, 2);
    EXPECT_EQ(s.pathEdges, 2u);
}

TEST(Lp, CriticalPathSwitchesWithTheOperatingPoint)
{
    // Diamond: one arm costs L, the other a constant 100. Below the
    // crossover the constant arm binds (dT/dL = 0); above it the wire
    // arm binds (dT/dL = 1). This is the mechanism behind every
    // "tolerant until L exceeds the computation it overlaps" curve.
    LpDag d;
    int src = d.addNode(), wire = d.addNode(), comp = d.addNode(),
        sink = d.addNode();
    LinCost viaWire, viaComp, tail;
    viaWire.perL = 1;
    viaComp.fixed = 100;
    d.addEdge(src, wire, viaWire);
    d.addEdge(src, comp, viaComp);
    d.addEdge(wire, sink, tail);
    d.addEdge(comp, sink, tail);
    ASSERT_TRUE(d.prepare());

    LpSolution cheap = d.solve({10, 0, 0, 0});
    EXPECT_DOUBLE_EQ(cheap.makespan, 100);
    EXPECT_DOUBLE_EQ(cheap.gradient.perL, 0);

    LpSolution dear = d.solve({500, 0, 0, 0});
    EXPECT_DOUBLE_EQ(dear.makespan, 500);
    EXPECT_DOUBLE_EQ(dear.gradient.perL, 1);
}

TEST(Lp, VirtualSourceAnchorsAndCyclesAreRejected)
{
    LpDag d;
    int a = d.addNode();
    LinCost at50;
    at50.fixed = 50;
    d.addEdge(LpDag::kSource, a, at50);
    ASSERT_TRUE(d.prepare());
    EXPECT_DOUBLE_EQ(d.solve({}).makespan, 50);

    LpDag cyc;
    int x = cyc.addNode(), y = cyc.addNode();
    cyc.addEdge(x, y, at50);
    cyc.addEdge(y, x, at50);
    EXPECT_FALSE(cyc.prepare());
}

// ----------------------------------------------------------------------
// Backend selection.
// ----------------------------------------------------------------------

TEST(Backend, KindNamesParseAndRoundTrip)
{
    BackendKind k;
    ASSERT_TRUE(backend::parseBackendKind("sim", k));
    EXPECT_EQ(k, BackendKind::kSim);
    ASSERT_TRUE(backend::parseBackendKind("analytic", k));
    EXPECT_EQ(k, BackendKind::kAnalytic);
    ASSERT_TRUE(backend::parseBackendKind("cache", k));
    EXPECT_EQ(k, BackendKind::kCache);
    EXPECT_FALSE(backend::parseBackendKind("quantum", k));
    EXPECT_STREQ(backend::backendKindName(BackendKind::kAnalytic),
                 "analytic");

    std::string err;
    ASSERT_TRUE(backend::resolveBackendKind("", k, err));
    EXPECT_EQ(k, BackendKind::kSim); // Default (no NOW_BACKEND here).
    EXPECT_FALSE(backend::resolveBackendKind("bogus", k, err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
}

TEST(Backend, FactoryConstructsEveryKind)
{
    for (BackendKind k : {BackendKind::kSim, BackendKind::kAnalytic,
                          BackendKind::kCache}) {
        auto b = backend::makeBackend(k);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(b->kind(), k);
    }
}

// ----------------------------------------------------------------------
// Sim and cache backends honor the common contract.
// ----------------------------------------------------------------------

RunPoint
smallPoint(const std::string &app)
{
    RunPoint pt;
    pt.app = app;
    pt.config.nprocs = 4;
    pt.config.scale = 0.1;
    pt.config.validate = false;
    return pt;
}

TEST(Backend, SimBackendMatchesTheHarnessByteForByte)
{
    RunPoint pt = smallPoint("radix");
    SimBackend sim;
    EXPECT_EQ(sim.canServe(pt), "");
    RunResult via_backend = sim.run(pt);
    RunResult direct = runApp(pt.app, pt.config);
    ASSERT_TRUE(via_backend.ok);
    EXPECT_EQ(fingerprint(via_backend), fingerprint(direct));
}

/** Toy in-memory RunCache keyed by canonical spec. */
class MapCache : public RunCache
{
  public:
    bool
    lookup(const RunPoint &pt, RunResult &out) override
    {
        auto it = map_.find(svc::cacheKey(pt));
        if (it == map_.end())
            return false;
        out = it->second;
        return true;
    }
    void
    insert(const RunPoint &pt, const RunResult &r) override
    {
        map_[svc::cacheKey(pt)] = r;
    }

  private:
    std::map<std::string, RunResult> map_;
};

TEST(Backend, CacheBackendServesOnlyWhatWasStored)
{
    MapCache cache;
    CacheBackend be(&cache);
    RunPoint pt = smallPoint("radix");
    EXPECT_EQ(be.canServe(pt), "spec not in cache");
    EXPECT_FALSE(be.run(pt).ok);

    RunResult r = runApp(pt.app, pt.config);
    ASSERT_TRUE(r.ok);
    cache.insert(pt, r);
    EXPECT_EQ(be.canServe(pt), "");
    EXPECT_EQ(fingerprint(be.run(pt)), fingerprint(r));

    CacheBackend none(nullptr);
    EXPECT_EQ(none.canServe(pt), "no result cache installed");
    EXPECT_FALSE(none.run(pt).ok);
}

// ----------------------------------------------------------------------
// The analytic backend.
// ----------------------------------------------------------------------

TEST(Analytic, RefusesWhatTheModelCannotRetime)
{
    AnalyticBackend be;
    RunPoint faulty = smallPoint("radix");
    faulty.config.knobs.dropRate = 0.01;
    EXPECT_NE(be.canServe(faulty), "");
    EXPECT_FALSE(be.run(faulty).ok);

    RunPoint rel = smallPoint("radix");
    rel.config.knobs.reliable = 1;
    EXPECT_NE(be.canServe(rel), "");

    RunPoint traced = smallPoint("radix");
    SpanTracer tracer;
    traced.config.obs = &tracer;
    EXPECT_NE(be.canServe(traced), "");
}

TEST(Analytic, ExactAtItsOwnBasePointAndMarkedModelDerived)
{
    BackendOptions opts;
    opts.validateModels = false; // Mechanics only; no probe run here.
    AnalyticBackend be(opts);
    RunPoint pt = smallPoint("radix");
    EXPECT_FALSE(be.ready(pt));

    RunResult sim = runApp(pt.app, pt.config);
    ASSERT_TRUE(sim.ok);
    RunResult ana = be.run(pt);
    ASSERT_TRUE(ana.ok);
    EXPECT_TRUE(be.ready(pt));

    // Residual calibration: at the traced operating point the model
    // reproduces the measured runtime exactly.
    EXPECT_EQ(ana.runtime, sim.runtime);
    // Model-derived results are never "validated" and ran no events.
    EXPECT_FALSE(ana.validated);
    EXPECT_EQ(ana.simEvents, 0u);
    // The base run's communication measurements ride along.
    EXPECT_EQ(ana.summary.avgMsgsPerProc, sim.summary.avgMsgsPerProc);
    EXPECT_EQ(ana.maxMsgsPerProc, sim.maxMsgsPerProc);
}

TEST(Analytic, PredictionsRespectTheRunBudget)
{
    BackendOptions opts;
    opts.validateModels = false;
    AnalyticBackend be(opts);
    RunPoint pt = smallPoint("radix");
    RunResult ok = be.run(pt);
    ASSERT_TRUE(ok.ok);

    // Same model, absurd budget: the predicted time exceeds it and
    // the point reports failed exactly as a simulated timeout would.
    RunPoint tight = pt;
    tight.config.maxTime = 1;
    RunResult over = be.run(tight);
    EXPECT_FALSE(over.ok);
    EXPECT_GT(over.runtime, tight.config.maxTime);
}

/**
 * The acceptance grid: for one app, sweep L x o, answer every point
 * with both engines, and require <= 10% runtime error plus agreement
 * on the latency-sensitivity slope.
 */
void
checkAgreement(const std::string &app, AnalyticBackend &be,
               double *dtdl_out)
{
    const double kLs[] = {5.0, 25.0, 55.0};
    const double kOs[] = {2.9, 8.0};
    for (double l : kLs) {
        for (double o : kOs) {
            RunPoint pt = smallPoint(app);
            pt.config.knobs.latencyUs = l;
            pt.config.knobs.overheadUs = o;
            ASSERT_EQ(be.canServe(pt), "") << app;
            RunResult sim = runApp(pt.app, pt.config);
            RunResult ana = be.run(pt);
            ASSERT_TRUE(sim.ok) << app;
            ASSERT_TRUE(ana.ok) << app;
            const double err =
                std::fabs(static_cast<double>(ana.runtime) -
                          static_cast<double>(sim.runtime)) /
                static_cast<double>(sim.runtime);
            EXPECT_LE(err, 0.10)
                << app << " at L=" << l << "us o=" << o << "us: sim "
                << sim.runtime << " analytic " << ana.runtime;
        }
    }

    // Slope agreement: the analytic dT/dL between the grid's latency
    // endpoints must match the simulated finite difference in sign,
    // and in magnitude within the same 10% runtime budget scaled by
    // the latency step.
    auto at = [&](double l) {
        RunPoint pt = smallPoint(app);
        pt.config.knobs.latencyUs = l;
        return pt;
    };
    RunResult s1 = runApp(app, at(5.0).config);
    RunResult s2 = runApp(app, at(55.0).config);
    RunResult a1 = be.run(at(5.0));
    RunResult a2 = be.run(at(55.0));
    ASSERT_TRUE(s1.ok && s2.ok && a1.ok && a2.ok) << app;
    const double dl = static_cast<double>(usec(50.0));
    const double measured =
        static_cast<double>(s2.runtime - s1.runtime) / dl;
    const double analytic =
        static_cast<double>(a2.runtime - a1.runtime) / dl;
    EXPECT_GE(analytic, 0.0) << app;
    EXPECT_GE(measured, 0.0) << app;
    const double bound =
        0.10 * static_cast<double>(s2.runtime) / dl;
    EXPECT_NEAR(analytic, measured, bound) << app;

    AnalyticPrediction pred = be.predict(at(55.0));
    ASSERT_TRUE(pred.ok) << app;
    EXPECT_GE(pred.dTdL, 0.0) << app;
    if (dtdl_out)
        *dtdl_out = pred.dTdL;
}

TEST(Analytic, AgreesWithSimAcrossTheGridForRadixAndEm3dRead)
{
    AnalyticBackend be; // Probe validation on: the real configuration.
    double radix_dtdl = 0, em3d_dtdl = 0;
    checkAgreement("radix", be, &radix_dtdl);
    checkAgreement("em3d-read", be, &em3d_dtdl);

    // The model must order the apps the way the paper (and the
    // critpath analyzer) does: read round trips are latency bound,
    // write-based radix much less so.
    EXPECT_GT(em3d_dtdl, radix_dtdl);
}

// ----------------------------------------------------------------------
// Cache keys (v5 onwards): analytic and simulated results never alias,
// and delay-injected points never alias clean ones.
// ----------------------------------------------------------------------

TEST(Spec, V5KeysSeparateBackendOrigins)
{
    EXPECT_EQ(svc::codeFingerprint(), "nowcluster-sim-v7");
    RunPoint sim_pt = smallPoint("radix");
    RunPoint ana_pt = sim_pt;
    ana_pt.config.origin = 1;
    EXPECT_NE(svc::canonicalSpec(sim_pt), svc::canonicalSpec(ana_pt));
    EXPECT_NE(svc::cacheKey(sim_pt), svc::cacheKey(ana_pt));
    EXPECT_EQ(svc::validateSpec(ana_pt), "");
    ana_pt.config.origin = 7;
    EXPECT_NE(svc::validateSpec(ana_pt), "");
}

TEST(Spec, V5KeysSeparateDelayInjectedPoints)
{
    RunPoint clean = smallPoint("radix");
    RunPoint delayed = clean;
    delayed.config.knobs.delayNode = 1;
    delayed.config.knobs.delayAtUs = 100;
    delayed.config.knobs.delayUs = 500;
    EXPECT_NE(svc::cacheKey(clean), svc::cacheKey(delayed));
    EXPECT_EQ(svc::validateSpec(delayed), "");

    // Out-of-range node and non-positive duration are spec errors.
    delayed.config.knobs.delayNode = 4096;
    EXPECT_NE(svc::validateSpec(delayed), "");
    delayed.config.knobs.delayNode = 1;
    delayed.config.knobs.delayUs = 0;
    EXPECT_NE(svc::validateSpec(delayed), "");
}

} // namespace
} // namespace nowcluster
