/**
 * @file
 * Tests for the experiment-backend subsystem (src/backend/): the LP
 * longest-path solver and its closed-form gradients, the analytic
 * backend's refusals and calibration, and -- the acceptance criterion
 * of the subsystem -- analytic-vs-simulated agreement on runtime and
 * dT/dL slope across an L x o grid for radix and em3d-read. An oracle
 * (the solver's former two-pass kernel) pins every solve byte for
 * byte, another (the former hash-map lowering) pins the lowering, and
 * concurrent serving must match a serial run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>

#include "backend/backend.hh"
#include "backend/lp.hh"
#include "backend/model.hh"
#include "harness/runner.hh"
#include "obs/export.hh"
#include "svc/spec.hh"

namespace nowcluster {
namespace {

using backend::AnalyticBackend;
using backend::AnalyticModel;
using backend::AnalyticPrediction;
using backend::AnalyticSlopes;
using backend::BackendOptions;
using backend::LinCost;
using backend::LpDag;
using backend::LpParams;
using backend::LpSolution;
using backend::ModelBuildStats;

// ----------------------------------------------------------------------
// The LP solver.
// ----------------------------------------------------------------------

/** One edge's weight as the solver evaluates it: the makespan of a
 *  one-edge DAG anchored at the virtual source. */
double
edgeWeight(const LinCost &c, const LpParams &p)
{
    LpDag d;
    d.addEdge(LpDag::kSource, d.addNode(), c);
    EXPECT_TRUE(d.prepare());
    return d.solve(p).makespan;
}

TEST(Lp, LinCostEvaluatesLinearlyAndClampsAtZero)
{
    LinCost c;
    c.fixed = 10;
    c.perL = 2;
    c.perO = 1;
    EXPECT_DOUBLE_EQ(edgeWeight(c, {0, 0, 0, 0}), 10);
    EXPECT_DOUBLE_EQ(edgeWeight(c, {5, 3, 0, 0}), 23);
    c.fixed = -100;
    EXPECT_DOUBLE_EQ(edgeWeight(c, {5, 3, 0, 0}), 0); // Never negative.
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

TEST(Lp, EdgesRoundTripExactly)
{
    // Costs no float holds (2^24 + 1, a tenth, a third), a negative
    // zero, some edges anchored at the source: edges() gives back the
    // list as added, bit for bit and in order, after prepare() too.
    LpDag d;
    const int a = d.addNode(), b = d.addNode(), c = d.addNode();
    LinCost big, tenth, third, negZero;
    big.fixed = 16777217;
    big.perL = 1;
    tenth.fixed = -0.5;
    tenth.perG = 0.1;
    third.perO = 2;
    third.perGb = 1.0 / 3;
    negZero.fixed = 1;
    negZero.perL = -0.0;
    const std::vector<LpDag::Edge> added = {
        {LpDag::kSource, a, big}, {a, b, tenth},  {LpDag::kSource, c, third},
        {b, c, big},              {a, c, tenth},  {LpDag::kSource, b, negZero},
        {b, c, third}};
    for (const LpDag::Edge &e : added)
        d.addEdge(e.src, e.dst, e.cost);
    ASSERT_TRUE(d.prepare());
    const std::vector<LpDag::Edge> got = d.edges();
    ASSERT_EQ(got.size(), added.size());
    auto bits = [](const LinCost &c) {
        return std::array<std::uint64_t, 5>{
            std::bit_cast<std::uint64_t>(c.fixed),
            std::bit_cast<std::uint64_t>(c.perL),
            std::bit_cast<std::uint64_t>(c.perO),
            std::bit_cast<std::uint64_t>(c.perG),
            std::bit_cast<std::uint64_t>(c.perGb)};
    };
    for (std::size_t i = 0; i < added.size(); i++) {
        EXPECT_EQ(got[i].src, added[i].src) << i;
        EXPECT_EQ(got[i].dst, added[i].dst) << i;
        EXPECT_EQ(bits(got[i].cost), bits(added[i].cost)) << i;
    }
}

// ----------------------------------------------------------------------
// The analytic backend.
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

    // Fat-tree contention is fixed edge time in the LP: only the
    // traced L/o/g/G is served.
    RunPoint tree = smallPoint("radix");
    tree.config.knobs.topo = 1;
    tree.config.knobs.topoOversub = 4;
    tree.config.knobs.topoHosts = 4;
    EXPECT_EQ(be.canServe(tree), "");
    tree.config.knobs.gapUs = 30;
    EXPECT_NE(be.canServe(tree).find("fat-tree contention"),
              std::string::npos);
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

    const AnalyticSlopes slope = be.slopes(at(55.0));
    ASSERT_TRUE(slope.ok) << app;
    EXPECT_GE(slope.dTdL, 0.0) << app;
    if (dtdl_out)
        *dtdl_out = slope.dTdL;
}

TEST(Analytic, AgreesWithSimAcrossTheGridForRadixAndEm3dRead)
{
    AnalyticBackend be; // Probe validation on: the real configuration.
    double radix_dtdl = 0, em3d_dtdl = 0;
    checkAgreement("radix", be, &radix_dtdl);
    checkAgreement("em3d-read", be, &em3d_dtdl);

    // The model must order the apps the way the paper does: read
    // round trips are latency bound, write-based radix much less so.
    EXPECT_GT(em3d_dtdl, radix_dtdl);
}

// ----------------------------------------------------------------------
// Bit identity: the two-input slot solver against the two-pass kernel
// it replaced, and the served runtime under concurrency.
// ----------------------------------------------------------------------

/**
 * The oracle: LpDag's former prepare/solve, kept here as the reference
 * implementation. Kahn order; in-edges laid out in visit order as a CSR
 * with five float coefficient arrays; one pass evaluates every edge
 * weight, a second propagates longest-path distances in double, and
 * the binding path is walked back from the first node that reaches the
 * makespan.
 */
class ReferenceLp
{
  public:
    explicit ReferenceLp(const LpDag &dag)
    {
        const std::vector<LpDag::Edge> &edges = dag.edges();
        const std::size_t n = dag.nodeCount();
        std::vector<int> indeg(n, 0);
        for (const LpDag::Edge &e : edges)
            if (e.src != LpDag::kSource)
                indeg[e.dst]++;
        std::vector<int> topo, frontier;
        for (int v = 0; v < static_cast<int>(n); v++)
            if (indeg[v] == 0)
                frontier.push_back(v);
        std::vector<std::vector<int>> out(n);
        for (const LpDag::Edge &e : edges)
            if (e.src != LpDag::kSource)
                out[e.src].push_back(e.dst);
        while (!frontier.empty()) {
            int v = frontier.back();
            frontier.pop_back();
            topo.push_back(v);
            for (int w : out[v])
                if (--indeg[w] == 0)
                    frontier.push_back(w);
        }
        EXPECT_EQ(topo.size(), n) << "the oracle needs a DAG";
        n_ = topo.size();

        std::vector<int> count(n, 0);
        for (const LpDag::Edge &e : edges)
            count[e.dst]++;
        off_.assign(n_ + 1, 0);
        for (std::size_t k = 0; k < n_; k++)
            off_[k + 1] = off_[k] + count[topo[k]];
        std::vector<int> pos(n, 0);
        for (std::size_t k = 0; k < n_; k++)
            pos[topo[k]] = static_cast<int>(k);
        std::vector<int> slot(off_.begin(), off_.end() - 1);
        const std::size_t m = edges.size();
        src_.assign(m, 0);
        fx_.assign(m, 0);
        l_.assign(m, 0);
        o_.assign(m, 0);
        g_.assign(m, 0);
        gb_.assign(m, 0);
        for (const LpDag::Edge &e : edges) {
            const int at = slot[pos[e.dst]]++;
            src_[at] = e.src == LpDag::kSource ? LpDag::kSource
                                               : pos[e.src];
            fx_[at] = static_cast<float>(e.cost.fixed);
            l_[at] = static_cast<float>(e.cost.perL);
            o_[at] = static_cast<float>(e.cost.perO);
            g_[at] = static_cast<float>(e.cost.perG);
            gb_[at] = static_cast<float>(e.cost.perGb);
        }
    }

    LpSolution
    solve(const LpParams &params) const
    {
        LpSolution sol;
        sol.ok = true;
        if (n_ == 0)
            return sol;
        const std::size_t m = src_.size();
        std::vector<float> w(m);
        const float pL = static_cast<float>(params.L);
        const float pO = static_cast<float>(params.o);
        const float pG = static_cast<float>(params.g);
        const float pGb = static_cast<float>(params.Gb);
        for (std::size_t s = 0; s < m; s++) {
            float v = fx_[s] + l_[s] * pL + o_[s] * pO + g_[s] * pG +
                      gb_[s] * pGb;
            w[s] = v > 0 ? v : 0;
        }
        std::vector<double> dist(n_);
        std::vector<int> pred(n_);
        int argmax = -1;
        double maxDist = -1.0;
        for (std::size_t k = 0; k < n_; k++) {
            double best = 0.0;
            int bestSlot = -1;
            for (int s = off_[k]; s < off_[k + 1]; s++) {
                const int src = src_[s];
                const double d =
                    (src == LpDag::kSource ? 0.0 : dist[src]) + w[s];
                if (d > best) {
                    best = d;
                    bestSlot = s;
                }
            }
            dist[k] = best;
            pred[k] = bestSlot;
            if (best > maxDist) {
                maxDist = best;
                argmax = static_cast<int>(k);
            }
        }
        sol.makespan = maxDist;
        for (int v = argmax; v >= 0 && pred[v] >= 0;) {
            const int s = pred[v];
            if (w[s] > 0) {
                sol.gradient.fixed += fx_[s];
                sol.gradient.perL += l_[s];
                sol.gradient.perO += o_[s];
                sol.gradient.perG += g_[s];
                sol.gradient.perGb += gb_[s];
            }
            sol.pathEdges++;
            v = src_[s];
        }
        return sol;
    }

  private:
    std::size_t n_ = 0;
    std::vector<int> off_, src_;
    std::vector<float> fx_, l_, o_, g_, gb_;
};

std::string
hexOf(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** "" when both of the solver's paths answer `p` byte for byte as the
 *  oracle does (makespan, every gradient field, pathEdges), else the
 *  first difference. */
std::string
mismatch(const LpDag &dag, const ReferenceLp &ref, const LpParams &p)
{
    const LpSolution want = ref.solve(p);
    const LpSolution got = dag.solve(p);
    const std::optional<double> alone = dag.makespan(p);
    if (!got.ok || !alone)
        return "not solved";
    const std::pair<const char *, std::pair<double, double>> fields[] = {
        {"makespan", {got.makespan, want.makespan}},
        {"makespan-only", {*alone, want.makespan}},
        {"gradient.fixed", {got.gradient.fixed, want.gradient.fixed}},
        {"gradient.perL", {got.gradient.perL, want.gradient.perL}},
        {"gradient.perO", {got.gradient.perO, want.gradient.perO}},
        {"gradient.perG", {got.gradient.perG, want.gradient.perG}},
        {"gradient.perGb", {got.gradient.perGb, want.gradient.perGb}},
    };
    for (const auto &[name, v] : fields)
        if (std::bit_cast<std::uint64_t>(v.first) !=
            std::bit_cast<std::uint64_t>(v.second))
            return std::string(name) + " " + hexOf(v.first) +
                   " != " + hexOf(v.second);
    if (got.pathEdges != want.pathEdges)
        return "pathEdges " + std::to_string(got.pathEdges) +
               " != " + std::to_string(want.pathEdges);
    return "";
}

/** Operating points with integer-valued terms (so equal-weight paths
 *  tie), the zero point, and one with fractional terms. */
const LpParams kOraclePoints[] = {
    {0, 0, 0, 0}, {1, 0, 0, 0},  {3, 2, 1, 0.5},
    {0, 5, 0, 2}, {10, 1, 2, 0}, {7.3, 2.9, 5.8, 0.013},
};

/**
 * A seeded random DAG with the shapes traced models take and some they
 * avoid: node ids shuffled against a hidden topological order, edges
 * added in random order, anchors at kSource, nodes without in-edges,
 * nodes with up to 8 in-edges plus a `sinkIn`-way sink, negative fixed
 * costs (clamped at small parameters), and small integer coefficients
 * so that paths tie. In a sink wider than 16, every other in-edge adds
 * a fraction to its fixed cost, so half of them tie. `distinct` gives
 * every edge its own cost.
 */
LpDag
randomDag(std::uint64_t seed, int nodes, bool distinct = false,
          std::uint64_t sinkIn = 16)
{
    std::mt19937_64 rng(seed);
    auto pick = [&](std::uint64_t n) { return rng() % n; };
    std::vector<int> order(static_cast<std::size_t>(nodes));
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; i--)
        std::swap(order[i - 1], order[pick(i)]);
    std::vector<LpDag::Edge> edges;
    for (int r = 0; r < nodes; r++) {
        const std::uint64_t roll = pick(20);
        std::uint64_t indeg = roll < 3    ? 0
                              : roll < 10 ? 1
                              : roll < 16 ? 2
                                          : 3 + pick(6);
        const bool wide = r == nodes - 1 && sinkIn > 16;
        if (r == nodes - 1)
            indeg = sinkIn;
        for (std::uint64_t i = 0; i < indeg; i++) {
            LinCost c;
            c.fixed = static_cast<double>(pick(11)) - 4;
            if (wide && i % 2 == 1)
                c.fixed += static_cast<double>(1 + pick(7)) / 8;
            c.perL = static_cast<double>(pick(3));
            c.perO = static_cast<double>(pick(3));
            c.perG = static_cast<double>(pick(2));
            c.perGb = 0.5 * static_cast<double>(pick(4));
            const int src = r == 0 || pick(8) == 0
                                ? LpDag::kSource
                                : order[pick(static_cast<std::uint64_t>(r))];
            edges.push_back({src, order[r], c});
        }
    }
    for (std::size_t i = edges.size(); i > 1; i--)
        std::swap(edges[i - 1], edges[pick(i)]);
    LpDag d;
    for (int v = 0; v < nodes; v++)
        d.addNode();
    for (std::size_t i = 0; i < edges.size(); i++) {
        if (distinct)
            edges[i].cost.perGb = 0.25 * static_cast<double>(i);
        d.addEdge(edges[i].src, edges[i].dst, edges[i].cost);
    }
    EXPECT_TRUE(d.prepare());
    return d;
}

TEST(LpOracle, RandomDagsMatchTheTwoPassKernel)
{
    for (std::uint64_t seed = 1; seed <= 40; seed++) {
        const int nodes = 1 + static_cast<int>(seed * 37 % 500);
        const LpDag dag = randomDag(seed, nodes);
        const ReferenceLp ref(dag);
        for (const LpParams &p : kOraclePoints)
            EXPECT_EQ(mismatch(dag, ref, p), "")
                << "seed " << seed << ", L=" << p.L << " o=" << p.o
                << " g=" << p.g << " G=" << p.Gb;
    }
    // A join as wide as a 256-proc flat-NOW model's sink (two in-edges
    // per proc), which the solver folds into 511 slots of partial maxima.
    const LpDag wide = randomDag(41, 600, false, 512);
    const ReferenceLp ref(wide);
    for (const LpParams &p : kOraclePoints)
        EXPECT_EQ(mismatch(wide, ref, p), "")
            << "512-way sink, L=" << p.L << " o=" << p.o << " g=" << p.g
            << " G=" << p.Gb;
}

TEST(LpOracle, TiedNodesBindInTheOneAtATimeOrder)
{
    // Nodes 0 and 1 start ready; 1 -> 2. One ready node at a time, the
    // stack visits 1, then 2, then 0; taking ready nodes in batches,
    // the solver lays out 1 and 0 side by side, then 2. At L = o = 1
    // the unordered nodes 0 and 2 both reach the makespan, 2, along
    // paths that share no coefficient, so the gradient shows which one
    // the dual walked back from: 2, the first in the one-at-a-time
    // order, as the oracle does.
    LpDag dag;
    for (int v = 0; v < 3; v++)
        dag.addNode();
    LinCost wire, fixed, overhead;
    wire.fixed = 1;
    wire.perL = 1;
    fixed.fixed = 1;
    overhead.perO = 1;
    dag.addEdge(LpDag::kSource, 0, wire);
    dag.addEdge(LpDag::kSource, 1, fixed);
    dag.addEdge(1, 2, overhead);
    ASSERT_TRUE(dag.prepare());
    const ReferenceLp ref(dag);
    const LpParams tie{1, 1, 0, 0};
    const LpSolution got = dag.solve(tie);
    EXPECT_EQ(got.makespan, 2);
    EXPECT_EQ(got.gradient.perO, 1);
    EXPECT_EQ(got.gradient.perL, 0);
    EXPECT_EQ(got.pathEdges, 2u);
    EXPECT_EQ(mismatch(dag, ref, tie), "");
    for (const LpParams &p : kOraclePoints)
        EXPECT_EQ(mismatch(dag, ref, p), "")
            << "L=" << p.L << " o=" << p.o << " g=" << p.g
            << " G=" << p.Gb;
}

TEST(LpOracle, TupleIndexCoversMoreThan65536Tuples)
{
    const LpDag dag = randomDag(99, 40000, true);
    ASSERT_GT(dag.edgeCount(), 65536u); // One cost per edge.
    const ReferenceLp ref(dag);
    for (const LpParams &p : kOraclePoints)
        EXPECT_EQ(mismatch(dag, ref, p), "")
            << "L=" << p.L << " o=" << p.o << " g=" << p.g
            << " G=" << p.Gb;
}

TEST(LpOracle, AlternatingDagSizesOnOneThread)
{
    // The solver's per-thread scratch outlives each solve: a larger
    // DAG leaves stale distances and binding entries behind for a
    // smaller one to trip over, and vice versa.
    LpDag anchored;
    LinCost at50;
    at50.fixed = 50;
    anchored.addEdge(LpDag::kSource, anchored.addNode(), at50);
    ASSERT_TRUE(anchored.prepare());
    LpDag empty;
    ASSERT_TRUE(empty.prepare());
    const LpDag big = randomDag(7, 6000);
    const LpDag small = randomDag(8, 12);
    const LpDag *dags[] = {&big, &small, &anchored, &big, &empty,
                           &small, &big, &anchored};
    for (int round = 0; round < 2; round++) {
        for (const LpDag *dag : dags) {
            const ReferenceLp ref(*dag);
            for (const LpParams &p : kOraclePoints)
                EXPECT_EQ(mismatch(*dag, ref, p), "")
                    << dag->nodeCount() << " nodes, L=" << p.L;
        }
    }
}

TEST(LpOracle, TracedModelsMatchOverAnLxOxGGrid)
{
    for (const char *app : {"radix", "em3d-read", "sample"}) {
        RunPoint pt = smallPoint(app);
        LogGPParams base = pt.config.machine.params;
        pt.config.knobs.applyTo(base);
        SpanTracer tracer;
        pt.config.obs = &tracer;
        const RunResult traced = runApp(pt.app, pt.config);
        ASSERT_TRUE(traced.ok) << app;
        AnalyticModel model;
        ASSERT_TRUE(model.build(tracer, base, traced.runtime)) << app;
        const ReferenceLp ref(model.dag());
        for (double l : {5.0, 15.0, 55.0, 105.0}) {
            for (double o : {2.9, 7.9, 52.9}) {
                for (double g : {5.8, 30.0, 105.0}) {
                    Knobs k;
                    k.latencyUs = l;
                    k.overheadUs = o;
                    k.gapUs = g;
                    LogGPParams p = pt.config.machine.params;
                    k.applyTo(p);
                    EXPECT_EQ(mismatch(model.dag(), ref,
                                       AnalyticModel::pointOf(p)),
                              "")
                        << app << " at L=" << l << " o=" << o
                        << " g=" << g;
                    // The model's two entry points give one runtime.
                    const std::optional<double> rt = model.runtime(p);
                    ASSERT_TRUE(rt.has_value()) << app;
                    EXPECT_EQ(hexOf(*rt), hexOf(model.predict(p).runtime))
                        << app << " at L=" << l << " o=" << o
                        << " g=" << g;
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// The lowering.
// ----------------------------------------------------------------------

/**
 * The lowering's oracle: AnalyticModel::build's former body, kept here
 * as the reference implementation. It groups spans and messages
 * through hash maps keyed by node id, span index and message id, and
 * so numbers the LP's nodes in hash-table iteration order where the
 * model numbers them by ascending node id: the two DAGs compare as
 * edge multisets, and their solves byte for byte. runtime(), predict()
 * and slopes() evaluate its DAG as AnalyticModel's do.
 */
class ReferenceLowering
{
  public:
    ReferenceLowering(const SpanTracer &tracer, const LogGPParams &base,
                      Tick measuredRuntime)
        : base_(base)
    {
        ok_ = build(tracer, measuredRuntime);
    }

    bool ok() const { return ok_; }
    const LpDag &dag() const { return dag_; }
    const ModelBuildStats &stats() const { return stats_; }

    std::optional<double>
    runtime(const LogGPParams &target) const
    {
        std::optional<double> m =
            dag_.makespan(AnalyticModel::pointOf(target));
        if (!m)
            return std::nullopt;
        return calibrated(*m);
    }

    AnalyticPrediction
    predict(const LogGPParams &target) const
    {
        AnalyticPrediction p;
        const LpSolution sol = dag_.solve(AnalyticModel::pointOf(target));
        p.ok = sol.ok;
        p.runtime = calibrated(sol.makespan);
        p.path = sol.gradient;
        p.pathEdges = sol.pathEdges;
        return p;
    }

    AnalyticSlopes
    slopes(const LogGPParams &at) const
    {
        // A fat-tree model withholds them (backend::fatTreeRefusal).
        if (base_.topo)
            return {};
        const LpParams point = AnalyticModel::pointOf(at);
        auto up = [&](double LpParams::*knob, double step) {
            LpParams p = point;
            p.*knob += step;
            return dag_.solve(p).gradient;
        };
        AnalyticSlopes s;
        s.dTdL = up(&LpParams::L, 1).perL;
        s.dTdO = up(&LpParams::o, 1).perO;
        s.dTdG = up(&LpParams::g, 1).perG;
        s.dTdGb = up(&LpParams::Gb, 1e-3).perGb;
        s.ok = true;
        return s;
    }

  private:
    double
    calibrated(double makespan) const
    {
        const double t = makespan + residual_;
        return t < 0 ? 0 : t;
    }

    LinCost
    spanCost(const Span &s) const
    {
        LinCost c;
        const double dur = static_cast<double>(s.end - s.begin);
        switch (s.cat) {
          case SpanCat::OSend:
          case SpanCat::ORecv:
            c.fixed = dur - static_cast<double>(base_.addedO);
            c.perO = 1;
            break;
          case SpanCat::GapStall:
            if (base_.gap > 0)
                c.perG = dur / static_cast<double>(base_.gap);
            else
                c.fixed = dur;
            break;
          case SpanCat::GStall:
            if (base_.gPerByte > 0)
                c.perGb = dur / base_.gPerByte;
            else
                c.fixed = dur;
            break;
          default:
            c.fixed = dur;
            break;
        }
        return c;
    }

    bool
    build(const SpanTracer &tracer, Tick measuredRuntime)
    {
        const std::vector<Span> &spans = tracer.spans();
        std::unordered_map<NodeId, std::vector<std::size_t>> timeline;
        for (std::size_t i = 0; i < spans.size(); i++) {
            const Span &s = spans[i];
            if (s.container || s.track != TrackKind::Cpu)
                continue;
            if (s.end <= s.begin)
                continue;
            timeline[s.node].push_back(i);
        }
        if (timeline.empty())
            return false;
        for (auto &[node, idxs] : timeline) {
            std::sort(idxs.begin(), idxs.end(),
                      [&](std::size_t a, std::size_t b) {
                          if (spans[a].begin != spans[b].begin)
                              return spans[a].begin < spans[b].begin;
                          return spans[a].end < spans[b].end;
                      });
            stats_.cpuSpans += idxs.size();
        }

        std::unordered_map<std::uint64_t, std::size_t> sendSpan, recvSpan;
        std::unordered_map<std::size_t, Tick> prevEnd;
        for (auto &[node, idxs] : timeline) {
            for (std::size_t k = 0; k < idxs.size(); k++) {
                const std::size_t i = idxs[k];
                const Span &s = spans[i];
                prevEnd[i] = k > 0 ? spans[idxs[k - 1]].end : 0;
                if (s.msg == 0)
                    continue;
                if (s.cat == SpanCat::OSend)
                    sendSpan.emplace(s.msg, i);
                else if (s.cat == SpanCat::ORecv) {
                    auto [it, fresh] = recvSpan.emplace(s.msg, i);
                    if (!fresh && s.begin < spans[it->second].begin)
                        it->second = i;
                }
            }
        }

        const std::vector<ObsMessage> &msgs = tracer.messages();
        std::vector<char> needNode(spans.size(), 0);
        std::vector<std::ptrdiff_t> anchorOf(msgs.size(), -1);
        std::vector<char> bindingOf(msgs.size(), 0);
        for (std::size_t mi = 0; mi < msgs.size(); mi++) {
            const ObsMessage &m = msgs[mi];
            auto su = sendSpan.find(m.id);
            if (su != sendSpan.end()) {
                needNode[su->second] = 1;
            } else {
                auto tl = timeline.find(m.src);
                if (tl != timeline.end()) {
                    const std::vector<std::size_t> &idxs = tl->second;
                    for (std::size_t k = idxs.size(); k-- > 0;) {
                        if (spans[idxs[k]].end <= m.issued) {
                            anchorOf[mi] =
                                static_cast<std::ptrdiff_t>(idxs[k]);
                            needNode[idxs[k]] = 1;
                            break;
                        }
                    }
                }
            }
            auto rv = recvSpan.find(m.id);
            if (rv != recvSpan.end() && m.ready >= prevEnd[rv->second]) {
                bindingOf[mi] = 1;
                needNode[rv->second] = 1;
            }
        }

        std::vector<int> lpOf(spans.size(), -1);
        const int sink = dag_.addNode();
        for (auto &[node, idxs] : timeline) {
            int prev = LpDag::kSource;
            LinCost acc;
            for (std::size_t i : idxs) {
                if (needNode[i]) {
                    lpOf[i] = dag_.addNode();
                    if (prev != LpDag::kSource || acc.fixed > 0 ||
                        acc.perO > 0 || acc.perG > 0 || acc.perGb > 0)
                        dag_.addEdge(prev, lpOf[i], acc);
                    prev = lpOf[i];
                    acc = spanCost(spans[i]);
                } else {
                    acc += spanCost(spans[i]);
                }
            }
            dag_.addEdge(prev, sink, acc);
        }

        std::vector<int> injNode(msgs.size(), -1);
        std::unordered_map<NodeId, std::vector<std::size_t>> bySrc;
        for (std::size_t i = 0; i < msgs.size(); i++)
            bySrc[msgs[i].src].push_back(i);
        for (auto &[src, order] : bySrc) {
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          if (msgs[a].inject != msgs[b].inject)
                              return msgs[a].inject < msgs[b].inject;
                          return msgs[a].id < msgs[b].id;
                      });
            for (std::size_t k = 0; k < order.size(); k++) {
                injNode[order[k]] = dag_.addNode();
                if (k == 0)
                    continue;
                const ObsMessage &prev = msgs[order[k - 1]];
                LinCost occ;
                occ.perG = 1;
                if (base_.gPerByte > 0)
                    occ.perGb =
                        static_cast<double>(prev.wire - prev.inject) /
                        base_.gPerByte;
                dag_.addEdge(injNode[order[k - 1]], injNode[order[k]],
                             occ);
            }
        }

        std::vector<LinCost> sinkCost(msgs.size());
        std::vector<char> sinkBound(msgs.size(), 0);
        for (std::size_t mi = 0; mi < msgs.size(); mi++) {
            const ObsMessage &m = msgs[mi];
            auto su = sendSpan.find(m.id);
            if (su != sendSpan.end()) {
                dag_.addEdge(lpOf[su->second], injNode[mi],
                             spanCost(spans[su->second]));
            } else if (anchorOf[mi] >= 0) {
                const Span &a = spans[static_cast<std::size_t>(
                    anchorOf[mi])];
                LinCost c = spanCost(a);
                c.fixed += static_cast<double>(m.issued - a.end);
                dag_.addEdge(
                    lpOf[static_cast<std::size_t>(anchorOf[mi])],
                    injNode[mi], c);
            } else {
                LinCost c;
                c.fixed = static_cast<double>(m.issued);
                dag_.addEdge(LpDag::kSource, injNode[mi], c);
            }

            LinCost flight;
            const double serial = static_cast<double>(m.wire - m.inject);
            if (base_.gPerByte > 0)
                flight.perGb = serial / base_.gPerByte;
            else
                flight.fixed += serial;
            flight.perL = 1;
            flight.fixed += static_cast<double>(m.ready - m.wire) -
                            static_cast<double>(base_.totalLatency());

            auto rv = recvSpan.find(m.id);
            if (rv == recvSpan.end()) {
                sinkCost[mi] = flight;
                sinkBound[mi] = 1;
                stats_.messagesUnlinked++;
                continue;
            }
            if (bindingOf[mi]) {
                dag_.addEdge(injNode[mi], lpOf[rv->second], flight);
            } else {
                LinCost c = flight;
                c += spanCost(spans[rv->second]);
                sinkCost[mi] = c;
                sinkBound[mi] = 1;
            }
            stats_.messagesLinked++;
        }

        auto dominated = [](const LinCost &a, const LinCost &b) {
            return a.fixed <= b.fixed && a.perL <= b.perL &&
                   a.perO <= b.perO && a.perG <= b.perG &&
                   a.perGb <= b.perGb;
        };
        for (auto &[src, order] : bySrc) {
            LinCost toKept;
            bool haveKept = false;
            for (std::size_t k = order.size(); k-- > 0;) {
                const std::size_t mi = order[k];
                if (sinkBound[mi]) {
                    if (haveKept && dominated(sinkCost[mi], toKept)) {
                        // Dropped: the chain successor's join covers it.
                    } else {
                        dag_.addEdge(injNode[mi], sink, sinkCost[mi]);
                        toKept = sinkCost[mi];
                        haveKept = true;
                    }
                }
                if (k > 0 && haveKept) {
                    const ObsMessage &prev = msgs[order[k - 1]];
                    toKept.perG += 1;
                    if (base_.gPerByte > 0)
                        toKept.perGb +=
                            static_cast<double>(prev.wire - prev.inject) /
                            base_.gPerByte;
                }
            }
        }

        stats_.lpNodes = dag_.nodeCount();
        stats_.lpEdges = dag_.edgeCount();
        if (!dag_.prepare())
            return false;
        std::optional<double> atBase =
            dag_.makespan(AnalyticModel::pointOf(base_));
        if (!atBase)
            return false;
        residual_ = static_cast<double>(measuredRuntime) - *atBase;
        stats_.residual = residual_;
        return true;
    }

    LogGPParams base_;
    LpDag dag_;
    ModelBuildStats stats_;
    double residual_ = 0;
    bool ok_ = false;
};

std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** A DAG up to node numbering: per edge, whether it leaves kSource and
 *  the bit patterns of its five costs, sorted. */
std::vector<std::array<std::uint64_t, 6>>
edgeMultiset(const LpDag &dag)
{
    std::vector<std::array<std::uint64_t, 6>> out;
    for (const LpDag::Edge &e : dag.edges())
        out.push_back({e.src == LpDag::kSource, bitsOf(e.cost.fixed),
                       bitsOf(e.cost.perL), bitsOf(e.cost.perO),
                       bitsOf(e.cost.perG), bitsOf(e.cost.perGb)});
    std::sort(out.begin(), out.end());
    return out;
}

/** `base` moved to the LP coordinates `p` times `unit`, rounded to
 *  whole ticks (G is kept exactly). */
LogGPParams
paramsAt(const LogGPParams &base, const LpParams &p, double unit)
{
    LogGPParams q = base;
    q.latency = std::llround(p.L * unit);
    q.addedL = 0;
    q.addedO = std::llround(p.o * unit);
    q.gap = std::llround(p.g * unit);
    q.gPerByte = p.Gb;
    return q;
}

/**
 * "" when the model lowers `tracer` as the oracle does, else the first
 * difference. Both must agree on the build stats and the edge
 * multiset, and byte for byte on runtime() and slopes() at the base
 * point, at kOraclePoints read in ticks and in microseconds, and at
 * the corners of an L x o x g sweep. With `samePath`, predict()'s
 * binding path and edge count must match too, at the base point and
 * the sweep's corners: at a degenerate point such as L = g = 0, ties
 * run so deep that the path depends on node numbering.
 */
std::string
loweringMismatch(const SpanTracer &tracer, const LogGPParams &base,
                 Tick measured, bool samePath)
{
    AnalyticModel model;
    const bool built = model.build(tracer, base, measured);
    const ReferenceLowering ref(tracer, base, measured);
    if (built != ref.ok())
        return built ? "only the model lowered" : "only the oracle lowered";
    if (!built)
        return "";
    const ModelBuildStats &a = model.stats(), &b = ref.stats();
    if (a.cpuSpans != b.cpuSpans || a.messagesLinked != b.messagesLinked ||
        a.messagesUnlinked != b.messagesUnlinked ||
        a.lpNodes != b.lpNodes || a.lpEdges != b.lpEdges ||
        bitsOf(a.residual) != bitsOf(b.residual))
        return "build stats differ";
    if (edgeMultiset(model.dag()) != edgeMultiset(ref.dag()))
        return "edge multisets differ";

    std::vector<std::pair<LogGPParams, bool>> points{{base, true}};
    for (const LpParams &p : kOraclePoints)
        for (double unit : {1.0, static_cast<double>(kUsec)})
            points.push_back({paramsAt(base, p, unit), false});
    for (double l : {5.0, 105.0}) {
        for (double o : {2.9, 52.9}) {
            for (double g : {5.8, 105.0}) {
                LogGPParams p = base;
                p.setDesiredLatencyUsec(l);
                p.setDesiredOverheadUsec(o);
                p.setDesiredGapUsec(g);
                points.push_back({p, true});
            }
        }
    }
    for (const auto &[p, asked] : points) {
        const std::string at = " at L=" + std::to_string(p.totalLatency()) +
                               " o=" + std::to_string(p.addedO) +
                               " g=" + std::to_string(p.gap) +
                               " G=" + hexOf(p.gPerByte);
        const std::optional<double> rt = model.runtime(p);
        const std::optional<double> want = ref.runtime(p);
        if (!rt || !want || bitsOf(*rt) != bitsOf(*want))
            return "runtime" + at;
        const AnalyticSlopes s = model.slopes(p), t = ref.slopes(p);
        if (s.ok != t.ok || bitsOf(s.dTdL) != bitsOf(t.dTdL) ||
            bitsOf(s.dTdO) != bitsOf(t.dTdO) ||
            bitsOf(s.dTdG) != bitsOf(t.dTdG) ||
            bitsOf(s.dTdGb) != bitsOf(t.dTdGb))
            return "slopes" + at;
        if (!samePath || !asked)
            continue;
        const AnalyticPrediction x = model.predict(p), y = ref.predict(p);
        if (bitsOf(x.runtime) != bitsOf(y.runtime) ||
            bitsOf(x.path.fixed) != bitsOf(y.path.fixed) ||
            bitsOf(x.path.perL) != bitsOf(y.path.perL) ||
            bitsOf(x.path.perO) != bitsOf(y.path.perO) ||
            bitsOf(x.path.perG) != bitsOf(y.path.perG) ||
            bitsOf(x.path.perGb) != bitsOf(y.path.perGb) ||
            x.pathEdges != y.pathEdges)
            return "predict() path" + at;
    }
    return "";
}

/**
 * A hand-built trace over six nodes whose ids differ in every byte,
 * some sharing their low bytes: sends, binding and buffered receives,
 * untraced sends (one sharing its twin's injection time), repeated
 * send and receive spans, bulk fragments, stalls and 64-bit message
 * ids, with spans and messages recorded in shuffled order, so every
 * per-node timeline and per-sender injection order must be sorted.
 */
SpanTracer
shuffledTrace(std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    auto pick = [&](std::uint64_t n) { return static_cast<Tick>(rng() % n); };
    const NodeId ids[] = {0, 7, 256, 65543, 1 << 24,
                          std::numeric_limits<NodeId>::max()};
    Tick clock[6] = {};
    std::vector<Span> spans;
    std::vector<ObsMessage> msgs;
    auto cpu = [&](int n, SpanCat cat, Tick len, std::uint64_t msg) {
        const Tick b = clock[n] + 1 + pick(20);
        clock[n] = b + len;
        spans.push_back({b, b + len, ids[n], TrackKind::Cpu, cat, false,
                         msg});
        return b + len;
    };
    for (std::uint64_t k = 1; k <= 300; k++) {
        const int src = static_cast<int>(pick(6));
        const int dst = (src + 1 + static_cast<int>(pick(5))) % 6;
        cpu(src, SpanCat::Compute, 1 + pick(3000), 0);
        ObsMessage m;
        m.id = k * 0x9E3779B97F4A7C15ull;
        m.src = ids[src];
        m.dst = ids[dst];
        const Tick shape = pick(8);
        m.issued = shape == 0 ? clock[src] + pick(50)
                              : cpu(src, SpanCat::OSend, 1800 + pick(100),
                                    m.id);
        m.inject = m.issued + 100 * pick(3);
        m.wire = m.inject + (shape == 1 ? 1000 + pick(1000) : 0);
        m.ready = m.wire + 5000 + pick(200);
        if (shape != 1) { // a bulk fragment has no receive
            if (pick(2)) // the receiver waits for it: binding
                clock[dst] = std::max(clock[dst], m.ready);
            cpu(dst, SpanCat::ORecv, 4000 + pick(100), m.id);
        }
        if (shape == 2) { // an untraced twin, injected alongside
            ObsMessage twin = m;
            twin.id = m.id - 1;
            msgs.push_back(twin);
        }
        if (shape == 3) // a second send span: the first one counts
            cpu(src, SpanCat::OSend, 1800 + pick(100), m.id);
        if (shape == 4) // a second receive span: the earliest counts
            cpu(dst, SpanCat::ORecv, 4000 + pick(100), m.id);
        if (pick(4) == 0)
            cpu(src, pick(2) ? SpanCat::GapStall : SpanCat::GStall,
                100 + pick(300), 0);
        msgs.push_back(m);
    }
    std::shuffle(spans.begin(), spans.end(), rng);
    std::shuffle(msgs.begin(), msgs.end(), rng);
    SpanTracer t;
    for (const Span &s : spans)
        t.span(s.node, s.track, s.cat, s.begin, s.end, s.msg);
    for (const ObsMessage &m : msgs)
        t.message(m);
    return t;
}

/**
 * Messages without a send span over overlapping compute timelines
 * (span ends do not ascend with begins), so each must find the last
 * span to end by its issue time: some find none, and one sender has no
 * spans at all. At scale, the former backward rescan made this shape
 * quadratic.
 */
SpanTracer
sendlessTrace(std::uint64_t seed, std::size_t spans, std::size_t msgs)
{
    std::mt19937_64 rng(seed);
    auto pick = [&](std::uint64_t n) { return static_cast<Tick>(rng() % n); };
    SpanTracer t;
    Tick clock[4] = {};
    for (std::size_t i = 0; i < spans; i++) {
        const int n = static_cast<int>(i % 4);
        const Tick b = clock[n] + 1 + pick(50);
        clock[n] = b;
        t.span(n, TrackKind::Cpu, SpanCat::Compute, b,
               b + 1 + (pick(10) == 0 ? 5000 : pick(100)));
    }
    const Tick horizon = t.lastTick();
    for (std::size_t i = 0; i < msgs; i++) {
        ObsMessage m;
        m.id = i + 1;
        m.src = static_cast<NodeId>(pick(5)); // node 4 has no spans
        m.dst = static_cast<NodeId>(pick(4));
        m.issued = pick(horizon);
        m.inject = m.issued;
        m.wire = m.issued;
        m.ready = m.issued + 5000;
        t.message(m);
    }
    return t;
}

/** A traced run of `pt` and the parameters it ran at. */
std::pair<SpanTracer, RunResult>
traced(RunPoint pt, LogGPParams &params)
{
    params = pt.config.machine.params;
    pt.config.knobs.applyTo(params);
    SpanTracer tracer;
    pt.config.obs = &tracer;
    RunResult r = runApp(pt.app, pt.config);
    return {std::move(tracer), r};
}

TEST(LpOracle, LoweringMatchesTheHashMapLowering)
{
    for (const char *app : {"radix", "em3d-read", "sample"}) {
        LogGPParams base;
        auto [tracer, r] = traced(smallPoint(app), base);
        ASSERT_TRUE(r.ok) << app;
        EXPECT_EQ(loweringMismatch(tracer, base, r.runtime, true), "")
            << app;
    }

    // Contention shifts ready times on the fat-tree; the file carries
    // every field the lowering reads.
    RunPoint tree = smallPoint("radix");
    tree.config.nprocs = 16;
    tree.config.scale = 0.05;
    tree.config.knobs.topo = 1;
    tree.config.knobs.topoOversub = 4;
    tree.config.knobs.topoHosts = 4;
    LogGPParams base;
    auto [tracer, r] = traced(tree, base);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(loweringMismatch(tracer, base, r.runtime, true), "")
        << "fat-tree radix";
    const std::string path =
        ::testing::TempDir() + "nowcluster_lowering_oracle.obs";
    ASSERT_TRUE(writeBinaryTrace(tracer, {"", r.runtime}, path));
    SpanTracer loaded;
    TraceHeader header;
    ASSERT_EQ(readBinaryTrace(loaded, header, path), "");
    std::remove(path.c_str());
    EXPECT_EQ(loweringMismatch(loaded, base, header.runtime, true), "")
        << "fat-tree radix through NOWOBS02";

    const LogGPParams now = MachineConfig::berkeleyNow().params;
    for (std::uint64_t seed = 1; seed <= 4; seed++) {
        const SpanTracer shuffled = shuffledTrace(seed);
        EXPECT_EQ(loweringMismatch(shuffled, now, shuffled.lastTick(),
                                   false),
                  "")
            << "shuffled trace, seed " << seed;
        const SpanTracer sendless = sendlessTrace(seed, 2000, 300);
        EXPECT_EQ(loweringMismatch(sendless, now, sendless.lastTick(),
                                   false),
                  "")
            << "send-less trace, seed " << seed;
    }
}

/** "" when `model`'s edges fit the list lower() reserves, else why
 *  not. Per timeline a chain edge into each kept span plus one to the
 *  sink, per message at most a tx-chain, a host, and a wire or a join
 *  edge; the LP's nodes are the sink, the kept spans and one
 *  injection per message. */
std::string
edgeBoundMiss(const AnalyticModel &model, int nprocs)
{
    const ModelBuildStats &s = model.stats();
    const std::size_t msgs = s.messagesLinked + s.messagesUnlinked;
    const std::size_t kept = s.lpNodes - 1 - msgs;
    const std::size_t procs = static_cast<std::size_t>(nprocs);
    if (s.lpEdges > kept + procs + 3 * msgs)
        return std::to_string(s.lpEdges) + " edges past the reserved " +
               std::to_string(kept + procs + 3 * msgs);
    if (s.lpEdges > s.cpuSpans + procs + 4 * msgs)
        return "past leaf spans + procs + 4 x messages";
    return "";
}

TEST(Analytic, LoweringFitsItsReservedEdgeList)
{
    std::vector<RunPoint> pts;
    for (const char *app : {"radix", "em3d-read", "sample"})
        pts.push_back(smallPoint(app));
    RunPoint tree = smallPoint("radix");
    tree.config.nprocs = 16;
    tree.config.scale = 0.05;
    tree.config.knobs.topo = 1;
    tree.config.knobs.topoOversub = 4;
    tree.config.knobs.topoHosts = 4;
    pts.push_back(tree);
    for (const RunPoint &pt : pts) {
        LogGPParams base;
        auto [tracer, r] = traced(pt, base);
        ASSERT_TRUE(r.ok) << pt.app;
        AnalyticModel model;
        ASSERT_TRUE(model.build(tracer, base, r.runtime)) << pt.app;
        EXPECT_EQ(edgeBoundMiss(model, pt.config.nprocs), "")
            << pt.app << " on " << pt.config.nprocs << " procs";
    }
}

TEST(Analytic, FatTreeModelWithholdsItsSlopes)
{
    // Every slope is a solve one tick off the traced knobs, which a
    // fat-tree model does not answer.
    RunPoint pt = smallPoint("radix");
    pt.config.knobs.topo = 1;
    pt.config.knobs.topoOversub = 4;
    pt.config.knobs.topoHosts = 4;
    LogGPParams base;
    auto [tracer, r] = traced(pt, base);
    ASSERT_TRUE(r.ok);
    AnalyticModel model;
    ASSERT_TRUE(model.build(tracer, base, r.runtime));
    EXPECT_FALSE(model.slopes(base).ok);
    LogGPParams up = base;
    up.gap += 1;
    const std::string why = backend::fatTreeRefusal(base, up);
    ASSERT_NE(why, "");
    EXPECT_NE(model.report(base).find("slopes: withheld: " + why + "\n"),
              std::string::npos)
        << model.report(base);
    // The caller's own reason comes first.
    EXPECT_NE(model.report(base, "not here").find(
                  "slopes: withheld: not here\n"),
              std::string::npos);
}

TEST(Analytic, SlopesOfOneKnobAreThoseOfAll)
{
    LogGPParams base;
    auto [tracer, r] = traced(smallPoint("em3d-read"), base);
    ASSERT_TRUE(r.ok);
    AnalyticModel model;
    ASSERT_TRUE(model.build(tracer, base, r.runtime));
    const AnalyticSlopes all = model.slopes(base);
    ASSERT_TRUE(all.ok);
    const std::pair<unsigned, double AnalyticSlopes::*> knobs[] = {
        {backend::kSlopeL, &AnalyticSlopes::dTdL},
        {backend::kSlopeO, &AnalyticSlopes::dTdO},
        {backend::kSlopeG, &AnalyticSlopes::dTdG},
        {backend::kSlopeGb, &AnalyticSlopes::dTdGb},
    };
    for (const auto &[knob, slope] : knobs) {
        const AnalyticSlopes one = model.slopes(base, knob);
        ASSERT_TRUE(one.ok) << knob;
        for (const auto &[other, field] : knobs)
            EXPECT_EQ(hexOf(one.*field),
                      hexOf(other == knob ? all.*field : 0.0))
                << "knob " << knob << ", field of " << other;
    }
}

TEST(Analytic, ConcurrentAnswersMatchASerialRun)
{
    // nowlabd calls run() from its worker pool, and the solver keeps
    // per-thread scratch: four threads sharing one backend (and its
    // first model builds) must answer exactly as one thread does.
    BackendOptions opts;
    opts.validateModels = false;
    std::vector<RunPoint> grid;
    for (const char *app : {"radix", "em3d-read"})
        for (double l : {5.0, 30.0, 80.0})
            for (double o : {2.9, 10.0})
                for (double g : {5.8, 30.0}) {
                    RunPoint pt = smallPoint(app);
                    pt.config.scale = 0.05;
                    pt.config.knobs.latencyUs = l;
                    pt.config.knobs.overheadUs = o;
                    pt.config.knobs.gapUs = g;
                    grid.push_back(pt);
                }
    auto answer = [](AnalyticBackend &be, const RunPoint &pt) {
        const AnalyticPrediction p = be.predict(pt);
        const AnalyticSlopes s = be.slopes(pt);
        return fingerprint(be.run(pt)) + " " + hexOf(p.runtime) + " " +
               hexOf(p.path.fixed) + " " + hexOf(p.path.perL) + " " +
               std::to_string(p.pathEdges) + " " + hexOf(s.dTdL) + " " +
               hexOf(s.dTdO) + " " + hexOf(s.dTdG) + " " +
               hexOf(s.dTdGb);
    };

    AnalyticBackend serial(opts);
    std::vector<std::string> want;
    for (const RunPoint &pt : grid)
        want.push_back(answer(serial, pt));

    constexpr std::size_t kThreads = 4;
    AnalyticBackend shared(opts);
    std::vector<std::vector<std::string>> got(
        kThreads, std::vector<std::string>(grid.size()));
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; t++) {
        pool.emplace_back([&, t] {
            // Each thread walks the whole grid from its own offset.
            for (std::size_t j = 0; j < grid.size(); j++) {
                const std::size_t i =
                    (j + t * grid.size() / kThreads) % grid.size();
                got[t][i] = answer(shared, grid[i]);
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
    for (std::size_t t = 0; t < kThreads; t++)
        for (std::size_t i = 0; i < grid.size(); i++)
            EXPECT_EQ(got[t][i], want[i])
                << "thread " << t << ", point " << i;
}

/** "" when the backend's answers at `pt` are the model's at the same
 *  parameters, bit for bit, else the first that differs. */
std::string
answerMismatch(AnalyticBackend &be, const AnalyticModel &model,
               const RunPoint &pt)
{
    LogGPParams p = pt.config.machine.params;
    pt.config.knobs.applyTo(p);
    const std::optional<double> rt = model.runtime(p);
    if (!rt || be.run(pt).runtime != std::llround(*rt))
        return "run()";
    const AnalyticPrediction x = be.predict(pt), y = model.predict(p);
    if (hexOf(x.runtime) != hexOf(y.runtime) ||
        hexOf(x.path.fixed) != hexOf(y.path.fixed) ||
        hexOf(x.path.perL) != hexOf(y.path.perL) ||
        hexOf(x.path.perO) != hexOf(y.path.perO) ||
        hexOf(x.path.perG) != hexOf(y.path.perG) ||
        hexOf(x.path.perGb) != hexOf(y.path.perGb) ||
        x.pathEdges != y.pathEdges)
        return "predict()";
    const AnalyticSlopes u = be.slopes(pt), v = model.slopes(p);
    if (u.ok != v.ok || hexOf(u.dTdL) != hexOf(v.dTdL) ||
        hexOf(u.dTdO) != hexOf(v.dTdO) || hexOf(u.dTdG) != hexOf(v.dTdG) ||
        hexOf(u.dTdGb) != hexOf(v.dTdGb))
        return "slopes()";
    return "";
}

TEST(Analytic, BuildMatchesATracedRunAndAProbeSimulatedInTurn)
{
    // The backend simulates a model's traced run and its probe as one
    // runPoints batch. By hand, one after the other: the traced run,
    // its lowering, then the probe at four times the base latency and
    // the model's drift there.
    for (const char *app : {"radix", "em3d-read"}) {
        const RunPoint pt = smallPoint(app);
        LogGPParams base;
        auto [tracer, r] = traced(pt, base);
        ASSERT_TRUE(r.ok) << app;
        AnalyticModel model;
        ASSERT_TRUE(model.build(tracer, base, r.runtime)) << app;
        RunPoint probe = pt;
        probe.config.knobs.latencyUs =
            static_cast<double>(base.totalLatency()) / kUsec * 4;
        const RunResult sim = runApp(probe.app, probe.config);
        ASSERT_TRUE(sim.ok) << app;
        LogGPParams at = probe.config.machine.params;
        probe.config.knobs.applyTo(at);
        const double drift =
            std::fabs(*model.runtime(at) - static_cast<double>(sim.runtime)) /
            static_cast<double>(sim.runtime);

        // Healthy at a tolerance of exactly that drift and refused just
        // below it, so the backend's drift is the same double.
        BackendOptions opts;
        opts.driftTolerance = drift;
        AnalyticBackend healthy(opts);
        opts.driftTolerance = std::nextafter(drift, -1.0);
        AnalyticBackend refused(opts);
        EXPECT_TRUE(healthy.run(pt).ok) << app;
        EXPECT_FALSE(refused.run(pt).ok) << app;
        EXPECT_TRUE(healthy.ready(pt)) << app;
        EXPECT_FALSE(refused.ready(pt)) << app;
        EXPECT_EQ(healthy.canServe(pt), "") << app;
        char why[96];
        std::snprintf(why, sizeof why,
                      "probe drift %.1f%% exceeds tolerance %.1f%%",
                      drift * 100, opts.driftTolerance * 100);
        EXPECT_EQ(refused.canServe(pt), why) << app;

        // The same lowering, and the same answers at the base point and
        // off it, the served result carrying the traced run's
        // measurements.
        for (AnalyticBackend *be : {&healthy, &refused}) {
            const ModelBuildStats s = be->modelStats(pt);
            const ModelBuildStats &t = model.stats();
            EXPECT_TRUE(s.cpuSpans == t.cpuSpans &&
                        s.messagesLinked == t.messagesLinked &&
                        s.messagesUnlinked == t.messagesUnlinked &&
                        s.lpNodes == t.lpNodes && s.lpEdges == t.lpEdges &&
                        hexOf(s.residual) == hexOf(t.residual))
                << app;
        }
        RunResult want = r;
        want.validated = false;
        want.simEvents = 0;
        EXPECT_EQ(fingerprint(healthy.run(pt)), fingerprint(want)) << app;
        for (double l : {5.0, 55.0}) {
            for (double o : {2.9, 12.9}) {
                RunPoint q = pt;
                q.config.knobs.latencyUs = l;
                q.config.knobs.overheadUs = o;
                EXPECT_EQ(answerMismatch(healthy, model, q), "")
                    << app << " at L=" << l << " o=" << o;
            }
        }
    }
}

/** A RunCache that stores nothing and records each point it is asked
 *  about; runPoints' workers call it at once. */
class RecordingCache : public RunCache
{
  public:
    bool
    lookup(const RunPoint &pt, RunResult &) override
    {
        std::lock_guard<std::mutex> lock(mu);
        lookups.push_back(pt);
        return false;
    }

    void
    insert(const RunPoint &pt, const RunResult &) override
    {
        std::lock_guard<std::mutex> lock(mu);
        inserts.push_back(pt);
    }

    std::mutex mu;
    std::vector<RunPoint> lookups, inserts;
};

TEST(Analytic, OnlyTheProbeGoesThroughTheRunCache)
{
    // A cached result cannot replay the traced run's spans, so the
    // traced run is always simulated; the probe is an ordinary point.
    RecordingCache cache;
    setRunCache(&cache);
    AnalyticBackend be;
    const RunPoint pt = smallPoint("radix");
    RunPoint other = pt;
    other.config.knobs.latencyUs = 30;
    const bool served = be.run(pt).ok && be.run(other).ok;
    setRunCache(nullptr);
    ASSERT_TRUE(served);
    ASSERT_EQ(cache.lookups.size(), 1u);
    ASSERT_EQ(cache.inserts.size(), 1u);
    LogGPParams base = pt.config.machine.params;
    pt.config.knobs.applyTo(base);
    for (const RunPoint *q : {&cache.lookups[0], &cache.inserts[0]}) {
        EXPECT_EQ(q->config.obs, nullptr);
        EXPECT_EQ(q->config.knobs.latencyUs,
                  static_cast<double>(base.totalLatency()) / kUsec * 4);
    }

    // A traced run over its budget still refuses the model, with the
    // reason the first check gives, though its probe ran beside it.
    AnalyticBackend over;
    RunPoint tight = smallPoint("radix");
    tight.config.maxTime = 1;
    EXPECT_FALSE(over.run(tight).ok);
    EXPECT_FALSE(over.ready(tight));
    EXPECT_EQ(over.canServe(tight),
              "base traced run failed (budget exceeded?)");
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
