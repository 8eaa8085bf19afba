/**
 * @file
 * The tuned-collective payoff bench, in two acts. First the
 * predicted-vs-measured race: every registered algorithm of every
 * collective runs over a procs x sizes grid at two LogGP operating
 * points (Berkeley NOW and Meiko CS-2), and the cost model's pick must
 * land within tolerance of the measured best. Then the application
 * A/B: the allreduce-heavy apps run at 1024 nodes on an oversubscribed
 * fat-tree under the naive (PR-7 era) collective policy and again
 * under the auto-tuner, and the runtime delta is the payoff. Results
 * land in BENCH_coll.json for scripts/bench_coll.sh to publish.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "coll/tuned/harness.hh"
#include "coll/tuned/registry.hh"
#include "svc/json.hh"

using namespace nowcluster;
using namespace nowcluster::bench;

namespace {

constexpr double kTolerance = 0.10;
constexpr double kMinHitRate = 0.90;

/** One machine's grid sweep, kept for the JSON emitter. */
struct GridResult
{
    std::string machine;
    coll::ValidationReport report;
};

/** One application's naive-vs-tuned runtime pair. */
struct AppDelta
{
    std::string app;
    int nprocs = 0;
    double scale = 0;
    Tick naive = 0;
    Tick tuned = 0;

    double
    speedup() const
    {
        return tuned > 0 ? static_cast<double>(naive) /
                               static_cast<double>(tuned)
                         : 0.0;
    }
};

Tick
timedRun(const std::string &app, int nprocs, double scale,
         const std::string &policy)
{
    RunConfig c;
    c.nprocs = nprocs;
    c.scale = scale;
    c.validate = false;
    c.knobs.topo = 1;
    c.knobs.topoOversub = 4;
    c.knobs.collAlg = policy;
    RunResult r = runApp(app, c);
    fatal_if(!r.ok, "%s did not finish at %d procs (policy '%s')",
             app.c_str(), nprocs, policy.c_str());
    return r.runtime;
}

void
printGrid(const GridResult &g)
{
    std::printf("\n--- %s: model pick vs measured best ---\n",
                g.machine.c_str());
    Table t;
    t.row()
        .cell("collective")
        .cell("P")
        .cell("bytes")
        .cell("pick")
        .cell("best")
        .cell("pick(us)")
        .cell("best(us)")
        .cell("ok");
    for (const auto &pt : g.report.points) {
        t.row()
            .cell(std::string(coll::collName(pt.coll)))
            .cell(static_cast<std::int64_t>(pt.nprocs))
            .cell(static_cast<std::int64_t>(pt.bytes))
            .cell(std::string(coll::algName(pt.predictedPick)))
            .cell(std::string(coll::algName(pt.measuredBest)))
            .cell(toUsec(pt.measuredOfPick), 1)
            .cell(toUsec(pt.measuredOfBest), 1)
            .cell(std::string(pt.within(kTolerance) ? "yes" : "MISS"));
    }
    t.print();
    std::printf("%s: %d/%zu points within %.0f%% of measured best "
                "(%.1f%%)\n",
                g.machine.c_str(), g.report.hits(kTolerance),
                g.report.points.size(), kTolerance * 100,
                g.report.hitRate(kTolerance) * 100);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        benchArgs(argc, argv, {"--out"}, "BENCH_coll.json").out;
    const double scale = scaleOr(0.02);

    std::printf("Tuned collectives: cost-model validation and the "
                "1024-node payoff\n");

    // Act one: the grid race at two LogGP operating points.
    const std::vector<int> procs = {4, 8, 16};
    const std::vector<std::size_t> sizes = {256, 16384};
    std::vector<GridResult> grids;
    for (const auto &m :
         {MachineConfig::berkeleyNow(), MachineConfig::meikoCs2()}) {
        GridResult g;
        g.machine = m.name;
        g.report = coll::validateGrid(m.params, procs, sizes);
        printGrid(g);
        grids.push_back(std::move(g));
    }

    // Act two: what the tuner buys real applications. murphi's
    // termination detector calls allReduceAdd every round and barnes
    // bounds the space with allReduceMin/Max, so both ride the word
    // allreduce, where recursive doubling halves the message depth of
    // binomial reduce+broadcast (lg P vs 2 lg P) -- at 1024 nodes, 10
    // depths instead of 20 per call.
    const int nprocs = 1024;
    std::printf("\n--- 1024-node fat-tree A/B: naive vs tuned ---\n");
    std::vector<AppDelta> deltas;
    for (const char *app : {"murphi", "barnes"}) {
        AppDelta d;
        d.app = app;
        d.nprocs = nprocs;
        d.scale = scale;
        d.naive = timedRun(app, nprocs, scale, "naive");
        d.tuned = timedRun(app, nprocs, scale, "tuned");
        deltas.push_back(d);
    }
    Table ab;
    ab.row()
        .cell("app")
        .cell("P")
        .cell("naive(ms)")
        .cell("tuned(ms)")
        .cell("speedup");
    for (const auto &d : deltas) {
        ab.row()
            .cell(d.app)
            .cell(static_cast<std::int64_t>(d.nprocs))
            .cell(toMsec(d.naive), 2)
            .cell(toMsec(d.tuned), 2)
            .cell(d.speedup(), 3);
    }
    ab.print();

    bool grid_ok = true;
    for (const auto &g : grids)
        grid_ok = grid_ok && g.report.hitRate(kTolerance) >= kMinHitRate;
    bool app_win = false;
    for (const auto &d : deltas)
        app_win = app_win || d.tuned < d.naive;
    const bool pass = grid_ok && app_win;

    svc::JsonWriter w;
    w.beginObject();
    w.field("bench", "coll");
    w.field("tolerance", kTolerance);
    w.beginArray("grid");
    for (const auto &g : grids) {
        w.beginObject();
        w.field("machine", g.machine);
        w.field("hitRate", g.report.hitRate(kTolerance));
        w.beginArray("points");
        for (const auto &pt : g.report.points) {
            w.beginObject();
            w.field("coll", coll::collName(pt.coll));
            w.field("nprocs", pt.nprocs);
            w.field("bytes",
                    static_cast<std::uint64_t>(pt.bytes));
            w.field("pick", coll::algName(pt.predictedPick));
            w.field("best", coll::algName(pt.measuredBest));
            w.field("pickUs", toUsec(pt.measuredOfPick));
            w.field("bestUs", toUsec(pt.measuredOfBest));
            w.field("hit", pt.within(kTolerance));
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.beginArray("apps");
    for (const auto &d : deltas) {
        w.beginObject();
        w.field("app", d.app);
        w.field("nprocs", d.nprocs);
        w.field("scale", d.scale);
        w.field("naiveMs", toMsec(d.naive));
        w.field("tunedMs", toMsec(d.tuned));
        w.field("speedup", d.speedup());
        w.endObject();
    }
    w.endArray();
    w.field("pass", pass);
    w.endObject();

    std::printf("\ncollective numbers: %s\n", pass ? "pass" : "FAIL");
    svc::writeJsonFile(w, out_path);
    return pass ? 0 : 1;
}
