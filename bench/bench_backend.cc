/**
 * @file
 * The analytic-backend payoff bench: answer an L x o sweep grid for
 * radix and em3d-read with both engines, and publish per-point
 * wall-clock (sim vs analytic), runtime agreement, and dT/dL slope
 * agreement into BENCH_backend.json. The acceptance bar is the
 * subsystem's reason to exist: every grid point within 10% of the
 * simulated runtime, matching latency-slope sign, and at least 100x
 * lower wall-clock per answered point once the model is built. The
 * lowering (AnalyticModel::build on the traced base run) is timed on
 * its own too, over several repetitions, and the file records the
 * host it was measured on.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "backend/backend.hh"
#include "bench_util.hh"
#include "svc/json.hh"

using namespace nowcluster;
using namespace nowcluster::bench;

namespace {

constexpr double kTolerance = 0.10; ///< Runtime error bound per point.
constexpr double kMinSpeedup = 100; ///< Wall-clock factor per point.
constexpr int kLowerReps = 7;       ///< Timed lowerings per app.

double
wallMs(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct PointRow
{
    double lUs = 0, oUs = 0;
    Tick simTicks = 0, anaTicks = 0;
    double errPct = 0;
    double simMs = 0, anaMs = 0;

    double
    speedup() const
    {
        return anaMs > 0 ? simMs / anaMs : 0;
    }
};

struct AppReport
{
    std::string app;
    double buildMs = 0; ///< Traced base run + probe, amortized once.
    /** AnalyticModel::build alone on the traced base run: the median,
     *  fastest and slowest of kLowerReps. */
    double lowerMs = 0, lowerMinMs = 0, lowerMaxMs = 0;
    backend::ModelBuildStats stats;
    std::vector<PointRow> points;
    double maxErrPct = 0, meanErrPct = 0;
    double meanSpeedup = 0;
    double dtdlSim = 0, dtdlAna = 0, dtdlModel = 0;
    bool pass = false;
};

RunPoint
pointFor(const std::string &app, double scale, double l_us, double o_us)
{
    RunPoint pt;
    pt.app = app;
    pt.config.nprocs = 4;
    pt.config.scale = scale;
    pt.config.validate = false;
    if (l_us > 0)
        pt.config.knobs.latencyUs = l_us;
    if (o_us > 0)
        pt.config.knobs.overheadUs = o_us;
    return pt;
}

AppReport
benchApp(const std::string &app, double scale,
         backend::AnalyticBackend &be)
{
    const double kLs[] = {5.0, 15.0, 30.0, 55.0, 80.0};
    const double kOs[] = {2.9, 5.0, 10.0};

    AppReport rep;
    rep.app = app;

    // Build the model once, on the clock: this is the amortized cost
    // (one traced run + one validation probe) the per-point speedup
    // pays for.
    auto t0 = std::chrono::steady_clock::now();
    RunResult warm = be.run(pointFor(app, scale, 0, 0));
    rep.buildMs = wallMs(t0);
    fatal_if(!warm.ok, "%s: analytic model did not build (%s)",
             app.c_str(),
             be.canServe(pointFor(app, scale, 0, 0)).c_str());
    rep.stats = be.modelStats(pointFor(app, scale, 0, 0));

    // The lowering alone, on a traced run of the base point: the same
    // run the backend lowered, since the simulator is deterministic.
    {
        RunPoint base = pointFor(app, scale, 0, 0);
        LogGPParams params = base.config.machine.params;
        base.config.knobs.applyTo(params);
        SpanTracer tracer;
        base.config.obs = &tracer;
        const RunResult traced = runApp(base.app, base.config);
        std::vector<double> ms;
        for (int r = 0; r < kLowerReps; r++) {
            backend::AnalyticModel model;
            t0 = std::chrono::steady_clock::now();
            const bool built = model.build(tracer, params, traced.runtime);
            ms.push_back(wallMs(t0));
            fatal_if(!built, "%s: the traced run did not lower",
                     app.c_str());
        }
        std::sort(ms.begin(), ms.end());
        rep.lowerMs = ms[ms.size() / 2];
        rep.lowerMinMs = ms.front();
        rep.lowerMaxMs = ms.back();
    }

    // Answer the whole grid with each engine in its own pass, the way
    // a real sweep runs: the simulator streams through its points, the
    // analytic backend answers its points back to back against the
    // prepared model (no simulator cache pollution between solves).
    for (double l : kLs) {
        for (double o : kOs) {
            PointRow row;
            row.lUs = l;
            row.oUs = o;
            RunPoint pt = pointFor(app, scale, l, o);
            t0 = std::chrono::steady_clock::now();
            RunResult sim = runApp(pt.app, pt.config);
            row.simMs = wallMs(t0);
            fatal_if(!sim.ok, "%s sim failed at L=%g o=%g",
                     app.c_str(), l, o);
            row.simTicks = sim.runtime;
            rep.points.push_back(row);
        }
    }
    be.run(pointFor(app, scale, kLs[0], kOs[0])); // re-warm the model
    double err_sum = 0, spd_sum = 0;
    for (PointRow &row : rep.points) {
        RunPoint pt = pointFor(app, scale, row.lUs, row.oUs);
        t0 = std::chrono::steady_clock::now();
        RunResult ana = be.run(pt);
        row.anaMs = wallMs(t0);
        fatal_if(!ana.ok, "%s analytic failed at L=%g o=%g",
                 app.c_str(), row.lUs, row.oUs);
        row.anaTicks = ana.runtime;
        row.errPct = 100.0 *
                     std::fabs(static_cast<double>(row.anaTicks) -
                               static_cast<double>(row.simTicks)) /
                     static_cast<double>(row.simTicks);
        rep.maxErrPct = std::max(rep.maxErrPct, row.errPct);
        err_sum += row.errPct;
        spd_sum += row.speedup();
    }
    rep.meanErrPct = err_sum / static_cast<double>(rep.points.size());
    rep.meanSpeedup = spd_sum / static_cast<double>(rep.points.size());

    // Slope agreement across the grid's latency endpoints (at the
    // baseline overhead column).
    auto ticksAt = [&](const std::vector<PointRow> &rows, double l,
                       bool sim) {
        for (const PointRow &r : rows)
            if (r.lUs == l && r.oUs == kOs[0])
                return static_cast<double>(sim ? r.simTicks
                                               : r.anaTicks);
        return 0.0;
    };
    const double dl = static_cast<double>(usec(kLs[4] - kLs[0]));
    rep.dtdlSim = (ticksAt(rep.points, kLs[4], true) -
                   ticksAt(rep.points, kLs[0], true)) /
                  dl;
    rep.dtdlAna = (ticksAt(rep.points, kLs[4], false) -
                   ticksAt(rep.points, kLs[0], false)) /
                  dl;
    const backend::AnalyticSlopes slope =
        be.slopes(pointFor(app, scale, kLs[4], kOs[0]), backend::kSlopeL);
    rep.dtdlModel = slope.ok ? slope.dTdL : -1;

    const bool sign_ok =
        (rep.dtdlSim >= 0) == (rep.dtdlAna >= 0) && rep.dtdlModel >= 0;
    rep.pass = rep.maxErrPct <= kTolerance * 100 && sign_ok &&
               rep.meanSpeedup >= kMinSpeedup;
    return rep;
}

void
printReport(const AppReport &rep)
{
    std::printf("\n--- %s: sim vs analytic over the L x o grid ---\n",
                rep.app.c_str());
    Table t;
    t.row()
        .cell("L(us)")
        .cell("o(us)")
        .cell("sim(ms)")
        .cell("analytic(ms)")
        .cell("err%")
        .cell("sim wall(ms)")
        .cell("lp wall(ms)")
        .cell("speedup");
    for (const PointRow &r : rep.points) {
        t.row()
            .cell(r.lUs, 1)
            .cell(r.oUs, 1)
            .cell(toMsec(r.simTicks), 3)
            .cell(toMsec(r.anaTicks), 3)
            .cell(r.errPct, 2)
            .cell(r.simMs, 1)
            .cell(r.anaMs, 3)
            .cell(r.speedup(), 0);
    }
    t.print();
    std::printf("%s: model build %.0f ms, of which lowering %.1f ms "
                "(%zu LP nodes, %zu edges), "
                "max err %.2f%%, mean speedup %.0fx, dT/dL sim %.2f "
                "analytic %.2f (one-sided LP slope %.2f) -> %s\n",
                rep.app.c_str(), rep.buildMs, rep.lowerMs,
                rep.stats.lpNodes, rep.stats.lpEdges, rep.maxErrPct,
                rep.meanSpeedup,
                rep.dtdlSim, rep.dtdlAna, rep.dtdlModel,
                rep.pass ? "pass" : "FAIL");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        benchArgs(argc, argv, {"--out"}, "BENCH_backend.json").out;
    const double scale = scaleOr(0.1);

    std::printf("Analytic backend: per-point wall-clock and agreement "
                "vs the simulator\n");

    backend::AnalyticBackend be;
    std::vector<AppReport> reports;
    for (const char *app : {"radix", "em3d-read"}) {
        reports.push_back(benchApp(app, scale, be));
        printReport(reports.back());
    }

    bool pass = true;
    for (const AppReport &r : reports)
        pass = pass && r.pass;

    svc::JsonWriter w;
    w.beginObject();
    w.field("bench", "backend");
    svc::writeHost(w);
    w.field("tolerance", kTolerance);
    w.field("minSpeedup", kMinSpeedup);
    w.field("lowerReps", kLowerReps);
    w.beginArray("apps");
    for (const AppReport &r : reports) {
        w.beginObject();
        w.field("app", r.app);
        w.field("buildMs", r.buildMs);
        w.field("lowerMs", r.lowerMs);
        w.field("lowerMinMs", r.lowerMinMs);
        w.field("lowerMaxMs", r.lowerMaxMs);
        w.field("lpNodes", static_cast<std::uint64_t>(r.stats.lpNodes));
        w.field("lpEdges", static_cast<std::uint64_t>(r.stats.lpEdges));
        w.field("residualMs", toMsec(static_cast<Tick>(
                                  std::llround(r.stats.residual))));
        w.beginArray("points");
        for (const PointRow &p : r.points) {
            w.beginObject();
            w.field("lUs", p.lUs);
            w.field("oUs", p.oUs);
            w.field("simMs", toMsec(p.simTicks));
            w.field("analyticMs", toMsec(p.anaTicks));
            w.field("errPct", p.errPct);
            w.field("simWallMs", p.simMs);
            w.field("analyticWallMs", p.anaMs);
            w.field("speedup", p.speedup());
            w.endObject();
        }
        w.endArray();
        w.field("maxErrPct", r.maxErrPct);
        w.field("meanErrPct", r.meanErrPct);
        w.field("meanSpeedup", r.meanSpeedup);
        w.field("dtdlSim", r.dtdlSim);
        w.field("dtdlAnalytic", r.dtdlAna);
        w.field("dtdlModel", r.dtdlModel);
        w.field("pass", r.pass);
        w.endObject();
    }
    w.endArray();
    w.field("pass", pass);
    w.endObject();

    std::printf("\nbackend numbers: %s\n", pass ? "pass" : "FAIL");
    svc::writeJsonFile(w, out_path);
    return pass ? 0 : 1;
}
