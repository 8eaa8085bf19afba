/**
 * @file
 * The delay propagation & decay bench: inject a one-off processor
 * stall into radix and em3d-read at three delay sizes, run the
 * wavefront analyzer against an unperturbed baseline, and publish the
 * propagation speed and decay distance into BENCH_wavefront.json.
 *
 * The acceptance bar is the scenario suite's reason to exist: every
 * (app, delay) pair must report a finite propagation speed and a
 * non-negative decay distance, the perturbed run must actually run
 * longer, and the whole analysis must be byte-identical when an
 * independent run repeats it on a worker thread -- the injected stall
 * is scenario state, not scheduling noise.
 */

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "obs/wavefront.hh"
#include "svc/json.hh"

using namespace nowcluster;
using namespace nowcluster::bench;

namespace {

constexpr int kProcs = 8;
/** Delay sizes as fractions of the baseline runtime. */
constexpr double kDelayFrac[] = {0.02, 0.08, 0.32};
constexpr double kThreshold = 0.05;

struct DelayRow
{
    double delayUs = 0;
    double excessUs = 0;
    int reached = 0;
    int decayHops = -1;
    double speed = 0;
    bool speedFinite = false;
    bool deterministic = false; ///< render() identical on a worker thread.
    bool pass = false;
};

struct AppReport
{
    std::string app;
    Tick baseline = 0;
    std::vector<DelayRow> rows;
    bool pass = false;
};

/** Baseline + perturbed traced pair, rendered. */
std::string
analyze(const std::string &app, double scale, NodeId node, double atUs,
        double delayUs, WavefrontReport *rep_out)
{
    RunConfig base = baseConfig(kProcs, scale);
    SpanTracer baseTrace;
    base.obs = &baseTrace;
    RunResult br = runApp(app, base);
    fatal_if(!br.ok, "%s traced baseline failed", app.c_str());

    RunConfig pert = base;
    SpanTracer pertTrace;
    pert.obs = &pertTrace;
    pert.knobs.delayNode = node;
    pert.knobs.delayAtUs = atUs;
    pert.knobs.delayUs = delayUs;
    pert.maxTime = base.maxTime + 4 * usec(delayUs);
    RunResult pr = runApp(app, pert);
    fatal_if(!pr.ok, "%s perturbed run failed", app.c_str());

    WavefrontConfig wc;
    wc.delayedNode = node;
    wc.delayAt = usec(atUs);
    wc.delayDuration = usec(delayUs);
    wc.threshold = kThreshold;
    WavefrontReport rep = analyzeWavefront(baseTrace, pertTrace, kProcs,
                                           wc);
    std::string rendered = rep.render();
    if (rep_out)
        *rep_out = std::move(rep);
    return rendered;
}

AppReport
benchApp(const std::string &app, double scale)
{
    AppReport rep;
    rep.app = app;

    RunResult base = runApp(app, baseConfig(kProcs, scale));
    fatal_if(!base.ok, "%s baseline failed", app.c_str());
    rep.baseline = base.runtime;
    const double runtimeUs = static_cast<double>(base.runtime) / kUsec;
    const NodeId node = kProcs / 2;
    const double atUs = 0.30 * runtimeUs;

    for (double frac : kDelayFrac) {
        DelayRow row;
        row.delayUs = frac * runtimeUs;
        WavefrontReport wf;
        const std::string here =
            analyze(app, scale, node, atUs, row.delayUs, &wf);
        // The same analysis from scratch on another OS thread (fresh
        // fiber stack pool and thread-local state) must not move a byte.
        std::string onWorker;
        std::thread([&] {
            onWorker = analyze(app, scale, node, atUs, row.delayUs, nullptr);
        }).join();
        row.deterministic = here == onWorker;
        row.excessUs = static_cast<double>(wf.excessRuntime) / kUsec;
        row.reached = wf.reached;
        row.decayHops = wf.decayHops;
        row.speed = wf.speedHopsPerMs;
        row.speedFinite = wf.speedFinite;
        row.pass = row.deterministic && row.speedFinite &&
                   row.decayHops >= 0 && row.excessUs > 0 &&
                   row.reached >= 1;
        rep.rows.push_back(row);
    }
    rep.pass = !rep.rows.empty();
    for (const DelayRow &r : rep.rows)
        rep.pass = rep.pass && r.pass;
    return rep;
}

void
printReport(const AppReport &rep)
{
    std::printf("\n--- %s: delay propagation & decay (baseline %.3f "
                "ms) ---\n",
                rep.app.c_str(), toMsec(rep.baseline));
    Table t;
    t.row()
        .cell("delay (us)")
        .cell("excess (us)")
        .cell("reached")
        .cell("decay (hops)")
        .cell("speed (hops/ms)")
        .cell("deterministic")
        .cell("pass");
    for (const DelayRow &r : rep.rows) {
        t.row()
            .cell(r.delayUs, 1)
            .cell(r.excessUs, 1)
            .cell(r.reached)
            .cell(r.decayHops)
            .cell(r.speed, 3)
            .cell(std::string(r.deterministic ? "yes" : "NO"))
            .cell(std::string(r.pass ? "yes" : "NO"));
    }
    t.print();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        benchArgs(argc, argv, {"--out"}, "BENCH_wavefront.json").out;
    const double scale = scaleOr(0.05);

    std::printf("Wavefront analyzer: one-off delay propagation across "
                "%d procs\n",
                kProcs);

    std::vector<AppReport> reports;
    for (const char *app : {"radix", "em3d-read"}) {
        reports.push_back(benchApp(app, scale));
        printReport(reports.back());
    }

    bool pass = true;
    for (const AppReport &r : reports)
        pass = pass && r.pass;

    svc::JsonWriter w;
    w.beginObject();
    w.field("bench", "wavefront");
    w.field("procs", static_cast<std::int64_t>(kProcs));
    w.field("threshold", kThreshold);
    w.beginArray("apps");
    for (const AppReport &r : reports) {
        w.beginObject();
        w.field("app", r.app);
        w.field("baselineMs", toMsec(r.baseline));
        w.beginArray("delays");
        for (const DelayRow &d : r.rows) {
            w.beginObject();
            w.field("delayUs", d.delayUs);
            w.field("excessUs", d.excessUs);
            w.field("reached", static_cast<std::int64_t>(d.reached));
            w.field("decayHops",
                    static_cast<std::int64_t>(d.decayHops));
            w.field("speedHopsPerMs", d.speed);
            w.field("speedFinite", d.speedFinite);
            w.field("deterministic", d.deterministic);
            w.field("pass", d.pass);
            w.endObject();
        }
        w.endArray();
        w.field("pass", r.pass);
        w.endObject();
    }
    w.endArray();
    w.field("pass", pass);
    w.endObject();

    std::printf("\nwavefront numbers: %s\n", pass ? "pass" : "FAIL");
    svc::writeJsonFile(w, out_path);
    return pass ? 0 : 1;
}
