/**
 * @file
 * Extension ablation: sensitivity to receive-controller *occupancy*,
 * the parameter the Flash study (Holt et al., cited in the paper's
 * Related Work) found applications "surprisingly sensitive" to.
 * Occupancy adds to the round trip like latency AND serializes
 * arrivals like gap, so for the same microseconds it should hurt at
 * least as much as either individual knob -- which this sweep
 * demonstrates on the paper's suite.
 */

#include "bench_util.hh"
#include "svc/store.hh"

using namespace nowcluster;
using namespace nowcluster::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = benchArgs(argc, argv, {"--jobs", "--cache-dir"});
    svc::CacheScope cache_scope(args.cacheDir);
    double scale = scaleOr(1.0);
    int jobs = args.jobs;
    const std::vector<double> xs = {0, 2.5, 5, 10, 25, 50};

    auto set = [](Knobs &k, double x) { k.occupancyUs = x; };
    std::vector<Series> series =
        sweepApps(appKeys(), 32, scale, xs, set, jobs);
    printSlowdownTable(
        "Ablation: slowdown vs rx occupancy, 32 nodes (scale=" +
            fmtDouble(scale, 2) + ")",
        "occ(us)", xs, series);

    // Head-to-head for one read-based and one write-based app: the
    // same microseconds as occupancy, pure latency, or pure gap.
    std::printf("\n=== 25 us as occupancy vs latency vs gap ===\n");
    Table t;
    t.row()
        .cell("Program")
        .cell("occupancy 25us")
        .cell("latency +25us")
        .cell("gap +25us");
    for (const std::string key : {"em3d-read", "em3d-write"}) {
        RunConfig base = baseConfig(32, scale);
        RunResult b = runApp(key, base);
        auto run_with = [&](Knobs k) {
            RunConfig c = base;
            c.knobs = k;
            c.maxTime = budgetFor(b, k);
            c.validate = false;
            return slowdown(runApp(key, c).runtime, b.runtime);
        };
        Knobs occ, lat, gap;
        occ.occupancyUs = 25;
        lat.latencyUs = 30; // 5 baseline + 25 added.
        gap.gapUs = 30.8;   // 5.8 baseline + 25 added.
        t.row()
            .cell(displayName(key))
            .cell(run_with(occ), 2)
            .cell(run_with(lat), 2)
            .cell(run_with(gap), 2);
    }
    t.print();
    return 0;
}
