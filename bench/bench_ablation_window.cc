/**
 * @file
 * Design-choice ablation: the flow-control window. The paper's
 * apparatus had a *fixed* number of outstanding messages, which is
 * what made effective g rise at large L (Table 2) and produced the
 * latency-sensitivity tail of write-based apps in Figure 7. This
 * bench sweeps the window at baseline and at L = 55 us to show both
 * effects: at baseline the window barely matters beyond ~4; at high
 * latency a small window strangles pipelined (write-based)
 * applications.
 */

#include "bench_util.hh"
#include "svc/store.hh"

using namespace nowcluster;
using namespace nowcluster::bench;

namespace {

void
sweepWindows(double scale, double latency_us, int jobs)
{
    const std::vector<double> windows = {1, 2, 4, 8, 16, 32};
    auto set = [latency_us](Knobs &k, double w) {
        k.window = static_cast<int>(w);
        if (latency_us > 0)
            k.latencyUs = latency_us;
    };
    std::vector<Series> series = sweepApps(
        {"radix", "em3d-write", "em3d-read", "sample", "nowsort"}, 32,
        scale, windows, set, jobs);
    // Normalize to the window-8 column (the default) instead of the
    // separate baseline run: rebase each series.
    for (auto &s : series) {
        double w8 = 1.0;
        for (std::size_t i = 0; i < windows.size(); ++i) {
            if (windows[i] == 8 && s.slowdown[i] > 0)
                w8 = s.slowdown[i];
        }
        for (auto &v : s.slowdown) {
            if (v > 0)
                v /= w8;
        }
    }
    printSlowdownTable(
        "Ablation: runtime vs flow-control window (relative to W=8), "
        "L=" + fmtDouble(latency_us > 0 ? latency_us : 5.0, 1) +
            " us, 32 nodes",
        "window", windows, series);
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = benchArgs(argc, argv, {"--jobs", "--cache-dir"});
    svc::CacheScope cache_scope(args.cacheDir);
    double scale = scaleOr(1.0);
    int jobs = args.jobs;
    sweepWindows(scale, -1, jobs);   // Baseline latency.
    sweepWindows(scale, 55.0, jobs); // The Figure-7 regime.
    return 0;
}
