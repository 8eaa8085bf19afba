/**
 * @file
 * Shared plumbing for the bench binaries: model-driven time budgets
 * (so a livelocked run is reported as N/A instead of hanging), knob
 * sweeps over the application suite, and slowdown-table printing.
 */

#ifndef NOWCLUSTER_BENCH_BENCH_UTIL_HH_
#define NOWCLUSTER_BENCH_BENCH_UTIL_HH_

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "base/table.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "model/models.hh"

namespace nowcluster::bench {

/** A bench binary's options (benchArgs). */
struct BenchArgs
{
    /** `--jobs N`: worker count, 0 (the default) for NOW_JOBS, else
     *  one per hardware thread. Every bench binary fans its independent
     *  simulation points out over this many threads; results are
     *  identical at any setting (tests/test_runner.cc). */
    int jobs = 0;
    /** `--cache-dir D`, else NOW_CACHE_DIR: the result store, or "". */
    std::string cacheDir;
    /** `--out F`: where a ledger binary writes its JSON. */
    std::string out;
};

/**
 * Read a bench binary's command line: the options in `reads`, of
 * `--jobs`, `--cache-dir` and `--out`, each with a value; `out` is the
 * ledger written without `--out`. Any other argument -- a typo, a
 * removed option, another binary's option -- exits 1 naming it, as
 * nowlab's options do, instead of a silent run at the defaults.
 */
inline BenchArgs
benchArgs(int argc, char **argv,
          std::initializer_list<std::string_view> reads,
          std::string out = "")
{
    BenchArgs a;
    a.cacheDir = envCacheDir();
    a.out = std::move(out);
    for (int i = 1; i < argc; i += 2) {
        const std::string_view opt = argv[i];
        fatal_if(std::find(reads.begin(), reads.end(), opt) == reads.end(),
                 "unknown option %s for %s", argv[i], argv[0]);
        fatal_if(i + 1 == argc, "%s needs a value", argv[i]);
        const char *value = argv[i + 1];
        if (opt == "--jobs") {
            long v = 0;
            // Strict: `--jobs foo` must fail loudly, not silently run
            // the whole bench single-threaded at atoi's 0.
            fatal_if(!parseLongStrict(value, v) || v < 0 || v > 4096,
                     "--jobs: '%s' is not a valid worker count", value);
            a.jobs = static_cast<int>(v);
        } else if (opt == "--cache-dir") {
            a.cacheDir = value;
        } else {
            a.out = value;
        }
    }
    return a;
}

/** Paper display names, keyed like the registry. */
inline std::string
displayName(const std::string &key)
{
    auto app = makeApp(key);
    return app->name();
}

/** Baseline configuration for a bench run. */
inline RunConfig
baseConfig(int nprocs, double scale)
{
    RunConfig c;
    c.nprocs = nprocs;
    c.scale = scale;
    c.seed = 1;
    return c;
}

/**
 * Virtual-time budget for a knob run: three times what the linear
 * models predict (plus slack). An application that blows this is
 * reported N/A -- which is exactly how the paper reports livelocked
 * Barnes at high overhead.
 */
inline Tick
budgetFor(const RunResult &baseline, const Knobs &knobs)
{
    Tick worst = baseline.runtime;
    std::uint64_t m = baseline.maxMsgsPerProc;
    if (knobs.overheadUs >= 0)
        worst = predictOverhead(worst, m,
                                usec(knobs.overheadUs) - usec(2.9));
    if (knobs.gapUs >= 0)
        worst = predictGapBurst(worst, m, usec(knobs.gapUs) - usec(5.8));
    if (knobs.latencyUs >= 0)
        worst = predictLatencyReads(worst, m,
                                    usec(knobs.latencyUs) - usec(5.0));
    if (knobs.bulkMBps > 0 && knobs.bulkMBps < 38.0) {
        // Crude bound: all bulk bytes at the reduced rate.
        worst += static_cast<Tick>(38.0 / knobs.bulkMBps *
                                   static_cast<double>(baseline.runtime));
    }
    if (knobs.occupancyUs > 0) {
        // Occupancy acts like latency and gap at once.
        Tick occ = usec(knobs.occupancyUs);
        worst = predictGapBurst(predictLatencyReads(worst, m, occ), m,
                                occ);
    }
    if (knobs.window > 0) {
        // A small window throttles bursts to RTT/W per message.
        worst += static_cast<Tick>(m) * usec(30) /
                 std::max(knobs.window, 1);
    }
    return worst * 3 + kSec;
}

/** One application's slowdown series over a sweep. */
struct Series
{
    std::string name;
    std::vector<double> slowdown; ///< < 0 means N/A (timed out).
};

/**
 * The points of one knob sweep: every (app, x) pair in app-major
 * order, each from its app's baseline point (`base_pts`, whose results
 * are `bases`) with the knob set, budgeted from that baseline's
 * result, and unvalidated (sweeps measure time).
 * @param set_knob Writes the x-value into a Knobs struct.
 */
template <typename SetKnob>
std::vector<RunPoint>
sweepPoints(std::span<const RunPoint> base_pts,
            std::span<const RunResult> bases,
            const std::vector<double> &xs, SetKnob &&set_knob)
{
    std::vector<RunPoint> pts;
    pts.reserve(base_pts.size() * xs.size());
    for (std::size_t i = 0; i < base_pts.size(); ++i) {
        for (double x : xs) {
            RunPoint p = base_pts[i];
            set_knob(p.config.knobs, x);
            p.config.maxTime = budgetFor(bases[i], p.config.knobs);
            p.config.validate = false;
            pts.push_back(std::move(p));
        }
    }
    return pts;
}

/** Each app's slowdown series from `rs`, the results of sweepPoints
 *  over `nxs` values, in its order. */
inline std::vector<Series>
seriesOf(std::span<const RunPoint> base_pts,
         std::span<const RunResult> bases, std::size_t nxs,
         std::span<const RunResult> rs)
{
    std::vector<Series> series;
    series.reserve(base_pts.size());
    for (std::size_t i = 0; i < base_pts.size(); ++i) {
        Series s;
        s.name = displayName(base_pts[i].app);
        for (std::size_t j = 0; j < nxs; ++j) {
            const RunResult &r = rs[i * nxs + j];
            s.slowdown.push_back(
                r.ok ? slowdown(r.runtime, bases[i].runtime) : -1.0);
        }
        series.push_back(std::move(s));
    }
    return series;
}

/**
 * Run several applications over a sweep of one knob, fanning every
 * independent simulation point out across `jobs` workers (0 = auto).
 * Two parallel phases: all baselines first (each sweep point's time
 * budget derives from its app's baseline), then every (app, x) point
 * in one batch. Results are assembled in submission order, so the
 * output is byte-identical for any jobs value.
 * @param set_knob Writes the x-value into a Knobs struct.
 */
template <typename SetKnob>
std::vector<Series>
sweepApps(const std::vector<std::string> &keys, int nprocs, double scale,
          const std::vector<double> &xs, SetKnob &&set_knob, int jobs = 0)
{
    std::vector<RunPoint> base_pts;
    base_pts.reserve(keys.size());
    for (const auto &key : keys)
        base_pts.push_back(RunPoint{key, baseConfig(nprocs, scale)});
    std::vector<RunResult> bases = runPoints(base_pts, jobs);
    std::vector<RunResult> rs = runPoints(
        sweepPoints(base_pts, bases, xs, set_knob), jobs);
    return seriesOf(base_pts, bases, xs.size(), rs);
}

/** Print a figure-style table: rows = x values, one column per app. */
inline void
printSlowdownTable(const std::string &title, const std::string &x_label,
                   const std::vector<double> &xs,
                   const std::vector<Series> &series)
{
    std::printf("\n=== %s ===\n", title.c_str());
    Table t;
    {
        auto row = t.row();
        row.cell(x_label);
        for (const auto &s : series)
            row.cell(s.name);
    }
    for (std::size_t i = 0; i < xs.size(); ++i) {
        auto row = t.row();
        row.cell(xs[i], 1);
        for (const auto &s : series) {
            if (s.slowdown[i] < 0)
                row.cell(std::string("N/A"));
            else
                row.cell(s.slowdown[i], 2);
        }
    }
    t.print();
}

/** Scale from NOW_SCALE with a bench-specific default (cached env
 *  snapshot; see envConfig() for the thread-safety rationale). */
inline double
scaleOr(double fallback)
{
    const EnvConfig &env = envConfig();
    return env.scaleSet ? env.scale : fallback;
}

} // namespace nowcluster::bench

#endif // NOWCLUSTER_BENCH_BENCH_UTIL_HH_
