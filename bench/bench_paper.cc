/**
 * @file
 * The paper's evaluation in one run: Tables 1-6 and Figures 3-8, in
 * DESIGN.md §1's order.
 *
 * The calibration sections (Table 1, Figure 3, Table 2) measure the
 * LogP microbenchmarks inside the simulated machines. Every
 * application point is simulated once, in two batches: Table 3's
 * baselines (ten apps on 16 and 32 nodes), then every sweep point of
 * Figures 5-8, each budgeted from its app's baseline at the same size.
 * Table 4 and Figure 4 print from the 32-node baselines, and Tables 5
 * and 6 from the points of Figure 5b and Figure 6.
 *
 * `--jobs N` (else NOW_JOBS) fans both batches out, `--cache-dir D`
 * (else NOW_CACHE_DIR) serves repeated points from the result store,
 * and NOW_SCALE scales every application's input (default 1). Figure
 * 4's images are written to ./fig4/<app>.pgm.
 */

#include <cstdio>
#include <span>
#include <sys/stat.h>

#include "bench_util.hh"
#include "calib/microbench.hh"
#include "svc/store.hh"

using namespace nowcluster;
using namespace nowcluster::bench;

namespace {

/** One figure's knob sweep over every application. */
struct Sweep
{
    const char *figure; ///< "5a", "6", ...
    const char *knob;   ///< What its title says is varied.
    const char *xLabel;
    int nprocs;
    std::vector<double> xs;
    void (*set)(Knobs &, double);
};

/** Where each figure sits in sweeps(). */
enum SweepId : std::size_t { kFig5a, kFig5b, kFig6, kFig7, kFig8 };

/** The paper's sweeps, microseconds (MB/s for Figure 8), in SweepId
 *  order; Table 5 reads Figure 5b's points and Table 6 Figure 6's. */
const std::vector<Sweep> &
sweeps()
{
    static const std::vector<double> overhead = {
        2.9, 3.9, 4.9, 6.9, 7.9, 12.9, 22.9, 52.9, 102.9};
    const auto setOverhead = [](Knobs &k, double x) {
        k.overheadUs = x;
    };
    static const std::vector<Sweep> s = {
        {"5a", "overhead", "o(us)", 16, overhead, setOverhead},
        {"5b", "overhead", "o(us)", 32, overhead, setOverhead},
        {"6", "gap", "g(us)", 32, {5.8, 8, 10, 15, 30, 55, 80, 105},
         [](Knobs &k, double x) { k.gapUs = x; }},
        {"7", "latency", "L(us)", 32, {5, 7.5, 10, 15, 30, 55, 80, 105},
         [](Knobs &k, double x) { k.latencyUs = x; }},
        {"8", "bulk bandwidth", "MB/s", 32,
         {38, 30, 25, 20, 15, 10, 5, 2, 1},
         [](Knobs &k, double x) { k.bulkMBps = x; }},
    };
    return s;
}

/** Table 1: the three machines' LogGP parameters, as calibrated. */
void
printTable1()
{
    std::printf("Table 1: Baseline LogGP parameters "
                "(microbenchmark-calibrated)\n");
    std::printf("Paper:  NOW o=2.9 g=5.8 L=5.0 38 MB/s | Paragon o=1.8 "
                "g=7.6 L=6.5 141 MB/s | Meiko o=1.7 g=13.6 L=7.5 47 "
                "MB/s\n\n");

    Table t;
    t.row()
        .cell("Platform")
        .cell("o(us)")
        .cell("g(us)")
        .cell("L(us)")
        .cell("MB/s(1/G)")
        .cell("oSend(us)")
        .cell("oRecv(us)")
        .cell("RTT(us)");

    for (const MachineConfig &m : {MachineConfig::berkeleyNow(),
                                   MachineConfig::intelParagon(),
                                   MachineConfig::meikoCs2()}) {
        Microbench mb(m.params);
        CalibratedParams c = mb.calibrate();
        t.row()
            .cell(m.name)
            .cell(c.oUs, 1)
            .cell(c.gUs, 1)
            .cell(c.latencyUs, 1)
            .cell(c.bulkMBps, 0)
            .cell(c.oSendUs, 1)
            .cell(c.oRecvUs, 1)
            .cell(c.rttUs, 1);
    }
    t.print();
}

/**
 * Figure 3: the LogP signature, mean message initiation interval
 * against burst size for several fixed computational delays, with the
 * gap knob at the paper's 14 us example. The send overhead shows at
 * burst size 1, the steady-state interval approaches g, and large-Delta
 * curves sit at oSend + oRecv + Delta.
 */
void
printFigure3()
{
    auto params = MachineConfig::berkeleyNow().params;
    params.setDesiredGapUsec(14.0);
    Microbench mb(params);

    std::printf("Figure 3: LogP signature (desired g = 14 us)\n");
    std::printf("Paper reads off: oSend=1.8, oRecv=4, g=12.8, "
                "RTT=21 us\n\n");

    const std::vector<double> deltas = {0, 2, 4, 6, 8, 10};
    const std::vector<int> bursts = {1, 2, 4, 8, 16, 24, 32, 48, 64};
    LogPSignature sig = mb.signature(deltas, bursts);

    Table t;
    {
        auto row = t.row();
        row.cell("burst");
        for (double d : deltas)
            row.cell("D=" + fmtDouble(d, 0) + "us");
    }
    for (std::size_t b = 0; b < bursts.size(); ++b) {
        auto row = t.row();
        row.cell(bursts[b]);
        for (std::size_t d = 0; d < deltas.size(); ++d)
            row.cell(sig.usPerMsg[d][b], 2);
    }
    t.print();

    CalibratedParams c = mb.calibrate();
    std::printf("\nExtracted: oSend=%.1f oRecv=%.1f g=%.1f RTT=%.1f "
                "L=%.1f (us)\n",
                c.oSendUs, c.oRecvUs, c.gUs, c.rttUs, c.latencyUs);
}

void
calibrationSweep(const char *title, const char *knob,
                 const std::vector<double> &values,
                 void (LogGPParams::*set)(double))
{
    std::printf("\n--- varying %s ---\n", title);
    Table t;
    t.row()
        .cell(std::string("desired ") + knob)
        .cell("o(us)")
        .cell("g(us)")
        .cell("L(us)");
    for (double v : values) {
        auto p = MachineConfig::berkeleyNow().params;
        (p.*set)(v);
        Microbench mb(p);
        CalibratedParams c = mb.calibrate();
        t.row().cell(v, 1).cell(c.oUs, 1).cell(c.gUs, 1).cell(
            c.latencyUs, 1);
    }
    t.print();
}

/**
 * Table 2: each LogGP knob swept and every parameter re-measured. The
 * knobs land on their desired values and move independently, apart
 * from the paper's two deliberate artifacts: effective g tracks 2o
 * when the processor is the bottleneck, and rises at large L because
 * the outstanding-message window is fixed.
 */
void
printTable2()
{
    std::printf("Table 2: Calibration summary (desired vs observed, "
                "and independence of the knobs)\n");

    calibrationSweep("overhead o", "o",
                     {2.9, 4.9, 7.9, 12.9, 22.9, 52.9, 77.9, 102.9},
                     &LogGPParams::setDesiredOverheadUsec);
    calibrationSweep("gap g", "g", {5.8, 8, 10, 15, 30, 55, 80, 105},
                     &LogGPParams::setDesiredGapUsec);
    calibrationSweep("latency L", "L", {5, 7.5, 10, 15, 30, 55, 80, 105},
                     &LogGPParams::setDesiredLatencyUsec);

    std::printf("\n--- varying bulk bandwidth 1/G ---\n");
    Table t;
    t.row().cell("desired MB/s").cell("MB/s").cell("o(us)").cell(
        "g(us)").cell("L(us)");
    for (double mbps : {38.0, 30.0, 20.0, 10.0, 5.0, 1.0}) {
        auto p = MachineConfig::berkeleyNow().params;
        p.setBulkMBps(mbps);
        Microbench mb(p);
        CalibratedParams c = mb.calibrate();
        t.row()
            .cell(mbps, 0)
            .cell(c.bulkMBps, 1)
            .cell(c.oUs, 1)
            .cell(c.gUs, 1)
            .cell(c.latencyUs, 1);
    }
    t.print();
}

/** Table 3: the suite, its inputs and baseline times on 16 and 32
 *  nodes; the baselines validate their output. */
void
printTable3(double scale, std::span<const RunResult> base16,
            std::span<const RunResult> base32)
{
    std::printf("Table 3: Applications, data sets, and baseline run "
                "times (scale=%.2f)\n\n", scale);

    Table t;
    t.row()
        .cell("Program")
        .cell("Input Set")
        .cell("16-node (ms)")
        .cell("32-node (ms)")
        .cell("Speedup 16->32")
        .cell("Valid");
    for (std::size_t i = 0; i < appKeys().size(); ++i) {
        auto desc_app = makeApp(appKeys()[i]);
        desc_app->setup(32, scale, 1);
        const RunResult &r16 = base16[i];
        const RunResult &r32 = base32[i];
        t.row()
            .cell(desc_app->name())
            .cell(desc_app->inputDesc())
            .cell(toMsec(r16.runtime), 1)
            .cell(toMsec(r32.runtime), 1)
            .cell(slowdown(r16.runtime, r32.runtime), 2)
            .cell(std::string(r16.validated && r32.validated ? "yes"
                                                             : "NO"));
    }
    t.print();
}

/** Table 4: each application's communication on 32 nodes. */
void
printTable4(double scale, std::span<const RunResult> base32)
{
    std::printf("Table 4: Communication summary, 32 nodes "
                "(scale=%.2f)\n\n", scale);

    Table t;
    t.row()
        .cell("Program")
        .cell("Avg Msg/P")
        .cell("Max Msg/P")
        .cell("Msg/P/ms")
        .cell("Interval(us)")
        .cell("Barrier(ms)")
        .cell("%Bulk")
        .cell("%Reads")
        .cell("Bulk KB/s")
        .cell("Small KB/s");
    for (const RunResult &r : base32) {
        const CommSummary &s = r.summary;
        t.row()
            .cell(s.app)
            .cell(static_cast<std::int64_t>(s.avgMsgsPerProc))
            .cell(static_cast<std::int64_t>(s.maxMsgsPerProc))
            .cell(s.msgsPerProcPerMs, 2)
            .cell(s.msgIntervalUs, 1)
            .cell(s.barrierIntervalMs, 1)
            .cell(s.pctBulk, 2)
            .cell(s.pctReads, 2)
            .cell(s.bulkKBps, 1)
            .cell(s.smallKBps, 1);
    }
    t.print();
}

/** Figure 4: each application's (sender, receiver) message-count
 *  matrix on 32 nodes as ASCII art, and as a grayscale PGM (white =
 *  no messages, black = the app's maximum). */
void
printFigure4(double scale, std::span<const RunResult> base32)
{
    ::mkdir("fig4", 0755);
    std::printf("Figure 4: Communication balance matrices, 32 nodes "
                "(scale=%.2f)\n", scale);
    std::printf("PGM images are written to ./fig4/<app>.pgm\n");

    for (std::size_t i = 0; i < base32.size(); ++i) {
        const RunResult &r = base32[i];
        std::string path = "fig4/" + appKeys()[i] + ".pgm";
        r.matrix.writePgm(path);
        std::printf("\n--- %s (max %llu msgs/cell) -> %s ---\n",
                    r.summary.app.c_str(),
                    static_cast<unsigned long long>(r.matrix.maxCount()),
                    path.c_str());
        std::fputs(r.matrix.ascii().c_str(), stdout);
    }
}

/**
 * Table 5: run times under added overhead against the Section-5.1
 * model r_pred = r_orig + 2 * m * delta_o, m the most messages any
 * processor sent in the baseline. The model tracks frequently
 * communicating applications; ones with serial phases (Radix) run
 * slower than predicted, the paper's "serialization effect".
 */
void
printTable5(double scale, std::span<const RunResult> base32,
            const std::vector<double> &xs, std::span<const RunResult> rs)
{
    std::printf("Table 5: predicted vs measured run times (ms) varying "
                "overhead, 32 nodes (scale=%.2f)\n",
                scale);
    std::printf("Model: r_pred = r_orig + 2 * m * delta_o\n");

    for (std::size_t i = 0; i < base32.size(); ++i) {
        const RunResult &b = base32[i];
        std::printf("\n--- %s (m = %llu msgs) ---\n",
                    b.summary.app.c_str(),
                    static_cast<unsigned long long>(b.maxMsgsPerProc));
        Table t;
        t.row().cell("o(us)").cell("measured").cell("predicted").cell(
            "ratio");
        for (std::size_t j = 0; j < xs.size(); ++j) {
            const double o = xs[j];
            const RunResult &r = rs[i * xs.size() + j];
            Tick pred = predictOverhead(b.runtime, b.maxMsgsPerProc,
                                        usec(o) - usec(2.9));
            auto row = t.row();
            row.cell(o, 1);
            if (r.ok)
                row.cell(toMsec(r.runtime), 1);
            else
                row.cell(std::string("N/A"));
            row.cell(toMsec(pred), 1);
            if (r.ok)
                row.cell(static_cast<double>(r.runtime) /
                             static_cast<double>(pred),
                         2);
            else
                row.cell(std::string("-"));
        }
        t.print();
    }
}

/**
 * Table 6: run times under added gap against the Section-5.2 burst
 * model r_pred = r_base + m * delta_g. Application communication is
 * bursty, so it fits far better than the uniform-interval model, which
 * is printed beside it.
 */
void
printTable6(double scale, std::span<const RunResult> base32,
            const std::vector<double> &xs, std::span<const RunResult> rs)
{
    std::printf("Table 6: predicted vs measured run times (ms) varying "
                "gap, 32 nodes (scale=%.2f)\n",
                scale);
    std::printf("Burst model: r = r_base + m * delta_g;  uniform "
                "model: r = r_base + m * (g - I) for g > I\n");

    for (std::size_t i = 0; i < base32.size(); ++i) {
        const RunResult &b = base32[i];
        Tick interval = usec(b.summary.msgIntervalUs);
        std::printf("\n--- %s (m = %llu msgs, I = %.1f us) ---\n",
                    b.summary.app.c_str(),
                    static_cast<unsigned long long>(b.maxMsgsPerProc),
                    b.summary.msgIntervalUs);
        Table t;
        t.row()
            .cell("g(us)")
            .cell("measured")
            .cell("burst pred")
            .cell("uniform pred");
        for (std::size_t j = 0; j < xs.size(); ++j) {
            const double g = xs[j];
            const RunResult &r = rs[i * xs.size() + j];
            Tick burst = predictGapBurst(b.runtime, b.maxMsgsPerProc,
                                         usec(g) - usec(5.8));
            Tick uniform = predictGapUniform(
                b.runtime, b.maxMsgsPerProc, usec(g), interval);
            auto row = t.row();
            row.cell(g, 1);
            if (r.ok)
                row.cell(toMsec(r.runtime), 1);
            else
                row.cell(std::string("N/A"));
            row.cell(toMsec(burst), 1).cell(toMsec(uniform), 1);
        }
        t.print();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args = benchArgs(argc, argv, {"--jobs", "--cache-dir"});
    svc::CacheScope cache_scope(args.cacheDir);
    const double scale = scaleOr(1.0);
    const int jobs = args.jobs;

    printTable1();
    printFigure3();
    printTable2();

    // Table 3's baselines, the 16-node block then the 32-node block;
    // every later section reads its baselines from here.
    const std::size_t napps = appKeys().size();
    std::vector<RunPoint> base_pts;
    for (int nprocs : {16, 32})
        for (const auto &key : appKeys())
            base_pts.push_back(RunPoint{key, baseConfig(nprocs, scale)});
    const std::vector<RunResult> bases = runPoints(base_pts, jobs);
    auto ptsAt = [&](int nprocs) {
        return std::span<const RunPoint>(base_pts).subspan(
            nprocs == 16 ? 0 : napps, napps);
    };
    auto basesAt = [&](int nprocs) {
        return std::span<const RunResult>(bases).subspan(
            nprocs == 16 ? 0 : napps, napps);
    };

    // Every point of Figures 5-8 in one batch, sweep after sweep.
    std::vector<RunPoint> pts;
    std::vector<std::size_t> first;
    for (const Sweep &s : sweeps()) {
        first.push_back(pts.size());
        std::vector<RunPoint> sp = sweepPoints(
            ptsAt(s.nprocs), basesAt(s.nprocs), s.xs, s.set);
        pts.insert(pts.end(), sp.begin(), sp.end());
    }
    const std::vector<RunResult> rs = runPoints(pts, jobs);
    auto pointsOf = [&](std::size_t k) {
        return std::span<const RunResult>(rs).subspan(
            first[k], napps * sweeps()[k].xs.size());
    };
    auto printFigure = [&](std::size_t k) {
        const Sweep &s = sweeps()[k];
        printSlowdownTable(
            std::string("Figure ") + s.figure + ": slowdown vs " +
                s.knob + ", " + std::to_string(s.nprocs) +
                " nodes (scale=" + fmtDouble(scale, 2) + ")",
            s.xLabel, s.xs,
            seriesOf(ptsAt(s.nprocs), basesAt(s.nprocs), s.xs.size(),
                     pointsOf(k)));
    };

    const std::span<const RunResult> base32 = basesAt(32);
    printTable3(scale, basesAt(16), base32);
    printTable4(scale, base32);
    printFigure4(scale, base32);
    printFigure(kFig5a);
    printFigure(kFig5b);
    printTable5(scale, base32, sweeps()[kFig5b].xs, pointsOf(kFig5b));
    printFigure(kFig6);
    printTable6(scale, base32, sweeps()[kFig6].xs, pointsOf(kFig6));
    printFigure(kFig7);
    printFigure(kFig8);
    return 0;
}
