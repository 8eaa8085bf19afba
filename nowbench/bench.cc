/**
 * @file
 * The repository benchmark binary. One process runs one workload:
 *
 *   paper-sweep    all ten apps on the 32-node Berkeley NOW, at the
 *                  baseline and at one mid-sweep point per LogGP knob,
 *                  through runPoints on two workers, heaviest first.
 *   fattree-1024   one radix run on a 1024-node fat-tree (oversub 4):
 *                  1024 fibers against the 64-stack pool, a large event
 *                  heap, link serialization, the dissemination barrier.
 *   analytic-grid  radix, em3d-read and sample on 8 procs: set-up
 *                  builds the three analytic models, the timed phase
 *                  answers the paper's L x o x g grid through
 *                  ExperimentBackend::run, and six grid points per app,
 *                  the high-L corners among them, are checked against
 *                  the simulator.
 *
 * Untraced runs (--trace 0) repeat the timed phase for --seconds and
 * report medians. Traced runs (--trace 1) run the timed phase twice
 * untraced (the second, warm pass is the reference for the tracing
 * overhead) and once with the benchmark's own spans around every call
 * into a layer, compare the runs' fingerprints, and report
 * per-layer numbers read at the same boundaries. Every layer is timed
 * from outside, through its public calls: runPoints/runApp (harness),
 * RunResult::simEvents and FiberStackPool::local() (sim),
 * RunResult::metrics (am), SpanTracer (obs), ExperimentBackend::run,
 * AnalyticModel::build/predict and ModelBuildStats (backend).
 *
 * The last stdout line is one JSON object for run.py, which builds this
 * binary, measures set-up time across fresh processes and prints the
 * benchmark's result line.
 */

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.hh"
#include "backend/backend.hh"
#include "backend/model.hh"
#include "harness/runner.hh"
#include "sim/fiber.hh"
#include "stats.hh"

using namespace nowcluster;
using nowbench::SpanRec;
using nowbench::Tally;

namespace {

using Clock = std::chrono::steady_clock;

/** Environment overrides envConfig() reads once; each can switch the
 *  engine or the scale, or serve points from the result store. */
const char *const kOverrides[] = {"NOW_JOBS",        "NOW_SCALE",
                                  "NOW_SIM_THREADS", "NOW_COLL_ALG",
                                  "NOW_CACHE_DIR",   "NOW_BACKEND"};

// paper-sweep
constexpr int kSweepProcs = 32;
constexpr double kSweepScale = 0.25;
constexpr int kSweepWorkers = 2;

// fattree-1024
constexpr int kTreeProcs = 1024;
constexpr double kTreeScale = 0.02;
constexpr double kTreeOversub = 4;

/** Scale of the set-up point (see runSimWorkload). */
constexpr double kWarmScale = 0.02;

// analytic-grid. At 16 procs radix's probe drift sits at 7-11% across
// seeds, so the backend refuses some seeds; at 8 procs it is 3-4%.
constexpr int kGridProcs = 8;
constexpr double kGridScale = 0.25;
constexpr int kGridWorkers = 2; ///< Spot-check simulations.
const char *const kGridApps[] = {"radix", "em3d-read", "sample"};
// The paper's sweeps (Figures 5-7), microseconds.
const double kLatencies[] = {5, 7.5, 10, 15, 30, 55, 80, 105};
const double kOverheads[] = {2.9, 3.9, 4.9, 6.9, 7.9, 12.9, 22.9, 52.9,
                             102.9};
const double kGaps[] = {5.8, 8, 10, 15, 30, 55, 80, 105};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
monotonicNow()
{
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

double
tvSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
}

/** User + sys CPU seconds of the process. */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return tvSeconds(ru.ru_utime) + tvSeconds(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---- options and host record ---------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = RunConfig{}.seed;
    double seconds = 10;
    bool trace = false;
    bool setupOnly = false;
    std::string outDir = ".";
    std::string rev = "unknown";
};

bool
parseOptions(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            o.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "nowbench: %s needs a value\n",
                         flag.c_str());
            return false;
        }
        const std::string v = argv[++i];
        const char *end = "";
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            char *e = nullptr;
            o.seed = std::strtoull(v.c_str(), &e, 10);
            end = v.empty() || v[0] == '-' ? "-" : e;
        } else if (flag == "--seconds") {
            char *e = nullptr;
            o.seconds = std::strtod(v.c_str(), &e);
            end = v.empty() ? "-" : e;
        } else if (flag == "--trace") {
            o.trace = v == "1";
            end = v == "0" || v == "1" ? "" : "-";
        } else if (flag == "--out") {
            o.outDir = v;
        } else if (flag == "--rev") {
            o.rev = v;
        } else {
            std::fprintf(stderr, "nowbench: unknown flag %s\n",
                         flag.c_str());
            return false;
        }
        if (*end != '\0') {
            std::fprintf(stderr, "nowbench: bad value '%s' for %s\n",
                         v.c_str(), flag.c_str());
            return false;
        }
    }
    if (o.workload != "paper-sweep" && o.workload != "fattree-1024" &&
        o.workload != "analytic-grid") {
        std::fprintf(stderr, "nowbench: unknown workload '%s'\n",
                     o.workload.c_str());
        return false;
    }
    if (!(o.seconds > 0)) {
        std::fprintf(stderr, "nowbench: --seconds must be positive\n");
        return false;
    }
    return true;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

void
printHost(const Options &o, int workers)
{
    std::printf("host      : nproc=%u cpu=\"%s\"\n",
                std::thread::hardware_concurrency(), cpuModel().c_str());
    std::printf("build     : compiler=\"%s\" build_type=%s rev=%s\n",
                NOWBENCH_COMPILER, NOWBENCH_BUILD_TYPE, o.rev.c_str());
    std::printf("workload  : %s seed=%llu (RunConfig default %llu) "
                "workers=%d seconds=%g trace=%d\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(RunConfig{}.seed), workers,
                o.seconds, o.trace ? 1 : 0);
}

// ---- spans ---------------------------------------------------------

int
threadIndex()
{
    static std::atomic<int> next{1};
    static thread_local int index = -1;
    if (index < 0)
        index = next.fetch_add(1);
    return index;
}

/**
 * The traced run's span log: one record per call into a layer, kept in
 * memory and written out at the end. A null SpanLog pointer means an
 * untraced run; every recording site checks it.
 */
class SpanLog
{
  public:
    SpanLog() : t0_(Clock::now()) { mainThread_ = threadIndex(); }

    int
    begin(const char *name, int parent, std::uint64_t op)
    {
        SpanRec s;
        s.name = name;
        s.parent = parent;
        s.op = op;
        s.thread = threadIndex() == mainThread_ ? 0 : threadIndex();
        std::lock_guard<std::mutex> lock(mu_);
        s.begin = nowNs();
        spans_.push_back(std::move(s));
        return static_cast<int>(spans_.size() - 1);
    }

    /** Close span `id`; returns its duration in seconds. */
    double
    end(int id)
    {
        std::lock_guard<std::mutex> lock(mu_);
        SpanRec &s = spans_[id];
        s.end = nowNs();
        return static_cast<double>(s.end - s.begin) / 1e9;
    }

    const std::vector<SpanRec> &spans() const { return spans_; }

    /** Spans named `name`, durations in seconds. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const SpanRec &s : spans_) {
            if (s.name == name)
                out.push_back(static_cast<double>(s.end - s.begin) / 1e9);
        }
        return out;
    }

    bool
    write(const std::string &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const std::vector<std::int64_t> self = nowbench::selfTimes(spans_);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRec &s = spans_[i];
            std::fprintf(f,
                         "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\","
                         "\"parent\":%d,\"op\":%llu,\"thread\":%d,"
                         "\"begin_ns\":%lld,\"end_ns\":%lld,"
                         "\"self_ns\":%lld}\n",
                         i, s.name.c_str(),
                         nowbench::layerOf(s.name).c_str(), s.parent,
                         static_cast<unsigned long long>(s.op), s.thread,
                         static_cast<long long>(s.begin),
                         static_cast<long long>(s.end),
                         static_cast<long long>(self[i]));
        }
        return std::fclose(f) == 0;
    }

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0_)
            .count();
    }

    Clock::time_point t0_;
    int mainThread_ = 0;
    std::mutex mu_;
    std::vector<SpanRec> spans_;
};

/** Span for the current scope; no-op when `log` is null. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, int parent,
               std::uint64_t op = 0)
        : log_(log), id_(log ? log->begin(name, parent, op) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog *log_;
    int id_;
};

// ---- layer counters read at the runApp boundary --------------------

RunResult
guardedRunApp(const RunPoint &pt)
{
    try {
        return runApp(pt.app, pt.config);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nowbench: point '%s' threw: %s\n",
                     pt.app.c_str(), e.what());
    } catch (...) {
        std::fprintf(stderr, "nowbench: point '%s' threw\n",
                     pt.app.c_str());
    }
    return RunResult{};
}

/** Per-layer counts of a traced run, summed over every runApp call. */
struct LayerProbe
{
    std::mutex mu;
    std::map<std::string, double> runAppS; ///< Per app key.
    double busyS = 0;
    double userS = 0;
    double sysS = 0;
    double workerIdleS = 0;
    std::uint64_t events = 0;
    std::uint64_t poolHits = 0;
    std::uint64_t poolMisses = 0;
    std::uint64_t amSent = 0;
    std::uint64_t bulkFrags = 0;
    std::uint64_t bulkBytes = 0;
    Tick creditStall = 0;
    Tick txQueueStall = 0;

    /** runApp under a span named `name`, reading the sim layer's
     *  thread CPU and stack-pool counters around the call. */
    RunResult
    run(SpanLog &log, const char *name, const RunPoint &pt, int parent,
        std::uint64_t op)
    {
        FiberStackPool &pool = FiberStackPool::local();
        const std::uint64_t hits0 = pool.hits(), misses0 = pool.misses();
        rusage ru0{}, ru1{};
        getrusage(RUSAGE_THREAD, &ru0);
        const int id = log.begin(name, parent, op);
        RunResult r = guardedRunApp(pt);
        const double wall = log.end(id);
        getrusage(RUSAGE_THREAD, &ru1);

        std::lock_guard<std::mutex> lock(mu);
        runAppS[pt.app] += wall;
        busyS += wall;
        userS += tvSeconds(ru1.ru_utime) - tvSeconds(ru0.ru_utime);
        sysS += tvSeconds(ru1.ru_stime) - tvSeconds(ru0.ru_stime);
        events += r.simEvents;
        poolHits += pool.hits() - hits0;
        poolMisses += pool.misses() - misses0;
        amSent += r.metrics.counterOr("am.sent");
        bulkFrags += r.metrics.counterOr("am.bulkFrags");
        bulkBytes += r.metrics.counterOr("am.bulkBytesSent");
        creditStall += static_cast<Tick>(
            r.metrics.counterOr("am.creditStallTicks"));
        txQueueStall += static_cast<Tick>(
            r.metrics.counterOr("am.txQueueStallTicks"));
        return r;
    }
};

// ---- simulated passes ----------------------------------------------

/** One timed phase over simulated points. */
struct SimPass
{
    double wallS = 0;
    double cpuS = 0;
    std::vector<RunResult> results;
};

SimPass
untracedSimPass(const std::vector<RunPoint> &pts, int workers)
{
    SimPass p;
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    p.results = runPoints(pts, workers);
    p.wallS = secondsSince(t0);
    p.cpuS = processCpuSeconds() - cpu0;
    return p;
}

/**
 * The traced counterpart of runPoints: the same worker pool and
 * submission order, with a runApp span per point and a batch span
 * around the pool.
 */
SimPass
tracedSimPass(const std::vector<RunPoint> &pts, int workers, SpanLog &log,
              LayerProbe &probe, int parent)
{
    SimPass p;
    p.results.resize(pts.size());
    const int nw =
        static_cast<int>(std::min<std::size_t>(pts.size(), workers));
    const int batch = log.begin("harness.Runner", parent, 0);
    if (nw <= 1) {
        for (std::size_t i = 0; i < pts.size(); ++i)
            p.results[i] = probe.run(log, "harness.runApp", pts[i], batch, i);
    } else {
        Runner pool(nw);
        for (std::size_t i = 0; i < pts.size(); ++i) {
            pool.trySubmit([&, i] {
                p.results[i] =
                    probe.run(log, "harness.runApp", pts[i], batch, i);
            });
        }
        pool.shutdown();
    }
    p.wallS = log.end(batch);
    double busy = 0;
    for (const SpanRec &s : log.spans()) {
        if (s.parent == batch)
            busy += static_cast<double>(s.end - s.begin) / 1e9;
    }
    std::lock_guard<std::mutex> lock(probe.mu);
    probe.workerIdleS += std::max(nw, 1) * p.wallS - busy;
    return p;
}

/** Account every simulated result against its reference fingerprint
 *  (from an earlier run of the same point; empty = none yet). */
void
tallySim(const std::vector<RunResult> &rs,
         std::vector<std::string> &reference, Tally &tally)
{
    if (reference.empty())
        reference.resize(rs.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const std::string fp = fingerprint(rs[i]);
        tally.add(nowbench::simPointFailed(rs[i].ok, rs[i].validated, fp,
                                           reference[i]));
        if (reference[i].empty())
            reference[i] = fp;
    }
}

// ---- reporting -----------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printMetrics(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

/** The machine-readable line run.py reads (always the last line). */
void
printResultLine(const Tally &tally, const std::vector<Metric> &ms,
                double ready, const std::string &dig)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"digest\": \"%s\", \"ready_monotonic\": %.9f, "
                "\"metrics\": {",
                tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed), dig.c_str(),
                ready);
    for (std::size_t i = 0; i < ms.size(); ++i) {
        const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), v,
                    ms[i].unit.c_str());
    }
    std::printf("}}\n");
}

/** Latency summary: p50, p99 when at least ten samples lie beyond it
 *  (1728 per traced grid pass; 0 otherwise), and the sample count. */
void
addLatency(std::vector<Metric> &ms, const std::string &name,
           const std::vector<double> &seconds)
{
    std::vector<double> us;
    us.reserve(seconds.size());
    for (double s : seconds)
        us.push_back(s * 1e6);
    const double tail = nowbench::tailPercentile(us.size());
    ms.push_back({name + ".p50", nowbench::percentile(us, 50), "us"});
    ms.push_back({name + ".p99",
                  tail >= 99 ? nowbench::percentile(us, 99) : 0, "us"});
    ms.push_back({name + ".n", static_cast<double>(us.size()), "count"});
}

/** Everything a traced run measured beyond the probe's counters. */
struct TracedExtras
{
    double obsSpans = 0;
    double obsOverheadS = 0;
    double lpNodes = 0;
    double lpEdges = 0;
    double served = 0;
    double fallbacks = 0;
    double meanErrPct = 0;
    double maxErrPct = 0;
    double traceOverheadPct = 0;
};

std::vector<Metric>
perLayerMetrics(const SpanLog &log, const LayerProbe &probe,
                const TracedExtras &x)
{
    auto sum = [](const std::vector<double> &v) {
        double s = 0;
        for (double d : v)
            s += d;
        return s;
    };
    std::vector<Metric> ms;
    for (const std::string &app : appKeys()) {
        auto it = probe.runAppS.find(app);
        ms.push_back({"harness.run_app_s." + app,
                      it == probe.runAppS.end() ? 0 : it->second, "s"});
    }
    ms.push_back({"harness.worker_idle_s", probe.workerIdleS, "s"});

    const double cpu = probe.userS + probe.sysS;
    ms.push_back({"sim.events", static_cast<double>(probe.events),
                  "count"});
    ms.push_back({"sim.host_ns_per_event",
                  probe.events ? probe.busyS * 1e9 / probe.events : 0,
                  "ns"});
    ms.push_back({"sim.sys_share", cpu > 0 ? 100 * probe.sysS / cpu : 0,
                  "%"});
    ms.push_back({"sim.fiber_pool_hits",
                  static_cast<double>(probe.poolHits), "count"});
    ms.push_back({"sim.fiber_pool_misses",
                  static_cast<double>(probe.poolMisses), "count"});

    ms.push_back({"am.sent", static_cast<double>(probe.amSent), "count"});
    ms.push_back({"am.bulk_frags", static_cast<double>(probe.bulkFrags),
                  "count"});
    ms.push_back({"am.bulk_bytes", static_cast<double>(probe.bulkBytes),
                  "bytes"});
    ms.push_back({"am.host_ns_per_msg",
                  probe.amSent ? probe.busyS * 1e9 / probe.amSent : 0,
                  "ns"});
    ms.push_back({"am.credit_stall_ms", toMsec(probe.creditStall), "ms"});
    ms.push_back({"am.tx_queue_stall_ms", toMsec(probe.txQueueStall),
                  "ms"});

    ms.push_back({"obs.spans", x.obsSpans, "count"});
    ms.push_back({"obs.traced_run_s", x.obsOverheadS, "s"});

    ms.push_back({"backend.trace_run_s",
                  sum(log.durations("backend.trace_run")), "s"});
    ms.push_back({"backend.lower_s", sum(log.durations("backend.lower")),
                  "s"});
    ms.push_back({"backend.probe_s", sum(log.durations("backend.probe")),
                  "s"});
    ms.push_back({"backend.lp_nodes", x.lpNodes, "count"});
    ms.push_back({"backend.lp_edges", x.lpEdges, "count"});
    addLatency(ms, "backend.run_us", log.durations("backend.run"));
    addLatency(ms, "backend.solve_us", log.durations("backend.solve"));
    ms.push_back({"backend.served", x.served, "count"});
    ms.push_back({"backend.fallbacks", x.fallbacks, "count"});
    ms.push_back({"backend.mean_err_pct", x.meanErrPct, "%"});
    ms.push_back({"backend.max_err_pct", x.maxErrPct, "%"});

    ms.push_back({"bench.trace_overhead_pct", x.traceOverheadPct, "%"});
    const std::map<std::string, std::int64_t> self =
        nowbench::selfTimeByLayer(log.spans());
    for (const char *layer : {"bench", "harness", "backend"}) {
        auto it = self.find(layer);
        ms.push_back({std::string(layer) + ".self_s",
                      it == self.end() ? 0
                                       : static_cast<double>(it->second) /
                                             1e9,
                      "s"});
    }
    return ms;
}

bool
writeSpans(const SpanLog &log, const Options &o)
{
    const std::string path = o.outDir + "/spans.jsonl";
    if (!log.write(path)) {
        std::fprintf(stderr, "nowbench: cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("spans     : %zu -> %s\n", log.spans().size(),
                path.c_str());
    return true;
}

/** Untraced end-to-end metrics from the repeated timed phase.
 *  `peak_mb` is the peak resident set through set-up and the first
 *  pass: what one user run reaches, before repetition adds allocator
 *  retention that would tie it to the pass count. */
std::vector<Metric>
endToEndMetrics(const std::vector<double> &walls,
                const std::vector<double> &cpus, double peak_mb)
{
    std::printf("passes    : %zu, wall_s per pass:", walls.size());
    for (double w : walls)
        std::printf(" %.3f", w);
    std::printf("\n");
    return {{"wall_s", nowbench::median(walls), "s"},
            {"cpu_s", nowbench::median(cpus), "s"},
            {"peak_rss_mb", peak_mb, "MB"}};
}

// ---- paper-sweep and fattree-1024 ----------------------------------

/**
 * Relative host cost of a paper-sweep point, measured on the reference
 * host (4-core Xeon, RelWithDebInfo): points are submitted heaviest
 * first so the last point to start is a short one and the makespan
 * does not hinge on which worker picks it up.
 */
double
sweepCost(const RunPoint &pt)
{
    static const std::map<std::string, double> kAppCost = {
        {"radix", 55},    {"barnes", 30},    {"sample", 22},
        {"radb", 10},     {"em3d-read", 7},  {"em3d-write", 6},
        {"pray", 4},      {"nowsort", 3},    {"murphi", 3},
        {"connect", 1.5},
    };
    auto it = kAppCost.find(pt.app);
    double cost = it == kAppCost.end() ? 1 : it->second;
    // Only radix pays much for a knob; g = 30 hits it hardest.
    if (pt.app == "radix" && pt.config.knobs.gapUs > 0)
        cost *= 1.2;
    return cost;
}

std::vector<RunPoint>
sweepPoints(std::uint64_t seed)
{
    std::vector<RunPoint> pts;
    for (const std::string &app : appKeys()) {
        for (int k = 0; k < 5; ++k) {
            RunPoint pt;
            pt.app = app;
            pt.config.nprocs = kSweepProcs;
            pt.config.scale = kSweepScale;
            pt.config.seed = seed;
            Knobs &kn = pt.config.knobs;
            if (k == 1)
                kn.overheadUs = 12.9;
            else if (k == 2)
                kn.gapUs = 30;
            else if (k == 3)
                kn.latencyUs = 30;
            else if (k == 4)
                kn.bulkMBps = 10;
            pts.push_back(std::move(pt));
        }
    }
    std::stable_sort(pts.begin(), pts.end(),
                     [](const RunPoint &a, const RunPoint &b) {
                         return sweepCost(a) > sweepCost(b);
                     });
    return pts;
}

std::vector<RunPoint>
treePoints(std::uint64_t seed)
{
    RunPoint pt;
    pt.app = "radix";
    pt.config.nprocs = kTreeProcs;
    pt.config.scale = kTreeScale;
    pt.config.seed = seed;
    pt.config.knobs.topo = 1;
    pt.config.knobs.topoOversub = kTreeOversub;
    return {pt};
}

int
runSimWorkload(const Options &o)
{
    const bool sweep = o.workload == "paper-sweep";
    const std::vector<RunPoint> pts =
        sweep ? sweepPoints(o.seed) : treePoints(o.seed);
    const int workers = sweep ? kSweepWorkers : 1;

    // Set-up: a small point of the workload's heaviest shape, at most
    // as many nodes as the stack pool keeps, so the timed passes start
    // with code, allocator and stack-pool pages warm.
    Tally tally;
    RunPoint warm = pts.front();
    warm.config.scale = kWarmScale;
    warm.config.nprocs = std::min<int>(warm.config.nprocs,
                                       FiberStackPool::kMaxPooled);
    const RunResult warm_r = guardedRunApp(warm);
    tally.add(!warm_r.ok || !warm_r.validated);

    const double ready = monotonicNow();
    if (o.setupOnly) {
        std::printf("{\"ready_monotonic\": %.9f}\n", ready);
        return 0;
    }
    printHost(o, workers);

    std::vector<std::string> reference;
    std::vector<double> walls, cpus;
    double peak_mb = 0;
    const Clock::time_point start = Clock::now();
    SimPass first;
    do {
        SimPass p = untracedSimPass(pts, workers);
        walls.push_back(p.wallS);
        cpus.push_back(p.cpuS);
        tallySim(p.results, reference, tally);
        if (first.results.empty()) {
            first = std::move(p);
            peak_mb = peakRssMb();
        }
    } while (o.trace ? walls.size() < 2 : secondsSince(start) < o.seconds);
    const std::string dig = nowbench::digest(reference);

    std::vector<Metric> ms;
    if (!o.trace) {
        ms = endToEndMetrics(walls, cpus, peak_mb);
    } else {
        SpanLog log;
        LayerProbe probe;
        SimPass traced;
        {
            ScopedSpan root(&log, "bench.pass", -1);
            traced = tracedSimPass(pts, workers, log, probe, root.id());
        }
        const double traced_wall = log.durations("bench.pass").at(0);
        tallySim(traced.results, reference, tally);
        TracedExtras x;
        x.traceOverheadPct =
            100 * (traced_wall - walls.back()) / walls.back();
        ms = perLayerMetrics(log, probe, x);
        if (!writeSpans(log, o))
            tally.add(true);
    }

    std::printf("points    : %zu per pass, attempted=%llu failed=%llu\n",
                pts.size(), static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const RunResult &r = first.results[i];
        if (!r.ok || !r.validated)
            std::printf("FAILED    : %s ok=%d validated=%d\n",
                        pts[i].app.c_str(), r.ok, r.validated);
    }
    std::printf("digest    : %s over %zu point fingerprints\n", dig.c_str(),
                reference.size());
    printMetrics(o.trace ? "per-layer (traced run):"
                         : "end-to-end (untraced):",
                 ms);
    printResultLine(tally, ms, ready, dig);
    return 0;
}

// ---- analytic-grid -------------------------------------------------

RunPoint
gridPoint(const std::string &app, std::uint64_t seed, double l, double o,
          double g)
{
    RunPoint pt;
    pt.app = app;
    pt.config.nprocs = kGridProcs;
    pt.config.scale = kGridScale;
    pt.config.seed = seed;
    pt.config.knobs.latencyUs = l;
    pt.config.knobs.overheadUs = o;
    pt.config.knobs.gapUs = g;
    return pt;
}

/** Every app's full L x o x g grid, app-major. */
std::vector<RunPoint>
gridPoints(std::uint64_t seed)
{
    std::vector<RunPoint> pts;
    for (const char *app : kGridApps)
        for (double l : kLatencies)
            for (double o : kOverheads)
                for (double g : kGaps)
                    pts.push_back(gridPoint(app, seed, l, o, g));
    return pts;
}

/** A grid point checked against the simulator. */
struct Spot
{
    std::size_t index; ///< Into gridPoints().
    /** Beyond the backend's drift tolerance counts as failed. */
    bool gated;
};

/**
 * Per app: the base point (calibration makes it exact) and L = 15 us,
 * the largest grid latency inside the 4x-latency probe the backend
 * validates itself with, are gated at the backend's tolerance. The four
 * high-L corners, where the model's error is largest, are measured
 * only: they lie beyond that probe, and radix misses them by up to 9%
 * (10-18% at 16 procs), too close to the tolerance to gate.
 */
std::vector<Spot>
spotChecks()
{
    constexpr std::size_t nl = std::size(kLatencies);
    constexpr std::size_t no = std::size(kOverheads);
    constexpr std::size_t ng = std::size(kGaps);
    std::vector<Spot> out;
    for (std::size_t a = 0; a < std::size(kGridApps); ++a) {
        const std::size_t base = a * nl * no * ng;
        auto at = [&](std::size_t l, std::size_t o, std::size_t g) {
            return base + (l * no + o) * ng + g;
        };
        out.push_back({at(0, 0, 0), true});
        out.push_back({at(3, 0, 0), true});
        out.push_back({at(nl - 1, 0, 0), false});
        out.push_back({at(nl - 1, no - 1, 0), false});
        out.push_back({at(nl - 1, 0, ng - 1), false});
        out.push_back({at(nl - 1, no - 1, ng - 1), false});
    }
    return out;
}

/** The point a model is traced at: swept knobs back at the machine
 *  baseline, validation off, as AnalyticBackend does it. */
RunPoint
basePoint(const std::string &app, std::uint64_t seed)
{
    RunPoint pt = gridPoint(app, seed, -1, -1, -1);
    pt.config.validate = false;
    return pt;
}

LogGPParams
paramsOf(const RunConfig &c)
{
    LogGPParams p = c.machine.params;
    c.knobs.applyTo(p);
    return p;
}

struct GridPass
{
    double wallS = 0;
    double cpuS = 0;
    std::vector<RunResult> answers;
};

/** The timed phase: every grid point through ExperimentBackend::run. */
GridPass
gridPass(backend::ExperimentBackend &be, const std::vector<RunPoint> &pts,
         SpanLog *log, int parent)
{
    GridPass p;
    p.answers.reserve(pts.size());
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < pts.size(); ++i) {
        ScopedSpan s(log, "backend.run", parent, i);
        p.answers.push_back(be.run(pts[i]));
    }
    p.wallS = secondsSince(t0);
    p.cpuS = processCpuSeconds() - cpu0;
    return p;
}

/** A fallback (the backend could not answer) counts as failed, as
 *  does an answer that differs from the first pass's. */
void
tallyGrid(const GridPass &p, std::vector<std::string> &reference,
          Tally &tally, double &served)
{
    if (reference.empty())
        reference.resize(p.answers.size());
    served = 0;
    for (std::size_t i = 0; i < p.answers.size(); ++i) {
        const std::string fp = fingerprint(p.answers[i]);
        const bool ok = p.answers[i].ok;
        served += ok ? 1 : 0;
        tally.add(!ok || (!reference[i].empty() && fp != reference[i]));
        if (reference[i].empty())
            reference[i] = fp;
    }
}

/** Compare the spot-checked answers against simulated runs. */
void
spotCheck(const std::vector<RunPoint> &grid, const GridPass &answers,
          const std::vector<RunResult> &sims, std::vector<std::string> &ref,
          Tally &tally, double &mean_err, double &max_err)
{
    const std::vector<Spot> spots = spotChecks();
    const double tol = backend::BackendOptions{}.driftTolerance;
    tallySim(sims, ref, tally);
    double sum = 0;
    max_err = 0;
    for (std::size_t k = 0; k < spots.size(); ++k) {
        const std::size_t i = spots[k].index;
        const double ana = static_cast<double>(answers.answers[i].runtime);
        const double sim = static_cast<double>(sims[k].runtime);
        const double err = sim > 0 ? 100 * std::fabs(ana - sim) / sim : 100;
        sum += err;
        max_err = std::max(max_err, err);
        const bool bad =
            spots[k].gated && nowbench::spotCheckFailed(ana, sim, tol);
        if (spots[k].gated)
            tally.add(bad);
        const RunConfig &c = grid[i].config;
        std::printf("spot      : %-9s L=%-5g o=%-5g g=%-5g sim=%.3f ms "
                    "analytic=%.3f ms err=%.2f%%%s\n",
                    grid[i].app.c_str(), c.knobs.latencyUs,
                    c.knobs.overheadUs, c.knobs.gapUs, sim / 1e6, ana / 1e6,
                    err, bad ? " FAILED" : spots[k].gated ? "" : " (measured)");
    }
    mean_err = spots.empty() ? 0 : sum / static_cast<double>(spots.size());
}

int
runGridWorkload(const Options &o)
{
    const std::vector<RunPoint> grid = gridPoints(o.seed);
    std::vector<RunPoint> spots;
    for (const Spot &s : spotChecks())
        spots.push_back(grid[s.index]);

    // Set-up: build every model (traced run, lowering, probe).
    backend::AnalyticBackend be;
    std::vector<std::string> refusals;
    for (const char *app : kGridApps) {
        const RunPoint base = basePoint(app, o.seed);
        be.run(base);
        if (!be.ready(base))
            refusals.push_back(std::string(app) + ": " + be.canServe(base));
    }
    const double ready = monotonicNow();
    if (o.setupOnly) {
        std::printf("{\"ready_monotonic\": %.9f}\n", ready);
        return 0;
    }
    printHost(o, kGridWorkers);
    for (const std::string &r : refusals)
        std::printf("REFUSED   : %s\n", r.c_str());

    Tally tally;
    std::vector<std::string> grid_ref, spot_ref;
    std::vector<double> walls, cpus;
    double served = 0, mean_err = 0, max_err = 0, peak_mb = 0;
    GridPass first;
    const Clock::time_point start = Clock::now();
    do {
        GridPass p = gridPass(be, grid, nullptr, -1);
        walls.push_back(p.wallS);
        cpus.push_back(p.cpuS);
        tallyGrid(p, grid_ref, tally, served);
        if (first.answers.empty()) {
            first = std::move(p);
            peak_mb = peakRssMb();
        }
    } while (o.trace ? walls.size() < 2 : secondsSince(start) < o.seconds);

    std::vector<Metric> ms;
    if (!o.trace) {
        const std::vector<RunResult> sims = runPoints(spots, kGridWorkers);
        spotCheck(grid, first, sims, spot_ref, tally, mean_err, max_err);
        ms = endToEndMetrics(walls, cpus, peak_mb);
    } else {
        SpanLog log;
        LayerProbe probe;
        TracedExtras x;
        // The model builds, step by step through their public calls,
        // plus an untraced run of each base point: the SpanTracer must
        // not perturb the run, and the difference is the obs layer's
        // recording cost.
        std::vector<backend::AnalyticModel> models(std::size(kGridApps));
        std::vector<RunResult> base_plain, base_traced;
        for (std::size_t a = 0; a < std::size(kGridApps); ++a) {
            ScopedSpan build(&log, "backend.build", -1, a);
            RunPoint base = basePoint(kGridApps[a], o.seed);
            const LogGPParams base_params = paramsOf(base.config);
            SpanTracer tracer;
            base.config.obs = &tracer;
            base_traced.push_back(probe.run(log, "backend.trace_run", base,
                                            build.id(), a));
            x.obsSpans += static_cast<double>(tracer.spans().size());
            {
                ScopedSpan s(&log, "backend.lower", build.id(), a);
                tally.add(!models[a].build(tracer, base_params,
                                           base_traced.back().runtime));
            }
            base.config.obs = nullptr;
            base_plain.push_back(
                probe.run(log, "harness.runApp", base, build.id(), a));
            {
                // The backend's probe: a sim run at 4x the base latency
                // and the model's prediction there (drift is judged by
                // the backend itself; be.ready() checked it in set-up).
                ScopedSpan s(&log, "backend.probe", build.id(), a);
                RunPoint probe_pt = base;
                probe_pt.config.knobs.latencyUs =
                    4 * static_cast<double>(base_params.totalLatency()) /
                    kUsec;
                probe.run(log, "harness.runApp", probe_pt, s.id(), a);
                models[a].predict(paramsOf(probe_pt.config));
            }
            const backend::ModelBuildStats st = be.modelStats(base);
            x.lpNodes += static_cast<double>(st.lpNodes);
            x.lpEdges += static_cast<double>(st.lpEdges);
        }
        std::vector<std::string> base_ref;
        tallySim(base_plain, base_ref, tally);
        for (std::size_t a = 0; a < base_traced.size(); ++a)
            tally.add(fingerprint(base_traced[a]) != base_ref[a]);
        x.obsOverheadS = 0;
        for (double d : log.durations("backend.trace_run"))
            x.obsOverheadS += d;
        for (const SpanRec &s : log.spans()) {
            if (s.name == "harness.runApp" && s.parent >= 0 &&
                log.spans()[s.parent].name == "backend.build")
                x.obsOverheadS -= static_cast<double>(s.end - s.begin) / 1e9;
        }

        GridPass traced;
        {
            ScopedSpan root(&log, "bench.pass", -1);
            traced = gridPass(be, grid, &log, root.id());
        }
        tallyGrid(traced, grid_ref, tally, x.served);
        x.fallbacks = static_cast<double>(grid.size()) - x.served;
        x.traceOverheadPct =
            100 * (traced.wallS - walls.back()) / walls.back();

        // LP solves alone, against the step-by-step models.
        {
            ScopedSpan solve(&log, "bench.solve", -1);
            const std::size_t per_app = grid.size() / std::size(kGridApps);
            for (std::size_t i = 0; i < grid.size(); ++i) {
                const LogGPParams p = paramsOf(grid[i].config);
                ScopedSpan s(&log, "backend.solve", solve.id(), i);
                models[i / per_app].predict(p);
            }
        }

        std::vector<RunResult> sims;
        {
            ScopedSpan root(&log, "bench.spot_check", -1);
            sims = tracedSimPass(spots, kGridWorkers, log, probe, root.id())
                       .results;
        }
        // The untimed spot checks are the timed run's simulated points.
        spot_ref.clear();
        tallySim(runPoints(spots, kGridWorkers), spot_ref, tally);
        spotCheck(grid, first, sims, spot_ref, tally, x.meanErrPct,
                  x.maxErrPct);
        mean_err = x.meanErrPct;
        max_err = x.maxErrPct;
        ms = perLayerMetrics(log, probe, x);
        if (!writeSpans(log, o))
            tally.add(true);
    }

    std::vector<std::string> all = grid_ref;
    all.insert(all.end(), spot_ref.begin(), spot_ref.end());
    const std::string dig = nowbench::digest(all);
    std::printf("grid      : %zu points per pass, served=%.0f, spot-check "
                "mean err %.2f%% max err %.2f%%\n",
                grid.size(), served, mean_err, max_err);
    std::printf("counts    : attempted=%llu failed=%llu\n",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    std::printf("digest    : %s over %zu fingerprints\n", dig.c_str(),
                all.size());
    printMetrics(o.trace ? "per-layer (traced run):"
                         : "end-to-end (untraced):",
                 ms);
    printResultLine(tally, ms, ready, dig);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (const char *name : kOverrides) {
        if (std::getenv(name)) {
            std::fprintf(stderr,
                         "nowbench: refusing to run with %s set; unset "
                         "every NOW_* override first\n",
                         name);
            return 2;
        }
    }
    Options o;
    if (!parseOptions(argc, argv, o))
        return 2;
    if (o.workload == "analytic-grid")
        return runGridWorkload(o);
    return runSimWorkload(o);
}
