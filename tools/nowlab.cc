/**
 * @file
 * nowlab: command-line front end to the laboratory. Run with no
 * arguments, it prints every command and option (the usage text in
 * main()).
 */

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "am/cluster.hh"
#include "apps/app.hh"
#include "backend/backend.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "base/random.hh"
#include "base/table.hh"
#include "calib/microbench.hh"
#include "coll/tuned/harness.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "model/models.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "obs/wavefront.hh"
#include "sim/fiber.hh"
#include "sim/simulator.hh"
#include "svc/backoff.hh"
#include "svc/codec.hh"
#include "svc/hash.hh"
#include "svc/json.hh"
#include "svc/server.hh"
#include "svc/spec.hh"
#include "svc/store.hh"

#include <algorithm>
#include <atomic>

#include <unistd.h>

using namespace nowcluster;

namespace {

/**
 * The parsed command line. Commands read options only through value()
 * and flag(), which record what was asked for. Once a command has
 * read every option it takes, and before it does any work, it calls
 * rejectUnread(): an option nothing read -- a typo like --latncy, a
 * removed option, one that belongs to another command -- exits 1
 * naming it, instead of running silently at the default.
 */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            std::string s = argv[i];
            if (s.rfind("--", 0) == 0) {
                std::string key = s.substr(2);
                if (i + 1 < argc && argv[i + 1][0] != '-')
                    options_[key] = argv[++i];
                else
                    flags_.insert(key);
            } else {
                // A value never starts with '-', so "--latency -5" or
                // "-procs 4" would otherwise leave a stray argument.
                fatal_if(s[0] == '-',
                         "unexpected argument '%s' (options are --key "
                         "[value]; values cannot start with '-')",
                         s.c_str());
                positional.push_back(s);
            }
        }
    }

    std::vector<std::string> positional;

    /** The value of --key, or nullptr if absent. */
    const std::string *
    value(const std::string &key) const
    {
        valueRead_.insert(key);
        fatal_if(flags_.count(key), "--%s needs a value", key.c_str());
        auto it = options_.find(key);
        return it == options_.end() ? nullptr : &it->second;
    }

    /** Whether bare --key (no value) was given. */
    bool
    flag(const std::string &key) const
    {
        flagRead_.insert(key);
        return flags_.count(key) != 0;
    }

    /** Exit 1 naming the first option no value()/flag() asked for,
     *  followed by `why` (what the command takes instead) if given. */
    void
    rejectUnread(const char *why = nullptr) const
    {
        const std::string cmd =
            positional.empty() ? "" : " " + positional[0];
        const std::string tail = why ? std::string(" (") + why + ")" : "";
        for (const auto &[key, v] : options_) {
            if (valueRead_.count(key))
                continue;
            fatal_if(flagRead_.count(key), "--%s takes no value (got '%s')",
                     key.c_str(), v.c_str());
            fatal("unknown option --%s for 'nowlab%s'%s", key.c_str(),
                  cmd.c_str(), tail.c_str());
        }
        for (const std::string &key : flags_)
            fatal_if(!flagRead_.count(key),
                     "unknown option --%s for 'nowlab%s'%s", key.c_str(),
                     cmd.c_str(), tail.c_str());
    }

  private:
    std::map<std::string, std::string> options_;
    std::set<std::string> flags_;
    mutable std::set<std::string> valueRead_;
    mutable std::set<std::string> flagRead_;
};

// Strict option parsing: a typo like `--jobs foo` or `--latency 5us`
// must be a diagnostic and a non-zero exit, never a silent 0 that runs
// the whole sweep at the wrong point.

double
optDouble(const Args &a, const std::string &key, double fallback)
{
    const std::string *s = a.value(key);
    if (!s)
        return fallback;
    double v;
    fatal_if(!parseDoubleStrict(*s, v),
             "--%s: '%s' is not a finite number", key.c_str(),
             s->c_str());
    return v;
}

long
optLong(const Args &a, const std::string &key, long fallback)
{
    const std::string *s = a.value(key);
    if (!s)
        return fallback;
    long v;
    fatal_if(!parseLongStrict(*s, v), "--%s: '%s' is not an integer",
             key.c_str(), s->c_str());
    return v;
}

/** The value of --key, or the fallback if absent. */
std::string
optString(const Args &a, const std::string &key,
          const std::string &fallback)
{
    const std::string *s = a.value(key);
    return s ? *s : fallback;
}

/** The machine `key` names; exits 1 on a key no machine answers to. */
MachineConfig
machineNamed(const std::string &key)
{
    std::optional<MachineConfig> m = MachineConfig::byKey(key);
    fatal_if(!m, "unknown machine '%s' (%s)", key.c_str(),
             MachineConfig::keys("|").c_str());
    return *m;
}

MachineConfig
machineOf(const Args &a)
{
    return machineNamed(optString(a, "machine", "now"));
}

/** The options named by svc::knobFields(), integral ones parsed as
 *  integers (bare --topo enables the fat-tree with its defaults), and
 *  --coll-alg, which no submit request carries. */
Knobs
knobsOf(const Args &a)
{
    Knobs k;
    for (const svc::KnobField &f : svc::knobFields()) {
        if (std::strcmp(f.key, "topo") == 0 && a.flag("topo"))
            f.set(k, 1);
        else if (a.value(f.key))
            f.set(k, f.integral
                         ? static_cast<double>(optLong(a, f.key, -1))
                         : optDouble(a, f.key, -1));
    }
    k.collAlg = optString(a, "coll-alg", "");
    const std::string why = k.boundError();
    fatal_if(!why.empty(), "%s", why.c_str());
    return k;
}

RunConfig
configOf(const Args &a)
{
    RunConfig c;
    c.nprocs = static_cast<int>(optLong(a, "procs", 32));
    c.scale = optDouble(a, "scale", 1.0);
    c.seed = static_cast<std::uint64_t>(optLong(a, "seed", 1));
    c.machine = machineOf(a);
    c.knobs = knobsOf(a);
    return c;
}

int
cmdList()
{
    std::printf("applications:\n");
    for (const auto &key : appKeys()) {
        auto app = makeApp(key);
        app->setup(32, 1.0, 1);
        std::printf("  %-12s %-12s %s\n", key.c_str(),
                    app->name().c_str(), app->inputDesc().c_str());
    }
    std::printf("machines: %s\n", MachineConfig::keys(" ").c_str());
    return 0;
}

int
cmdCalibrate(const Args &a)
{
    auto machine = machineOf(a);
    LogGPParams params = machine.params;
    knobsOf(a).applyTo(params);
    a.rejectUnread();
    std::printf("calibrating '%s'...\n", machine.name.c_str());
    Microbench mb(params);
    CalibratedParams c = mb.calibrate();
    std::printf("o      = %6.1f us (oSend %.1f, oRecv %.1f)\n", c.oUs,
                c.oSendUs, c.oRecvUs);
    std::printf("g      = %6.1f us\n", c.gUs);
    std::printf("L      = %6.1f us (RTT %.1f)\n", c.latencyUs, c.rttUs);
    std::printf("1/G    = %6.1f MB/s\n", c.bulkMBps);
    return 0;
}

int
cmdRun(const Args &a)
{
    if (a.positional.size() < 2)
        fatal("usage: nowlab run <app> [options]");
    std::string key = a.positional[1];
    RunConfig c = configOf(a);
    const bool matrix = a.flag("matrix");
    const std::string *pgm = a.value("pgm");
    a.rejectUnread();

    RunResult r = runApp(key, c);
    const CommSummary &s = r.summary;
    std::printf("%s on %d procs (%s), scale %.2f\n", s.app.c_str(),
                c.nprocs, c.machine.name.c_str(), c.scale);
    std::printf("  status        : %s%s\n",
                r.ok ? "completed" : "TIMED OUT",
                r.ok ? (r.validated ? ", output valid"
                                    : ", OUTPUT INVALID")
                     : "");
    std::printf("  runtime       : %.3f ms\n", toMsec(r.runtime));
    std::printf("  msgs/proc     : avg %llu, max %llu\n",
                static_cast<unsigned long long>(s.avgMsgsPerProc),
                static_cast<unsigned long long>(s.maxMsgsPerProc));
    std::printf("  msg interval  : %.1f us   barrier interval: %.1f "
                "ms\n",
                s.msgIntervalUs, s.barrierIntervalMs);
    std::printf("  %%bulk / %%read : %.1f / %.1f\n", s.pctBulk,
                s.pctReads);
    std::printf("  bandwidth     : bulk %.1f KB/s, small %.1f KB/s "
                "per proc\n",
                s.bulkKBps, s.smallKBps);
    if (s.lockAcquires)
        std::printf("  locks         : %llu acquires, %llu failed "
                    "attempts\n",
                    static_cast<unsigned long long>(s.lockAcquires),
                    static_cast<unsigned long long>(s.lockFailures));
    if (s.faultDropped || s.faultDuplicated || s.faultDelayed ||
        s.retransmits)
        std::printf("  reliability   : %llu dropped, %llu duplicated, "
                    "%llu delayed; %llu retransmits, %llu dups "
                    "suppressed, %llu give-ups\n",
                    static_cast<unsigned long long>(s.faultDropped),
                    static_cast<unsigned long long>(s.faultDuplicated),
                    static_cast<unsigned long long>(s.faultDelayed),
                    static_cast<unsigned long long>(s.retransmits),
                    static_cast<unsigned long long>(s.dupsSuppressed),
                    static_cast<unsigned long long>(s.retxGiveUps));
    if (matrix)
        std::fputs(r.matrix.ascii().c_str(), stdout);
    if (pgm) {
        if (r.matrix.writePgm(*pgm))
            std::printf("  wrote %s\n", pgm->c_str());
        else
            warn("could not write %s", pgm->c_str());
    }
    return r.ok && r.validated ? 0 : 1;
}

int
cmdSweep(const Args &a)
{
    if (a.positional.size() < 2)
        fatal("usage: nowlab sweep <app> --knob K --values a,b,c "
              "[--backend sim|analytic]");
    std::string key = a.positional[1];
    svc::CacheScope cache(optString(a, "cache-dir", envCacheDir()));
    auto t0 = std::chrono::steady_clock::now();
    const std::string *knob_opt = a.value("knob");
    const std::string *values_opt = a.value("values");
    fatal_if(!knob_opt || !values_opt, "sweep needs --knob and --values");
    std::string knob = *knob_opt;

    std::vector<double> xs;
    {
        std::string err;
        fatal_if(!parseDoubleList(*values_opt, xs, &err), "--values: %s",
                 err.c_str());
    }
    fatal_if(xs.empty(), "no sweep values given");
    // Parse every numeric option before the baseline run so a typo
    // costs a diagnostic, not minutes of simulation.
    const int jobs = static_cast<int>(optLong(a, "jobs", 0));

    // Engine selection. The analytic engine answers eligible points
    // from the LP model and drops ineligible ones back to sim. The LP
    // re-times only the four LogGP knobs: any other knob is part of a
    // model's identity (window, occupancy) or refused by it (drop), so
    // its points -- the baseline included -- go straight to sim
    // instead of tracing and probing a model per point.
    const std::string engine = optString(a, "backend", "sim");
    fatal_if(engine != "sim" && engine != "analytic",
             "sweep --backend must be sim or analytic (got '%s')",
             engine.c_str());
    // The swept knob is a row of the knob table every knob option and
    // nowlabd read.
    const svc::KnobField *field = nullptr;
    for (const svc::KnobField &f : svc::knobFields())
        if (knob == f.key)
            field = &f;
    fatal_if(!field, "unknown knob '%s'", knob.c_str());
    for (double x : xs)
        fatal_if(field->integral && x != std::trunc(x),
                 "--values: --knob %s takes integers (got %g)",
                 knob.c_str(), x);
    std::unique_ptr<backend::AnalyticBackend> ana;
    if (engine == "analytic" && field->loggp)
        ana = std::make_unique<backend::AnalyticBackend>();

    RunConfig base = configOf(a);
    a.rejectUnread();
    // Every point is an independent simulation: fan them out. They
    // are built before the baseline run, so an out-of-range value
    // costs a diagnostic, not a simulation.
    std::vector<RunPoint> points;
    points.reserve(xs.size());
    for (double x : xs) {
        RunConfig c = base;
        field->set(c.knobs, x);
        if (knob == "drop" && c.knobs.reliable < 0)
            c.knobs.reliable = 1; // Losses need a recovery path.
        const std::string why = c.knobs.boundError();
        fatal_if(!why.empty(), "%s", why.c_str());
        c.validate = false;
        points.push_back(RunPoint{key, c});
    }

    RunPoint basePt{key, base};
    RunResult b;
    bool baseViaModel = false;
    if (ana && ana->canServe(basePt).empty()) {
        // The baseline doubles as the model build: one traced run plus
        // one validation probe, after which every point is an LP solve.
        RunResult mb = ana->run(basePt);
        if (ana->ready(basePt)) {
            b = std::move(mb);
            baseViaModel = true;
        }
    }
    if (!baseViaModel)
        b = runPointCached(basePt);
    std::printf("%s baseline: %.3f ms (m = %llu msgs/proc)\n",
                b.summary.app.c_str(), toMsec(b.runtime),
                static_cast<unsigned long long>(b.maxMsgsPerProc));
    for (RunPoint &pt : points)
        pt.config.maxTime = b.runtime * 200 + kSec;

    // The analytic engine knows the sweep's local derivative (the
    // LP's one-sided slope); surface it for the LogGP knobs where it
    // is defined, solving for the swept knob's alone.
    const unsigned slopeKnob = knob == "latency"    ? backend::kSlopeL
                               : knob == "overhead" ? backend::kSlopeO
                               : knob == "gap"      ? backend::kSlopeG
                                                    : 0u;
    const bool slopes = ana && slopeKnob != 0;
    std::vector<RunResult> rs;
    std::vector<backend::AnalyticSlopes> slopeAt(points.size());
    std::size_t served = 0, fellBack = 0;
    // Every refusal reason with its count: a sweep can mix refusals
    // (window too small here, fault injection there) and reporting
    // only the first would hide the rest. std::map iterates sorted,
    // so the report order is deterministic.
    std::map<std::string, std::size_t> reasons;
    if (!ana) {
        rs = runPoints(points, jobs);
        if (engine == "analytic") {
            fellBack = points.size();
            reasons["--knob " + knob +
                    " is not an L/o/g/G knob the model re-times"] =
                points.size();
        }
    } else {
        rs.resize(points.size());
        std::vector<RunPoint> misses;
        std::vector<std::size_t> missAt;
        for (std::size_t i = 0; i < points.size(); ++i) {
            // canServe after run is the health re-check: a model whose
            // validation probe drifted past tolerance refuses further
            // service, and the point falls back to the simulator.
            std::string why = ana->canServe(points[i]);
            if (why.empty()) {
                rs[i] = ana->run(points[i]);
                why = ana->canServe(points[i]);
            }
            if (why.empty()) {
                ++served;
                if (slopes)
                    slopeAt[i] = ana->slopes(points[i], slopeKnob);
            } else {
                ++reasons[why];
                misses.push_back(points[i]);
                missAt.push_back(i);
            }
        }
        if (!misses.empty()) {
            std::vector<RunResult> fr = runPoints(misses, jobs);
            for (std::size_t j = 0; j < misses.size(); ++j)
                rs[missAt[j]] = fr[j];
            fellBack = misses.size();
        }
    }

    Table t;
    {
        auto hdr = t.row();
        hdr.cell(knob).cell("runtime (ms)").cell("slowdown");
        if (slopes)
            hdr.cell("dT/d" + knob);
    }
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const RunResult &r = rs[i];
        auto row = t.row();
        // Each value in its shortest form: the knobs run from
        // probabilities to integral counts.
        char value[32];
        std::snprintf(value, sizeof value, "%.10g", xs[i]);
        row.cell(std::string(value));
        if (r.ok)
            row.cell(toMsec(r.runtime), 2)
                .cell(slowdown(r.runtime, b.runtime), 2);
        else
            row.cell(std::string("N/A")).cell(std::string("N/A"));
        if (slopes) {
            const backend::AnalyticSlopes &p = slopeAt[i];
            double s = knob == "latency"
                           ? p.dTdL
                           : knob == "overhead" ? p.dTdO : p.dTdG;
            if (p.ok)
                row.cell(s, 1);
            else
                row.cell(std::string("-"));
        }
    }
    t.print();
    if (fellBack)
        std::printf("backend    : analytic served %zu/%zu points, %zu "
                    "fell back to sim\n",
                    served, points.size(), fellBack);
    else if (ana)
        std::printf("backend    : analytic served %zu/%zu points\n",
                    served, points.size());
    for (const auto &[why, n] : reasons)
        std::printf("  reason   : %s (%zu point%s)\n", why.c_str(), n,
                    n == 1 ? "" : "s");
    std::printf("wall clock : %.2f s\n",
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
    return 0;
}

svc::NowlabServer *gServer = nullptr;

extern "C" void
handleStopSignal(int)
{
    if (gServer)
        gServer->requestStop(); // Async-signal-safe: one pipe write.
}

/** Split a comma-separated list (empty fields dropped). */
std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > start)
            out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

int
cmdServe(const Args &a)
{
    svc::ServiceConfig cfg;
    cfg.jobs = static_cast<int>(optLong(a, "jobs", 0));
    cfg.maxQueue =
        static_cast<std::size_t>(optLong(a, "queue", 64));
    cfg.cacheDir = optString(a, "cache-dir", envCacheDir());
    cfg.cacheOnly = a.flag("cache-only");
    fatal_if(cfg.cacheOnly && cfg.cacheDir.empty(),
             "--cache-only needs --cache-dir (or NOW_CACHE_DIR)");
    if (const std::string *b = a.value("backend")) {
        fatal_if(*b != "sim" && *b != "analytic",
                 "serve --backend must be sim or analytic (got '%s')",
                 b->c_str());
        if (*b == "analytic")
            cfg.backend = "analytic";
    }
    cfg.driftTolerance =
        optDouble(a, "drift-tolerance", cfg.driftTolerance);
    const int port =
        static_cast<int>(optLong(a, "port", svc::kDefaultPort));

    a.rejectUnread();
    svc::NowlabServer server(cfg, port);
    if (!server.start())
        fatal("cannot bind 127.0.0.1:%d", port);
    gServer = &server;
    std::signal(SIGTERM, handleStopSignal);
    std::signal(SIGINT, handleStopSignal);

    std::printf("nowlabd on 127.0.0.1:%d (%d workers, queue %zu%s%s%s%s)\n",
                server.port(), resolveJobs(cfg.jobs), cfg.maxQueue,
                cfg.cacheDir.empty() ? "" : ", store ",
                cfg.cacheDir.c_str(),
                cfg.cacheOnly ? ", cache-only" : "",
                cfg.backend == "analytic" ? ", analytic backend" : "");
    std::fflush(stdout); // Port line must reach pipes before we block.
    server.wait(); // Returns once stopped and fully drained.
    gServer = nullptr;
    std::printf("nowlabd drained, bye\n");
    return 0;
}

svc::Client
clientOf(const Args &a)
{
    return svc::Client(
        optString(a, "host", "127.0.0.1"),
        static_cast<int>(optLong(a, "port", svc::kDefaultPort)));
}

/** The {"op":op,"id":id} request of status and get. */
std::string
idRequest(const char *op, std::uint64_t id)
{
    svc::JsonWriter w;
    w.beginObject().field("op", op).field("id", id).endObject();
    return w.str();
}

/** One round trip; fatal on transport failure (dead server). */
svc::JsonValue
roundTrip(svc::Client &client, const std::string &line)
{
    std::string reply;
    fatal_if(!client.request(line, reply),
             "cannot reach nowlabd (is it running? try `nowlab serve`)");
    svc::JsonValue v;
    std::string err;
    fatal_if(!svc::parseJson(reply, v, &err),
             "malformed reply from nowlabd: %s", err.c_str());
    std::printf("%s\n", reply.c_str());
    return v;
}

/** Render the command line as a nowlabd submit request. */
std::string
submitRequestOf(const Args &a)
{
    RunPoint pt{a.positional[1], configOf(a)};
    fatal_if(!pt.config.knobs.collAlg.empty(),
             "submit: a nowlabd request has no field for --coll-alg");
    const double ms = optDouble(a, "max-ms", toMsec(pt.config.maxTime));
    fatal_if(!(ms > 0 && ms <= 1e12), "--max-ms must be in (0, 1e12]");
    pt.config.maxTime = std::llround(ms * kMsec);
    pt.config.validate = !a.flag("no-validate");
    return svc::submitRequest(pt);
}

int
cmdSubmit(const Args &a)
{
    if (a.positional.size() < 2)
        fatal("usage: nowlab submit <app> [knobs] [--host H] "
              "[--port P] [--wait] [--max-retries N]");
    svc::Client client = clientOf(a);
    const bool wait = a.flag("wait");
    const long maxRetries = optLong(a, "max-retries", 8);
    const std::string request = submitRequestOf(a);
    a.rejectUnread();

    // Backpressure: a busy reply is retried (one-shot and --wait mode
    // alike) on the shared jittered backoff policy, never shorter
    // than the server's own retry_after_ms hint, and bounded by
    // --max-retries so scripts fail fast instead of spinning forever.
    svc::Backoff backoff(50, 5000,
                         static_cast<std::uint64_t>(::getpid()));
    long retries = 0;
    svc::JsonValue v = roundTrip(client, request);
    while (v.stringOr("error", "") == "busy") {
        if (++retries > maxRetries) {
            warn("server still busy after %ld retries, giving up",
                 maxRetries);
            return 1;
        }
        long delay = std::max(
            static_cast<long>(v.numberOr("retry_after_ms", 0)),
            static_cast<long>(backoff.nextMs()));
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        v = roundTrip(client, request);
    }
    if (!v.boolOr("ok", false))
        return 1;
    if (!wait)
        return 0;

    std::uint64_t id =
        static_cast<std::uint64_t>(v.numberOr("id", 0));
    std::string state = v.stringOr("state", "");
    while (state == "queued" || state == "running") {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        std::string reply;
        fatal_if(!client.request(idRequest("status", id), reply),
                 "lost nowlabd while waiting on job %llu",
                 static_cast<unsigned long long>(id));
        svc::JsonValue s;
        if (!svc::parseJson(reply, s, nullptr))
            return 1;
        state = s.stringOr("state", "failed");
    }

    v = roundTrip(client, idRequest("get", id));
    return v.boolOr("ok", false) && v.boolOr("run_ok", false) ? 0 : 1;
}

int
cmdGet(const Args &a)
{
    if (a.value("id")) {
        svc::Client client = clientOf(a);
        const std::string request = idRequest(
            "get", static_cast<std::uint64_t>(optLong(a, "id", 0)));
        a.rejectUnread();
        svc::JsonValue v = roundTrip(client, request);
        return v.boolOr("ok", false) ? 0 : 1;
    }

    // Offline mode: hash the spec locally and read the store directly,
    // no server (or simulation) anywhere in the path.
    if (a.positional.size() < 2)
        fatal("usage: nowlab get --id N [--host H] [--port P]\n"
              "       nowlab get <app> --cache-dir D [knobs]");
    std::string cacheDir = optString(a, "cache-dir", envCacheDir());
    fatal_if(cacheDir.empty(),
             "offline get needs --cache-dir (or NOW_CACHE_DIR)");

    RunPoint pt{a.positional[1], configOf(a)};
    a.rejectUnread();
    std::string key = svc::cacheKey(pt);
    svc::ResultStore store(cacheDir);
    std::string payload;
    RunResult r;
    if (!store.get(key, payload) || !svc::decodeResult(payload, r)) {
        std::printf("miss: %s not in %s\n", key.c_str(),
                    cacheDir.c_str());
        return 1;
    }
    std::printf("key         : %s\n", key.c_str());
    std::printf("status      : %s%s\n",
                r.ok ? "completed" : "TIMED OUT",
                r.ok ? (r.validated ? ", output valid"
                                    : ", OUTPUT INVALID")
                     : "");
    std::printf("runtime     : %.3f ms\n", toMsec(r.runtime));
    std::printf("msgs/proc   : avg %llu, max %llu\n",
                static_cast<unsigned long long>(
                    r.summary.avgMsgsPerProc),
                static_cast<unsigned long long>(r.maxMsgsPerProc));
    std::printf("fingerprint : %s\n",
                svc::sha256Hex(fingerprint(r)).c_str());
    return 0;
}

int
cmdStats(const Args &a)
{
    svc::Client client = clientOf(a);
    const bool shutdown = a.flag("shutdown");
    a.rejectUnread();
    // Stats before shutdown: the server winds down right after the
    // shutdown reply, so this order gets the final numbers out.
    svc::JsonValue v = roundTrip(client, "{\"op\":\"stats\"}");
    if (shutdown)
        roundTrip(client, "{\"op\":\"shutdown\"}");
    return v.boolOr("ok", false) ? 0 : 1;
}

/** Exact percentile of a sorted sample, interpolated between ranks. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    double rank = q * static_cast<double>(sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

/**
 * `nowlab storm`: the nowlabd load generator behind BENCH_svc.json and
 * scripts/storm_smoke.sh. Opens --conns concurrent connections and
 * drives --ops requests of mixed submit/status/get traffic at a
 * nowlabd, honouring busy backpressure with the shared jittered
 * backoff. After the load phase every submitted job is polled to
 * completion, so a storm that returns 0 proves the service lost
 * nothing. Latency percentiles (per op) and saturation throughput go
 * to stdout and, with --out, to a benchmark JSON.
 */
int
cmdStorm(const Args &a)
{
    using Clock = std::chrono::steady_clock;
    const int conns = static_cast<int>(optLong(a, "conns", 64));
    const long ops = optLong(a, "ops", 2000);
    const std::string app = optString(a, "app", "radix");
    const int procs = static_cast<int>(optLong(a, "procs", 4));
    const double scale = optDouble(a, "scale", 0.05);
    const long seeds = std::max(1L, optLong(a, "seeds", 16));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(optLong(a, "seed", 1));
    const std::string host = optString(a, "host", "127.0.0.1");
    const int port =
        static_cast<int>(optLong(a, "port", svc::kDefaultPort));
    // --backend analytic stamps every submit with the analytic engine
    // request: the server answers eligible jobs from the LogGP model
    // (falling back to sim transparently), which is how BENCH_svc.json
    // shows served-QPS with the cheap backend.
    const std::string stormBackend = optString(a, "backend", "sim");
    fatal_if(stormBackend != "sim" && stormBackend != "analytic",
             "storm --backend must be sim or analytic (got '%s')",
             stormBackend.c_str());
    const std::string *out = a.value("out");
    a.rejectUnread();

    enum
    {
        kSubmit = 0,
        kStatus = 1,
        kGet = 2,
        kOps = 3
    };
    static const char *kOpName[kOps] = {"submit", "status", "get"};

    struct Lane
    {
        std::vector<double> lat[kOps]; ///< Milliseconds per round trip.
        std::vector<std::uint64_t> ids;
        long busy = 0;
        long errors = 0;
        long protocolErrors = 0;
    };
    std::vector<Lane> lanes(static_cast<std::size_t>(conns));
    std::atomic<long> next{0};

    auto submitLine = [&](std::uint64_t s) {
        svc::JsonWriter w;
        w.beginObject()
            .field("op", "submit")
            .field("app", app)
            .field("procs", procs)
            .field("scale", scale)
            .field("seed", s)
            .field("validate", false);
        if (stormBackend == "analytic")
            w.field("backend", "analytic");
        w.endObject();
        return w.str();
    };

    auto loadLane = [&](int t) {
        Lane &lane = lanes[static_cast<std::size_t>(t)];
        svc::Client client(host, port, 10'000);
        Rng rng(seed, static_cast<std::uint64_t>(t));
        svc::Backoff backoff(25, 2000,
                             seed * 997 + static_cast<std::uint64_t>(t));
        for (;;) {
            long i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= ops)
                break;
            // 40% submits, 30% status polls, 30% result reads -- the
            // laboratory's real mix (sweeps poll far more than they
            // submit).
            int kind = kSubmit;
            if (!lane.ids.empty()) {
                std::uint64_t roll = rng.below(10);
                kind = roll < 4 ? kSubmit : roll < 7 ? kStatus : kGet;
            }
            std::string line =
                kind == kSubmit
                    ? submitLine(1 + rng.below(
                                         static_cast<std::uint64_t>(seeds)))
                    : idRequest(kOpName[kind],
                                lane.ids[rng.below(lane.ids.size())]);
            auto t0 = Clock::now();
            std::string reply;
            if (!client.request(line, reply)) {
                ++lane.errors;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(backoff.nextMs()));
                continue;
            }
            double ms =
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          t0)
                    .count();
            svc::JsonValue v;
            if (!svc::parseJson(reply, v, nullptr)) {
                ++lane.protocolErrors;
                continue;
            }
            if (v.stringOr("error", "") == "busy") {
                ++lane.busy;
                long delay = std::max(
                    static_cast<long>(v.numberOr("retry_after_ms", 0)),
                    static_cast<long>(backoff.nextMs()));
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay));
                continue;
            }
            backoff.reset();
            lane.lat[kind].push_back(ms);
            if (kind == kSubmit && v.boolOr("ok", false))
                lane.ids.push_back(static_cast<std::uint64_t>(
                    v.numberOr("id", 0)));
        }
    };

    std::printf("storm: %d connections, %ld ops against %s:%d "
                "(%s backend)\n",
                conns, ops, host.c_str(), port, stormBackend.c_str());
    auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < conns; ++t)
        threads.emplace_back(loadLane, t);
    for (auto &th : threads)
        th.join();
    double loadSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();

    // Drain: every accepted submit must reach done (or failed) -- a
    // job the service lost would poll forever, so it is the exit status.
    std::atomic<long> completed{0}, failedJobs{0}, lost{0};
    auto drainLane = [&](int t) {
        Lane &lane = lanes[static_cast<std::size_t>(t)];
        svc::Client client(host, port, 10'000);
        svc::Backoff backoff(25, 2000,
                             seed * 911 + static_cast<std::uint64_t>(t));
        for (std::uint64_t id : lane.ids) {
            bool settled = false;
            for (int tries = 0; tries < 600 && !settled; ++tries) {
                std::string reply;
                if (!client.request(idRequest("status", id), reply)) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(backoff.nextMs()));
                    continue;
                }
                backoff.reset();
                svc::JsonValue v;
                if (!svc::parseJson(reply, v, nullptr))
                    continue;
                std::string state = v.stringOr("state", "");
                if (state == "done") {
                    ++completed;
                    settled = true;
                } else if (state == "failed") {
                    ++failedJobs;
                    settled = true;
                } else {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                }
            }
            if (!settled)
                ++lost;
        }
    };
    threads.clear();
    for (int t = 0; t < conns; ++t)
        threads.emplace_back(drainLane, t);
    for (auto &th : threads)
        th.join();

    // Merge lanes into exact per-op percentile vectors.
    std::vector<double> merged[kOps];
    long busy = 0, errors = 0, protocolErrors = 0, submitted = 0;
    for (const Lane &lane : lanes) {
        busy += lane.busy;
        errors += lane.errors;
        protocolErrors += lane.protocolErrors;
        submitted += static_cast<long>(lane.ids.size());
        for (int k = 0; k < kOps; ++k)
            merged[k].insert(merged[k].end(), lane.lat[k].begin(),
                             lane.lat[k].end());
    }
    long answered = 0;
    for (int k = 0; k < kOps; ++k) {
        std::sort(merged[k].begin(), merged[k].end());
        answered += static_cast<long>(merged[k].size());
    }

    double throughput =
        loadSeconds > 0 ? static_cast<double>(answered) / loadSeconds
                        : 0;
    std::printf("  load phase : %.2f s, %.0f ops/s saturated, %ld busy,"
                " %ld transport errors\n",
                loadSeconds, throughput, busy, errors);
    for (int k = 0; k < kOps; ++k) {
        std::printf("  %-7s : %6zu ops, p50 %7.2f ms, p90 %7.2f ms,"
                    " p99 %7.2f ms\n",
                    kOpName[k], merged[k].size(),
                    percentile(merged[k], 0.50),
                    percentile(merged[k], 0.90),
                    percentile(merged[k], 0.99));
    }
    std::printf("  jobs       : %ld submitted, %ld completed, %ld "
                "failed, %ld lost\n",
                submitted, completed.load(), failedJobs.load(),
                lost.load());

    if (out) {
        svc::JsonWriter w;
        w.beginObject().field("bench", "svc");
        svc::writeHost(w)
            .field("conns", conns)
            .field("ops", static_cast<std::int64_t>(ops))
            .field("backend", stormBackend)
            .field("app", app)
            .field("load_seconds", loadSeconds)
            .field("saturation_ops_per_sec", throughput)
            .field("busy_replies", static_cast<std::int64_t>(busy))
            .field("transport_errors", static_cast<std::int64_t>(errors))
            .field("protocol_errors",
                   static_cast<std::int64_t>(protocolErrors));
        w.beginObject("jobs")
            .field("submitted", static_cast<std::int64_t>(submitted))
            .field("completed",
                   static_cast<std::int64_t>(completed.load()))
            .field("failed", static_cast<std::int64_t>(failedJobs.load()))
            .field("lost", static_cast<std::int64_t>(lost.load()))
            .endObject();
        w.beginObject("latency_ms");
        for (int k = 0; k < kOps; ++k)
            w.beginObject(kOpName[k])
                .field("count",
                       static_cast<std::uint64_t>(merged[k].size()))
                .field("p50", percentile(merged[k], 0.50))
                .field("p90", percentile(merged[k], 0.90))
                .field("p99", percentile(merged[k], 0.99))
                .endObject();
        w.endObject().endObject();
        svc::writeJsonFile(w, *out);
    }
    return lost.load() == 0 && protocolErrors == 0 ? 0 : 1;
}

/** Median, minimum and interquartile range of a timing sample. */
struct Spread
{
    double median = 0;
    double min = 0;
    double iqr = 0;
};

Spread
spreadOf(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    Spread s;
    s.median = percentile(xs, 0.50);
    s.min = xs.empty() ? 0 : xs.front();
    s.iqr = percentile(xs, 0.75) - percentile(xs, 0.25);
    return s;
}

/** `key: {median, min, iqr}` in a ledger. */
void
writeSpread(svc::JsonWriter &w, std::string_view key, const Spread &s)
{
    w.beginObject(key)
        .field("median", s.median)
        .field("min", s.min)
        .field("iqr", s.iqr)
        .endObject();
}

/**
 * One whole two-node cluster run of `trips` request/reply round trips
 * (node 0 requests, node 1's handler replies), with `tracer` attached
 * when it is not null.
 */
void
amRoundTrips(const LogGPParams &params, SpanTracer *tracer, int trips)
{
    Cluster c(2, params);
    if (tracer)
        c.setTracer(tracer);
    int done = c.registerHandler([](AmNode &, Packet &) {});
    int echo = c.registerHandler([done](AmNode &self, Packet &pkt) {
        self.reply(pkt, done);
    });
    bool stop = false;
    c.run([&](AmNode &n) {
        if (n.id() == 0) {
            for (int i = 0; i < trips; ++i)
                n.request(1, echo);
            n.pollUntil([&] {
                return n.counters().received >=
                       static_cast<std::uint64_t>(trips);
            });
            stop = true;
            n.oneWay(1, done);
        } else {
            n.pollUntil([&] { return stop; });
        }
    });
}

/**
 * `nowlab perf`: the perf-trajectory benchmark behind
 * scripts/bench_perf.sh and BENCH_engine.json.
 *
 * Measures (1) raw event-loop throughput through the pooled
 * explicit-heap queue, (2) pooled fiber stand-up cost and the
 * resume+yield round trip, (3) the host time of one simulated AM
 * request/reply round trip, untraced and with a span tracer attached
 * (the tracer's cost), (4) wall-clock for a canonical knob sweep run
 * serially vs fanned out with the parallel runner, over alternating
 * rounds -- verifying on the way that every round produces
 * byte-identical per-point results, (5) one
 * large run (radix on an oversubscribed fat-tree, 1024 procs by
 * default) on the single-heap engine, and (6) the analytic LP of the
 * sweep's app and size: whole model builds through the backend, the
 * lowering of one traced run, and its solves at the sweep's overhead
 * values.
 */
int
cmdPerf(const Args &a)
{
    using Clock = std::chrono::steady_clock;
    auto seconds_since = [](Clock::time_point t0) {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };

    const std::string app = optString(a, "app", "radix");
    const long events = optLong(a, "events", 2'000'000);
    const int jobs = resolveJobs(static_cast<int>(optLong(a, "jobs", 0)));
    const int npoints = static_cast<int>(optLong(a, "points", 8));
    const RunConfig base = configOf(a);
    const int sim_procs =
        static_cast<int>(optLong(a, "sim-procs", 1024));
    const double sim_scale = optDouble(a, "sim-scale", 0.02);
    const std::string *out = a.value("out");
    a.rejectUnread();

    // --- (1) event-loop throughput ----------------------------------
    // Batches of 1000 events with a 24-byte capture (bigger than
    // std::function's 16-byte SBO, like nearly every real event
    // closure), drained in order.
    struct Cap
    {
        std::uint64_t *sink;
        std::uint64_t a, b;
    };
    std::uint64_t sink = 0;
    Cap cap{&sink, 1, 2};

    double eps = 0;
    {
        EventQueue q;
        auto t0 = Clock::now();
        for (long done = 0; done < events; done += 1000) {
            for (int i = 0; i < 1000; ++i)
                q.schedule(i, [cap] { *cap.sink += cap.a; });
            while (!q.empty())
                q.pop().second();
        }
        eps = static_cast<double>(events) / seconds_since(t0);
    }
    std::printf("event loop : %.2f Mev/s\n", eps / 1e6);

    // --- (2) pooled fiber stand-up and switch --------------------------
    const int kFibers = 2000;
    double fiber_us = 0;
    {
        auto t0 = Clock::now();
        for (int i = 0; i < kFibers; ++i) {
            Fiber f([] {});
            f.resume();
        }
        fiber_us = seconds_since(t0) / kFibers * 1e6;
    }
    // Snapshot now: the sweeps below stand up fibers on this thread too.
    const FiberStackPool &pool = FiberStackPool::local();
    const unsigned long long pool_hits = pool.hits();
    const unsigned long long pool_misses = pool.misses();
    std::printf("fiber pool : %.2f us per create+run+destroy "
                "(%llu hits / %llu misses)\n",
                fiber_us, pool_hits, pool_misses);

    const int kSwitches = 200000;
    double switch_ns = 0;
    {
        Fiber f([] {
            for (int i = 0; i < kSwitches; ++i)
                Fiber::yield();
        });
        auto t0 = Clock::now();
        for (int i = 0; i < kSwitches; ++i)
            f.resume();
        switch_ns = seconds_since(t0) / kSwitches * 1e9;
        f.resume(); // Let the body return.
    }
    std::printf("fiber swap : %.1f ns per resume+yield\n", switch_ns);

    // --- (3) AM round trips, untraced and traced ------------------------
    // Whole cluster runs, alternating the two so that drift in the
    // host's speed hits both alike.
    constexpr int kAmRuns = 31;
    constexpr int kAmTrips = 2000;
    std::vector<double> am_ns, am_traced_ns;
    {
        SpanTracer am_tracer;
        for (int r = 0; r < kAmRuns; ++r) {
            auto t0 = Clock::now();
            amRoundTrips(base.machine.params, nullptr, kAmTrips);
            am_ns.push_back(seconds_since(t0) / kAmTrips * 1e9);
            am_tracer.clear();
            t0 = Clock::now();
            amRoundTrips(base.machine.params, &am_tracer, kAmTrips);
            am_traced_ns.push_back(seconds_since(t0) / kAmTrips * 1e9);
        }
    }
    const Spread am = spreadOf(am_ns);
    const Spread am_traced = spreadOf(am_traced_ns);
    const double am_overhead_pct =
        (am_traced.median / am.median - 1) * 100;
    std::printf("am         : %.1f ns per round trip (min %.1f, IQR "
                "%.1f), traced %.1f ns (%+.1f%%), %d runs of %d\n",
                am.median, am.min, am.iqr, am_traced.median,
                am_overhead_pct, kAmRuns, kAmTrips);

    // --- (4) canonical sweep, serial vs parallel ----------------------
    std::vector<RunPoint> points;
    for (int i = 0; i < npoints; ++i) {
        RunPoint p{app, base};
        // The Figure-5 regime: overhead from 2.9 us up in 10 us steps.
        p.config.knobs.overheadUs = 2.9 + 10.0 * i;
        p.config.validate = false;
        points.push_back(std::move(p));
    }

    // Rounds alternate serial and parallel, so that drift in the
    // host's speed hits both alike; every round's results must carry
    // the first round's fingerprints.
    constexpr int kSweepRounds = 5;
    std::vector<double> serial_runs, parallel_runs;
    std::vector<std::string> prints;
    bool identical = true;
    auto timedSweep = [&](int workers, std::vector<double> &wall) {
        const auto t0 = Clock::now();
        const std::vector<RunResult> rs = runPoints(points, workers);
        wall.push_back(seconds_since(t0));
        for (std::size_t i = 0; i < rs.size(); ++i) {
            if (prints.size() < rs.size())
                prints.push_back(fingerprint(rs[i]));
            else if (fingerprint(rs[i]) != prints[i])
                identical = false;
        }
    };
    for (int r = 0; r < kSweepRounds; ++r) {
        timedSweep(1, serial_runs);
        timedSweep(jobs, parallel_runs);
    }
    const Spread serial = spreadOf(serial_runs);
    const Spread parallel = spreadOf(parallel_runs);
    const double sweep_speedup = serial.median / parallel.median;
    std::printf("sweep      : %d x %s, %.2fs serial (IQR %.2f), %.2fs at "
                "--jobs %d (IQR %.2f), %.2fx, %d rounds, results %s\n",
                npoints, app.c_str(), serial.median, serial.iqr,
                parallel.median, jobs, parallel.iqr, sweep_speedup,
                kSweepRounds, identical ? "byte-identical" : "DIVERGENT");

    // --- (5) one large run on the single-heap engine -----------------
    RunConfig pcfg;
    pcfg.nprocs = sim_procs;
    pcfg.scale = sim_scale;
    pcfg.seed = 1;
    pcfg.machine = base.machine;
    pcfg.validate = false;
    pcfg.knobs.topo = 1;
    pcfg.knobs.topoOversub = 4;
    auto ts = Clock::now();
    const RunResult large = runApp("radix", pcfg);
    const double large_s = seconds_since(ts);
    const double large_eps = static_cast<double>(large.simEvents) / large_s;
    std::printf("large sim  : radix, %d procs on a 4:1 fat-tree: %.2fs, "
                "%.2f Mev/s%s\n",
                sim_procs, large_s, large_eps / 1e6,
                large.ok ? "" : " (FAILED)");

    // --- (6) LP build, lower and solve --------------------------------
    // A whole model build through a fresh AnalyticBackend -- the traced
    // run and the probe beside it, then the lowering -- kBuildReps
    // times; AnalyticModel::build on one traced run kLowerReps times;
    // then runtime() -- the makespan-only solve a served point takes --
    // and predict() -- the solve with the dual, which slopes() takes
    // once per knob -- cycling through the sweep's overhead column,
    // kLpReps times each.
    constexpr int kBuildReps = 5;
    constexpr int kLowerReps = 11;
    constexpr int kLpReps = 31;
    RunConfig tcfg = base;
    tcfg.validate = false;
    std::vector<double> build_ms;
    for (int r = 0; r < kBuildReps; ++r) {
        backend::AnalyticBackend be;
        ts = Clock::now();
        be.run({app, tcfg});
        build_ms.push_back(seconds_since(ts) * 1e3);
    }
    SpanTracer tracer;
    tcfg.obs = &tracer;
    const RunResult traced = runApp(app, tcfg);
    LogGPParams lp_base = tcfg.machine.params;
    tcfg.knobs.applyTo(lp_base);
    backend::AnalyticModel model;
    std::vector<double> lower_ms;
    bool lowered = traced.ok;
    for (int r = 0; lowered && r < kLowerReps; ++r) {
        // Each lowering into a fresh model, the last one freed untimed.
        backend::AnalyticModel fresh;
        ts = Clock::now();
        lowered = fresh.build(tracer, lp_base, traced.runtime);
        lower_ms.push_back(seconds_since(ts) * 1e3);
        model = std::move(fresh);
    }
    std::vector<double> runtime_us, dual_us;
    for (int r = 0; lowered && r < kLpReps; ++r) {
        Knobs k = base.knobs;
        k.overheadUs = 2.9 + 10.0 * (r % 8);
        LogGPParams p = base.machine.params;
        k.applyTo(p);
        ts = Clock::now();
        const bool solved = model.runtime(p).has_value();
        runtime_us.push_back(seconds_since(ts) * 1e6);
        ts = Clock::now();
        const bool dual = model.predict(p).ok;
        dual_us.push_back(seconds_since(ts) * 1e6);
        fatal_if(!solved || !dual, "perf: the lowered model did not solve");
    }
    const Spread build = spreadOf(build_ms);
    const Spread lower = spreadOf(lower_ms);
    const Spread makespan = spreadOf(runtime_us);
    const Spread dual = spreadOf(dual_us);
    const backend::ModelBuildStats &lp = model.stats();
    std::printf("lp         : %s, %zu nodes, %zu edges: built in %.2f ms "
                "(min %.2f, IQR %.2f; traced run, probe and lowering, %d "
                "reps), lowered in %.2f ms (min %.2f, IQR %.2f, %d reps), "
                "runtime() %.1f us per point (min %.1f, IQR %.1f), "
                "predict() %.1f us (min %.1f, IQR %.1f), %d reps%s\n",
                app.c_str(), lp.lpNodes, lp.lpEdges, build.median,
                build.min, build.iqr, kBuildReps, lower.median, lower.min,
                lower.iqr, kLowerReps, makespan.median, makespan.min,
                makespan.iqr, dual.median, dual.min, dual.iqr, kLpReps,
                lowered ? "" : " (FAILED to lower)");

    if (out) {
        svc::JsonWriter w;
        w.beginObject().field("bench", "engine");
        svc::writeHost(w).field("jobs_used", jobs);
        w.beginObject("event_loop")
            .field("events", static_cast<std::int64_t>(events))
            .field("events_per_sec", eps)
            .endObject();
        w.beginObject("fiber")
            .field("create_run_destroy_us", fiber_us)
            .field("switch_round_trip_ns", switch_ns)
            .field("stack_pool_hits", static_cast<std::uint64_t>(pool_hits))
            .field("stack_pool_misses",
                   static_cast<std::uint64_t>(pool_misses))
            .endObject();
        w.beginObject("am")
            .field("runs", kAmRuns)
            .field("round_trips_per_run", kAmTrips);
        writeSpread(w, "round_trip_ns", am);
        writeSpread(w, "traced_round_trip_ns", am_traced);
        w.field("traced_overhead_pct", am_overhead_pct).endObject();
        w.beginObject("sweep")
            .field("app", app)
            .field("points", npoints)
            .field("nprocs", base.nprocs)
            .field("scale", base.scale)
            .field("rounds", kSweepRounds)
            .field("jobs", jobs);
        writeSpread(w, "serial_seconds", serial);
        writeSpread(w, "parallel_seconds", parallel);
        w.field("parallel_speedup", sweep_speedup)
            .field("results_byte_identical", identical)
            .endObject();
        w.beginObject("large_sim")
            .field("app", "radix")
            .field("nprocs", sim_procs)
            .field("scale", sim_scale)
            .field("topo_oversub", 4)
            .field("seconds", large_s)
            .field("events", large.simEvents)
            .field("events_per_sec", large_eps)
            .field("ok", large.ok)
            .endObject();
        // `key: {reps, median, min, iqr}`.
        auto timed = [&](std::string_view key, int reps, const Spread &s) {
            w.beginObject(key)
                .field("reps", reps)
                .field("median", s.median)
                .field("min", s.min)
                .field("iqr", s.iqr)
                .endObject();
        };
        w.beginObject("lp")
            .field("app", app)
            .field("nprocs", base.nprocs)
            .field("scale", base.scale)
            .field("lpNodes", static_cast<std::uint64_t>(lp.lpNodes))
            .field("lpEdges", static_cast<std::uint64_t>(lp.lpEdges));
        timed("build_ms", kBuildReps, build);
        timed("lower_ms", kLowerReps, lower);
        timed("runtime_us", kLpReps, makespan);
        timed("solve_us", kLpReps, dual);
        w.endObject();
        w.endObject();
        svc::writeJsonFile(w, *out);
    }
    return identical && large.ok && lowered ? 0 : 1;
}

/**
 * `nowlab trace <app>`: run one application with the span tracer
 * attached, print the LP's critical-path report on the trace
 * (AnalyticModel::report) and the metrics snapshot, and optionally
 * export the timeline as Perfetto JSON (--out, loadable in
 * ui.perfetto.dev / chrome://tracing) and/or the compact binary form
 * (--bin, loadable by `nowlab replay --obs`), headed by the run's spec
 * as a nowlabd submit request and its runtime.
 */
int
cmdTrace(const Args &a)
{
    if (a.positional.size() < 2)
        fatal("usage: nowlab trace <app> [--out F.json] [--bin F] "
              "[options]");
    std::string key = a.positional[1];
    RunConfig c = configOf(a);
    const std::string *out = a.value("out");
    const std::string *bin = a.value("bin");
    a.rejectUnread();
    fatal_if(bin && !(c.knobs.collAlg.empty() && envConfig().collAlg.empty()),
             "trace --bin: a trace header (a nowlabd request) has no field "
             "for --coll-alg or NOW_COLL_ALG");

    SpanTracer tracer;
    c.obs = &tracer;

    RunResult r = runApp(key, c);
    std::printf("%s on %d procs (%s), scale %.2f: %.3f ms%s\n",
                r.summary.app.c_str(), c.nprocs, c.machine.name.c_str(),
                c.scale, toMsec(r.runtime),
                r.ok ? "" : " (TIMED OUT)");

    std::uint64_t per_track[kNumTrackKinds] = {};
    for (const Span &s : tracer.spans())
        ++per_track[static_cast<int>(s.track)];
    std::printf("recorded %zu spans (%llu cpu, %llu nic-tx, %llu "
                "nic-rx), %zu messages (mean flight %.1f us, burst "
                "fraction %.2f)\n",
                tracer.spans().size(),
                static_cast<unsigned long long>(per_track[0]),
                static_cast<unsigned long long>(per_track[1]),
                static_cast<unsigned long long>(per_track[2]),
                tracer.messages().size(), meanFlightUs(tracer),
                burstFraction(tracer, usec(10)));

    LogGPParams params = c.machine.params;
    c.knobs.applyTo(params);
    backend::AnalyticModel model;
    model.build(tracer, params, r.runtime);
    std::fputs(model.report(params, backend::retimeRefusal(c)).c_str(),
               stdout);

    std::printf("metrics:\n%s", r.metrics.render().c_str());

    if (out) {
        if (writePerfettoJson(tracer, *out))
            std::printf("wrote %s (load in ui.perfetto.dev)\n",
                        out->c_str());
        else
            warn("could not write %s", out->c_str());
    }
    if (bin) {
        const TraceHeader header{svc::submitRequest(RunPoint{key, c}),
                                 r.runtime};
        if (writeBinaryTrace(tracer, header, *bin))
            std::printf("wrote %s\n", bin->c_str());
        else
            warn("could not write %s", bin->c_str());
    }
    return r.ok ? 0 : 1;
}

/**
 * wavefront: the delay propagation & decay scenario. One traced
 * baseline run, then one traced perturbed run per delay size (a
 * one-off stall on --node at --at), each diffed against the baseline
 * by the wavefront analyzer. Prints the per-delay summary sweep, the
 * full per-node table for the largest delay, and optionally exports
 * that run's timeline with the idle wave overlaid (--out).
 */
int
cmdWavefront(const Args &a)
{
    if (a.positional.size() < 2)
        fatal("usage: nowlab wavefront <app> [--node N] [--at US] "
              "[--delays a,b,c] [--threshold F] [--out F.json] "
              "[options]");
    std::string key = a.positional[1];
    RunConfig base = configOf(a);
    fatal_if(base.knobs.delayNode >= 0,
             "wavefront injects its own delays; use --node/--at/"
             "--delays, not --delay-*");

    std::vector<double> delaysUs;
    if (const std::string *d = a.value("delays")) {
        std::string err;
        fatal_if(!parseDoubleList(*d, delaysUs, &err),
                 "--delays: %s", err.c_str());
        for (double d : delaysUs)
            fatal_if(!(d > 0), "--delays entries must be positive");
    }
    const double threshold = optDouble(a, "threshold", 0.05);
    fatal_if(!(threshold > 0) || threshold >= 1,
             "--threshold must be in (0, 1)");
    const NodeId node = static_cast<NodeId>(
        optLong(a, "node", base.nprocs / 2));
    fatal_if(node < 0 || node >= base.nprocs,
             "--node %d out of range [0, %d)", node, base.nprocs);
    // Without --at, inject at 30% of the baseline run (known below).
    const bool atGiven = a.value("at") != nullptr;
    const double atOpt = optDouble(a, "at", 0);
    fatal_if(atOpt < 0, "--at must be non-negative");
    const std::string *out = a.value("out");
    a.rejectUnread();

    SpanTracer baseTrace;
    base.obs = &baseTrace;
    RunResult br = runApp(key, base);
    fatal_if(!br.ok, "baseline %s run did not complete", key.c_str());
    std::printf("%s baseline on %d procs: %.3f ms\n",
                br.summary.app.c_str(), base.nprocs, toMsec(br.runtime));

    // Deterministic defaults derived from the baseline: inject at 30%
    // of the run, sweep delays of 2%, 8%, and 32% of the runtime.
    const double runtimeUs = static_cast<double>(br.runtime) / kUsec;
    const double atUs = atGiven ? atOpt : 0.30 * runtimeUs;
    if (delaysUs.empty())
        delaysUs = {0.02 * runtimeUs, 0.08 * runtimeUs,
                    0.32 * runtimeUs};

    Table t;
    t.row()
        .cell("delay (us)")
        .cell("excess (us)")
        .cell("reached")
        .cell("decay (hops)")
        .cell("speed (hops/ms)");
    std::vector<WavefrontReport> reps;
    SpanTracer largest; // Perturbed trace of the largest delay (--out).
    std::size_t largestAt = 0;
    for (std::size_t i = 0; i < delaysUs.size(); ++i)
        if (delaysUs[i] > delaysUs[largestAt])
            largestAt = i;
    for (std::size_t i = 0; i < delaysUs.size(); ++i) {
        RunConfig c = base;
        SpanTracer pert;
        c.obs = &pert;
        c.knobs.delayNode = node;
        c.knobs.delayAtUs = atUs;
        c.knobs.delayUs = delaysUs[i];
        // The delay only pushes work later; budget for the stretch.
        c.maxTime = base.maxTime + 4 * usec(delaysUs[i]);
        RunResult r = runApp(key, c);
        fatal_if(!r.ok, "perturbed %s run (delay %.1f us) timed out",
                 key.c_str(), delaysUs[i]);
        WavefrontConfig wc;
        wc.delayedNode = node;
        wc.delayAt = usec(atUs);
        wc.delayDuration = usec(delaysUs[i]);
        wc.threshold = threshold;
        WavefrontReport rep =
            analyzeWavefront(baseTrace, pert, base.nprocs, wc);
        char speed[32];
        if (rep.speedFinite)
            std::snprintf(speed, sizeof(speed), "%.3f",
                          rep.speedHopsPerMs);
        else
            std::snprintf(speed, sizeof(speed), "n/a");
        char reach[32];
        std::snprintf(reach, sizeof(reach), "%d/%d", rep.reached,
                      base.nprocs);
        t.row()
            .cell(delaysUs[i], 1)
            .cell(static_cast<double>(rep.excessRuntime) / kUsec, 1)
            .cell(std::string(reach))
            .cell(rep.decayHops)
            .cell(std::string(speed));
        reps.push_back(std::move(rep));
        if (i == largestAt) {
            largest.absorb(pert);
            exportIdleWave(baseTrace, pert, base.nprocs, largest);
        }
    }
    t.print();
    std::printf("\nper-node wavefront for the largest delay:\n%s",
                reps[largestAt].render().c_str());

    if (out) {
        if (writePerfettoJson(largest, *out))
            std::printf("wrote %s (idle wave on the cpu tracks; load "
                        "in ui.perfetto.dev)\n",
                        out->c_str());
        else
            warn("could not write %s", out->c_str());
    }
    return 0;
}

/**
 * `nowlab replay --obs FILE`: the analytic backend fed from a NOWOBS02
 * file. Its header's run is read as nowlabd reads a submit request and
 * refused by the backend's rules (retimeRefusal, and fatTreeRefusal at
 * the target knobs); the trace is lowered
 * at the recorded parameters, calibrated on the recorded runtime, and
 * re-solved at the recorded knobs with --latency, --overhead, --gap and
 * --mbps overriding them. Anything else exits 1 naming the cause.
 */
int
cmdReplay(const Args &a)
{
    const std::string *obs = a.value("obs");
    fatal_if(!obs, "usage: nowlab replay --obs FILE [--latency US] "
                   "[--overhead US] [--gap US] [--mbps B]");
    Knobs k;
    k.overheadUs = optDouble(a, "overhead", -1);
    k.gapUs = optDouble(a, "gap", -1);
    k.latencyUs = optDouble(a, "latency", -1);
    k.bulkMBps = optDouble(a, "mbps", -1);
    std::string why = k.boundError();
    fatal_if(!why.empty(), "%s", why.c_str());
    a.rejectUnread("replay re-times a recorded schedule under --latency, "
                   "--overhead, --gap and --mbps only; trace a new run "
                   "to change anything else");

    SpanTracer trace;
    TraceHeader header;
    why = readBinaryTrace(trace, header, *obs);
    fatal_if(!why.empty(), "cannot read %s: %s", obs->c_str(), why.c_str());
    svc::JsonValue req;
    fatal_if(!svc::parseJson(header.spec, req) || !req.isObject(),
             "%s records no run spec (a nowlabd submit request)",
             obs->c_str());
    const RunPoint pt = svc::pointOfRequest(req);
    why = svc::submitComplaint(req, pt);
    fatal_if(!why.empty(), "%s records a run nowlabd refuses: %s",
             obs->c_str(), why.c_str());
    why = backend::retimeRefusal(pt.config);
    fatal_if(!why.empty(), "%s records a run the LP cannot re-time: %s",
             obs->c_str(), why.c_str());

    LogGPParams recorded = pt.config.machine.params;
    pt.config.knobs.applyTo(recorded);
    // Each of the four knobs sets an absolute value: given, it
    // overrides the recorded one.
    LogGPParams target = recorded;
    k.applyTo(target);
    why = backend::fatTreeRefusal(recorded, target);
    fatal_if(!why.empty(), "%s records a run the LP cannot re-time to "
             "these knobs: %s", obs->c_str(), why.c_str());

    backend::AnalyticModel model;
    fatal_if(!model.build(trace, recorded, header.runtime),
             "%s does not lower to a DAG (no CPU spans, or a dependency "
             "cycle)",
             obs->c_str());
    const Tick base = std::llround(model.runtime(recorded).value_or(0));
    const Tick what_if = std::llround(model.runtime(target).value_or(0));

    const backend::ModelBuildStats &st = model.stats();
    std::printf("replay of %zu messages and %zu cpu spans (LP %zu nodes, "
                "%zu edges)\n",
                trace.messages().size(), st.cpuSpans, st.lpNodes,
                st.lpEdges);
    std::printf("  recorded machine : %.6f ms makespan\n", toMsec(base));
    std::printf("  with knobs       : %.6f ms makespan (%.2fx)\n",
                toMsec(what_if), slowdown(what_if, base));
    std::fputs(model.report(target).c_str(), stdout);
    return 0;
}

/** --key as a comma-separated list of whole numbers from `min` to 1e9
 *  (process counts, byte counts), or `fallback` when absent. */
template <typename T>
std::vector<T>
optWholeList(const Args &a, const char *key, std::vector<T> fallback,
             T min)
{
    const std::string *s = a.value(key);
    if (!s)
        return fallback;
    std::vector<double> xs;
    std::string err;
    fatal_if(!parseDoubleList(*s, xs, &err), "--%s: %s", key,
             err.c_str());
    std::vector<T> out;
    for (double x : xs) {
        fatal_if(x < static_cast<double>(min) || x > 1e9 ||
                     x != std::floor(x),
                 "--%s: '%g' is not a whole number in [%g, 1e9]", key, x,
                 static_cast<double>(min));
        out.push_back(static_cast<T>(x));
    }
    fatal_if(out.empty(), "--%s: empty list", key);
    return out;
}

/**
 * `nowlab coll table`: dump the tuner's decision table for a machine.
 * `nowlab coll validate`: race predicted vs measured over a grid and
 * check the tuner picks the measured-best algorithm (within
 * --tolerance) on at least --min-hit of the points, per machine. Its
 * --out file, at the defaults, is the ledger BENCH_coll.json.
 */
int
cmdColl(const Args &a)
{
    if (a.positional.size() < 2)
        fatal("usage: nowlab coll table|validate [--procs 4,8]\n"
              "       [--sizes 256,16384] [--machine M | --machines\n"
              "       M1,M2] [--tolerance F] [--min-hit F] [--out F]");
    const std::string &sub = a.positional[1];

    if (sub == "table") {
        auto machine = machineOf(a);
        LogGPParams params = machine.params;
        knobsOf(a).applyTo(params);
        auto procs = optWholeList(a, "procs", {2, 8, 64, 256, 1024}, 1);
        auto sizes = optWholeList<std::size_t>(
            a, "sizes", {8, 1024, 65536, 1 << 20}, 0);
        a.rejectUnread();
        auto rows =
            coll::decisionTable(pointFromParams(params), procs, sizes);
        std::printf("decision table for '%s':\n%s",
                    machine.name.c_str(),
                    coll::renderDecisionTable(rows).c_str());
        return 0;
    }

    if (sub == "validate") {
        std::vector<std::string> machines{"now", "meiko"};
        if (const std::string *m = a.value("machines"))
            machines = splitCsv(*m);
        else if (const std::string *m = a.value("machine"))
            machines = {*m};
        fatal_if(machines.empty(), "--machines: empty list");
        auto procs = optWholeList(a, "procs", {4, 8, 16}, 1);
        auto sizes = optWholeList<std::size_t>(a, "sizes", {256, 16384}, 0);
        const double tol = optDouble(a, "tolerance", 0.10);
        const double min_hit = optDouble(a, "min-hit", 0.90);
        const Knobs knobs = knobsOf(a);
        const std::string *out = a.value("out");
        a.rejectUnread();

        svc::JsonWriter w;
        w.beginObject().field("bench", "coll");
        svc::writeHost(w).field("tolerance", tol);
        w.beginArray("machines");
        bool pass = true;
        for (const std::string &name : machines) {
            LogGPParams params = machineNamed(name).params;
            knobs.applyTo(params);
            auto report = coll::validateGrid(params, procs, sizes);
            const double hit = report.hitRate(tol);
            std::printf("%s: %d/%zu points within %.0f%% of "
                        "measured-best (%.1f%%)\n",
                        name.c_str(), report.hits(tol),
                        report.points.size(), tol * 100, hit * 100);
            w.beginObject()
                .field("machine", name)
                .field("hitRate", hit);
            w.beginArray("points");
            for (const auto &gp : report.points) {
                if (!gp.within(tol))
                    std::printf(
                        "  MISS %-9s p=%-4d bytes=%-8zu picked %s "
                        "(%.2f us) best %s (%.2f us)\n",
                        coll::collName(gp.coll), gp.nprocs, gp.bytes,
                        coll::algName(gp.predictedPick),
                        toUsec(gp.measuredOfPick),
                        coll::algName(gp.measuredBest),
                        toUsec(gp.measuredOfBest));
                w.beginObject()
                    .field("coll", coll::collName(gp.coll))
                    .field("nprocs", gp.nprocs)
                    .field("bytes",
                           static_cast<std::uint64_t>(gp.bytes))
                    .field("pick", coll::algName(gp.predictedPick))
                    .field("best", coll::algName(gp.measuredBest))
                    .field("pickUs", toUsec(gp.measuredOfPick))
                    .field("bestUs", toUsec(gp.measuredOfBest))
                    .field("hit", gp.within(tol))
                    .endObject();
            }
            w.endArray().endObject();
            if (hit < min_hit) {
                std::printf("%s: FAIL (hit rate %.1f%% < %.0f%%)\n",
                            name.c_str(), hit * 100, min_hit * 100);
                pass = false;
            }
        }
        w.endArray().field("pass", pass).endObject();
        if (out)
            svc::writeJsonFile(w, *out);
        return pass ? 0 : 1;
    }
    fatal("unknown coll subcommand '%s' (table|validate)", sub.c_str());
}

/**
 * `nowlab backend validate`: the analytic backend's one gate, and the
 * ledger behind BENCH_backend.json (--out). For each app it builds the
 * LP model (a traced run plus the latency probe), simulates every
 * point of an L x o grid and one stretched-gap point, then serves each
 * point from the model with run(), both timed. An unhealthy model, a
 * point past --tolerance, a served runtime that is not `predict()`'s
 * rounded runtime, or dT/dL signs that disagree exit non-zero, so a
 * lowering or solver regression fails the build instead of silently
 * skewing every analytic sweep. The per-point speedup is recorded
 * beside its bar, `minSpeedup`, but gates nothing here: this command
 * also runs under the sanitizers, so scripts/bench_backend.sh holds a
 * Release ledger to the bar.
 */
int
cmdBackend(const Args &a)
{
    if (a.positional.size() < 2 || a.positional[1] != "validate")
        fatal("usage: nowlab backend validate [--apps A,B] [--procs N]\n"
              "       [--scale S] [--tolerance F] [--out F]");
    std::vector<std::string> apps{"radix", "em3d-read"};
    if (const std::string *list = a.value("apps"))
        apps = splitCsv(*list);
    fatal_if(apps.empty(), "--apps: empty list");
    const int procs = static_cast<int>(optLong(a, "procs", 4));
    const double scale = optDouble(a, "scale", 0.1);
    const double tol = optDouble(a, "tolerance", 0.10);
    const std::string *out = a.value("out");
    a.rejectUnread();

    constexpr double kMinSpeedup = 100; ///< Wall-clock factor per point.
    // The (L, o) grid, L-major, then a stretched gap at the baseline L
    // and o. dT/dL is taken over the latency endpoints of the
    // baseline-overhead column: grid points 0 and l_high.
    const double kLs[] = {5.0, 15.0, 30.0, 55.0, 80.0};
    const double kOs[] = {2.9, 5.0, 10.0};
    const std::size_t l_high = (std::size(kLs) - 1) * std::size(kOs);
    std::vector<Knobs> grid;
    for (double l : kLs) {
        for (double o : kOs) {
            Knobs k;
            k.latencyUs = l;
            k.overheadUs = o;
            grid.push_back(k);
        }
    }
    Knobs stretched_gap;
    stretched_gap.gapUs = 15;
    grid.push_back(stretched_gap);

    using Clock = std::chrono::steady_clock;
    auto ms_since = [](Clock::time_point t0) {
        return std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    };

    backend::AnalyticBackend be(backend::BackendOptions{tol, true});
    svc::JsonWriter w;
    w.beginObject().field("bench", "backend");
    svc::writeHost(w)
        .field("tolerance", tol)
        .field("minSpeedup", kMinSpeedup)
        .field("procs", procs)
        .field("scale", scale);
    w.beginArray("apps");
    bool pass = true;
    for (const std::string &app : apps) {
        RunPoint base;
        base.app = app;
        base.config.nprocs = procs;
        base.config.scale = scale;
        base.config.validate = false;

        // The model's build is the amortized cost (one traced run and
        // one probe) the per-point speedup pays for.
        Clock::time_point t0 = Clock::now();
        be.run(base);
        const double build_ms = ms_since(t0);
        const std::string reason = be.canServe(base);
        const backend::ModelBuildStats stats = be.modelStats(base);
        w.beginObject()
            .field("app", app)
            .field("healthy", reason.empty())
            .field("reason", reason)
            .field("buildMs", build_ms)
            .field("lpNodes", static_cast<std::uint64_t>(stats.lpNodes))
            .field("lpEdges", static_cast<std::uint64_t>(stats.lpEdges))
            .field("residualMs", toMsec(static_cast<Tick>(
                                     std::llround(stats.residual))));
        if (!reason.empty()) {
            std::printf("%-10s unhealthy: %s -> FAIL\n", app.c_str(),
                        reason.c_str());
            w.field("pass", false).endObject();
            pass = false;
            continue;
        }

        // Each engine answers the grid in its own pass, as a sweep
        // runs: first every simulation, then every served point back
        // to back on the model, and only then predict() for the check.
        std::vector<RunPoint> pts;
        std::vector<RunResult> sims, anas;
        std::vector<double> sim_ms, ana_ms;
        for (const Knobs &k : grid) {
            RunPoint q = base;
            q.config.knobs = k;
            t0 = Clock::now();
            sims.push_back(runApp(q.app, q.config));
            sim_ms.push_back(ms_since(t0));
            fatal_if(!sims.back().ok,
                     "%s: the simulation of a grid point failed",
                     app.c_str());
            pts.push_back(std::move(q));
        }
        be.run(pts.front()); // Untimed: the simulations evicted the model.
        for (const RunPoint &q : pts) {
            t0 = Clock::now();
            anas.push_back(be.run(q));
            ana_ms.push_back(ms_since(t0));
            fatal_if(!anas.back().ok, "%s: the healthy model served no "
                     "answer", app.c_str());
        }
        bool consistent = true;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const backend::AnalyticPrediction pr = be.predict(pts[i]);
            if (!pr.ok || anas[i].runtime != std::llround(pr.runtime))
                consistent = false;
        }

        Table t;
        t.row()
            .cell("L(us)")
            .cell("o(us)")
            .cell("g(us)")
            .cell("sim(ms)")
            .cell("analytic(ms)")
            .cell("err%")
            .cell("sim wall(ms)")
            .cell("lp wall(ms)")
            .cell("speedup");
        double max_err = 0, err_sum = 0, speedup_sum = 0;
        w.beginArray("points");
        for (std::size_t i = 0; i < pts.size(); ++i) {
            const double sim = static_cast<double>(sims[i].runtime);
            const double err =
                100.0 *
                std::fabs(static_cast<double>(anas[i].runtime) - sim) /
                sim;
            const double speedup =
                ana_ms[i] > 0 ? sim_ms[i] / ana_ms[i] : 0;
            max_err = std::max(max_err, err);
            err_sum += err;
            speedup_sum += speedup;
            LogGPParams p = pts[i].config.machine.params;
            pts[i].config.knobs.applyTo(p);
            t.row()
                .cell(toUsec(p.totalLatency()), 1)
                .cell(toUsec(p.meanOverhead()), 1)
                .cell(toUsec(p.gap), 1)
                .cell(toMsec(sims[i].runtime), 3)
                .cell(toMsec(anas[i].runtime), 3)
                .cell(err, 2)
                .cell(sim_ms[i], 1)
                .cell(ana_ms[i], 3)
                .cell(speedup, 0);
            w.beginObject()
                .field("lUs", toUsec(p.totalLatency()))
                .field("oUs", toUsec(p.meanOverhead()))
                .field("gUs", toUsec(p.gap))
                .field("simMs", toMsec(sims[i].runtime))
                .field("analyticMs", toMsec(anas[i].runtime))
                .field("errPct", err)
                .field("simWallMs", sim_ms[i])
                .field("analyticWallMs", ana_ms[i])
                .field("speedup", speedup)
                .endObject();
        }
        w.endArray();
        const double mean_speedup =
            speedup_sum / static_cast<double>(pts.size());

        const double dl =
            static_cast<double>(usec(kLs[std::size(kLs) - 1] - kLs[0]));
        const double dtdl_sim =
            static_cast<double>(sims[l_high].runtime - sims[0].runtime) /
            dl;
        const double dtdl_ana =
            static_cast<double>(anas[l_high].runtime - anas[0].runtime) /
            dl;
        const backend::AnalyticSlopes slope =
            be.slopes(pts[l_high], backend::kSlopeL);
        const double dtdl_model = slope.ok ? slope.dTdL : -1;
        const bool slopes_agree =
            (dtdl_sim >= 0) == (dtdl_ana >= 0) && dtdl_model >= 0;
        const bool app_pass =
            consistent && max_err <= tol * 100 && slopes_agree;
        pass = pass && app_pass;

        std::printf("\n--- %s: sim vs analytic ---\n", app.c_str());
        t.print();
        std::printf("%s: model build %.0f ms (%zu LP nodes, %zu edges), "
                    "max err %.2f%%, mean speedup %.0fx, dT/dL sim %.2f "
                    "analytic %.2f (one-sided LP slope %.2f)%s -> %s\n",
                    app.c_str(), build_ms, stats.lpNodes, stats.lpEdges,
                    max_err, mean_speedup, dtdl_sim, dtdl_ana, dtdl_model,
                    consistent ? "" : ", run() differs from predict()",
                    app_pass ? "pass" : "FAIL");
        w.field("maxErrPct", max_err)
            .field("meanErrPct", err_sum / static_cast<double>(pts.size()))
            .field("meanSpeedup", mean_speedup)
            .field("dtdlSim", dtdl_sim)
            .field("dtdlAnalytic", dtdl_ana)
            .field("dtdlModel", dtdl_model)
            .field("runMatchesPredict", consistent)
            .field("pass", app_pass)
            .endObject();
    }
    w.endArray().field("pass", pass).endObject();
    if (out)
        svc::writeJsonFile(w, *out);
    std::printf("backend validate: %s\n", pass ? "pass" : "FAIL");
    return pass ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // A server vanishing mid-conversation must fail the request, not
    // kill the process (covers submit/get/stats and serve alike).
    std::signal(SIGPIPE, SIG_IGN);
    const Args a(argc, argv);
    if (a.positional.empty()) {
        std::printf(
            "nowlab -- the LogGP cluster laboratory\n"
            "usage:\n"
            "  nowlab list\n"
            "  nowlab calibrate [--machine M] [knobs]\n"
            "  nowlab run <app> [--procs N] [--scale S] [--seed X]\n"
            "             [--machine M] [knobs] [--matrix] [--pgm F]\n"
            "  nowlab sweep <app> --knob K --values a,b,c [--jobs J]\n"
            "             [--backend sim|analytic] [...]\n"
            "  nowlab perf [--app A] [--points K] [--jobs J]\n"
            "             [--events N] [--sim-procs N] [--sim-scale S]\n"
            "             [--out FILE]\n"
            "  nowlab trace <app> [--out F.json] [--bin F] [--procs N]\n"
            "             [--scale S] [knobs]\n"
            "  nowlab wavefront <app> [--node N] [--at US]\n"
            "             [--delays a,b,c] [--threshold F]\n"
            "             [--out F.json] [--procs N] [--scale S] [knobs]\n"
            "  nowlab replay --obs FILE [--latency US] [--overhead US]\n"
            "             [--gap US] [--mbps B]\n"
            "  nowlab serve [--port P] [--jobs J] [--queue N]\n"
            "             [--cache-dir D] [--cache-only]\n"
            "             [--backend analytic] [--drift-tolerance F]\n"
            "  nowlab submit <app> [knobs] [--host H] [--port P]\n"
            "             [--wait] [--max-retries N]\n"
            "  nowlab storm [--conns C] [--ops N] [--host H] [--port P]\n"
            "             [--app A] [--seeds K] [--backend analytic]\n"
            "             [--out FILE]\n"
            "  nowlab get --id N [--host H] [--port P]\n"
            "  nowlab get <app> --cache-dir D [knobs]   (offline)\n"
            "  nowlab stats [--host H] [--port P] [--shutdown]\n"
            "  nowlab coll table [--machine M] [--procs list]\n"
            "             [--sizes list] [knobs]\n"
            "  nowlab coll validate [--machines M1,M2] [--procs list]\n"
            "             [--sizes list] [--tolerance F] [--min-hit F]\n"
            "             [--out BENCH_coll.json]\n"
            "  nowlab backend validate [--apps A,B] [--procs N]\n"
            "             [--scale S] [--tolerance F]\n"
            "             [--out BENCH_backend.json]\n"
            "sweep --knob K sweeps any knob, fault, delay or topo option\n"
            "below, named without its dashes; it also honours --cache-dir\n"
            "D / NOW_CACHE_DIR: the content-addressed result store serves\n"
            "repeated points.\n"
            "knobs: --overhead US --gap US --latency US --mbps B\n"
            "       --occupancy US --window N\n"
            "fault: --drop P --dup P --corrupt P --reorder P\n"
            "       --reorder-delay US --fault-seed X --reliable 0|1\n"
            "       --rto US\n"
            "delay: --delay-node N --delay-at US --delay-us US (one-off\n"
            "       scripted processor stall; deterministic)\n"
            "topo:  --topo [--topo-hosts N] [--topo-mbps B]\n"
            "       --topo-oversub R --topo-hop US  (two-level\n"
            "       fat-tree; scales to --procs 1024 and beyond)\n"
            "jobs:  one event heap per run; sweep, perf and serve\n"
            "       fan independent points out with --jobs J\n"
            "       (NOW_JOBS is the fallback)\n"
            "coll:  --coll-alg naive|tuned|\"bcast=chain,...\"\n"
            "       (NOW_COLL_ALG is the fallback)\n"
            "backend: --backend sim|analytic. analytic answers LogGP\n"
            "       sweep points from an LP lowered from one traced\n"
            "       run -- milliseconds per point, with one-sided\n"
            "       dT/dL-style slopes -- and falls back to sim for\n"
            "       ineligible or drifted specs. trace prints the LP's\n"
            "       critical path and slopes for the run it records;\n"
            "       replay solves the same LP from a NOWOBS02 file\n"
            "       (nowlab trace --bin), which records its run.\n");
        return 0;
    }
    const std::string &cmd = a.positional[0];
    if (cmd == "list") {
        a.rejectUnread();
        return cmdList();
    }
    if (cmd == "calibrate")
        return cmdCalibrate(a);
    if (cmd == "run")
        return cmdRun(a);
    if (cmd == "sweep")
        return cmdSweep(a);
    if (cmd == "perf")
        return cmdPerf(a);
    if (cmd == "trace")
        return cmdTrace(a);
    if (cmd == "wavefront")
        return cmdWavefront(a);
    if (cmd == "replay")
        return cmdReplay(a);
    if (cmd == "serve")
        return cmdServe(a);
    if (cmd == "submit")
        return cmdSubmit(a);
    if (cmd == "get")
        return cmdGet(a);
    if (cmd == "stats")
        return cmdStats(a);
    if (cmd == "storm")
        return cmdStorm(a);
    if (cmd == "coll")
        return cmdColl(a);
    if (cmd == "backend")
        return cmdBackend(a);
    fatal("unknown command '%s'", cmd.c_str());
}
