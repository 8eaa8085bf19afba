/**
 * @file
 * The analytic LP backend.
 */

#include "backend/backend.hh"

#include <cmath>
#include <cstdio>

namespace nowcluster::backend {

namespace {

/** %.17g rendering so model keys never alias distinct doubles. */
void
putD(std::string &out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g|", v);
    out += buf;
}

void
putI(std::string &out, long long v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld|", v);
    out += buf;
}

/**
 * The model identity of a point: everything that shapes the traced
 * base run *except* the four swept LogGP knobs (overhead, gap,
 * latency, bulk bandwidth), which the LP re-times, and the run budget,
 * which no longer bounds a solved LP. Two points differing only in
 * swept knobs share one model; anything else forces its own trace.
 */
std::string
modelKeyOf(const RunPoint &pt)
{
    const RunConfig &c = pt.config;
    const Knobs &k = c.knobs;
    std::string out = pt.app + "|" + c.machine.name + "|";
    putI(out, c.nprocs);
    putD(out, c.scale);
    putI(out, static_cast<long long>(c.seed));
    putD(out, k.occupancyUs);
    putI(out, k.window);
    putI(out, k.topo);
    putI(out, k.topoHosts);
    putD(out, k.topoLinkMBps);
    putD(out, k.topoOversub);
    putD(out, k.topoHopUs);
    out += (!k.collAlg.empty() ? k.collAlg : envConfig().collAlg) + "|";
    return out;
}

/** The base point a model is traced at: the swept knobs cleared back
 *  to the machine baseline, validation off (the traced run's output
 *  check is not the sweep's business). */
RunPoint
basePointOf(const RunPoint &pt)
{
    RunPoint base = pt;
    base.config.knobs.overheadUs = -1;
    base.config.knobs.gapUs = -1;
    base.config.knobs.latencyUs = -1;
    base.config.knobs.bulkMBps = -1;
    base.config.validate = false;
    base.config.obs = nullptr;
    return base;
}

/** The LogGP parameters a config resolves to, the way runApp does. */
LogGPParams
resolvedParams(const RunConfig &c)
{
    LogGPParams p = c.machine.params;
    c.knobs.applyTo(p);
    return p;
}

} // namespace

std::string
retimeRefusal(const RunConfig &c)
{
    const Knobs &k = c.knobs;
    if (k.dropRate >= 0 || k.dupRate >= 0 || k.corruptRate >= 0 ||
        k.reorderRate >= 0 || c.machine.params.fault.enabled)
        return "fault injection is stochastic per parameter point";
    if (k.reliable == 1 || c.machine.params.reliable)
        return "retransmission schedules do not re-time linearly";
    if (k.delayNode >= 0 || !c.machine.params.fault.delays.empty())
        return "one-off delay injection needs a real simulation";
    return "";
}

std::string
AnalyticBackend::canServe(const RunPoint &pt)
{
    if (pt.config.obs)
        return "trace sinks need a real simulation";
    if (std::string why = retimeRefusal(pt.config); !why.empty())
        return why;
    if (std::string why =
            fatTreeRefusal(resolvedParams(basePointOf(pt).config),
                           resolvedParams(pt.config));
        !why.empty())
        return why;

    // A model already built but poisoned by probe drift refuses
    // loudly so the caller falls back to sim instead of trusting it.
    if (std::shared_ptr<ModelEntry> e = findEntry(pt)) {
        std::lock_guard<std::mutex> lock(e->mu);
        if (e->built && !e->healthy)
            return e->reason;
    }
    return "";
}

std::shared_ptr<AnalyticBackend::ModelEntry>
AnalyticBackend::entryOf(const RunPoint &pt)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<ModelEntry> &e = models_[modelKeyOf(pt)];
    if (!e)
        e = std::make_shared<ModelEntry>();
    return e;
}

std::shared_ptr<AnalyticBackend::ModelEntry>
AnalyticBackend::findEntry(const RunPoint &pt)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = models_.find(modelKeyOf(pt));
    return it != models_.end() ? it->second : nullptr;
}

void
AnalyticBackend::buildLocked(const RunPoint &pt, ModelEntry &e)
{
    e.built = true;
    e.healthy = false;

    // One traced run at the machine baseline for this model identity
    // and, beside it, the probe: one sim run at a stretched latency; if
    // the model cannot re-time that, it cannot be trusted anywhere.
    // Neither run needs the other, so runPoints runs the two at once
    // (one after the other on one core or under NOW_JOBS=1). It serves
    // the probe from the installed RunCache, and never the traced run,
    // whose spans a cached result could not replay.
    SpanTracer tracer;
    std::vector<RunPoint> runs{basePointOf(pt)};
    runs[0].config.obs = &tracer;
    e.baseParams = resolvedParams(runs[0].config);
    if (opts_.validateModels) {
        RunPoint probe = basePointOf(pt);
        const double base_l_us =
            static_cast<double>(e.baseParams.totalLatency()) / kUsec;
        probe.config.knobs.latencyUs = base_l_us * 4;
        runs.push_back(std::move(probe));
    }
    const std::vector<RunResult> done = runPoints(runs);
    e.baseResult = done[0];
    if (!e.baseResult.ok) {
        e.reason = "base traced run failed (budget exceeded?)";
        return;
    }
    if (!e.model.build(tracer, e.baseParams, e.baseResult.runtime)) {
        e.reason = "trace did not lower to a DAG";
        return;
    }

    if (!opts_.validateModels) {
        e.healthy = true;
        return;
    }

    const RunResult &sim = done[1];
    if (!sim.ok) {
        e.reason = "validation probe run failed";
        return;
    }
    std::optional<double> pred =
        e.model.runtime(resolvedParams(runs[1].config));
    if (!pred) {
        e.reason = "model failed to evaluate the probe";
        return;
    }
    e.probeDrift =
        std::fabs(*pred - static_cast<double>(sim.runtime)) /
        static_cast<double>(sim.runtime);
    if (e.probeDrift > opts_.driftTolerance) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "probe drift %.1f%% exceeds tolerance %.1f%%",
                      e.probeDrift * 100, opts_.driftTolerance * 100);
        e.reason = buf;
        return;
    }
    e.healthy = true;
}

bool
AnalyticBackend::ready(const RunPoint &pt)
{
    std::shared_ptr<ModelEntry> e = findEntry(pt);
    if (!e)
        return false;
    std::lock_guard<std::mutex> lock(e->mu);
    return e->built && e->healthy;
}

template <typename T, typename F>
T
AnalyticBackend::withModel(const RunPoint &pt, F answer)
{
    if (!canServe(pt).empty())
        return T{};
    std::shared_ptr<ModelEntry> e = entryOf(pt);
    {
        std::lock_guard<std::mutex> lock(e->mu);
        if (!e->built)
            buildLocked(pt, *e);
        if (!e->healthy)
            return T{};
    }
    // Nothing writes a built entry again, so its model is read outside
    // the lock: points on one model are answered at once.
    return answer(*e);
}

AnalyticPrediction
AnalyticBackend::predict(const RunPoint &pt)
{
    return withModel<AnalyticPrediction>(pt, [&](const ModelEntry &e) {
        return e.model.predict(resolvedParams(pt.config));
    });
}

AnalyticSlopes
AnalyticBackend::slopes(const RunPoint &pt, unsigned knobs)
{
    return withModel<AnalyticSlopes>(pt, [&](const ModelEntry &e) {
        return e.model.slopes(resolvedParams(pt.config), knobs);
    });
}

ModelBuildStats
AnalyticBackend::modelStats(const RunPoint &pt)
{
    std::shared_ptr<ModelEntry> e = findEntry(pt);
    if (!e)
        return {};
    std::lock_guard<std::mutex> lock(e->mu);
    return e->model.stats();
}

RunResult
AnalyticBackend::run(const RunPoint &pt)
{
    return withModel<RunResult>(pt, [&](const ModelEntry &e) {
        // Only the runtime is served: the makespan-only solve skips
        // the dual that predict() walks for the binding path.
        std::optional<double> runtime =
            e.model.runtime(resolvedParams(pt.config));
        if (!runtime)
            return RunResult{};

        // The result carries the traced run's measurements (the
        // message counts and matrix are knob-independent) under the
        // re-timed runtime; validated=false marks it model-derived,
        // and the run budget applies to the predicted time exactly as
        // it would to a simulated one (the paper's "N/A" entries).
        RunResult r = e.baseResult;
        r.runtime = static_cast<Tick>(std::llround(*runtime));
        r.ok = r.runtime <= pt.config.maxTime;
        r.validated = false;
        r.simEvents = 0;
        return r;
    });
}

} // namespace nowcluster::backend
