#include "harness/experiment.hh"

#include <cstdlib>
#include <utility>

#include "apps/app.hh"
#include "base/logging.hh"
#include "splitc/splitc.hh"

namespace nowcluster {

void
Knobs::applyTo(LogGPParams &params) const
{
    if (overheadUs >= 0)
        params.setDesiredOverheadUsec(overheadUs);
    if (gapUs >= 0)
        params.setDesiredGapUsec(gapUs);
    if (latencyUs >= 0)
        params.setDesiredLatencyUsec(latencyUs);
    if (bulkMBps > 0)
        params.setBulkMBps(bulkMBps);
    if (occupancyUs >= 0)
        params.setOccupancyUsec(occupancyUs);
    if (window > 0)
        params.window = window;
    if (dropRate >= 0 || dupRate >= 0 || corruptRate >= 0 ||
        reorderRate >= 0) {
        params.fault.enabled = true;
        if (dropRate >= 0)
            params.fault.dropRate = dropRate;
        if (dupRate >= 0)
            params.fault.dupRate = dupRate;
        if (corruptRate >= 0)
            params.fault.corruptRate = corruptRate;
        if (reorderRate >= 0)
            params.fault.reorderRate = reorderRate;
    }
    if (reorderMaxDelayUs >= 0)
        params.fault.reorderMaxDelay = usec(reorderMaxDelayUs);
    if (faultSeed >= 0)
        params.fault.seed = static_cast<std::uint64_t>(faultSeed);
    if (delayNode >= 0 && delayUs > 0) {
        // Scripted-only: rates stay zero, so enabling the model here
        // draws no randomness and the run stays exactly deterministic.
        params.fault.enabled = true;
        params.fault.delays.push_back(
            {static_cast<NodeId>(delayNode),
             usec(delayAtUs > 0 ? delayAtUs : 0), usec(delayUs)});
    }
    if (reliable >= 0)
        params.reliable = reliable != 0;
    if (retxTimeoutUs > 0)
        params.retxTimeout = usec(retxTimeoutUs);
    if (topo == 1 || topoHosts > 0 || topoLinkMBps > 0 ||
        topoOversub > 0 || topoHopUs >= 0) {
        params.topo = topo != 0;
        if (topoHosts > 0)
            params.topoHostsPerLeaf = topoHosts;
        if (topoLinkMBps > 0)
            params.topoLinkMBps = topoLinkMBps;
        if (topoOversub > 0)
            params.topoOversub = topoOversub;
        if (topoHopUs >= 0)
            params.topoHopLatency = usec(topoHopUs);
    }
    if (!collAlg.empty())
        params.collAlg = collAlg;
}

std::string
Knobs::boundError() const
{
    constexpr double kMaxUs = 1e9;
    const std::pair<const char *, double> us[] = {
        {"overhead", overheadUs},
        {"gap", gapUs},
        {"latency", latencyUs},
        {"occupancy", occupancyUs},
        {"reorder-delay", reorderMaxDelayUs},
        {"rto", retxTimeoutUs},
        {"delay-at", delayAtUs},
        {"delay-us", delayUs},
        {"topo-hop", topoHopUs},
    };
    for (const auto &[name, v] : us)
        if (!(v <= kMaxUs))
            return std::string(name) + " above 1e9 us";
    return "";
}

RunResult
runApp(const std::string &app_key, const RunConfig &config)
{
    auto app = makeApp(app_key);
    app->setup(config.nprocs, config.scale, config.seed);

    LogGPParams params = config.machine.params;
    config.knobs.applyTo(params);
    // NOW_COLL_ALG is a fallback only: an explicit per-run policy
    // always wins.
    if (config.knobs.collAlg.empty() && !envConfig().collAlg.empty())
        params.collAlg = envConfig().collAlg;

    SplitCRuntime rt(config.nprocs, params, config.seed);
    app->prepare(rt);
    if (config.obs)
        rt.cluster().setTracer(config.obs);

    RunResult r;
    r.ok = rt.run([&](SplitC &sc) { app->run(sc); }, config.maxTime);
    r.runtime = rt.runtime();
    r.summary = summarizeComm(rt.cluster(), r.runtime, app->name());
    r.matrix = commMatrix(rt.cluster());
    r.maxMsgsPerProc = r.summary.maxMsgsPerProc;
    r.lockFailures = r.summary.lockFailures;
    r.simEvents = rt.cluster().eventsExecuted();
    r.metrics = rt.cluster().metrics().snapshot();
    r.validated = r.ok && (!config.validate || app->validate());
    return r;
}

EnvConfig
parseEnvConfig()
{
    EnvConfig c;
    if (const char *s = std::getenv("NOW_SCALE")) {
        double v = std::atof(s);
        if (v > 0) {
            c.scaleSet = true;
            c.scale = v;
        } else {
            warn("ignoring invalid NOW_SCALE='%s'", s);
        }
    }
    if (const char *s = std::getenv("NOW_JOBS")) {
        long v = std::atol(s);
        if (v >= 0)
            c.jobs = static_cast<int>(v);
        else
            warn("ignoring invalid NOW_JOBS='%s'", s);
    }
    if (const char *s = std::getenv("NOW_COLL_ALG"))
        c.collAlg = s;
    if (const char *s = std::getenv("NOW_CACHE_DIR"))
        c.cacheDir = s;
    return c;
}

const EnvConfig &
envConfig()
{
    // Magic-static init: the first caller (always single-threaded; the
    // runner reads this before spawning workers) does the getenv calls,
    // everyone after reads the immutable cache.
    static const EnvConfig cfg = parseEnvConfig();
    return cfg;
}

double
envScale()
{
    return envConfig().scale;
}

int
envJobs()
{
    return envConfig().jobs;
}

const std::string &
envCacheDir()
{
    return envConfig().cacheDir;
}

} // namespace nowcluster
