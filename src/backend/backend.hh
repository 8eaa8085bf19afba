/**
 * @file
 * ExperimentBackend: one API for answering experiment points, with the
 * engine that answers them selected at runtime.
 *
 * Every consumer of experiment results -- `nowlab sweep`, the bench
 * binaries, `nowlabd` -- asks the same question: "what does this
 * (app, machine, knobs) point measure?" Three engines can answer it:
 *
 *   sim       the discrete-event simulator (harness::runPoints):
 *             always correct, seconds per point.
 *   analytic  the LP lowered from one traced run (backend/model.hh):
 *             milliseconds per point with closed-form sensitivity
 *             slopes, valid for the swept LogGP knobs of a recorded
 *             (app, nprocs, topology); self-validates against a sim
 *             probe and refuses service when drift exceeds tolerance.
 *   cache     the content-addressed result store: instant when a
 *             byte-identical spec was already computed.
 *
 * Callers hold an ExperimentBackend pointer and never know which one
 * is behind it; canServe() lets layered dispatchers (nowlabd, sweep)
 * ask before committing and fall back -- the analytic backend says
 * *why* it cannot serve a point so the fallback is explainable.
 * Selection comes from `--backend sim|analytic|cache` with the
 * NOW_BACKEND environment variable as fallback.
 */

#ifndef NOWCLUSTER_BACKEND_BACKEND_HH_
#define NOWCLUSTER_BACKEND_BACKEND_HH_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/model.hh"
#include "harness/runner.hh"

namespace nowcluster::backend {

enum class BackendKind
{
    kSim,
    kAnalytic,
    kCache,
};

/** "sim" / "analytic" / "cache". */
const char *backendKindName(BackendKind kind);

/** Parse a backend name; false (out untouched) on an unknown name. */
bool parseBackendKind(const std::string &name, BackendKind &out);

/**
 * Resolve a user-facing --backend value: an explicit name wins, then
 * NOW_BACKEND, then sim. False with a complaint in `err` if either
 * source names an unknown backend.
 */
bool resolveBackendKind(const std::string &arg, BackendKind &out,
                        std::string &err);

/** Knobs common to backend construction. */
struct BackendOptions
{
    /** Analytic: max |analytic - sim| / sim at the build-time probe
     *  before the model refuses service. */
    double driftTolerance = 0.10;
    /** Analytic: run the sim probe at build time at all. Off for unit
     *  tests that check lowering mechanics, on everywhere else. */
    bool validateModels = true;
};

/** The common interface. Implementations are thread-safe: nowlabd's
 *  worker pool calls run() concurrently. */
class ExperimentBackend
{
  public:
    virtual ~ExperimentBackend() = default;

    virtual BackendKind kind() const = 0;
    const char *name() const { return backendKindName(kind()); }

    /**
     * Can this backend answer `pt`? "" = yes; otherwise a
     * human-readable reason (the fallback explanation nowlabd logs).
     * May do work (the analytic backend probes its model table, the
     * cache backend probes the store) but never simulates.
     */
    virtual std::string canServe(const RunPoint &pt) = 0;

    /** Answer one point. A point the backend cannot serve returns
     *  ok=false (callers that care ask canServe first). */
    virtual RunResult run(const RunPoint &pt) = 0;

    /** Answer a batch in submission order. Default: run() in a loop
     *  (the sim backend fans out across the worker pool instead). */
    virtual std::vector<RunResult>
    runMany(const std::vector<RunPoint> &pts, int jobs);
};

/** The simulator behind the interface: runPointCached / runPoints,
 *  including the installed RunCache and --jobs fan-out. */
class SimBackend : public ExperimentBackend
{
  public:
    BackendKind kind() const override { return BackendKind::kSim; }
    std::string canServe(const RunPoint &pt) override;
    RunResult run(const RunPoint &pt) override;
    std::vector<RunResult> runMany(const std::vector<RunPoint> &pts,
                                   int jobs) override;
};

/** The result store behind the interface: hits are instant, misses are
 *  refusals (ok=false) -- this backend never computes. */
class CacheBackend : public ExperimentBackend
{
  public:
    /** @param cache The store hook to probe (not owned; nullptr means
     *               "no cache installed" and nothing is served). */
    explicit CacheBackend(RunCache *cache) : cache_(cache) {}

    BackendKind kind() const override { return BackendKind::kCache; }
    std::string canServe(const RunPoint &pt) override;
    RunResult run(const RunPoint &pt) override;

  private:
    RunCache *cache_;
};

/**
 * The analytic LP backend. One traced base run per (app, nprocs,
 * scale, seed, machine, non-swept knobs) is recorded on first demand,
 * lowered into the LP, probe-validated against the simulator, and then
 * answers every (L, o, g, G) point against that model with one LP
 * solve: well under a millisecond at 8 procs.
 */
class AnalyticBackend : public ExperimentBackend
{
  public:
    explicit AnalyticBackend(BackendOptions opts = {}) : opts_(opts) {}

    BackendKind kind() const override { return BackendKind::kAnalytic; }

    /**
     * Static incompatibilities (fault injection, reliability protocol,
     * attached trace sinks) and models already built but poisoned by
     * probe drift both produce a reason here. A point whose model
     * simply is not built yet answers "" -- run() will build it.
     */
    std::string canServe(const RunPoint &pt) override;

    /** Serve `pt`: predicted runtime over the base run's measurements
     *  (validated=false marks the result model-derived). Builds the
     *  model on first use -- one traced sim run plus one probe run --
     *  then every further point is a makespan-only LP solve
     *  (AnalyticModel::runtime): the runtime is llround of predict()'s,
     *  without the dual. */
    RunResult run(const RunPoint &pt) override;

    /** True iff the point's model is built and healthy: run() would
     *  answer without simulating. */
    bool ready(const RunPoint &pt);

    /** Full prediction (runtime + dT/dL, dT/do, dT/dg, dT/dG slopes)
     *  for sweep tables and validation, from the LP solve with the
     *  dual; builds like run(). */
    AnalyticPrediction predict(const RunPoint &pt);

    /** Lowering statistics of the point's model (ok=false prediction
     *  if absent). */
    ModelBuildStats modelStats(const RunPoint &pt);

  private:
    struct ModelEntry
    {
        std::mutex mu;
        bool built = false;
        bool healthy = false;
        std::string reason; ///< Why unhealthy.
        AnalyticModel model;
        LogGPParams baseParams;
        RunResult baseResult;
        double probeDrift = 0;
    };

    std::shared_ptr<ModelEntry> entryOf(const RunPoint &pt);
    void buildLocked(const RunPoint &pt, ModelEntry &e);

    BackendOptions opts_;
    std::mutex mu_;
    std::unordered_map<std::string, std::shared_ptr<ModelEntry>>
        models_;
};

/** Construct a backend of the given kind. The cache backend wraps the
 *  process-global RunCache hook (runner.hh). */
std::unique_ptr<ExperimentBackend> makeBackend(BackendKind kind,
                                               BackendOptions opts = {});

} // namespace nowcluster::backend

#endif // NOWCLUSTER_BACKEND_BACKEND_HH_
