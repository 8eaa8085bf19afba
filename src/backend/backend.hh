/**
 * @file
 * ExperimentBackend: the interface through which points are answered
 * from a model instead of a simulation.
 *
 * Every consumer of experiment results -- `nowlab sweep`, the bench
 * binaries, `nowlabd` -- asks the same question: "what does this
 * (app, machine, knobs) point measure?" The simulator
 * (harness::runPoints) always answers it, in seconds per point. The
 * analytic backend below answers the LogGP knobs from the LP lowered
 * from one traced run (backend/model.hh): milliseconds per point with
 * closed-form sensitivity slopes, valid for the swept LogGP knobs of a
 * recorded (app, nprocs, topology); it self-validates against a sim
 * probe and refuses service when drift exceeds tolerance.
 *
 * canServe() lets dispatchers (nowlabd, sweep) ask before committing
 * and fall back to the simulator -- the backend says *why* it cannot
 * serve a point so the fallback is explainable. Tools select it with
 * `--backend sim|analytic`.
 */

#ifndef NOWCLUSTER_BACKEND_BACKEND_HH_
#define NOWCLUSTER_BACKEND_BACKEND_HH_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "backend/model.hh"
#include "harness/runner.hh"

namespace nowcluster::backend {

/** Why the LP cannot re-time runs configured like `c` (fault
 *  injection, the reliability protocol, a one-off delay), or "".
 *  canServe refuses such points; `nowlab trace` withholds slopes. */
std::string retimeRefusal(const RunConfig &c);

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

    /**
     * Can this backend answer `pt`? "" = yes; otherwise a
     * human-readable reason (the fallback explanation nowlabd logs).
     * May do work (the analytic backend probes its model table) but
     * never simulates.
     */
    virtual std::string canServe(const RunPoint &pt) = 0;

    /** Answer one point. A point the backend cannot serve returns
     *  ok=false (callers that care ask canServe first). */
    virtual RunResult run(const RunPoint &pt) = 0;
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

    /**
     * Static incompatibilities (fault injection, reliability protocol,
     * attached trace sinks) and models already built but poisoned by
     * probe drift both produce a reason here. A point whose model
     * simply is not built yet answers "" -- run() will build it.
     */
    std::string canServe(const RunPoint &pt) override;

    /** Serve `pt`: predicted runtime over the base run's measurements
     *  (validated=false marks the result model-derived). Builds the
     *  model on first use -- one traced sim run with one probe run
     *  beside it -- then every further point is a makespan-only LP solve
     *  (AnalyticModel::runtime): the runtime is llround of predict()'s,
     *  without the dual. */
    RunResult run(const RunPoint &pt) override;

    /** True iff the point's model is built and healthy: run() would
     *  answer without simulating. */
    bool ready(const RunPoint &pt);

    /** The runtime and binding path from the LP solve with the dual,
     *  for validation; builds like run(). */
    AnalyticPrediction predict(const RunPoint &pt);

    /** The one-sided slopes of `knobs` (AnalyticModel::slopes) for
     *  sweep tables; builds like run(). */
    AnalyticSlopes slopes(const RunPoint &pt, unsigned knobs = kAllSlopes);

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

    /** The point's entry, made empty if it has none. */
    std::shared_ptr<ModelEntry> entryOf(const RunPoint &pt);
    /** The point's entry, or nullptr: the backend's lock is released
     *  before the caller takes the entry's, so that a build holding
     *  one entry's lock never holds up the others. */
    std::shared_ptr<ModelEntry> findEntry(const RunPoint &pt);
    void buildLocked(const RunPoint &pt, ModelEntry &e);
    /** `answer(entry)`, its model built on first use under the entry's
     *  lock; a default T when the point cannot be served. The answer
     *  runs outside the lock. */
    template <typename T, typename F>
    T withModel(const RunPoint &pt, F answer);

    BackendOptions opts_;
    std::mutex mu_;
    std::unordered_map<std::string, std::shared_ptr<ModelEntry>>
        models_;
};

} // namespace nowcluster::backend

#endif // NOWCLUSTER_BACKEND_BACKEND_HH_
