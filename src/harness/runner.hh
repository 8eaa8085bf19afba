/**
 * @file
 * The parallel experiment engine.
 *
 * Every figure and table in the paper is a sweep: many independent
 * (app, knob-point) simulations. Each simulation is a fully
 * self-contained deterministic world (its own Cluster, Simulator,
 * PRNG streams, and fibers; the fiber scheduler is thread_local), so
 * points fan out across OS threads with no shared mutable state and no
 * change in results: a sweep run with jobs=1 and jobs=8 is
 * byte-identical per point, enforced by tests/test_runner.cc.
 *
 * Two layers:
 *
 *  - Runner: a persistent worker pool with a size-bounded job queue.
 *    nowlabd keeps one alive for its whole life and leans on the bound
 *    for backpressure (trySubmit fails when the queue is full);
 *    drain() blocks until every accepted job has finished.
 *
 *  - runPoints(): the batch front end every bench binary and sweep
 *    uses. It stands up a Runner sized for the batch, consults the
 *    process-global RunCache (when installed) for each point, and
 *    returns results in submission order regardless of completion
 *    order.
 */

#ifndef NOWCLUSTER_HARNESS_RUNNER_HH_
#define NOWCLUSTER_HARNESS_RUNNER_HH_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"

namespace nowcluster {

/** One experiment point: an application under a configuration. */
struct RunPoint
{
    std::string app;
    RunConfig config;
};

/** Worker threads the machine supports (hardware_concurrency, >= 1). */
int hardwareJobs();

/**
 * Resolve a user-facing --jobs value: positive means itself; zero or
 * negative means "auto" (NOW_JOBS if set, else hardwareJobs()).
 */
int resolveJobs(int jobs);

/**
 * A persistent pool of experiment workers with a bounded queue.
 *
 * Jobs are opaque thunks so the pool can carry both raw experiment
 * points (runPoints) and service jobs that wrap a point with job-table
 * bookkeeping (nowlabd). Thread-safe; jobs may be submitted from any
 * thread, including from inside other jobs' completion paths.
 */
class Runner
{
  public:
    /**
     * @param jobs      Worker count; <= 0 resolves via resolveJobs().
     * @param maxQueue  Queued-job bound (running jobs excluded);
     *                  0 = unbounded.
     */
    explicit Runner(int jobs = 0, std::size_t maxQueue = 0);

    /** Drains and joins. */
    ~Runner();

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /**
     * Enqueue a job unless the queue is at its bound (backpressure) or
     * the pool is shutting down.
     * @return false if rejected; the job was not enqueued.
     */
    bool trySubmit(std::function<void()> job);

    /** Block until every accepted job has run to completion. */
    void drain();

    /** Stop accepting work, drain, and join the workers. Idempotent;
     *  the destructor calls it. */
    void shutdown();

    int jobs() const { return jobs_; }
    std::size_t maxQueue() const { return maxQueue_; }
    /** Jobs accepted but not yet started. */
    std::size_t queueDepth() const;
    /** Jobs currently executing. */
    std::size_t activeCount() const;

  private:
    void workerLoop();

    const int jobs_;
    const std::size_t maxQueue_;

    mutable std::mutex mu_;
    std::condition_variable workReady_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    std::size_t active_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Result-cache hook consulted by runPoints (and nowlabd) around every
 * experiment. The canonical implementation is svc::StoreCache over the
 * on-disk content-addressed store; the hook lives here so the harness
 * stays independent of the service layer. Implementations must be
 * thread-safe: workers call them concurrently.
 */
class RunCache
{
  public:
    virtual ~RunCache() = default;
    /** True and fill `out` if a stored result exists for `pt`. */
    virtual bool lookup(const RunPoint &pt, RunResult &out) = 0;
    /** Persist a freshly computed result for `pt`. */
    virtual void insert(const RunPoint &pt, const RunResult &r) = 0;
};

/** Install (or, with nullptr, remove) the process-global result cache.
 *  Not owned. Install before spawning runners; not thread-safe. */
void setRunCache(RunCache *cache);

/** The installed cache, or nullptr. */
RunCache *runCache();

/**
 * Run one point through the cache (when installed and the point has no
 * span tracer attached -- a tracer has side effects a cached result
 * cannot replay) or the simulator, containing any failure to the
 * returned result. Freshly computed results are inserted into the
 * cache; results from an exception path are not.
 */
RunResult runPointCached(const RunPoint &pt);

/**
 * Run every point, fanning out across min(jobs, points) threads, and
 * return results in submission order. jobs <= 0 selects resolveJobs's
 * auto default. A point that times out, fails validation, or throws
 * only fails itself: its slot reports ok=false and every other point
 * still runs. Points are served from the installed RunCache when they
 * hit.
 *
 * @note Points must not share a RunConfig::obs tracer: it would be
 *       written from multiple workers at once.
 */
std::vector<RunResult> runPoints(const std::vector<RunPoint> &points,
                                 int jobs = 0);

/**
 * Canonical byte-exact rendering of everything a run measured (status,
 * runtime ticks, full comm summary with %.17g doubles, comm matrix).
 * Two runs are byte-identical iff their fingerprints compare equal;
 * this is the string the determinism test and `nowlab perf` diff
 * between --jobs 1 and --jobs N, and the one the result store must
 * reproduce exactly on a cache hit (tests/test_svc.cc).
 */
std::string fingerprint(const RunResult &r);

} // namespace nowcluster

#endif // NOWCLUSTER_HARNESS_RUNNER_HH_
