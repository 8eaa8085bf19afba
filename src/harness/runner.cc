#include "harness/runner.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <exception>

#include "base/logging.hh"

namespace nowcluster {

int
hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? static_cast<int>(n) : 1;
}

int
resolveJobs(int jobs)
{
    if (jobs > 0)
        return jobs;
    int env = envJobs();
    return env > 0 ? env : hardwareJobs();
}

// ---- Runner ---------------------------------------------------------

Runner::Runner(int jobs, std::size_t maxQueue)
    : jobs_(resolveJobs(jobs)), maxQueue_(maxQueue)
{
    // Force the one-time getenv pass before any worker exists.
    (void)envConfig();
    workers_.reserve(jobs_);
    for (int w = 0; w < jobs_; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

Runner::~Runner()
{
    shutdown();
}

void
Runner::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workReady_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_ and nothing left to do.
            job = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        job();
        {
            std::lock_guard<std::mutex> lock(mu_);
            --active_;
            if (queue_.empty() && active_ == 0)
                idle_.notify_all();
        }
    }
}

bool
Runner::trySubmit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_)
            return false;
        if (maxQueue_ && queue_.size() >= maxQueue_)
            return false; // Backpressure: caller retries later.
        queue_.push_back(std::move(job));
    }
    workReady_.notify_one();
    return true;
}

void
Runner::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock,
               [this] { return queue_.empty() && active_ == 0; });
}

void
Runner::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_ && workers_.empty())
            return;
        stopping_ = true;
    }
    // Accepted jobs still run to completion: workers only exit on an
    // empty queue, which is the graceful-drain contract nowlabd's
    // SIGTERM path relies on.
    workReady_.notify_all();
    for (std::thread &t : workers_) {
        if (t.joinable())
            t.join();
    }
    workers_.clear();
}

std::size_t
Runner::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
}

std::size_t
Runner::activeCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return active_;
}

// ---- cache hook -----------------------------------------------------

namespace {

RunCache *g_runCache = nullptr;

/** Run one point, containing any failure to its own result slot. */
RunResult
runPointGuarded(const RunPoint &pt, bool *completed)
{
    try {
        RunResult r = runApp(pt.app, pt.config);
        if (completed)
            *completed = true;
        return r;
    } catch (const std::exception &e) {
        warn("point '%s' failed: %s", pt.app.c_str(), e.what());
    } catch (...) {
        warn("point '%s' failed with unknown exception", pt.app.c_str());
    }
    return RunResult{}; // ok=false, validated=false.
}

} // namespace

void
setRunCache(RunCache *cache)
{
    g_runCache = cache;
}

RunCache *
runCache()
{
    return g_runCache;
}

RunResult
runPointCached(const RunPoint &pt)
{
    // A point with a tracer attached has side effects (the recorded
    // spans) that a cached result cannot replay: always simulate.
    RunCache *cache = g_runCache;
    bool cacheable = cache && !pt.config.obs;

    RunResult r;
    if (cacheable && cache->lookup(pt, r))
        return r;

    bool completed = false;
    r = runPointGuarded(pt, &completed);
    // Timed-out and invalid runs are deterministic too (the budget is
    // part of the key); only exception-path failures stay uncached.
    if (cacheable && completed)
        cache->insert(pt, r);
    return r;
}

std::vector<RunResult>
runPoints(const std::vector<RunPoint> &points, int jobs)
{
    (void)envConfig();

    const std::size_t n = points.size();
    std::vector<RunResult> results(n);
    const int workers = static_cast<int>(
        std::min<std::size_t>(std::max<std::size_t>(n, 1),
                              resolveJobs(jobs)));

    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            results[i] = runPointCached(points[i]);
        return results;
    }

    // Each result lands in its submission slot, so completion order
    // never shows.
    Runner pool(workers);
    for (std::size_t i = 0; i < n; ++i) {
        pool.trySubmit([&points, &results, i] {
            results[i] = runPointCached(points[i]);
        });
    }
    pool.shutdown();
    return results;
}

namespace {

void
appendF(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

} // namespace

std::string
fingerprint(const RunResult &r)
{
    std::string out;
    out.reserve(1024);
    appendF(out, "ok=%d validated=%d runtime=%lld\n", r.ok ? 1 : 0,
            r.validated ? 1 : 0, static_cast<long long>(r.runtime));
    const CommSummary &s = r.summary;
    appendF(out, "app=%s nprocs=%d runtime=%lld\n", s.app.c_str(),
            s.nprocs, static_cast<long long>(s.runtime));
    appendF(out,
            "msgs avg=%llu max=%llu perMs=%.17g intervalUs=%.17g "
            "barrierMs=%.17g\n",
            static_cast<unsigned long long>(s.avgMsgsPerProc),
            static_cast<unsigned long long>(s.maxMsgsPerProc),
            s.msgsPerProcPerMs, s.msgIntervalUs, s.barrierIntervalMs);
    appendF(out, "pctBulk=%.17g pctReads=%.17g bulk=%.17g small=%.17g\n",
            s.pctBulk, s.pctReads, s.bulkKBps, s.smallKBps);
    appendF(out, "locks fail=%llu acq=%llu\n",
            static_cast<unsigned long long>(s.lockFailures),
            static_cast<unsigned long long>(s.lockAcquires));
    appendF(out,
            "rel retx=%llu dup=%llu giveup=%llu drop=%llu fdup=%llu "
            "delay=%llu\n",
            static_cast<unsigned long long>(s.retransmits),
            static_cast<unsigned long long>(s.dupsSuppressed),
            static_cast<unsigned long long>(s.retxGiveUps),
            static_cast<unsigned long long>(s.faultDropped),
            static_cast<unsigned long long>(s.faultDuplicated),
            static_cast<unsigned long long>(s.faultDelayed));
    appendF(out, "matrix %d:", r.matrix.nprocs);
    for (std::uint64_t c : r.matrix.counts)
        appendF(out, " %llu", static_cast<unsigned long long>(c));
    out += "\n";
    return out;
}

} // namespace nowcluster
