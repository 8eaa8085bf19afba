#include "svc/service.hh"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "svc/spec.hh"

namespace nowcluster::svc {

namespace {

std::int64_t
wallNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Service-latency histogram bounds: 10us .. 10s, decade steps. */
std::vector<Tick>
latencyBounds()
{
    return {usec(10),    usec(100),    usec(1000),   usec(10000),
            usec(100000), usec(1000000), usec(10000000)};
}

const char *
stateName(int state)
{
    switch (state) {
    case 0: return "queued";
    case 1: return "running";
    case 2: return "done";
    case 3: return "failed";
    }
    return "?";
}

/** A JSON number as an integral field. Values beyond T's range
 *  saturate, where a plain cast would be undefined behaviour. */
template <typename T>
T
narrow(double v)
{
    constexpr T lo = std::numeric_limits<T>::min();
    constexpr T hi = std::numeric_limits<T>::max();
    if (!(v > static_cast<double>(lo)))
        return lo;
    if (v >= static_cast<double>(hi))
        return hi;
    return static_cast<T>(v);
}

/** The table entry of the Knobs field `Field`: set from a JSON number
 *  (integral fields saturate) and read back as one. */
template <auto Field>
constexpr KnobField
knob(const char *key, bool loggp = false)
{
    using T = std::remove_cvref_t<decltype(std::declval<Knobs &>().*Field)>;
    return {key,
            [](Knobs &k, double v) {
                if constexpr (std::is_integral_v<T>)
                    k.*Field = narrow<T>(v);
                else
                    k.*Field = v;
            },
            [](const Knobs &k) { return static_cast<double>(k.*Field); },
            std::is_integral_v<T>, loggp};
}

constexpr KnobField kKnobFields[] = {
    knob<&Knobs::overheadUs>("overhead", true),
    knob<&Knobs::gapUs>("gap", true),
    knob<&Knobs::latencyUs>("latency", true),
    knob<&Knobs::bulkMBps>("mbps", true),
    knob<&Knobs::occupancyUs>("occupancy"),
    knob<&Knobs::window>("window"),
    knob<&Knobs::dropRate>("drop"),
    knob<&Knobs::dupRate>("dup"),
    knob<&Knobs::corruptRate>("corrupt"),
    knob<&Knobs::reorderRate>("reorder"),
    knob<&Knobs::reorderMaxDelayUs>("reorder-delay"),
    knob<&Knobs::faultSeed>("fault-seed"),
    knob<&Knobs::reliable>("reliable"),
    knob<&Knobs::retxTimeoutUs>("rto"),
    knob<&Knobs::delayNode>("delay-node"),
    knob<&Knobs::delayAtUs>("delay-at"),
    knob<&Knobs::delayUs>("delay-us"),
    knob<&Knobs::topo>("topo"),
    knob<&Knobs::topoHosts>("topo-hosts"),
    knob<&Knobs::topoLinkMBps>("topo-mbps"),
    knob<&Knobs::topoOversub>("topo-oversub"),
    knob<&Knobs::topoHopUs>("topo-hop"),
};

/** The {"ok":true,"id":...,"state":...,"cached":...} reply. */
std::string
statusReply(std::uint64_t id, const char *state, bool cached)
{
    JsonWriter w;
    w.beginObject()
        .field("ok", true)
        .field("id", id)
        .field("state", state)
        .field("cached", cached)
        .endObject();
    return w.str();
}

/** The full result reply `get` returns. */
std::string
resultReply(std::uint64_t id, const char *state, bool cached,
            const RunPoint &pt, const RunResult &r)
{
    JsonWriter w;
    w.beginObject()
        .field("ok", true)
        .field("id", id)
        .field("state", state)
        .field("cached", cached)
        .field("app", pt.app)
        .field("procs", pt.config.nprocs)
        .field("run_ok", r.ok)
        .field("validated", r.validated)
        .field("backend", pt.config.origin == 1 ? "analytic" : "sim")
        .field("runtime_ticks", static_cast<std::int64_t>(r.runtime))
        .field("runtime_ms", toMsec(r.runtime))
        .field("avg_msgs_per_proc", r.summary.avgMsgsPerProc)
        .field("max_msgs_per_proc", r.summary.maxMsgsPerProc)
        .field("key", cacheKey(pt))
        .field("fingerprint", fingerprint(r))
        .endObject();
    return w.str();
}

} // namespace

std::string
errorReply(const std::string &error)
{
    JsonWriter w;
    w.beginObject().field("ok", false).field("error", error).endObject();
    return w.str();
}

std::span<const KnobField>
knobFields()
{
    return kKnobFields;
}

RunPoint
pointOfRequest(const JsonValue &req)
{
    RunPoint pt;
    pt.app = req.stringOr("app", "");
    RunConfig &c = pt.config;
    c.nprocs = narrow<int>(req.numberOr("procs", 32));
    c.scale = req.numberOr("scale", 1.0);
    c.seed = narrow<std::uint64_t>(req.numberOr("seed", 1));
    c.validate = req.boolOr("validate", true);
    // Rounded, so a budget rendered by submitRequest reads back exact.
    double max_ms = req.numberOr("max_ms", 0);
    if (max_ms > 0)
        c.maxTime = narrow<Tick>(std::round(max_ms * kMsec));

    // An unknown machine keeps the default; submitComplaint refuses it.
    if (auto m = MachineConfig::byKey(req.stringOr("machine", "now")))
        c.machine = *m;

    if (const JsonValue *k = req.find("knobs")) {
        for (const KnobField &f : kKnobFields)
            f.set(c.knobs, k->numberOr(f.key, -1));
    }
    return pt;
}

std::string
submitRequest(const RunPoint &pt)
{
    const RunConfig &c = pt.config;
    JsonWriter w;
    w.beginObject()
        .field("op", "submit")
        .field("app", pt.app)
        .field("procs", c.nprocs)
        .field("scale", c.scale)
        .field("seed", c.seed)
        .field("machine", c.machine.key())
        .field("max_ms", toMsec(c.maxTime))
        .field("validate", c.validate);
    // A knob left at -1 is absent, which pointOfRequest reads as -1.
    w.beginObject("knobs");
    for (const KnobField &f : kKnobFields)
        if (f.get(c.knobs) != -1)
            w.field(f.key, f.get(c.knobs));
    w.endObject().endObject();
    return w.str();
}

std::string
submitComplaint(const JsonValue &req, const RunPoint &pt)
{
    // An unknown machine would otherwise run (and be cached) as NOW.
    const std::string machine = req.stringOr("machine", "now");
    if (!MachineConfig::byKey(machine))
        return "unknown machine '" + machine + "' (" +
               MachineConfig::keys("|") + ")";
    // A knob this build does not know would otherwise be dropped and
    // the point run (and cached) without it.
    if (const JsonValue *k = req.find("knobs"); k && k->isObject()) {
        for (const auto &member : k->object) {
            bool known = false;
            for (const KnobField &f : kKnobFields)
                known = known || member.first == f.key;
            if (!known)
                return "unknown knob '" + member.first + "'";
        }
    }
    return validateSpec(pt);
}

ServiceCore::ServiceCore(const ServiceConfig &config)
    : config_(config),
      store_(config.cacheDir.empty()
                 ? nullptr
                 : std::make_unique<ResultStore>(config.cacheDir,
                                                 config.cacheMaxBytes)),
      cache_(store_ ? std::make_unique<StoreCache>(*store_) : nullptr),
      analytic_(std::make_unique<backend::AnalyticBackend>(
          backend::BackendOptions{config.driftTolerance, true})),
      runner_(config.jobs, config.maxQueue),
      reqTotal_(metrics_.counter("svc.requests")),
      reqBad_(metrics_.counter("svc.requests.bad")),
      reqBusy_(metrics_.counter("svc.requests.busy")),
      submits_(metrics_.counter("svc.submits")),
      cacheHits_(metrics_.counter("svc.cache.hits")),
      cacheMisses_(metrics_.counter("svc.cache.misses")),
      jobsDone_(metrics_.counter("svc.jobs.done")),
      jobsFailed_(metrics_.counter("svc.jobs.failed")),
      analyticServed_(metrics_.counter("svc.backend.analytic_served")),
      backendFallbacks_(metrics_.counter("svc.backend.fallbacks")),
      queueWaitUs_(metrics_.histogram("svc.queue_wait", latencyBounds())),
      runUs_(metrics_.histogram("svc.run_time", latencyBounds()))
{
    // Crash residue swept when the store opened; surfacing it as a
    // counter makes interrupted writes visible in every stats reply.
    if (store_)
        metrics_.counter("store_tmp_reaped") = store_->stats().tmpReaped;
}

ServiceCore::~ServiceCore()
{
    beginShutdown();
    runner_.shutdown();
}

std::string
ServiceCore::handleLine(const std::string &line)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++reqTotal_;
    }
    if (line.size() > kMaxRequestBytes) {
        std::lock_guard<std::mutex> lock(mu_);
        ++reqBad_;
        return errorReply("oversized request");
    }
    JsonValue req;
    std::string err;
    if (!parseJson(line, req, &err) || !req.isObject()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++reqBad_;
        return errorReply(err.empty() ? "not a JSON object" : err);
    }
    std::string op = req.stringOr("op", "");
    if (op == "submit")
        return handleSubmit(req);
    if (op == "status")
        return handleStatus(req);
    if (op == "get")
        return handleGet(req);
    if (op == "stats")
        return handleStats();
    if (op == "shutdown")
        return handleShutdown();
    std::lock_guard<std::mutex> lock(mu_);
    ++reqBad_;
    return errorReply("unknown op '" + op + "'");
}

std::string
ServiceCore::handleSubmit(const JsonValue &req)
{
    RunPoint pt = pointOfRequest(req);
    std::string complaint = submitComplaint(req, pt);
    if (!complaint.empty()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++reqBad_;
        return errorReply(complaint);
    }

    // Cache probe first: hits cost a disk read, no simulation, and
    // succeed even while draining.
    RunResult cached;
    bool hit = cache_ && cache_->lookup(pt, cached);

    std::unique_lock<std::mutex> lock(mu_);
    ++submits_;
    if (hit) {
        ++cacheHits_;
        std::uint64_t id = nextId_++;
        Job &job = jobs_[id];
        job.point = pt;
        job.state = JobState::kDone;
        job.cached = true;
        job.result = std::move(cached);
        return statusReply(id, "done", true);
    }
    if (cache_)
        ++cacheMisses_;
    if (config_.cacheOnly)
        return errorReply("cache-miss");
    if (shuttingDown_)
        return errorReply("shutting-down");

    std::uint64_t id = nextId_++;
    Job &job = jobs_[id];
    job.point = pt;
    job.state = JobState::kQueued;
    job.analytic = config_.backend == "analytic" ||
                   req.stringOr("backend", "") == "analytic";
    job.submitNs = wallNs();
    lock.unlock();

    if (!runner_.trySubmit([this, id] { runJob(id); })) {
        std::lock_guard<std::mutex> relock(mu_);
        ++reqBusy_;
        jobs_.erase(id);
        JsonWriter w;
        w.beginObject()
            .field("ok", false)
            .field("error", "busy")
            .field("retry_after_ms", config_.retryAfterMs)
            .endObject();
        return w.str();
    }

    return statusReply(id, "queued", false);
}

void
ServiceCore::runJob(std::uint64_t id)
{
    RunPoint pt;
    bool wantAnalytic = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            return;
        it->second.state = JobState::kRunning;
        pt = it->second.point;
        wantAnalytic = it->second.analytic;
        queueWaitUs_.observe((wallNs() - it->second.submitNs) / 1000 *
                             kUsec);
    }

    std::int64_t t0 = wallNs();
    RunResult r;
    bool completed = false;
    bool viaAnalytic = false;
    std::string fallbackWhy;
    try {
        // Serve from the analytic model when the job asked for it and
        // the spec is eligible. The first point of a model identity
        // pays for the traced base run and the validation probe; every
        // later point is an LP solve. canServe() after run() is the
        // fall-back test: a model that failed to build or whose probe
        // drifted past tolerance refuses with its reason, and the job
        // silently drops to a real simulation.
        if (wantAnalytic) {
            fallbackWhy = analytic_->canServe(pt);
            if (fallbackWhy.empty()) {
                RunResult ar = analytic_->run(pt);
                fallbackWhy = analytic_->canServe(pt);
                if (fallbackWhy.empty()) {
                    r = std::move(ar);
                    viaAnalytic = true;
                }
            }
        }
        if (!viaAnalytic)
            r = runApp(pt.app, pt.config);
        completed = true;
    } catch (...) {
        // Fall through: the job is marked failed below.
    }
    // The origin records how the job was *actually* served, so the get
    // reply never passes a model-derived number off as a measured one.
    // Only measured results are stored: submits look the store up at
    // origin 0, so an analytic entry could never be read back.
    pt.config.origin = viaAnalytic ? 1 : 0;
    if (completed && cache_ && !viaAnalytic)
        cache_->insert(pt, r);

    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return;
    it->second.point = pt;
    it->second.result = std::move(r);
    it->second.state = completed ? JobState::kDone : JobState::kFailed;
    (completed ? jobsDone_ : jobsFailed_) += 1;
    if (completed && wantAnalytic) {
        (viaAnalytic ? analyticServed_ : backendFallbacks_) += 1;
        // Tally every refusal reason, not just the first: a sweep that
        // mixes "fault injection" points with "window too small" points
        // must show both in the stats reply.
        if (!viaAnalytic)
            ++fallbackReasons_[fallbackWhy.empty() ? "unknown"
                                                   : fallbackWhy];
    }
    runUs_.observe((wallNs() - t0) / 1000 * kUsec);
}

std::string
ServiceCore::handleStatus(const JsonValue &req)
{
    std::uint64_t id = narrow<std::uint64_t>(req.numberOr("id", 0));
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        ++reqBad_;
        return errorReply("unknown id");
    }
    return statusReply(id,
                       stateName(static_cast<int>(it->second.state)),
                       it->second.cached);
}

std::string
ServiceCore::handleGet(const JsonValue &req)
{
    std::uint64_t id = narrow<std::uint64_t>(req.numberOr("id", 0));
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        ++reqBad_;
        return errorReply("unknown id");
    }
    const Job &job = it->second;
    if (job.state != JobState::kDone && job.state != JobState::kFailed) {
        JsonWriter w;
        w.beginObject()
            .field("ok", false)
            .field("error", "not-done")
            .field("state",
                   stateName(static_cast<int>(job.state)))
            .endObject();
        return w.str();
    }
    return resultReply(id, stateName(static_cast<int>(job.state)),
                       job.cached, job.point, job.result);
}

std::string
ServiceCore::handleStats()
{
    MetricsSnapshot snap = metricsSnapshot();
    std::lock_guard<std::mutex> lock(mu_);
    JsonWriter w;
    w.beginObject().field("ok", true);
    w.field("jobs", runner_.jobs());
    w.field("queue_depth", static_cast<std::uint64_t>(
                               runner_.queueDepth()));
    w.field("queue_max",
            static_cast<std::uint64_t>(runner_.maxQueue()));
    w.field("active", static_cast<std::uint64_t>(
                          runner_.activeCount()));
    w.field("draining", shuttingDown_);
    w.field("cache_only", config_.cacheOnly);
    w.field("backend",
            config_.backend.empty() ? "sim" : config_.backend);
    w.beginObject("counters");
    for (const auto &[name, v] : snap.counters)
        w.field(name, v);
    w.endObject();
    // Per-reason analytic-backend refusal tallies (the aggregate count
    // is svc.backend.fallbacks above). std::map keeps the keys sorted,
    // so the reply is deterministic.
    w.beginObject("fallback_reasons");
    for (const auto &[why, n] : fallbackReasons_)
        w.field(why, n);
    w.endObject();
    w.beginObject("histograms");
    for (const auto &[name, h] : snap.histograms) {
        w.beginObject(name);
        w.field("count", h.count());
        w.field("sum_ticks", static_cast<std::int64_t>(h.sum()));
        w.beginArray("bounds_us");
        for (Tick b : h.bounds())
            w.element(static_cast<std::int64_t>(b / kUsec));
        w.endArray();
        w.beginArray("buckets");
        for (std::uint64_t c : h.buckets())
            w.element(c);
        w.endArray();
        w.endObject();
    }
    w.endObject();
    if (store_) {
        ResultStore::Stats s = store_->stats();
        w.beginObject("store");
        w.field("dir", store_->dir());
        w.field("entries",
                static_cast<std::uint64_t>(store_->entryCount()));
        w.field("bytes", store_->totalBytes());
        w.field("hits", s.hits);
        w.field("misses", s.misses);
        w.field("puts", s.puts);
        w.field("evictions", s.evictions);
        w.field("corrupt", s.corrupt);
        w.field("tmp_reaped", s.tmpReaped);
        w.endObject();
    }
    w.endObject();
    return w.str();
}

std::string
ServiceCore::handleShutdown()
{
    beginShutdown();
    JsonWriter w;
    w.beginObject()
        .field("ok", true)
        .field("state", "draining")
        .endObject();
    return w.str();
}

void
ServiceCore::beginShutdown()
{
    std::lock_guard<std::mutex> lock(mu_);
    shuttingDown_ = true;
}

void
ServiceCore::drain()
{
    runner_.drain();
}

bool
ServiceCore::shuttingDown() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return shuttingDown_;
}

MetricsSnapshot
ServiceCore::metricsSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return metrics_.snapshot();
}

} // namespace nowcluster::svc
