/**
 * @file
 * ServiceCore: the nowlabd protocol brain, transport-free.
 *
 * One line-delimited JSON request in, one JSON reply out -- the TCP
 * server (svc/server.hh) is a thin socket pump around handleLine(), so
 * the whole protocol (including its fuzz surface) is testable without
 * a socket in sight. docs/INTERNALS.md §9 specifies the ops (submit,
 * status, get, stats, shutdown), their fields and their replies,
 * including the analytic engine ("backend":"analytic", which falls back
 * to a simulation) and cache-only mode. Jobs go queued -> running ->
 * done | failed and live for the process; ids are never reused.
 */

#ifndef NOWCLUSTER_SVC_SERVICE_HH_
#define NOWCLUSTER_SVC_SERVICE_HH_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "backend/backend.hh"
#include "harness/runner.hh"
#include "obs/metrics.hh"
#include "svc/json.hh"
#include "svc/store.hh"

namespace nowcluster::svc {

struct ServiceConfig
{
    int jobs = 0;               ///< Worker pool size (0 = auto).
    std::size_t maxQueue = 64;  ///< Bounded job queue (backpressure).
    std::string cacheDir;       ///< "" = no result store.
    std::uint64_t cacheMaxBytes = ResultStore::kDefaultMaxBytes;
    bool cacheOnly = false;     ///< Offline mode: never simulate.
    int retryAfterMs = 250;     ///< Hint in busy replies.
    /** Default serving engine: "" or "sim" simulates every job;
     *  "analytic" answers eligible jobs from the LogGP model (one
     *  traced run per model identity, then milliseconds per point)
     *  and transparently falls back to sim for specs the model
     *  cannot serve or whose validation probe drifted. */
    std::string backend;
    double driftTolerance = 0.10; ///< Analytic probe-drift bound.
};

/** The maximum request line the service accepts (oversized lines are
 *  answered with an error and the rest of the line discarded). */
constexpr std::size_t kMaxRequestBytes = 1 << 16;

/** The canonical {"ok":false,"error":...} reply line (no newline);
 *  shared by ServiceCore and the transport's own rejections. */
std::string errorReply(const std::string &error);

/** A knob key of the submit protocol and the Knobs field it names. */
struct KnobField
{
    const char *key;
    void (*set)(Knobs &, double);
    double (*get)(const Knobs &);
    bool integral; ///< An int or long field (set() saturates).
    bool loggp;    ///< L, o, g or G: a knob the analytic model re-times.
};

/** Every knob a submit request's "knobs" object may carry, in protocol
 *  order; submitComplaint() refuses any other key. `nowlab` reads its
 *  knob options, under the same keys, from this table. */
std::span<const KnobField> knobFields();

/** The RunPoint a submit request describes (missing fields take the
 *  same defaults `nowlab run` applies). */
RunPoint pointOfRequest(const JsonValue &req);

/** The submit request describing `pt` (what `nowlab submit` sends and
 *  a NOWOBS02 trace header carries). pointOfRequest() reads it back to
 *  `pt`'s canonicalSpec, save what the request has no field for:
 *  Knobs::collAlg, the origin, and params off the named machine's. */
std::string submitRequest(const RunPoint &pt);

/**
 * Why a submit request must be refused, "" when it may run: a machine
 * key MachineConfig::byKey() does not know ("unknown machine 'M'
 * (now|paragon|meiko)"), a `knobs` key the protocol does not define
 * ("unknown knob 'K'"), else validateSpec()'s complaint about `pt`,
 * its pointOfRequest() point.
 */
std::string submitComplaint(const JsonValue &req, const RunPoint &pt);

class ServiceCore
{
  public:
    explicit ServiceCore(const ServiceConfig &config);
    ~ServiceCore();

    ServiceCore(const ServiceCore &) = delete;
    ServiceCore &operator=(const ServiceCore &) = delete;

    /** Handle one request line; always returns a JSON reply (no
     *  trailing newline), never throws, never fatal()s. */
    std::string handleLine(const std::string &line);

    /** Stop accepting submits (drain begins; queued jobs still run). */
    void beginShutdown();

    /** Block until every accepted job has completed. */
    void drain();

    bool shuttingDown() const;

    /** Point-in-time copy of the request counters and histograms. */
    MetricsSnapshot metricsSnapshot() const;

    const ResultStore *store() const { return store_.get(); }
    const ServiceConfig &config() const { return config_; }
    std::size_t queueDepth() const { return runner_.queueDepth(); }

  private:
    enum class JobState
    {
        kQueued,
        kRunning,
        kDone,
        kFailed,
    };

    struct Job
    {
        RunPoint point;
        JobState state = JobState::kQueued;
        bool cached = false;
        /** Serve via the analytic model if eligible (request asked for
         *  it, or the service default is "analytic"). */
        bool analytic = false;
        RunResult result;
        std::int64_t submitNs = 0; ///< Wall clock, for queue-wait.
    };

    std::string handleSubmit(const JsonValue &req);
    std::string handleStatus(const JsonValue &req);
    std::string handleGet(const JsonValue &req);
    std::string handleStats();
    std::string handleShutdown();
    void runJob(std::uint64_t id);

    ServiceConfig config_;
    std::unique_ptr<ResultStore> store_;
    std::unique_ptr<StoreCache> cache_;
    /** Always present (an empty model map is free): jobs use it when
     *  the submit asked for "backend":"analytic" or the service was
     *  started with that default. */
    std::unique_ptr<backend::AnalyticBackend> analytic_;
    Runner runner_;

    mutable std::mutex mu_;
    bool shuttingDown_ = false;
    std::uint64_t nextId_ = 1;
    std::map<std::uint64_t, Job> jobs_;

    // Registry + the owned references the hot paths bump. Guarded by
    // mu_: the registry itself is single-threaded by design.
    MetricsRegistry metrics_;
    std::uint64_t &reqTotal_;
    std::uint64_t &reqBad_;
    std::uint64_t &reqBusy_;
    std::uint64_t &submits_;
    std::uint64_t &cacheHits_;
    std::uint64_t &cacheMisses_;
    std::uint64_t &jobsDone_;
    std::uint64_t &jobsFailed_;
    std::uint64_t &analyticServed_;
    std::uint64_t &backendFallbacks_;
    /** Analytic-backend refusal reason -> count (guarded by mu_).
     *  Reported per reason in the stats reply, not first-reason-only. */
    std::map<std::string, std::uint64_t> fallbackReasons_;
    Histogram &queueWaitUs_;
    Histogram &runUs_;
};

} // namespace nowcluster::svc

#endif // NOWCLUSTER_SVC_SERVICE_HH_
