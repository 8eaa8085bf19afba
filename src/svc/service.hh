/**
 * @file
 * ServiceCore: the nowlabd protocol brain, transport-free.
 *
 * One line-delimited JSON request in, one JSON reply out -- the TCP
 * server (svc/server.hh) is a thin socket pump around handleLine(), so
 * the whole protocol (including its fuzz surface) is testable without
 * a socket in sight.
 *
 * Requests ({"op": ...}):
 *   submit   {"op":"submit","app":"radix","procs":32,"scale":1,
 *             "seed":1,"machine":"now","knobs":{"overhead":12.9,...}}
 *            -> {"ok":true,"id":N,"state":"queued"|"done","cached":B}
 *            A knobs key the protocol does not define is refused with
 *            {"ok":false,"error":"unknown knob 'K'"}, never dropped.
 *            Cache hits complete instantly; cache misses are queued on
 *            the Runner pool. A full queue is answered with
 *            {"ok":false,"error":"busy","retry_after_ms":N}: bounded
 *            memory, clients retry. An optional "backend":"analytic"
 *            field (or serving with --backend analytic) asks for the
 *            LogGP-model engine: eligible jobs are answered from one
 *            traced run per model identity, ineligible or drifted ones
 *            transparently fall back to a real simulation, and the
 *            get reply's "backend" field says which engine answered.
 *   status   {"op":"status","id":N} -> {"ok":true,"state":...}
 *   get      {"op":"get","id":N} -> the measured result, including the
 *            canonical fingerprint (byte-identical cached vs computed).
 *   stats    {"op":"stats"} -> request counters, latency histograms
 *            (MetricsRegistry snapshot), queue/pool and store state.
 *   ping     {"op":"ping"} -> {"ok":true,"role":"worker",
 *            "draining":B}. The fleet coordinator's liveness probe:
 *            answered from memory, no locks on the job table, no disk.
 *   pull     {"op":"pull","key":K} -> {"ok":true,"key":K,
 *            "payload":<hex>}: the raw store entry under K, for
 *            coordinator-driven replication. Errors: "no-store",
 *            "not-found", "bad-key".
 *   put      {"op":"put","key":K,"payload":<hex>} -> {"ok":true}.
 *            Replicates an entry into this worker's store. The payload
 *            must decode as a RunResult (a corrupt replica is refused,
 *            never stored); errors mirror pull's plus "bad-payload".
 *   shutdown {"op":"shutdown"} -> begins graceful drain.
 *
 * Job states: queued -> running -> done | failed. Jobs live forever
 * (the job table is append-only per process); ids are never reused.
 *
 * Cache-only mode (offline laboratory): submits that miss the store
 * are answered with {"ok":false,"error":"cache-miss"} instead of
 * simulating, so a store snapshot can be queried on a machine with no
 * cycles to spare.
 */

#ifndef NOWCLUSTER_SVC_SERVICE_HH_
#define NOWCLUSTER_SVC_SERVICE_HH_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "backend/backend.hh"
#include "harness/runner.hh"
#include "obs/metrics.hh"
#include "svc/json.hh"
#include "svc/store.hh"

namespace nowcluster::svc {

/**
 * The brain behind a line-protocol transport. NowlabServer pumps
 * request lines into one of these; ServiceCore (a worker nowlabd) and
 * CoordinatorCore (the fleet front end) both implement it, so the
 * epoll engine, its hostile-client containment, and its graceful-drain
 * contract are written once and shared.
 */
class LineHandler
{
  public:
    virtual ~LineHandler() = default;

    /** Handle one request line; always returns a JSON reply (no
     *  trailing newline), never throws, never fatal()s. */
    virtual std::string handleLine(const std::string &line) = 0;

    /** Stop accepting new work (drain begins). */
    virtual void beginShutdown() = 0;

    /** Block until every accepted job has completed. */
    virtual void drain() = 0;

    virtual bool shuttingDown() const = 0;
};

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

/**
 * The RunPoint a submit request describes (missing fields take the
 * same defaults `nowlab run` applies). Shared by ServiceCore and the
 * coordinator, which must agree byte-for-byte on the canonical spec a
 * request names -- that agreement is what makes failover recomputation
 * correct by construction.
 */
RunPoint pointOfRequest(const JsonValue &req);

/**
 * Why a submit request must be refused, "" when it may run: a `knobs`
 * key the protocol does not define ("unknown knob 'K'"), else
 * validateSpec()'s complaint about `pt`, its pointOfRequest() point.
 */
std::string submitComplaint(const JsonValue &req, const RunPoint &pt);

/**
 * The canonical submit line for a RunPoint: the exact inverse of
 * pointOfRequest, i.e. pointOfRequest(parse(submitRequest(pt))) has
 * the same cacheKey as pt (tested in test_fleet.cc). The coordinator
 * uses it to forward and, after a worker death, re-forward work.
 */
std::string submitRequest(const RunPoint &pt);

/** The {"ok":true,"id":...,"state":...,"cached":...} reply shared by
 *  status handling on the worker and the coordinator. */
std::string statusReply(std::uint64_t id, const char *state,
                        bool cached);

/** The full measured-result reply `get` returns, rendered from a
 *  decoded RunResult -- one formatter, so a coordinator serving a
 *  replica read answers byte-identically to the worker it replaced. */
std::string resultReply(std::uint64_t id, const char *state,
                        bool cached, const RunPoint &pt,
                        const RunResult &r);

class ServiceCore : public LineHandler
{
  public:
    explicit ServiceCore(const ServiceConfig &config);
    ~ServiceCore() override;

    ServiceCore(const ServiceCore &) = delete;
    ServiceCore &operator=(const ServiceCore &) = delete;

    /** Handle one request line; always returns a JSON reply (no
     *  trailing newline), never throws, never fatal()s. */
    std::string handleLine(const std::string &line) override;

    /** Stop accepting submits (drain begins; queued jobs still run). */
    void beginShutdown() override;

    /** Block until every accepted job has completed. */
    void drain() override;

    bool shuttingDown() const override;

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
    std::string handlePing();
    std::string handlePull(const JsonValue &req);
    std::string handlePut(const JsonValue &req);
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
    std::uint64_t &pulls_;
    std::uint64_t &puts_;
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
