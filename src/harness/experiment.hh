/**
 * @file
 * The experiment harness: configure a cluster with paper-style LogGP
 * knob settings, run a benchmark application on it, and collect the
 * measurements every bench binary needs.
 */

#ifndef NOWCLUSTER_HARNESS_EXPERIMENT_HH_
#define NOWCLUSTER_HARNESS_EXPERIMENT_HH_

#include <cstdint>
#include <string>

#include "net/loggp.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "stats/comm_stats.hh"

namespace nowcluster {

/** Paper-style knob settings; negative values mean "leave baseline". */
struct Knobs
{
    double overheadUs = -1;  ///< Desired mean o (Figure 5 x-axis).
    double gapUs = -1;       ///< Desired g (Figure 6 x-axis).
    double latencyUs = -1;   ///< Desired L (Figure 7 x-axis).
    double bulkMBps = -1;    ///< Available bulk bandwidth (Figure 8).
    double occupancyUs = -1; ///< Extension: rx-controller occupancy.
    int window = -1;         ///< Extension: flow-control window.

    // Lossy-fabric laboratory (net/fault.hh). Setting any rate >= 0
    // enables the fault model; `reliable` arms the retransmission
    // protocol independently.
    double dropRate = -1;    ///< P(wire event lost).
    double dupRate = -1;     ///< P(wire event duplicated).
    double corruptRate = -1; ///< P(payload corrupted -> CRC discard).
    double reorderRate = -1; ///< P(wire event delayed for reordering).
    double reorderMaxDelayUs = -1; ///< Bound on the reorder delay.
    long faultSeed = -1;     ///< Fault-model PRNG seed (default: 1).
    int reliable = -1;       ///< 1 = reliable delivery, 0 = force off.
    double retxTimeoutUs = -1; ///< Retransmission timeout (0/-1 = auto).

    /** One-off delay injection (the Afzal-style transient
     *  perturbation): stall processor `delayNode` at virtual time
     *  `delayAtUs` for `delayUs` microseconds. Setting `delayNode`
     *  enables the fault model (scripted-only: all rates stay zero, so
     *  the run consumes no fault randomness and stays exactly
     *  deterministic). */
    long delayNode = -1;   ///< Node to stall (-1 = no delay).
    double delayAtUs = -1; ///< Stall start, microseconds (-1 = t 0).
    double delayUs = -1;   ///< Stall duration, microseconds.

    /** Fat-tree topology model (net/topology.hh), the one switch-
     *  contention model; `topo = 1` or any topo* field enables it. */
    int topo = -1;           ///< 1 = enable with defaults, 0 = off.
    int topoHosts = -1;      ///< Hosts per leaf switch.
    double topoLinkMBps = -1; ///< Edge link bandwidth.
    double topoOversub = -1; ///< Spine oversubscription ratio.
    double topoHopUs = -1;   ///< Extra cross-leaf wire latency (us).

    /** Collective-algorithm policy ("" = unset: the NOW_COLL_ALG
     *  environment fallback applies, then the machine default). See
     *  coll::CollPolicy::parse for the grammar ("naive", "tuned",
     *  "bcast=chain,allreduce=rdouble", ...). */
    std::string collAlg;

    /** Apply to a parameter set. */
    void applyTo(LogGPParams &params) const;

    /**
     * "" when every microsecond knob is at most 1e9 us (1000 s of
     * virtual time), else "<knob> above 1e9 us" naming the first that
     * is not (NaN included). Each knob becomes ticks through usec(),
     * which is undefined past the Tick range, and a huge one overflows
     * the simulator's clock, so callers check before applyTo().
     */
    std::string boundError() const;
};

/** Complete configuration of one application run. */
struct RunConfig
{
    int nprocs = 32;
    double scale = 1.0;
    std::uint64_t seed = 1;
    MachineConfig machine = MachineConfig::berkeleyNow();
    Knobs knobs;
    /** Virtual-time budget; exceeded runs are reported failed (the
     *  paper's "N/A" entries, e.g. livelocked Barnes). */
    Tick maxTime = 600 * kSec;
    bool validate = true;
    /**
     * Which engine produced (or must produce) the result: 0 = the
     * discrete-event simulator, 1 = the analytic LP backend
     * (src/backend). Part of the canonical spec so analytic and
     * simulated results never alias in the content-addressed store.
     */
    int origin = 0;
    /** Optional span tracer (not owned): records per-track timelines
     *  and per-message flights for the Perfetto exporter, the LP
     *  lowering (analytic backend, replay and the critical path
     *  `nowlab trace` prints) and the burstiness stats. */
    SpanTracer *obs = nullptr;
};

/** Everything measured from one run. */
struct RunResult
{
    bool ok = false;        ///< Completed within budget.
    bool validated = false; ///< Output passed the app's check.
    Tick runtime = 0;
    CommSummary summary;
    CommMatrix matrix;
    std::uint64_t maxMsgsPerProc = 0;
    std::uint64_t lockFailures = 0;
    /** Simulator events executed (perf metric; deliberately excluded
     *  from the result fingerprint). */
    std::uint64_t simEvents = 0;
    /** Snapshot of the cluster's metrics registry at run end. */
    MetricsSnapshot metrics;
};

/** Run one application under the given configuration. */
RunResult runApp(const std::string &app_key, const RunConfig &config);

/**
 * Environment-derived configuration, read exactly once (first use) and
 * cached. Worker threads of the parallel runner must never call
 * getenv() themselves — getenv is not guaranteed thread-safe against a
 * host process mutating the environment — so everything env-derived is
 * funneled through here and then passed by value through RunConfig.
 */
struct EnvConfig
{
    bool scaleSet = false; ///< NOW_SCALE was present and valid.
    double scale = 1.0;    ///< NOW_SCALE value (1.0 if unset).
    int jobs = 0;          ///< NOW_JOBS value (0 = auto-detect).
    /** NOW_COLL_ALG: collective policy fallback ("" = unset). A
     *  per-run Knobs.collAlg setting wins over this. */
    std::string collAlg;
    /** NOW_CACHE_DIR: result-store directory ("" = caching off). */
    std::string cacheDir;
};

/** Parse the environment right now (testing; most code wants the
 *  cached envConfig()). */
EnvConfig parseEnvConfig();

/** The cached process-wide environment configuration (first-use read;
 *  later environment changes are deliberately invisible). */
const EnvConfig &envConfig();

/** Environment-variable scale override (NOW_SCALE), default 1.0. */
double envScale();

/** Environment-variable worker-count override (NOW_JOBS), 0 = auto. */
int envJobs();

/** Environment-variable result-store directory (NOW_CACHE_DIR), ""
 *  when unset (caching off). */
const std::string &envCacheDir();

} // namespace nowcluster

#endif // NOWCLUSTER_HARNESS_EXPERIMENT_HH_
