/**
 * @file
 * AnalyticModel: lower one traced run into the sweep-evaluation LP.
 *
 * The span tracer records two things the model needs: the per-node CPU
 * timelines (what each processor did, in order) and one ObsMessage per
 * message with the NIC timestamp algebra
 *
 *   issued --(queue wait: g)--> inject --(size*G)--> wire --(L)--> ready
 *
 * Lowering turns each leaf CPU span into an LP event whose outgoing
 * edge weight is a linear function of the LogGP parameters (an OSend
 * span costs `duration - base.addedO + 1*o`, a GapStall span costs
 * `duration/base.gap * g`, compute is constant), and each message into
 * a cross-node edge from its send-overhead span to its receive-overhead
 * span weighted by the parameterized queue wait, bulk serialization,
 * and one wire crossing (`perL = 1`). Solving the LP at the traced
 * operating point reproduces the traced schedule; solving it anywhere
 * else predicts how the schedule re-times when the knobs move, exactly
 * the question every sweep in the paper asks.
 *
 * The prediction is calibrated: whatever part of the measured runtime
 * the graph cannot explain (untraced credit waits, polling slack) is
 * captured as a constant residual at build time, so the model is exact
 * at its own base point and the error budget is spent only on the
 * *change* in runtime.
 *
 * runtime() solves for the makespan alone (what a served point needs);
 * predict() gives the same runtime, bit for bit, plus the binding
 * path from the LP dual; slopes() gives the one-sided slopes.
 */

#ifndef NOWCLUSTER_BACKEND_MODEL_HH_
#define NOWCLUSTER_BACKEND_MODEL_HH_

#include <cstddef>
#include <optional>
#include <string>

#include "backend/lp.hh"
#include "net/loggp.hh"
#include "obs/tracer.hh"

namespace nowcluster::backend {

/** One evaluated point: the predicted runtime and the path that binds
 *  it in the LP's dual solve. */
struct AnalyticPrediction
{
    bool ok = false;
    double runtime = 0; ///< Predicted end-to-end ticks.
    /** The binding path's coefficient sums: fixed + perL*L + ... +
     *  perGb*G is the runtime less the residual. Where paths tie it is
     *  the first of them, so these are not the slopes; slopes() is. */
    LinCost path;
    std::size_t pathEdges = 0; ///< Edges on the binding path.
};

/** The knobs AnalyticModel::slopes solves for, as bits. */
enum SlopeKnob : unsigned
{
    kSlopeL = 1,
    kSlopeO = 2,
    kSlopeG = 4,
    kSlopeGb = 8,
    kAllSlopes = 15,
};

/** The runtime's one-sided slopes at a point: how fast it grows as
 *  each knob grows from there. */
struct AnalyticSlopes
{
    bool ok = false;
    double dTdL = 0;  ///< Ticks of runtime per tick of L.
    double dTdO = 0;  ///< Ticks of runtime per tick of added o.
    double dTdG = 0;  ///< Ticks of runtime per tick of g.
    double dTdGb = 0; ///< Ticks of runtime per tick-per-byte of G.
};

/** How the lowering went (surfaced by `nowlab backend validate`). */
struct ModelBuildStats
{
    std::size_t cpuSpans = 0;        ///< Leaf CPU spans lowered.
    std::size_t messagesLinked = 0;  ///< Messages with a receive edge.
    std::size_t messagesUnlinked = 0; ///< No ORecv span (bulk frags).
    std::size_t lpNodes = 0;
    std::size_t lpEdges = 0;
    double residual = 0; ///< measured - raw LP makespan, in ticks.
};

/** Why the LP cannot re-time a fat-tree run traced at `traced` to
 *  `target`, or "": it lowers the tree's link contention as fixed
 *  edge time, which holds only at the L, o, g and G the run was traced
 *  at. AnalyticBackend::canServe refuses such points, and so does
 *  `nowlab replay`; a fat-tree model withholds its slopes, each a
 *  solve one tick off the traced knobs. */
std::string fatTreeRefusal(const LogGPParams &traced,
                           const LogGPParams &target);

/**
 * The lowered model for one traced (app, nprocs, topology) run.
 * build() once, then predict() or runtime() from any thread (the LP
 * solves are const).
 */
class AnalyticModel
{
  public:
    /**
     * Lower `tracer` recorded under `base` parameters into the LP and
     * calibrate against the run's measured runtime.
     * @return false if the trace has no CPU spans or the dependency
     *         graph is not a DAG (corrupt trace).
     */
    bool build(const SpanTracer &tracer, const LogGPParams &base,
               Tick measuredRuntime);

    /** Evaluate the model at a target operating point: the runtime
     *  and the binding path, from one solve with the dual. */
    AnalyticPrediction predict(const LogGPParams &target) const;

    /** The one-sided slopes at `at` of the knobs in `knobs` (the rest
     *  read 0): per knob, the binding path's coefficient one tick up
     *  it (one tick per kilobyte for G), where ties at the point are
     *  broken by growth, so it is the runtime's finite difference over
     *  that tick. One dual solve per knob. Not ok for a model traced on
     *  the fat-tree (fatTreeRefusal). */
    AnalyticSlopes slopes(const LogGPParams &at,
                          unsigned knobs = kAllSlopes) const;

    /** What `nowlab trace` and `nowlab replay` print at `at`: the
     *  binding path's terms plus the residual, which sum to the
     *  runtime, then slopes(), or the reason why not: `noSlopes`, else
     *  fatTreeRefusal's for a fat-tree model. */
    std::string report(const LogGPParams &at,
                       const std::string &noSlopes = "") const;

    /** predict()'s runtime alone, bit for bit, from the makespan-only
     *  solve (no dual): what AnalyticBackend::run serves. nullopt if
     *  the model is not built. */
    std::optional<double> runtime(const LogGPParams &target) const;

    bool ready() const { return ok_; }
    const ModelBuildStats &stats() const { return stats_; }
    /** The lowered LP (its edges, for inspection). */
    const LpDag &dag() const { return dag_; }

    /** The LP coordinates of a parameter set: (totalLatency, addedO,
     *  gap, gPerByte). */
    static LpParams pointOf(const LogGPParams &p);

  private:
    /** Add the trace's LP events and edges to dag_, and the span and
     *  message counts to stats_. False if it has no leaf CPU span, or
     *  more spans or messages than 32-bit indices hold. */
    bool lower(const SpanTracer &tracer);
    /** A raw LP makespan plus the residual, floored at zero. */
    double calibrated(double makespan) const;

    LpDag dag_;
    LogGPParams base_;
    double residual_ = 0;
    ModelBuildStats stats_;
    bool ok_ = false;
};

} // namespace nowcluster::backend

#endif // NOWCLUSTER_BACKEND_MODEL_HH_
