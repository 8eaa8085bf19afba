/**
 * @file
 * A collective-communication library on the Split-C runtime, including
 * the LogP model's original application: *optimal broadcast tree*
 * construction from the machine's (o, g, L) parameters (Culler et al.,
 * "LogP: Towards a Realistic Model of Parallel Computation"). Under
 * LogP the best broadcast is not a fixed binomial tree: each holder of
 * the value keeps transmitting at interval max(o, g), and every
 * transmission is aimed at the receiver that can be reached earliest.
 *
 * The library provides broadcast (binomial / logp-optimal / linear),
 * all-gather (ring / recursive doubling), pairwise-exchange all-to-all,
 * and a Kogge-Stone prefix scan -- each validated against references
 * in the tests and raced against each other in
 * bench_ablation_collectives.
 */

#ifndef NOWCLUSTER_COLL_COLLECTIVES_HH_
#define NOWCLUSTER_COLL_COLLECTIVES_HH_

#include <cstdint>
#include <vector>

#include "model/models.hh"
#include "splitc/splitc.hh"

namespace nowcluster {

/** One edge of a broadcast schedule. */
struct BroadcastStep
{
    NodeId sender;
    NodeId receiver;
    /** Model time the send is issued (diagnostic; execution is
     *  data-driven). */
    Tick issueAt;
};

/**
 * Build the LogP-greedy-optimal broadcast schedule for P processors
 * rooted at 0: repeatedly assign the earliest possible reception to
 * the earliest available transmission slot.
 *
 * @param send_interval  Time between consecutive sends by one node,
 *                       max(o_send, g) under LogP.
 * @param arrival_cost   Send-to-usable delay, o_send + L + o_recv.
 */
std::vector<BroadcastStep>
buildOptimalBroadcast(int nprocs, Tick send_interval, Tick arrival_cost);

/** Predicted completion time of a schedule under the same model. */
Tick predictedBroadcastCompletion(const std::vector<BroadcastStep> &steps,
                                  Tick arrival_cost);

/** Broadcast algorithm selector. */
enum class BcastAlg
{
    Linear,      ///< Root sends to everyone in turn.
    Binomial,    ///< Classic log P tree.
    LogPOptimal, ///< Greedy schedule from the machine parameters.
};

/** All-gather algorithm selector. */
enum class GatherAlg
{
    Ring,             ///< P-1 neighbor steps, bandwidth-friendly.
    RecursiveDoubling ///< log P steps, latency-friendly.
};

/** Barrier algorithm selector. */
enum class BarrierAlg
{
    Flat,          ///< Counter at rank 0 + linear release; O(P) at root.
    Dissemination, ///< ceil(log2 P) rounds of distance-2^r signals.
    Auto,          ///< Cost-model argmin (see Collectives::setCostPoint),
                   ///< falling back to Dissemination for P > 64 and
                   ///< Flat below when no operating point is set.
};

/**
 * Per-cluster collective context: owns the per-node mailboxes the
 * algorithms communicate through. Construct once (outside run()) and
 * share across all processors, like an application's node state.
 */
class Collectives
{
  public:
    /**
     * @param nprocs     Number of processors.
     * @param max_elems  Largest per-processor element count any
     *                   collective call will use.
     */
    Collectives(int nprocs, std::size_t max_elems);

    /** Broadcast a word from root to all; returns the value. */
    Word broadcast(SplitC &sc, Word value, NodeId root, BcastAlg alg);

    /**
     * All-gather: every processor contributes n words; out receives
     * nprocs*n words in rank order.
     */
    void allGather(SplitC &sc, const Word *mine, std::size_t n,
                   Word *out, GatherAlg alg);

    /**
     * Pairwise-exchange all-to-all: send[i*n..] goes to processor i;
     * recv[i*n..] receives from processor i.
     */
    void allToAll(SplitC &sc, const Word *send, std::size_t n,
                  Word *recv);

    /** Inclusive prefix sum (Kogge-Stone / Hillis-Steele). */
    std::int64_t scanAdd(SplitC &sc, std::int64_t value);

    /**
     * Barrier across all processors. Auto picks the dissemination
     * algorithm above 64 processors -- at 1024 nodes the flat
     * barrier's O(P) serialization at rank 0 dominates whole runs --
     * and the flat one below, where its two network hops beat the
     * dissemination rounds. Both provide identical semantics: no
     * processor returns before every processor has entered.
     */
    void barrier(SplitC &sc, BarrierAlg alg = BarrierAlg::Auto);

    /**
     * Set the broadcast schedule parameters used by LogPOptimal (call
     * before run(); defaults to the Berkeley NOW numbers).
     */
    void setModel(Tick send_interval, Tick arrival_cost);

    /**
     * Supply the cluster's calibrated LogGP operating point (call
     * before run()). Once set, BarrierAlg::Auto resolves by comparing
     * the cost model's flat-vs-dissemination predictions at the actual
     * processor count instead of the fixed P > 64 rule of thumb.
     */
    void setCostPoint(const LogGPPoint &pt);

    /** The concrete algorithm BarrierAlg::Auto resolves to for p. */
    BarrierAlg resolveBarrier(int p) const;

  private:
    struct NodeState
    {
        /** Broadcast mailbox: value + epoch flag. */
        Word bcastVal = 0;
        std::int64_t bcastSeen = 0;
        /** Gather/all-to-all mailboxes: [src * maxElems + i]. */
        std::vector<Word> box;
        /** Per-source arrival generation counters. */
        std::vector<std::int64_t> boxSeen;
        /** Scan mailbox per tree level. */
        std::vector<std::int64_t> scanVal;
        std::vector<std::int64_t> scanSeen;
        /** Barrier mailboxes: per-round dissemination flags, plus the
         *  flat barrier's arrival counter and release flag (rank 0
         *  owns the counter). */
        std::vector<std::int64_t> barSeen;
        std::int64_t barArrived = 0;
        std::int64_t barRelease = 0;
        /** This processor's own epoch counters (SPMD lockstep). */
        std::int64_t myBcastEpoch = 0;
        std::int64_t myGatherEpoch = 0;
        std::int64_t myScanEpoch = 0;
        std::int64_t myBarEpoch = 0;
    };

    int nprocs_;
    std::size_t maxElems_;
    std::vector<NodeState> nodes_;
    std::vector<std::vector<NodeId>> optTargets_; ///< Per sender, in order.
    Tick sendInterval_;
    Tick arrivalCost_;
    LogGPPoint costPoint_; ///< Invalid until setCostPoint().

    /** (Re)build the LogP-optimal schedule; eager so the collectives
     *  never mutate shared state lazily mid-run. */
    void buildSchedule();
};

} // namespace nowcluster

#endif // NOWCLUSTER_COLL_COLLECTIVES_HH_
