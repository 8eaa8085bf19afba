/**
 * @file
 * LogGP cost models for the tuned collective algorithms.
 *
 * Every algorithm in coll/tuned gets a completion-time prediction
 * from an operating point (L, o, g, G) -- a closed form, or for the
 * LogP-greedy broadcast its own schedule's last arrival. This is the
 * approach of Barchet-Estefanel & Mounié's intra-cluster collective
 * tuning work: model each candidate, pick the argmin, and validate
 * predicted vs measured on a size x nprocs grid (`nowlab coll
 * validate`).
 *
 * The formulas charge per-segment G and g terms for bulk payloads
 * (fragments of `LogGPPoint::fragment` bytes each occupy the tx
 * context for size*G + g, as in net/nic.cc), so the large-message
 * regime -- where the pipelined chain and scatter-allgather win --
 * is predicted, not guessed.
 */

#ifndef NOWCLUSTER_COLL_COST_HH_
#define NOWCLUSTER_COLL_COST_HH_

#include <cstddef>
#include <vector>

#include "model/models.hh"

namespace nowcluster {
namespace coll {

/** The collective operations the tuned library implements. */
enum class Coll
{
    Broadcast,
    AllGather,
    AllToAll,
    Barrier,
    AllReduce,
};

constexpr int kNumColls = 5;

/** Every algorithm in the registry, across all collectives. */
enum class CollAlg
{
    // Broadcast (bytes = total payload).
    BcastFlat,       ///< Root sends to everyone in turn.
    BcastBinomial,   ///< Classic log P tree.
    BcastChain,      ///< Pipelined chain of fragment-size segments.
    BcastScatterAg,  ///< Van de Geijn: binomial scatter + ring allgather.
    BcastLogp,       ///< LogP-greedy schedule; buildOptimalBroadcast.
    // All-gather (bytes = per-rank block).
    AgRing,          ///< P-1 neighbor steps, bandwidth-friendly.
    AgRecDouble,     ///< log P XOR exchanges; power-of-two P only.
    AgBruck,         ///< ceil(log P) rounds, any P, final rotation.
    // All-to-all (bytes = per-destination block).
    A2aPairwise,     ///< P-1 rotation exchanges.
    A2aBruck,        ///< ceil(log P) rounds of packed blocks.
    // Barrier (bytes ignored).
    BarFlat,         ///< Counter at rank 0 + linear release.
    BarDissemination,///< ceil(log P) rounds of distance-2^r signals.
    BarTournament,   ///< log P elimination rounds + binomial release.
    // All-reduce (bytes = vector size).
    ArBinomial,      ///< Binomial reduce to 0 + binomial broadcast.
    ArRecDouble,     ///< log P exchange-and-combine rounds.
    ArRabenseifner,  ///< Reduce-scatter + allgather; power-of-two P.
};

/**
 * Predicted completion time of one collective invocation: the span
 * from every processor entering (post-barrier) to the last processor
 * holding its result.
 *
 * `bytes` is the algorithm-relevant payload: total broadcast payload,
 * per-rank block for all-gather/all-to-all, vector size for
 * all-reduce, ignored for barrier.
 */
Tick predictCollective(const LogGPPoint &pt, Coll coll, CollAlg alg,
                       int nprocs, std::size_t bytes);

/** Serialized tx-context time for a b-byte transfer: b*G + nfrag*g. */
Tick txSlot(const LogGPPoint &pt, std::size_t bytes);

/** End-to-end time of one b-byte message: oSend + slot + L + oRecv. */
Tick msgTime(const LogGPPoint &pt, std::size_t bytes);

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
 * rooted at 0 -- the LogP model's original application (Culler et
 * al., "LogP: Towards a Realistic Model of Parallel Computation").
 * The best broadcast is not a fixed tree: each holder of the value
 * keeps transmitting at the send interval, and every transmission is
 * aimed at the receiver that can be reached earliest. Repeatedly
 * assigning the earliest possible reception to the earliest available
 * transmission slot is optimal under this model, so under it a tree
 * shape (flat, binomial) can at best tie the schedule.
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

/**
 * The schedule the logp broadcast of `bytes` runs and the cost model
 * prices: send interval max(o_send, txSlot(b)), arrival msgTime(b).
 */
std::vector<BroadcastStep> logpSchedule(const LogGPPoint &pt, int nprocs,
                                        std::size_t bytes);

} // namespace coll
} // namespace nowcluster

#endif // NOWCLUSTER_COLL_COST_HH_
