/**
 * @file
 * The tuned collective library: every algorithm the cost model in
 * coll/cost.hh predicts, implemented on the Split-C/Active-Message
 * runtime, plus auto-tuned entry points that pick the predicted-best
 * algorithm per (collective, payload, nprocs) at the cluster's LogGP
 * operating point.
 *
 * Design rules shared by every data collective:
 *
 *  - Bulk-synchronous entry: publish my receive buffer, run the
 *    Split-C dissemination barrier (SplitC::barrier), bump the shared
 *    epoch. The barrier's message chain orders every publish before
 *    any peer reads the published pointers.
 *  - Zero staging wherever possible: payloads are stored directly
 *    into their final position in the destination's output buffer
 *    (per-source or per-round regions are disjoint, so early arrivals
 *    cannot clobber anything). Where an algorithm intrinsically
 *    reuses a buffer across rounds (Bruck all-to-all, the all-reduce
 *    exchanges), arrivals land in per-round staging regions instead,
 *    which removes the need for credit round trips entirely.
 *  - Arrival signaling rides on the store itself: the store's
 *    completion handler (which runs at the receiver after the last
 *    fragment's DMA) sets an epoch slot or bumps a counter, so a
 *    payload costs exactly one message.
 */

#ifndef NOWCLUSTER_COLL_TUNED_TUNED_HH_
#define NOWCLUSTER_COLL_TUNED_TUNED_HH_

#include <cstdint>
#include <map>
#include <vector>

#include "coll/tuned/tuner.hh"
#include "splitc/splitc.hh"

namespace nowcluster {
namespace coll {

/**
 * Per-cluster tuned-collective context. Construct once, outside
 * run(), sharing it across all processors (it registers its signal
 * handlers on the cluster). Buffers grow lazily per node, so no
 * up-front size bound is needed.
 */
class TunedCollectives
{
  public:
    explicit TunedCollectives(SplitCRuntime &rt);

    // ------------------------------------------------------------------
    // Explicit-algorithm entry points
    // ------------------------------------------------------------------

    /** Broadcast `bytes` bytes at `data` from root; everyone returns
     *  with the payload in their own `data`. */
    void broadcast(SplitC &sc, void *data, std::size_t bytes,
                   NodeId root, CollAlg alg);

    /** All-gather: everyone contributes `block` bytes at `mine`; out
     *  receives nprocs*block bytes in rank order. */
    void allGather(SplitC &sc, const void *mine, std::size_t block,
                   void *out, CollAlg alg);

    /** All-to-all: send+i*block goes to processor i; recv+i*block
     *  receives processor i's block for me. */
    void allToAll(SplitC &sc, const void *send, std::size_t block,
                  void *recv, CollAlg alg);

    /** Barrier: no processor returns before all have entered. */
    void barrier(SplitC &sc, CollAlg alg);

    /** Element-wise sum of an n-word vector across all processors;
     *  every processor returns with the totals in vec. */
    void allReduceAdd(SplitC &sc, std::int64_t *vec, std::size_t n,
                      CollAlg alg);

    // ------------------------------------------------------------------
    // Auto-tuned entry points (cost-model argmin, minus any algorithm
    // the policy string pinned)
    // ------------------------------------------------------------------

    void broadcast(SplitC &sc, void *data, std::size_t bytes,
                   NodeId root = 0);
    void allGather(SplitC &sc, const void *mine, std::size_t block,
                   void *out);
    void allToAll(SplitC &sc, const void *send, std::size_t block,
                  void *recv);
    void barrier(SplitC &sc);
    void allReduceAdd(SplitC &sc, std::int64_t *vec, std::size_t n);

    /** The operating point selections are made at. */
    const LogGPPoint &point() const { return point_; }

    /** The policy parsed from the cluster's collAlg parameter. */
    const CollPolicy &policy() const { return policy_; }

    /** What the auto-tuned entry would run for this shape. */
    CollAlg select(Coll coll, int nprocs, std::size_t bytes) const;

  private:
    /** Epoch slots per node; covers 2*ceil(log2 P) rounds plus the
     *  non-power-of-two all-reduce fold/return slots (62, 63). */
    static constexpr int kSlots = 64;

    struct NodeState
    {
        /** Published receive buffer for the current epoch. */
        std::uint8_t *pub = nullptr;
        /** Per-round epoch slots (stores' completion handlers). */
        std::vector<std::int64_t> seen;
        /** Per-source epoch slots (ring/pairwise arrivals). */
        std::vector<std::int64_t> srcSeen;
        /** Cumulative segment counter for the pipelined chain, and
         *  its pre-barrier snapshot (stable only before the entry
         *  barrier -- see broadcast()). */
        std::int64_t chainSeen = 0;
        std::int64_t chainBase = 0;
        /** All-reduce staging: per-round n-word regions + fold. */
        std::vector<std::int64_t> arStage;
        /** Bruck all-to-all rotated working set and its per-round
         *  receive staging. */
        std::vector<std::uint8_t> a2aTmp;
        std::vector<std::uint8_t> a2aStage;
        /** Sender-side pack scratch (safe to reuse: store() copies
         *  the payload before returning). */
        std::vector<std::uint8_t> packBuf;

        // Barrier mailboxes, one set per algorithm so invocations may
        // mix algorithms freely (dissemination is SplitC::barrier's).
        std::int64_t barArrived = 0;  ///< Flat: arrivals at rank 0.
        std::int64_t barRelease = 0;  ///< Flat: release epoch.
        std::vector<std::int64_t> tourSeen;  ///< Per up-round.
        std::int64_t tourRelease = 0;

        /** This processor's own epoch counters (SPMD lockstep). */
        std::int64_t myEpoch = 0;
        std::int64_t myFlatEpoch = 0;
        std::int64_t myTourEpoch = 0;
    };

    /** Publish my receive buffer, synchronize, open a new epoch. */
    std::int64_t enter(SplitC &sc, void *pub);

    /** Store with an epoch-slot completion signal at the receiver. */
    void storeSignal(SplitC &sc, NodeId dst, void *dst_addr,
                     const void *src, std::size_t len,
                     std::int64_t *flag, std::int64_t epoch);

    void waitSlot(SplitC &sc, const std::int64_t &slot,
                  std::int64_t epoch, const char *what);

    void bcastFlat(SplitC &sc, std::uint8_t *data, std::size_t bytes,
                   int rel, NodeId root, std::int64_t epoch);
    void bcastBinomial(SplitC &sc, std::uint8_t *data,
                       std::size_t bytes, int rel, NodeId root,
                       std::int64_t epoch);
    void bcastChain(SplitC &sc, std::uint8_t *data, std::size_t bytes,
                    int rel, NodeId root, std::int64_t epoch);
    void bcastScatterAg(SplitC &sc, std::uint8_t *data,
                        std::size_t bytes, int rel, NodeId root,
                        std::int64_t epoch);
    void bcastLogp(SplitC &sc, std::uint8_t *data, std::size_t bytes,
                   int rel, NodeId root, std::int64_t epoch);

    void agRing(SplitC &sc, std::size_t block, std::uint8_t *out,
                std::int64_t epoch);
    void agRecDouble(SplitC &sc, std::size_t block, std::uint8_t *out,
                     std::int64_t epoch);
    void agBruck(SplitC &sc, std::size_t block, std::uint8_t *out,
                 std::int64_t epoch);

    void a2aPairwise(SplitC &sc, const std::uint8_t *send,
                     std::size_t block, std::uint8_t *recv,
                     std::int64_t epoch);
    void a2aBruck(SplitC &sc, const std::uint8_t *send,
                  std::size_t block, std::uint8_t *recv,
                  std::int64_t epoch);

    void barFlat(SplitC &sc);
    void barTournament(SplitC &sc);

    void arBinomial(SplitC &sc, std::int64_t *vec, std::size_t n,
                    std::int64_t epoch);
    void arRecDouble(SplitC &sc, std::int64_t *vec, std::size_t n,
                     std::int64_t epoch);
    void arRabenseifner(SplitC &sc, std::int64_t *vec, std::size_t n,
                        std::int64_t epoch);

    NodeState &mine(SplitC &sc) { return nodes_[sc.myProc()]; }

    int nprocs_;
    int levels_;
    std::vector<NodeState> nodes_;
    LogGPPoint point_;
    CollPolicy policy_;
    /** logp broadcast targets per relative sender, in send order,
     *  keyed by payload; built by the first caller of each payload. */
    std::map<std::size_t, std::vector<std::vector<int>>> logpTargets_;
    /** Handler: *(int64*)args[0] = (int64)args[1]. */
    int hSet_;
    /** Handler: ++*(int64*)args[0]. */
    int hAdd_;
};

} // namespace coll
} // namespace nowcluster

#endif // NOWCLUSTER_COLL_TUNED_TUNED_HH_
