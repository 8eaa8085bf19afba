/**
 * @file
 * The auto-tuner: given a LogGP operating point, pick the
 * predicted-best algorithm for each (collective, payload, nprocs).
 *
 * Selection policy comes from `--coll-alg` / `NOW_COLL_ALG`:
 *
 *   ""         -> Naive: the pre-tuner code paths, untouched.
 *   "naive"    -> same, explicitly.
 *   "tuned"    -> cost-model argmin per invocation.
 *   "bcast=chain,allreduce=rdouble"
 *              -> tuned, with the named collectives pinned to the
 *                 named algorithm (the rest stay cost-model-picked).
 *
 * Every tuned call site resolves a pin through selectAlg().
 */

#ifndef NOWCLUSTER_COLL_TUNED_TUNER_HH_
#define NOWCLUSTER_COLL_TUNED_TUNER_HH_

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "coll/cost.hh"
#include "coll/tuned/registry.hh"

namespace nowcluster {
namespace coll {

/** Parsed collective-selection policy. */
struct CollPolicy
{
    enum class Mode { Naive, Tuned };

    Mode mode = Mode::Naive;
    /** Per-collective forced algorithm, indexed by Coll. */
    std::array<std::optional<CollAlg>, kNumColls> forced{};

    bool tuned() const { return mode == Mode::Tuned; }
    std::optional<CollAlg> forcedFor(Coll coll) const
    {
        return forced[static_cast<int>(coll)];
    }

    /** Parse a policy string; panics on unknown tokens. */
    static CollPolicy parse(const std::string &spec);

    /** Canonical string form (round-trips through parse). */
    std::string str() const;
};

/**
 * Predicted-best algorithm among the registered candidates for this
 * collective, honoring validity restrictions.
 */
CollAlg chooseAlg(const LogGPPoint &pt, Coll coll, int nprocs,
                  std::size_t bytes);

/** Predicted-best among an explicit candidate list (must be valid
 *  algorithms of one collective; at least one must pass algValid). */
CollAlg chooseAlgAmong(const LogGPPoint &pt, Coll coll, int nprocs,
                       std::size_t bytes,
                       const std::vector<CollAlg> &candidates);

/**
 * The algorithm a tuned call runs: the policy's pin for `coll` if
 * algValid accepts it at this shape and it is among `candidates`,
 * else the model's pick among `candidates` (chooseAlgAmong). So
 * "allreduce=rabenseifner" pins the vector all-reduce, while the
 * word all-reduce, which cannot run it, keeps the model's pick.
 */
CollAlg selectAlg(const CollPolicy &policy, const LogGPPoint &pt,
                  Coll coll, int nprocs, std::size_t bytes,
                  const std::vector<CollAlg> &candidates);

/** One row of the decision dump. */
struct DecisionRow
{
    Coll coll;
    int nprocs;
    std::size_t bytes;
    CollAlg pick;
    Tick predicted;
};

/** Decision table over a grid (for `nowlab coll table`). */
std::vector<DecisionRow> decisionTable(
    const LogGPPoint &pt, const std::vector<int> &procs,
    const std::vector<std::size_t> &sizes);

/** Human-readable rendering of a decision table. */
std::string renderDecisionTable(const std::vector<DecisionRow> &rows);

} // namespace coll
} // namespace nowcluster

#endif // NOWCLUSTER_COLL_TUNED_TUNER_HH_
