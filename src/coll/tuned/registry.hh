/**
 * @file
 * The algorithm registry: which algorithms implement which
 * collective, their printable names, and the validity predicate the
 * tuner consults before considering a candidate (some algorithms are
 * power-of-two-only or need a minimum payload).
 */

#ifndef NOWCLUSTER_COLL_TUNED_REGISTRY_HH_
#define NOWCLUSTER_COLL_TUNED_REGISTRY_HH_

#include <cstddef>
#include <string>
#include <vector>

#include "coll/cost.hh"

namespace nowcluster {
namespace coll {

/** Printable name of a collective ("bcast", "allgather", ...). */
const char *collName(Coll coll);

/** Printable name of an algorithm ("binomial", "ring", ...). */
const char *algName(CollAlg alg);

/** The collective an algorithm belongs to. */
Coll collOf(CollAlg alg);

/**
 * All registered algorithms for one collective, in tie-break order:
 * when two candidates predict the same time the tuner keeps the
 * earlier one. Broadcast lists logp first. Its greedy schedule is
 * optimal under the very model that prices it, so the flat and
 * binomial trees can at best tie it -- and where they tie on the
 * NOW, the greedy schedule measures faster.
 */
const std::vector<CollAlg> &algsFor(Coll coll);

/**
 * Whether an algorithm can run at this operating size. Power-of-two
 * restrictions (recursive-doubling all-gather, Rabenseifner) and
 * minimum payloads (scatter-allgather broadcast needs at least one
 * byte per rank, Rabenseifner one word per rank) live here so the
 * tuner and the validation harness agree.
 */
bool algValid(CollAlg alg, int nprocs, std::size_t bytes);

/**
 * Parse "binomial", "bcast=chain", etc. Returns false if the name
 * does not match any algorithm of the given collective.
 */
bool algFromName(Coll coll, const std::string &name, CollAlg &out);

} // namespace coll
} // namespace nowcluster

#endif // NOWCLUSTER_COLL_TUNED_REGISTRY_HH_
