#include "coll/tuned/registry.hh"

#include "base/logging.hh"

namespace nowcluster {
namespace coll {

namespace {

bool
isPow2(int p)
{
    return p > 0 && (p & (p - 1)) == 0;
}

} // namespace

const char *
collName(Coll coll)
{
    switch (coll) {
      case Coll::Broadcast: return "bcast";
      case Coll::AllGather: return "allgather";
      case Coll::AllToAll: return "alltoall";
      case Coll::Barrier: return "barrier";
      case Coll::AllReduce: return "allreduce";
    }
    panic("unknown collective");
}

const char *
algName(CollAlg alg)
{
    switch (alg) {
      case CollAlg::BcastFlat: return "flat";
      case CollAlg::BcastBinomial: return "binomial";
      case CollAlg::BcastChain: return "chain";
      case CollAlg::BcastScatterAg: return "scatter-ag";
      case CollAlg::BcastLogp: return "logp";
      case CollAlg::AgRing: return "ring";
      case CollAlg::AgRecDouble: return "rdouble";
      case CollAlg::AgBruck: return "bruck";
      case CollAlg::A2aPairwise: return "pairwise";
      case CollAlg::A2aBruck: return "bruck";
      case CollAlg::BarFlat: return "flat";
      case CollAlg::BarDissemination: return "dissemination";
      case CollAlg::BarTournament: return "tournament";
      case CollAlg::ArBinomial: return "binomial";
      case CollAlg::ArRecDouble: return "rdouble";
      case CollAlg::ArRabenseifner: return "rabenseifner";
    }
    panic("unknown algorithm");
}

Coll
collOf(CollAlg alg)
{
    switch (alg) {
      case CollAlg::BcastFlat:
      case CollAlg::BcastBinomial:
      case CollAlg::BcastChain:
      case CollAlg::BcastScatterAg:
      case CollAlg::BcastLogp:
        return Coll::Broadcast;
      case CollAlg::AgRing:
      case CollAlg::AgRecDouble:
      case CollAlg::AgBruck:
        return Coll::AllGather;
      case CollAlg::A2aPairwise:
      case CollAlg::A2aBruck:
        return Coll::AllToAll;
      case CollAlg::BarFlat:
      case CollAlg::BarDissemination:
      case CollAlg::BarTournament:
        return Coll::Barrier;
      case CollAlg::ArBinomial:
      case CollAlg::ArRecDouble:
      case CollAlg::ArRabenseifner:
        return Coll::AllReduce;
    }
    panic("unknown algorithm");
}

const std::vector<CollAlg> &
algsFor(Coll coll)
{
    // logp leads so model ties go to it (see registry.hh).
    static const std::vector<CollAlg> bcast = {
        CollAlg::BcastLogp, CollAlg::BcastFlat, CollAlg::BcastBinomial,
        CollAlg::BcastChain, CollAlg::BcastScatterAg};
    static const std::vector<CollAlg> allgather = {
        CollAlg::AgRing, CollAlg::AgRecDouble, CollAlg::AgBruck};
    static const std::vector<CollAlg> alltoall = {
        CollAlg::A2aPairwise, CollAlg::A2aBruck};
    static const std::vector<CollAlg> barrier = {
        CollAlg::BarFlat, CollAlg::BarDissemination,
        CollAlg::BarTournament};
    static const std::vector<CollAlg> allreduce = {
        CollAlg::ArBinomial, CollAlg::ArRecDouble,
        CollAlg::ArRabenseifner};
    switch (coll) {
      case Coll::Broadcast: return bcast;
      case Coll::AllGather: return allgather;
      case Coll::AllToAll: return alltoall;
      case Coll::Barrier: return barrier;
      case Coll::AllReduce: return allreduce;
    }
    panic("unknown collective");
}

bool
algValid(CollAlg alg, int nprocs, std::size_t bytes)
{
    switch (alg) {
      case CollAlg::AgRecDouble:
      case CollAlg::ArRabenseifner:
        if (!isPow2(nprocs))
            return false;
        break;
      default:
        break;
    }
    if (alg == CollAlg::BcastScatterAg &&
        bytes < static_cast<std::size_t>(nprocs))
        return false;
    if (alg == CollAlg::ArRabenseifner) {
        // Recursive halving needs uniform word segments: a vector of
        // at least one word per processor, evenly divisible.
        const std::size_t words = bytes / 8;
        if (bytes < 8 * static_cast<std::size_t>(nprocs) ||
            words % static_cast<std::size_t>(nprocs) != 0)
            return false;
    }
    return true;
}

bool
algFromName(Coll coll, const std::string &name, CollAlg &out)
{
    for (CollAlg alg : algsFor(coll)) {
        if (name == algName(alg)) {
            out = alg;
            return true;
        }
    }
    return false;
}

} // namespace coll
} // namespace nowcluster
