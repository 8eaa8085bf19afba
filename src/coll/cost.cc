#include "coll/cost.hh"

#include <algorithm>
#include <queue>

#include "base/logging.hh"

namespace nowcluster {
namespace coll {

namespace {

int
ceilLog2(int p)
{
    int levels = 0;
    while ((1 << levels) < p)
        ++levels;
    return levels;
}

int
floorPow2(int p)
{
    int v = 1;
    while (v * 2 <= p)
        v *= 2;
    return v;
}

std::size_t
fragsOf(const LogGPPoint &pt, std::size_t bytes)
{
    const std::size_t frag = std::max<std::size_t>(pt.fragment, 1);
    return bytes == 0 ? 1 : (bytes + frag - 1) / frag;
}

/** Wire time from injection start to last-fragment arrival. */
Tick
wireTime(const LogGPPoint &pt, std::size_t bytes)
{
    if (bytes == 0)
        return pt.latency + pt.occupancy;
    const Tick dma = static_cast<Tick>(
        static_cast<double>(bytes) * pt.gPerByte);
    const Tick interFrag =
        static_cast<Tick>(fragsOf(pt, bytes) - 1) * pt.gap;
    return dma + interFrag + pt.latency + pt.occupancy;
}

Tick
predictBroadcast(const LogGPPoint &pt, CollAlg alg, int p,
                 std::size_t b)
{
    const int lg = ceilLog2(p);
    switch (alg) {
      case CollAlg::BcastFlat:
        // Root serializes P-1 sends at max(host, NIC) pace; the last
        // one then crosses the wire.
        return static_cast<Tick>(p - 2) *
                   std::max(pt.oSend, txSlot(pt, b)) +
               msgTime(pt, b);
      case CollAlg::BcastBinomial:
        // Critical path: the chain of first-child relays, depth
        // ceil(log2 P), each a full store end to end.
        return static_cast<Tick>(lg) * msgTime(pt, b);
      case CollAlg::BcastChain: {
        // Fragment-size segments pipeline down the rank chain: the
        // first segment pays P-1 full hops, every further segment one
        // steady-state relay interval (host recv+send or NIC slot,
        // whichever is slower).
        const std::size_t frag = std::max<std::size_t>(pt.fragment, 1);
        const std::size_t nseg = fragsOf(pt, b);
        const std::size_t seg = std::min(b == 0 ? frag : b, frag);
        const Tick interval = std::max(txSlot(pt, seg),
                                       pt.oRecv + pt.oSend);
        return static_cast<Tick>(p - 1) * msgTime(pt, seg) +
               static_cast<Tick>(nseg - 1) * interval;
      }
      case CollAlg::BcastScatterAg: {
        // Binomial scatter of halving payloads, then a ring allgather
        // of the P scattered blocks (van de Geijn).
        const std::size_t block = std::max<std::size_t>(b / p, 1);
        Tick t = 0;
        for (int k = 1; k <= lg; ++k)
            t += msgTime(pt, std::max<std::size_t>(b >> k, 1));
        return t + static_cast<Tick>(p - 1) * msgTime(pt, block);
      }
      case CollAlg::BcastLogp:
        // The greedy schedule's own completion under its model.
        return predictedBroadcastCompletion(logpSchedule(pt, p, b),
                                            msgTime(pt, b));
      default:
        panic("not a broadcast algorithm");
    }
}

Tick
predictAllGather(const LogGPPoint &pt, CollAlg alg, int p,
                 std::size_t b)
{
    switch (alg) {
      case CollAlg::AgRing:
        // Every round each node forwards the block it just received:
        // P-1 serialized hops.
        return static_cast<Tick>(p - 1) * msgTime(pt, b);
      case CollAlg::AgRecDouble: {
        // XOR exchanges of doubling block groups.
        Tick t = 0;
        for (int k = 0; (1 << k) < p; ++k)
            t += msgTime(pt, b << k);
        return t;
      }
      case CollAlg::AgBruck: {
        // Distance-2^k exchanges of min(2^k, P - 2^k) blocks; the
        // trailing local rotation is free.
        Tick t = 0;
        for (int k = 0; (1 << k) < p; ++k) {
            const int blocks = std::min(1 << k, p - (1 << k));
            t += msgTime(pt, b * static_cast<std::size_t>(blocks));
        }
        return t;
      }
      default:
        panic("not an all-gather algorithm");
    }
}

Tick
predictAllToAll(const LogGPPoint &pt, CollAlg alg, int p,
                std::size_t b)
{
    switch (alg) {
      case CollAlg::A2aPairwise:
        return static_cast<Tick>(p - 1) * msgTime(pt, b);
      case CollAlg::A2aBruck: {
        // Round k ships every staged block whose index has bit k set,
        // packed into one store per round (arrivals land in disjoint
        // per-round staging, so rounds chain back to back).
        Tick t = 0;
        for (int k = 0; (1 << k) < p; ++k) {
            int blocks = 0;
            for (int j = 1; j < p; ++j)
                blocks += (j >> k) & 1;
            t += msgTime(pt, b * static_cast<std::size_t>(blocks));
        }
        return t;
      }
      default:
        panic("not an all-to-all algorithm");
    }
}

Tick
predictBarrier(const LogGPPoint &pt, CollAlg alg, int p)
{
    const int lg = ceilLog2(p);
    switch (alg) {
      case CollAlg::BarFlat:
        // P-1 arrivals serialize on the root's host; the release fan
        // serializes on its send side.
        return msgTime(pt, 0) +
               static_cast<Tick>(p - 1) * std::max(pt.oRecv, pt.gap) +
               static_cast<Tick>(p - 2) * std::max(pt.oSend, pt.gap) +
               msgTime(pt, 0);
      case CollAlg::BarDissemination:
        // Each round: signal 2^r right, wait on 2^r left. Host pays a
        // send and a receive per round on top of the signal flight.
        return static_cast<Tick>(lg) *
               (msgTime(pt, 0) + pt.oSend + pt.oRecv);
      case CollAlg::BarTournament:
        // log P elimination rounds up, binomial release down.
        return 2 * static_cast<Tick>(lg) * msgTime(pt, 0);
      default:
        panic("not a barrier algorithm");
    }
}

Tick
predictAllReduce(const LogGPPoint &pt, CollAlg alg, int p,
                 std::size_t b)
{
    const int lg = ceilLog2(p);
    const int p2 = floorPow2(p);
    switch (alg) {
      case CollAlg::ArBinomial:
        // Binomial reduce to rank 0, then binomial broadcast.
        return 2 * static_cast<Tick>(lg) * msgTime(pt, b);
      case CollAlg::ArRecDouble: {
        // Full-vector exchanges into per-round staging; non-power-of-
        // two P folds the extras in before and broadcasts back after.
        Tick t = 0;
        for (int k = 0; (1 << k) < p2; ++k)
            t += msgTime(pt, b);
        if (p != p2)
            t += 2 * msgTime(pt, b);
        return t;
      }
      case CollAlg::ArRabenseifner: {
        // Reduce-scatter with halving payloads, then the mirror
        // allgather of the same segments.
        Tick t = 0;
        for (int k = 1; (1 << (k - 1)) < p; ++k)
            t += 2 * msgTime(pt, std::max<std::size_t>(b >> k, 1));
        return t;
      }
      default:
        panic("not an all-reduce algorithm");
    }
}

} // namespace

Tick
txSlot(const LogGPPoint &pt, std::size_t bytes)
{
    if (bytes == 0)
        return pt.gap;
    return static_cast<Tick>(static_cast<double>(bytes) * pt.gPerByte) +
           static_cast<Tick>(fragsOf(pt, bytes)) * pt.gap;
}

Tick
msgTime(const LogGPPoint &pt, std::size_t bytes)
{
    return pt.oSend + wireTime(pt, bytes) + pt.oRecv;
}

std::vector<BroadcastStep>
buildOptimalBroadcast(int nprocs, Tick send_interval, Tick arrival_cost)
{
    // Degenerate sizes need no schedule (and no model): accept them
    // before validating the parameters.
    std::vector<BroadcastStep> steps;
    if (nprocs <= 1)
        return steps;
    panic_if(send_interval <= 0 || arrival_cost <= 0,
             "broadcast schedule needs positive model parameters");

    // Min-heap of (next free transmission slot, node). Greedy: the
    // next reception always uses the earliest available slot, and new
    // holders immediately start transmitting themselves.
    using Slot = std::pair<Tick, NodeId>;
    std::priority_queue<Slot, std::vector<Slot>, std::greater<>> free;
    free.push({0, 0});
    NodeId next_rank = 1;
    while (next_rank < nprocs) {
        auto [t, sender] = free.top();
        free.pop();
        NodeId receiver = next_rank++;
        steps.push_back({sender, receiver, t});
        free.push({t + send_interval, sender});
        free.push({t + arrival_cost, receiver});
    }
    return steps;
}

Tick
predictedBroadcastCompletion(const std::vector<BroadcastStep> &steps,
                             Tick arrival_cost)
{
    if (steps.empty())
        return 0; // A one-processor broadcast completes instantly.
    Tick done = 0;
    for (const BroadcastStep &s : steps)
        done = std::max(done, s.issueAt + arrival_cost);
    return done;
}

std::vector<BroadcastStep>
logpSchedule(const LogGPPoint &pt, int nprocs, std::size_t bytes)
{
    return buildOptimalBroadcast(
        nprocs, std::max(pt.oSend, txSlot(pt, bytes)), msgTime(pt, bytes));
}

Tick
predictCollective(const LogGPPoint &pt, Coll coll, CollAlg alg,
                  int nprocs, std::size_t bytes)
{
    if (nprocs <= 1)
        return 0;
    switch (coll) {
      case Coll::Broadcast:
        return predictBroadcast(pt, alg, nprocs, bytes);
      case Coll::AllGather:
        return predictAllGather(pt, alg, nprocs, bytes);
      case Coll::AllToAll:
        return predictAllToAll(pt, alg, nprocs, bytes);
      case Coll::Barrier:
        return predictBarrier(pt, alg, nprocs);
      case Coll::AllReduce:
        return predictAllReduce(pt, alg, nprocs, bytes);
    }
    panic("unknown collective");
}

} // namespace coll
} // namespace nowcluster
