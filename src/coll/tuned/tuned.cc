#include "coll/tuned/tuned.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"

namespace nowcluster {
namespace coll {

namespace {

/** Position of the lowest set bit; `levels` for zero. */
int
lowBit(int v, int levels)
{
    if (v == 0)
        return levels;
    int j = 0;
    while (!(v & (1 << j)))
        ++j;
    return j;
}

void
accumulate(std::int64_t *dst, const std::int64_t *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] += src[i];
}

} // namespace

TunedCollectives::TunedCollectives(SplitCRuntime &rt)
    : nprocs_(rt.nprocs())
{
    levels_ = 0;
    while ((1 << levels_) < nprocs_)
        ++levels_;
    nodes_ = std::vector<NodeState>(nprocs_);
    for (NodeState &n : nodes_) {
        n.seen.assign(kSlots, 0);
        n.srcSeen.assign(nprocs_, 0);
        n.tourSeen.assign(std::max(levels_, 1), 0);
    }
    point_ = pointFromParams(rt.cluster().params());
    policy_ = CollPolicy::parse(rt.cluster().params().collAlg);
    hSet_ = rt.cluster().registerHandler([](AmNode &, Packet &pkt) {
        *reinterpret_cast<std::int64_t *>(pkt.args[0]) =
            static_cast<std::int64_t>(pkt.args[1]);
    });
    hAdd_ = rt.cluster().registerHandler([](AmNode &, Packet &pkt) {
        ++*reinterpret_cast<std::int64_t *>(pkt.args[0]);
    });
}

std::int64_t
TunedCollectives::enter(SplitC &sc, void *pub)
{
    NodeState &m = mine(sc);
    m.pub = static_cast<std::uint8_t *>(pub);
    sc.barrier();
    return ++m.myEpoch;
}

void
TunedCollectives::storeSignal(SplitC &sc, NodeId dst, void *dst_addr,
                              const void *src, std::size_t len,
                              std::int64_t *flag, std::int64_t epoch)
{
    sc.am().store(dst, dst_addr, src, len, hSet_,
                  reinterpret_cast<Word>(flag),
                  static_cast<Word>(epoch));
}

void
TunedCollectives::waitSlot(SplitC &sc, const std::int64_t &slot,
                           std::int64_t epoch, const char *what)
{
    sc.am().pollUntil([&] { return slot >= epoch; }, what);
}

CollAlg
TunedCollectives::select(Coll coll, int nprocs, std::size_t bytes) const
{
    return selectAlg(policy_, point_, coll, nprocs, bytes, algsFor(coll));
}

// ----------------------------------------------------------------------
// Broadcast
// ----------------------------------------------------------------------

void
TunedCollectives::broadcast(SplitC &sc, void *data, std::size_t bytes,
                            NodeId root, CollAlg alg)
{
    panic_if(collOf(alg) != Coll::Broadcast,
             "%s is not a broadcast algorithm", algName(alg));
    const int p = sc.procs();
    if (p <= 1)
        return;
    panic_if(!algValid(alg, p, bytes), "%s invalid for p=%d bytes=%zu",
             algName(alg), p, bytes);
    // Chain-counter snapshot must precede the entry barrier: my
    // predecessor may exit it first, and its first segment's increment
    // can land while I am still blocked inside my own barrier rounds.
    // Before the barrier the counter is quiescent (I consumed all of
    // last epoch's increments before leaving it, and this epoch's
    // senders cannot store until I have entered).
    NodeState &m = mine(sc);
    m.chainBase = m.chainSeen;
    const std::int64_t epoch = enter(sc, data);
    const int rel = (sc.myProc() - root + p) % p;
    auto *d = static_cast<std::uint8_t *>(data);
    switch (alg) {
      case CollAlg::BcastFlat:
        bcastFlat(sc, d, bytes, rel, root, epoch);
        break;
      case CollAlg::BcastBinomial:
        bcastBinomial(sc, d, bytes, rel, root, epoch);
        break;
      case CollAlg::BcastChain:
        bcastChain(sc, d, bytes, rel, root, epoch);
        break;
      case CollAlg::BcastScatterAg:
        bcastScatterAg(sc, d, bytes, rel, root, epoch);
        break;
      case CollAlg::BcastLogp:
        bcastLogp(sc, d, bytes, rel, root, epoch);
        break;
      default:
        panic("unreachable");
    }
    sc.storeSync();
}

void
TunedCollectives::bcastFlat(SplitC &sc, std::uint8_t *data,
                            std::size_t bytes, int rel, NodeId root,
                            std::int64_t epoch)
{
    const int p = sc.procs();
    if (rel != 0) {
        waitSlot(sc, mine(sc).seen[0], epoch, "flat broadcast");
        return;
    }
    for (int q = 1; q < p; ++q) {
        const NodeId dst = static_cast<NodeId>((q + root) % p);
        storeSignal(sc, dst, nodes_[dst].pub, data, bytes,
                    &nodes_[dst].seen[0], epoch);
    }
}

void
TunedCollectives::bcastBinomial(SplitC &sc, std::uint8_t *data,
                                std::size_t bytes, int rel, NodeId root,
                                std::int64_t epoch)
{
    const int p = sc.procs();
    // Classic binomial, rounds k = levels-1 .. 0: rank `rel` receives
    // from rel - 2^lowBit(rel) in its lowest-set-bit round, and relays
    // to rel + 2^k in every later round k where its bits 0..k are all
    // zero (so each non-root rank is stored to exactly once).
    const int recv_round = lowBit(rel, levels_);
    for (int k = levels_ - 1; k >= 0; --k) {
        if (rel != 0 && k == recv_round)
            waitSlot(sc, mine(sc).seen[0], epoch, "binomial broadcast");
        if ((rel & ((1 << (k + 1)) - 1)) == 0 && rel + (1 << k) < p) {
            const NodeId dst =
                static_cast<NodeId>((rel + (1 << k) + root) % p);
            storeSignal(sc, dst, nodes_[dst].pub, data, bytes,
                        &nodes_[dst].seen[0], epoch);
        }
    }
}

void
TunedCollectives::bcastChain(SplitC &sc, std::uint8_t *data,
                             std::size_t bytes, int rel, NodeId root,
                             std::int64_t epoch)
{
    (void)epoch;
    const int p = sc.procs();
    const std::size_t frag = std::max<std::size_t>(
        sc.am().cluster().params().maxFragment, 1);
    const std::size_t nseg =
        bytes == 0 ? 1 : (bytes + frag - 1) / frag;
    const NodeId succ =
        rel + 1 < p ? static_cast<NodeId>((rel + 1 + root) % p) : -1;
    NodeState &m = mine(sc);
    const std::int64_t base = m.chainBase;
    for (std::size_t s = 0; s < nseg; ++s) {
        const std::size_t off = s * frag;
        const std::size_t len =
            bytes == 0 ? 0 : std::min(frag, bytes - off);
        if (rel > 0) {
            const std::int64_t target =
                base + static_cast<std::int64_t>(s) + 1;
            sc.am().pollUntil([&] { return m.chainSeen >= target; },
                              "chain broadcast");
        }
        if (succ >= 0)
            sc.am().store(succ, nodes_[succ].pub + off, data + off, len,
                          hAdd_,
                          reinterpret_cast<Word>(
                              &nodes_[succ].chainSeen));
    }
}

void
TunedCollectives::bcastScatterAg(SplitC &sc, std::uint8_t *data,
                                 std::size_t bytes, int rel,
                                 NodeId root, std::int64_t epoch)
{
    const int p = sc.procs();
    const std::size_t blk = bytes / p; // >= 1 by algValid.
    auto off = [&](int b) { return static_cast<std::size_t>(b) * blk; };
    auto end = [&](int b) { return b >= p ? bytes : off(b); };
    NodeState &m = mine(sc);

    // Binomial scatter: the holder of block range [lo, hi) splits off
    // [mid, hi) to relative rank mid, straight into its final offset.
    int lo = 0, hi = p;
    for (int k = levels_ - 1; k >= 0 && hi - lo > 1; --k) {
        const int mid = lo + (1 << k);
        if (mid >= hi)
            continue;
        if (rel < mid) {
            if (rel == lo) {
                const NodeId dst = static_cast<NodeId>((mid + root) % p);
                storeSignal(sc, dst, nodes_[dst].pub + off(mid),
                            data + off(mid), end(hi) - off(mid),
                            &nodes_[dst].seen[k], epoch);
            }
            hi = mid;
        } else {
            if (rel == mid)
                waitSlot(sc, m.seen[k], epoch, "scatter");
            lo = mid;
        }
    }

    // Ring allgather of the P scattered blocks (relative ring).
    const NodeId right = static_cast<NodeId>((rel + 1 + root) % p);
    for (int s = 1; s < p; ++s) {
        const int sb = (rel - s + 1 + p) % p;
        const int rb = (rel - s + p) % p;
        storeSignal(sc, right, nodes_[right].pub + off(sb),
                    data + off(sb), end(sb + 1) - off(sb),
                    &nodes_[right].srcSeen[sb], epoch);
        waitSlot(sc, m.srcSeen[rb], epoch, "scatter-ag ring");
    }
}

void
TunedCollectives::bcastLogp(SplitC &sc, std::uint8_t *data,
                            std::size_t bytes, int rel, NodeId root,
                            std::int64_t epoch)
{
    const int p = sc.procs();
    auto [it, fresh] = logpTargets_.try_emplace(bytes);
    if (fresh) {
        it->second.resize(p);
        for (const BroadcastStep &s : logpSchedule(point_, p, bytes))
            it->second[s.sender].push_back(s.receiver);
    }
    // A holder pipelines its sends back to back, in schedule order --
    // no round trip per target, which is the schedule's whole point.
    if (rel != 0)
        waitSlot(sc, mine(sc).seen[0], epoch, "logp broadcast");
    for (int t : it->second[rel]) {
        const NodeId dst = static_cast<NodeId>((t + root) % p);
        storeSignal(sc, dst, nodes_[dst].pub, data, bytes,
                    &nodes_[dst].seen[0], epoch);
    }
}

// ----------------------------------------------------------------------
// All-gather
// ----------------------------------------------------------------------

void
TunedCollectives::allGather(SplitC &sc, const void *my_block,
                            std::size_t block, void *out, CollAlg alg)
{
    panic_if(collOf(alg) != Coll::AllGather,
             "%s is not an all-gather algorithm", algName(alg));
    const int p = sc.procs();
    const int me = sc.myProc();
    auto *o = static_cast<std::uint8_t *>(out);
    if (p <= 1) {
        if (block > 0)
            std::memmove(o, my_block, block);
        return;
    }
    panic_if(!algValid(alg, p, block), "%s invalid for p=%d block=%zu",
             algName(alg), p, block);
    // Seed my own contribution before the entry barrier: Bruck keeps a
    // rotated layout (own block at offset 0) until its final rotation.
    if (block > 0)
        std::memmove(o + (alg == CollAlg::AgBruck
                              ? 0
                              : static_cast<std::size_t>(me) * block),
                     my_block, block);
    const std::int64_t epoch = enter(sc, out);
    switch (alg) {
      case CollAlg::AgRing:
        agRing(sc, block, o, epoch);
        break;
      case CollAlg::AgRecDouble:
        agRecDouble(sc, block, o, epoch);
        break;
      case CollAlg::AgBruck:
        agBruck(sc, block, o, epoch);
        break;
      default:
        panic("unreachable");
    }
    sc.storeSync();
}

void
TunedCollectives::agRing(SplitC &sc, std::size_t block,
                         std::uint8_t *out, std::int64_t epoch)
{
    const int p = sc.procs();
    const int me = sc.myProc();
    const NodeId right = static_cast<NodeId>((me + 1) % p);
    NodeState &m = mine(sc);
    for (int s = 1; s < p; ++s) {
        const int sb = (me - s + 1 + p) % p;
        const int rb = (me - s + p) % p;
        storeSignal(sc, right,
                    nodes_[right].pub +
                        static_cast<std::size_t>(sb) * block,
                    out + static_cast<std::size_t>(sb) * block, block,
                    &nodes_[right].srcSeen[sb], epoch);
        waitSlot(sc, m.srcSeen[rb], epoch, "ring allgather");
    }
}

void
TunedCollectives::agRecDouble(SplitC &sc, std::size_t block,
                              std::uint8_t *out, std::int64_t epoch)
{
    const int p = sc.procs();
    const int me = sc.myProc();
    NodeState &m = mine(sc);
    for (int k = 0; (1 << k) < p; ++k) {
        const NodeId partner = static_cast<NodeId>(me ^ (1 << k));
        const int group = 1 << k;
        const std::size_t base =
            static_cast<std::size_t>((me >> k) << k) * block;
        storeSignal(sc, partner, nodes_[partner].pub + base,
                    out + base, static_cast<std::size_t>(group) * block,
                    &nodes_[partner].seen[k], epoch);
        waitSlot(sc, m.seen[k], epoch, "recursive-doubling allgather");
    }
}

void
TunedCollectives::agBruck(SplitC &sc, std::size_t block,
                          std::uint8_t *out, std::int64_t epoch)
{
    const int p = sc.procs();
    const int me = sc.myProc();
    NodeState &m = mine(sc);
    // Rotated layout: out slot j holds block (me + j) % p. Round k
    // ships slots [0, c) to the node 2^k to the left, landing at slot
    // 2^k -- regions are disjoint across rounds, so no staging.
    for (int k = 0; (1 << k) < p; ++k) {
        const int c = std::min(1 << k, p - (1 << k));
        const NodeId dst =
            static_cast<NodeId>((me - (1 << k) + p) % p);
        storeSignal(sc, dst,
                    nodes_[dst].pub +
                        (static_cast<std::size_t>(1) << k) * block,
                    out, static_cast<std::size_t>(c) * block,
                    &nodes_[dst].seen[k], epoch);
        waitSlot(sc, m.seen[k], epoch, "bruck allgather");
    }
    if (me != 0 && block > 0)
        std::rotate(out,
                    out + static_cast<std::size_t>(p - me) * block,
                    out + static_cast<std::size_t>(p) * block);
}

// ----------------------------------------------------------------------
// All-to-all
// ----------------------------------------------------------------------

void
TunedCollectives::allToAll(SplitC &sc, const void *send,
                           std::size_t block, void *recv, CollAlg alg)
{
    panic_if(collOf(alg) != Coll::AllToAll,
             "%s is not an all-to-all algorithm", algName(alg));
    const int p = sc.procs();
    const int me = sc.myProc();
    const auto *s = static_cast<const std::uint8_t *>(send);
    auto *r = static_cast<std::uint8_t *>(recv);
    if (p <= 1) {
        if (block > 0)
            std::memmove(r, s, block);
        return;
    }
    panic_if(!algValid(alg, p, block), "%s invalid for p=%d block=%zu",
             algName(alg), p, block);
    NodeState &m = mine(sc);
    std::int64_t epoch;
    if (alg == CollAlg::A2aBruck) {
        const std::size_t need =
            std::max<std::size_t>(static_cast<std::size_t>(p) * block,
                                  1);
        // The staging regions are disjoint PER ROUND, so the stage
        // buffer needs the sum over rounds of that round's block
        // count -- which exceeds p*block whenever p > 4 (e.g. p=8
        // ships 4 blocks in each of 3 rounds).
        std::size_t stage_need = 0;
        for (int k = 0; (1 << k) < p; ++k) {
            std::size_t c = 0;
            for (int j = 1; j < p; ++j)
                if ((j >> k) & 1)
                    ++c;
            stage_need += c * block;
        }
        stage_need = std::max<std::size_t>(stage_need, 1);
        if (m.a2aTmp.size() < need)
            m.a2aTmp.resize(need);
        if (m.a2aStage.size() < stage_need)
            m.a2aStage.resize(stage_need);
        if (m.packBuf.size() < need)
            m.packBuf.resize(need);
        // Rotate: tmp slot j = my block for destination (me + j) % p.
        for (int j = 0; j < p && block > 0; ++j)
            std::memcpy(m.a2aTmp.data() +
                            static_cast<std::size_t>(j) * block,
                        s + static_cast<std::size_t>((me + j) % p) *
                                block,
                        block);
        epoch = enter(sc, m.a2aStage.data());
        a2aBruck(sc, s, block, r, epoch);
    } else {
        if (block > 0)
            std::memmove(r + static_cast<std::size_t>(me) * block,
                         s + static_cast<std::size_t>(me) * block,
                         block);
        epoch = enter(sc, recv);
        a2aPairwise(sc, s, block, r, epoch);
    }
    sc.storeSync();
}

void
TunedCollectives::a2aPairwise(SplitC &sc, const std::uint8_t *send,
                              std::size_t block, std::uint8_t *recv,
                              std::int64_t epoch)
{
    (void)recv;
    const int p = sc.procs();
    const int me = sc.myProc();
    NodeState &m = mine(sc);
    for (int s = 1; s < p; ++s) {
        const NodeId dst = static_cast<NodeId>((me + s) % p);
        const NodeId src = static_cast<NodeId>((me - s + p) % p);
        storeSignal(sc, dst,
                    nodes_[dst].pub +
                        static_cast<std::size_t>(me) * block,
                    send + static_cast<std::size_t>(dst) * block,
                    block, &nodes_[dst].srcSeen[me], epoch);
        waitSlot(sc, m.srcSeen[src], epoch, "pairwise all-to-all");
    }
}

void
TunedCollectives::a2aBruck(SplitC &sc, const std::uint8_t *send,
                           std::size_t block, std::uint8_t *recv,
                           std::int64_t epoch)
{
    (void)send;
    const int p = sc.procs();
    const int me = sc.myProc();
    NodeState &m = mine(sc);
    std::uint8_t *tmp = m.a2aTmp.data();
    std::size_t stage_off = 0;
    for (int k = 0; (1 << k) < p; ++k) {
        // Pack every slot whose index has bit k set, in index order.
        std::size_t c = 0;
        for (int j = 1; j < p; ++j) {
            if (!((j >> k) & 1))
                continue;
            if (block > 0)
                std::memcpy(m.packBuf.data() + c * block,
                            tmp + static_cast<std::size_t>(j) * block,
                            block);
            ++c;
        }
        const NodeId dst = static_cast<NodeId>((me + (1 << k)) % p);
        storeSignal(sc, dst, nodes_[dst].pub + stage_off,
                    m.packBuf.data(), c * block, &nodes_[dst].seen[k],
                    epoch);
        waitSlot(sc, m.seen[k], epoch, "bruck all-to-all");
        // Unpack the arrivals back into the same slots.
        std::size_t u = 0;
        for (int j = 1; j < p; ++j) {
            if (!((j >> k) & 1))
                continue;
            if (block > 0)
                std::memcpy(tmp + static_cast<std::size_t>(j) * block,
                            m.a2aStage.data() + stage_off + u * block,
                            block);
            ++u;
        }
        stage_off += c * block;
    }
    // Final inverse rotation: data from source i sits at slot
    // (me - i + p) % p.
    for (int i = 0; i < p && block > 0; ++i)
        std::memcpy(recv + static_cast<std::size_t>(i) * block,
                    tmp + static_cast<std::size_t>((me - i + p) % p) *
                            block,
                    block);
}

// ----------------------------------------------------------------------
// Barrier
// ----------------------------------------------------------------------

void
TunedCollectives::barrier(SplitC &sc, CollAlg alg)
{
    panic_if(collOf(alg) != Coll::Barrier,
             "%s is not a barrier algorithm", algName(alg));
    if (sc.procs() <= 1)
        return;
    switch (alg) {
      case CollAlg::BarFlat:
        barFlat(sc);
        break;
      case CollAlg::BarDissemination:
        sc.barrier();
        break;
      case CollAlg::BarTournament:
        barTournament(sc);
        break;
      default:
        panic("unreachable");
    }
}

void
TunedCollectives::barFlat(SplitC &sc)
{
    const int p = sc.procs();
    const int me = sc.myProc();
    NodeState &m = mine(sc);
    const std::int64_t epoch = ++m.myFlatEpoch;
    if (me == 0) {
        // Arrivals accumulate across epochs, so a releasee racing into
        // the next barrier can never be miscounted.
        const std::int64_t target =
            epoch * static_cast<std::int64_t>(p - 1);
        sc.am().pollUntil([&] { return m.barArrived >= target; },
                          "flat barrier");
        for (int q = 1; q < p; ++q)
            sc.am().oneWay(q, hSet_,
                           reinterpret_cast<Word>(
                               &nodes_[q].barRelease),
                           static_cast<Word>(epoch));
    } else {
        sc.am().oneWay(0, hAdd_,
                       reinterpret_cast<Word>(&nodes_[0].barArrived));
        sc.am().pollUntil([&] { return m.barRelease >= epoch; },
                          "flat barrier");
    }
}

void
TunedCollectives::barTournament(SplitC &sc)
{
    const int p = sc.procs();
    const int me = sc.myProc();
    NodeState &m = mine(sc);
    const std::int64_t epoch = ++m.myTourEpoch;
    const int out_round = lowBit(me, levels_);
    // Elimination rounds: I win every round below my lowest set bit
    // (waiting for that round's loser), then report to the winner that
    // knocks me out.
    for (int k = 0; k < out_round && k < levels_; ++k) {
        const int peer = me + (1 << k);
        if (peer < p)
            waitSlot(sc, m.tourSeen[k], epoch, "tournament barrier");
    }
    if (me != 0) {
        const NodeId win = static_cast<NodeId>(me - (1 << out_round));
        sc.am().oneWay(win, hSet_,
                       reinterpret_cast<Word>(
                           &nodes_[win].tourSeen[out_round]),
                       static_cast<Word>(epoch));
        sc.am().pollUntil([&] { return m.tourRelease >= epoch; },
                          "tournament release");
    }
    // Binomial release down the bracket.
    for (int k = std::min(out_round, levels_) - 1; k >= 0; --k) {
        const int child = me + (1 << k);
        if (child < p)
            sc.am().oneWay(static_cast<NodeId>(child), hSet_,
                           reinterpret_cast<Word>(
                               &nodes_[child].tourRelease),
                           static_cast<Word>(epoch));
    }
}

// ----------------------------------------------------------------------
// All-reduce
// ----------------------------------------------------------------------

void
TunedCollectives::allReduceAdd(SplitC &sc, std::int64_t *vec,
                               std::size_t n, CollAlg alg)
{
    panic_if(collOf(alg) != Coll::AllReduce,
             "%s is not an all-reduce algorithm", algName(alg));
    const int p = sc.procs();
    if (p <= 1)
        return;
    panic_if(!algValid(alg, p, n * sizeof(std::int64_t)),
             "%s invalid for p=%d bytes=%zu", algName(alg), p,
             n * sizeof(std::int64_t));
    NodeState &m = mine(sc);
    const std::size_t need = std::max<std::size_t>(
        static_cast<std::size_t>(levels_ + 2) * std::max<std::size_t>(n, 1),
        1);
    if (m.arStage.size() < need)
        m.arStage.resize(need);
    const std::int64_t epoch = enter(sc, vec);
    switch (alg) {
      case CollAlg::ArBinomial:
        arBinomial(sc, vec, n, epoch);
        break;
      case CollAlg::ArRecDouble:
        arRecDouble(sc, vec, n, epoch);
        break;
      case CollAlg::ArRabenseifner:
        arRabenseifner(sc, vec, n, epoch);
        break;
      default:
        panic("unreachable");
    }
    sc.storeSync();
}

void
TunedCollectives::arBinomial(SplitC &sc, std::int64_t *vec,
                             std::size_t n, std::int64_t epoch)
{
    const int p = sc.procs();
    const int me = sc.myProc();
    NodeState &m = mine(sc);
    const std::size_t vb = n * sizeof(std::int64_t);
    const int out_round = lowBit(me, levels_);
    // Reduce up the binomial tree: round-k parents take their child's
    // vector via a per-round staging region, then fold it in.
    for (int k = 0; k < levels_; ++k) {
        if (k < out_round) {
            const int child = me + (1 << k);
            if (child >= p)
                continue;
            waitSlot(sc, m.seen[k], epoch, "binomial reduce");
            accumulate(vec,
                       m.arStage.data() + static_cast<std::size_t>(k) * n,
                       n);
        } else {
            const NodeId parent =
                static_cast<NodeId>(me - (1 << out_round));
            storeSignal(sc, parent,
                        nodes_[parent].arStage.data() +
                            static_cast<std::size_t>(k) * n,
                        vec, vb, &nodes_[parent].seen[k], epoch);
            break;
        }
    }
    // Binomial broadcast of the totals back down.
    if (me != 0)
        waitSlot(sc, m.seen[levels_ + out_round], epoch,
                 "binomial result");
    for (int k = std::min(out_round, levels_) - 1; k >= 0; --k) {
        const int child = me + (1 << k);
        if (child < p)
            storeSignal(sc, static_cast<NodeId>(child),
                        nodes_[child].pub, vec, vb,
                        &nodes_[child].seen[levels_ + k], epoch);
    }
}

void
TunedCollectives::arRecDouble(SplitC &sc, std::int64_t *vec,
                              std::size_t n, std::int64_t epoch)
{
    const int p = sc.procs();
    const int me = sc.myProc();
    NodeState &m = mine(sc);
    const std::size_t vb = n * sizeof(std::int64_t);
    int p2 = 1;
    while (p2 * 2 <= p)
        p2 *= 2;
    const int rem = p - p2;
    const std::size_t fold_off = static_cast<std::size_t>(levels_) * n;

    if (me >= p2) {
        // Fold my vector into a buddy, then take the finished totals.
        const NodeId buddy = static_cast<NodeId>(me - p2);
        storeSignal(sc, buddy, nodes_[buddy].arStage.data() + fold_off,
                    vec, vb, &nodes_[buddy].seen[62], epoch);
        waitSlot(sc, m.seen[63], epoch, "recursive-doubling result");
        return;
    }
    if (me < rem) {
        waitSlot(sc, m.seen[62], epoch, "recursive-doubling fold");
        accumulate(vec, m.arStage.data() + fold_off, n);
    }
    for (int k = 0; (1 << k) < p2; ++k) {
        const NodeId partner = static_cast<NodeId>(me ^ (1 << k));
        storeSignal(sc, partner,
                    nodes_[partner].arStage.data() +
                        static_cast<std::size_t>(k) * n,
                    vec, vb, &nodes_[partner].seen[k], epoch);
        waitSlot(sc, m.seen[k], epoch, "recursive doubling");
        accumulate(vec,
                   m.arStage.data() + static_cast<std::size_t>(k) * n,
                   n);
    }
    if (me < rem)
        storeSignal(sc, static_cast<NodeId>(me + p2),
                    nodes_[me + p2].pub, vec, vb,
                    &nodes_[me + p2].seen[63], epoch);
}

void
TunedCollectives::arRabenseifner(SplitC &sc, std::int64_t *vec,
                                 std::size_t n, std::int64_t epoch)
{
    const int p = sc.procs();
    const int me = sc.myProc();
    NodeState &m = mine(sc);
    // Reduce-scatter by recursive halving: each round trades away the
    // half of my active segment my partner owns, receiving its half of
    // mine into a per-round staging region.
    std::size_t base = 0, len = n;
    for (int k = 1; (1 << (k - 1)) < p; ++k) {
        const int dist = p >> k;
        const NodeId partner = static_cast<NodeId>(me ^ dist);
        const std::size_t half = len / 2;
        const std::size_t stage_off = n - (n >> (k - 1));
        const bool upper = (me & dist) != 0;
        const std::size_t keep = upper ? base + half : base;
        const std::size_t give = upper ? base : base + half;
        storeSignal(sc, partner,
                    nodes_[partner].arStage.data() + stage_off,
                    vec + give, half * sizeof(std::int64_t),
                    &nodes_[partner].seen[k - 1], epoch);
        waitSlot(sc, m.seen[k - 1], epoch, "reduce-scatter");
        accumulate(vec + keep, m.arStage.data() + stage_off, half);
        base = keep;
        len = half;
    }
    // Mirror allgather: segments double back up, landing directly in
    // their final positions of everyone's vector.
    for (int k = levels_; k >= 1; --k) {
        const int dist = p >> k;
        const NodeId partner = static_cast<NodeId>(me ^ dist);
        storeSignal(sc, partner,
                    nodes_[partner].pub +
                        base * sizeof(std::int64_t),
                    vec + base, len * sizeof(std::int64_t),
                    &nodes_[partner].seen[levels_ + k - 1], epoch);
        waitSlot(sc, m.seen[levels_ + k - 1], epoch,
                 "rabenseifner allgather");
        base = std::min(base, base ^ len);
        len *= 2;
    }
}

// ----------------------------------------------------------------------
// Auto-tuned entry points
// ----------------------------------------------------------------------

void
TunedCollectives::broadcast(SplitC &sc, void *data, std::size_t bytes,
                            NodeId root)
{
    broadcast(sc, data, bytes, root,
              select(Coll::Broadcast, sc.procs(), bytes));
}

void
TunedCollectives::allGather(SplitC &sc, const void *my_block,
                            std::size_t block, void *out)
{
    allGather(sc, my_block, block, out,
              select(Coll::AllGather, sc.procs(), block));
}

void
TunedCollectives::allToAll(SplitC &sc, const void *send,
                           std::size_t block, void *recv)
{
    allToAll(sc, send, block, recv,
             select(Coll::AllToAll, sc.procs(), block));
}

void
TunedCollectives::barrier(SplitC &sc)
{
    barrier(sc, select(Coll::Barrier, sc.procs(), 0));
}

void
TunedCollectives::allReduceAdd(SplitC &sc, std::int64_t *vec,
                               std::size_t n)
{
    allReduceAdd(sc, vec, n,
                 select(Coll::AllReduce, sc.procs(),
                        n * sizeof(std::int64_t)));
}

} // namespace coll
} // namespace nowcluster
