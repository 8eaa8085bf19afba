/**
 * @file
 * LpDag implementation: Kahn topological order + weighted longest path.
 */

#include "backend/lp.hh"

#include <algorithm>
#include <array>
#include <bit>

namespace nowcluster::backend {

namespace {

using CostBits = std::array<std::uint64_t, 5>;

CostBits
bitsOf(const LinCost &c)
{
    return {std::bit_cast<std::uint64_t>(c.fixed),
            std::bit_cast<std::uint64_t>(c.perL),
            std::bit_cast<std::uint64_t>(c.perO),
            std::bit_cast<std::uint64_t>(c.perG),
            std::bit_cast<std::uint64_t>(c.perGb)};
}

/** The five words rotated apart and folded, then mixed once (half of
 *  MurmurHash3's finalizer): one multiply on the dependent path where
 *  a multiply per word would be five. */
std::size_t
hashOf(const CostBits &bits)
{
    std::uint64_t h = bits[0] ^ std::rotl(bits[1], 13) ^
                      std::rotl(bits[2], 26) ^ std::rotl(bits[3], 39) ^
                      std::rotl(bits[4], 52);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
}

/** How many ready nodes prepare() lays out side by side, so that
 *  neighbouring slots seldom read one another. 1 is the one-at-a-time
 *  order; 4 and 8 solved fastest. */
constexpr std::size_t kBatch = 8;

/** Slots per block of the solve pass (see propagate). */
constexpr std::size_t kBlock = 64;

/** Marks entry B in a slot's recorded binding source (a slot number
 *  fits in 31 bits). */
constexpr std::uint32_t kViaB = std::uint32_t{1} << 31;

} // namespace

/** Per-thread solve scratch: concurrent sweep points share nothing,
 *  and no solve reallocates once the thread has seen its largest DAG.
 *  Every slot a solve reads is written earlier in that same solve. */
struct LpDag::Scratch
{
    std::vector<double> cost;       ///< costs_ at the operating point.
    std::vector<double> dist;       ///< Longest-path distance per slot.
    /** Per slot, the source slot of its binding entry, with kViaB
     *  when that is entry B. */
    std::vector<std::uint32_t> bind;
    std::vector<double> blockMax;   ///< Largest distance per block.
    std::size_t argmax = 0;         ///< Slot the dual walks back from.
};

LpDag::Scratch &
LpDag::scratch()
{
    thread_local Scratch s;
    return s;
}

int
LpDag::addNode()
{
    prepared_ = false;
    return static_cast<int>(nodeCount_++);
}

std::uint32_t
LpDag::intern(const LinCost &cost)
{
    // At most half full; index 0 (the reserved zero cost) marks an
    // empty bucket, since it is never interned.
    if (2 * costs_.size() >= costIndex_.size()) {
        costIndex_.assign(std::max<std::size_t>(64, 2 * costIndex_.size()),
                          0);
        const std::size_t mask = costIndex_.size() - 1;
        for (std::uint32_t i = 1; i < costs_.size(); i++) {
            std::size_t b = hashOf(bitsOf(costs_[i])) & mask;
            while (costIndex_[b] != 0)
                b = (b + 1) & mask;
            costIndex_[b] = i;
        }
    }
    const CostBits key = bitsOf(cost);
    const std::size_t mask = costIndex_.size() - 1;
    for (std::size_t b = hashOf(key) & mask;; b = (b + 1) & mask) {
        const std::uint32_t i = costIndex_[b];
        if (i == 0) {
            costIndex_[b] = static_cast<std::uint32_t>(costs_.size());
            costs_.push_back(cost);
            return costIndex_[b];
        }
        if (bitsOf(costs_[i]) == key)
            return i;
    }
}

void
LpDag::addEdge(int src, int dst, const LinCost &cost)
{
    prepared_ = false;
    edges_.push_back({src, dst, intern(cost)});
}

std::vector<LpDag::Edge>
LpDag::edges() const
{
    std::vector<Edge> out;
    out.reserve(edges_.size());
    for (const Stored &e : edges_)
        out.push_back({e.src, e.dst, costs_[e.cost]});
    return out;
}

bool
LpDag::prepare()
{
    prepared_ = false;
    slots_.clear();
    rank_.clear();
    const int n = static_cast<int>(nodeCount_);
    // Edge positions and slot numbers (at most one per node plus one
    // per edge) must fit in 31 bits.
    if (edges_.size() + nodeCount_ >= (std::size_t{1} << 31))
        return false;
    std::vector<int> indeg(nodeCount_, 0);
    std::vector<std::uint32_t> width(nodeCount_, 0); // in-edges, kSource too
    std::vector<int> outOff(nodeCount_ + 1, 0);
    for (const Stored &e : edges_) {
        if (e.dst < 0 || e.dst >= n)
            return false;
        if (e.src < kSource || e.src >= n)
            return false;
        width[e.dst]++;
        if (e.src != kSource) {
            indeg[e.dst]++;
            outOff[e.src + 1]++;
        }
    }

    // Out-adjacency for the sort, each source's edges in added order.
    for (std::size_t v = 0; v < nodeCount_; v++)
        outOff[v + 1] += outOff[v];
    std::vector<int> out(outOff[nodeCount_]);
    {
        std::vector<int> at(outOff.begin(), outOff.end() - 1);
        for (const Stored &e : edges_)
            if (e.src != kSource)
                out[at[e.src]++] = e.dst;
    }
    // Kahn's order off a stack, `batch` ready nodes at a time: each
    // batch is visited, then its nodes' newly ready successors are
    // pushed, so the nodes of a batch never depend on one another.
    auto sort = [&](std::size_t batch, std::vector<int> indeg) {
        std::vector<int> topo, frontier;
        topo.reserve(nodeCount_);
        for (int v = 0; v < n; v++)
            if (indeg[v] == 0)
                frontier.push_back(v);
        while (!frontier.empty()) {
            const std::size_t from = topo.size();
            for (std::size_t i = 0; i < batch && !frontier.empty(); i++) {
                topo.push_back(frontier.back());
                frontier.pop_back();
            }
            for (std::size_t i = from; i < topo.size(); i++) {
                const int v = topo[i];
                for (int j = outOff[v]; j < outOff[v + 1]; j++)
                    if (--indeg[out[j]] == 0)
                        frontier.push_back(out[j]);
            }
        }
        return topo;
    };
    // The one-at-a-time order only ranks the slots, for the dual's
    // ties (see prepare() in lp.hh).
    std::vector<int> former = sort(1, indeg);
    if (former.size() != nodeCount_)
        return false;
    const std::vector<int> topo = sort(kBatch, std::move(indeg));
    std::vector<int>().swap(out);
    std::vector<int>().swap(outOff);

    // Distance slots in visit order, from 1 (slot 0 is the source):
    // a node with d > 2 in-edges takes d - 1 slots, any other one, and
    // it answers in its last. Every slot after a node's first links
    // the partial maximum before it; every other entry starts as a pad.
    std::vector<std::uint32_t> first(nodeCount_), last(nodeCount_);
    std::uint32_t slots = 0;
    for (int v : topo) {
        first[v] = slots + 1;
        slots += width[v] > 2 ? width[v] - 1 : 1;
        last[v] = slots;
    }
    rank_.resize(slots);
    for (std::uint32_t r = 1; int v : former)
        for (std::uint32_t k = first[v]; k <= last[v]; k++)
            rank_[k - 1] = r++;
    std::vector<int>().swap(former);

    slots_.assign(slots, {0, 0, 0, 0});
    for (int v : topo)
        for (std::uint32_t k = first[v] + 1; k <= last[v]; k++)
            slots_[k - 1].srcA = k - 1;
    // A node's in-edge j, in added order, is entry A of its first slot
    // (j = 0), else entry B of slot first + j - 1.
    std::vector<std::uint32_t> &seen = width;
    std::fill(seen.begin(), seen.end(), 0);
    for (const Stored &e : edges_) {
        const std::uint32_t j = seen[e.dst]++;
        Slot &s = slots_[first[e.dst] + (j > 0 ? j - 1 : 0) - 1];
        const std::uint32_t src = e.src == kSource ? 0 : last[e.src];
        if (j == 0) {
            s.srcA = src;
            s.costA = e.cost;
        } else {
            s.srcB = src;
            s.costB = e.cost;
        }
    }
    prepared_ = true;
    return true;
}

template <bool kDual>
double
LpDag::propagate(const LpParams &params, Scratch &sc) const
{
    const float pL = static_cast<float>(params.L);
    const float pO = static_cast<float>(params.o);
    const float pG = static_cast<float>(params.g);
    const float pGb = static_cast<float>(params.Gb);
    sc.cost.resize(costs_.size());
    for (std::size_t i = 0; i < costs_.size(); i++) {
        const LinCost &c = costs_[i];
        const float l = static_cast<float>(c.perL) * pL;
        const float o = static_cast<float>(c.perO) * pO;
        const float g = static_cast<float>(c.perG) * pG;
        const float gb = static_cast<float>(c.perGb) * pGb;
        const float w = static_cast<float>(c.fixed) + l + o + g + gb;
        sc.cost[i] = w > 0 ? w : 0;
    }
    const std::size_t n = slots_.size();
    sc.dist.resize(n + 1);
    double *dist = sc.dist.data();
    const double *cost = sc.cost.data();
    std::uint32_t *bind = nullptr;
    if constexpr (kDual) {
        sc.bind.resize(n + 1);
        bind = sc.bind.data();
    }
    dist[0] = 0.0;

    // Every cost is at least +0 and so is slot 0, so every distance is
    // too: a node never starts before time zero. A slot's distance is
    // the larger of its entries', entry A's when they tie (a node binds
    // its first strict maximum). A partial maximum never exceeds its
    // node's distance, so the makespan over all slots is the makespan
    // over nodes.
    const Slot *slot = slots_.data();
    auto step = [&](std::size_t k) {
        const Slot &s = slot[k - 1];
        const double a = dist[s.srcA] + cost[s.costA];
        const double b = dist[s.srcB] + cost[s.costB];
        const double d = std::max(a, b);
        dist[k] = d;
        if constexpr (kDual) {
            // Selected by a mask, not a branch: which entry wins is data.
            const std::uint32_t viaB = 0u - static_cast<std::uint32_t>(a < b);
            bind[k] = s.srcA ^ ((s.srcA ^ (s.srcB | kViaB)) & viaB);
        }
        return d;
    };
    // Four running maxima per block of slots, so that folding a slot
    // into the makespan never waits on the slot before it. max is
    // exact and no distance is NaN or -0, so any fold order gives the
    // same bits. A dual solve keeps each block's maximum, to find the
    // slots at the makespan without reading every distance again.
    const std::size_t blocks = (n + kBlock - 1) / kBlock;
    auto blockEnd = [&](std::size_t blk) {
        return std::min(n + 1, (blk + 1) * kBlock + 1);
    };
    if constexpr (kDual)
        sc.blockMax.resize(blocks);
    double makespan = 0.0;
    for (std::size_t blk = 0; blk < blocks; blk++) {
        const std::size_t end = blockEnd(blk);
        double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
        std::size_t k = blk * kBlock + 1;
        for (; k + 4 <= end; k += 4) {
            m0 = std::max(m0, step(k));
            m1 = std::max(m1, step(k + 1));
            m2 = std::max(m2, step(k + 2));
            m3 = std::max(m3, step(k + 3));
        }
        for (; k < end; k++)
            m0 = std::max(m0, step(k));
        const double m = std::max(std::max(m0, m1), std::max(m2, m3));
        if constexpr (kDual)
            sc.blockMax[blk] = m;
        makespan = std::max(makespan, m);
    }

    if constexpr (kDual) {
        // Of the slots at the makespan, the dual walks back from the
        // one of smallest rank: the first to reach it in the
        // one-at-a-time order, whatever the layout.
        std::uint32_t best = ~std::uint32_t{0};
        for (std::size_t blk = 0; blk < blocks; blk++) {
            if (sc.blockMax[blk] != makespan)
                continue;
            for (std::size_t k = blk * kBlock + 1; k < blockEnd(blk); k++)
                if (dist[k] == makespan && rank_[k - 1] < best) {
                    best = rank_[k - 1];
                    sc.argmax = k;
                }
        }
    }
    return makespan;
}

LpSolution
LpDag::solve(const LpParams &params) const
{
    LpSolution sol;
    if (!prepared_)
        return sol;
    sol.ok = true;
    if (nodeCount_ == 0)
        return sol;

    Scratch &sc = scratch();
    sol.makespan = propagate<true>(params, sc);

    // Walk the binding path back to the source, summing coefficients
    // and stepping over links. A slot whose distance is zero has no
    // binding entry (neither beats +0), and slot 0 ends every path. A
    // clamped edge (its weight hit the zero floor) contributes no
    // slope: its weight is locally constant in every parameter.
    for (std::size_t k = sc.argmax; sc.dist[k] > 0;) {
        const Slot &s = slots_[k - 1];
        const std::uint32_t from = sc.bind[k];
        const std::uint32_t c = from & kViaB ? s.costB : s.costA;
        if (c != 0) {
            if (sc.cost[c] > 0) {
                const LinCost &e = costs_[c];
                sol.gradient.fixed += static_cast<float>(e.fixed);
                sol.gradient.perL += static_cast<float>(e.perL);
                sol.gradient.perO += static_cast<float>(e.perO);
                sol.gradient.perG += static_cast<float>(e.perG);
                sol.gradient.perGb += static_cast<float>(e.perGb);
            }
            sol.pathEdges++;
        }
        k = from & ~kViaB;
    }
    return sol;
}

std::optional<double>
LpDag::makespan(const LpParams &params) const
{
    if (!prepared_)
        return std::nullopt;
    return propagate<false>(params, scratch());
}

} // namespace nowcluster::backend
