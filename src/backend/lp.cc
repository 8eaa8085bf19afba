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

/** The binding entry of a slot, as solve() records it. */
enum Pick : std::uint8_t
{
    kNone, ///< Neither entry beats +0: the slot's distance is zero.
    kA,
    kB,
};

} // namespace

/** Per-thread solve scratch: concurrent sweep points share nothing,
 *  and no solve reallocates once the thread has seen its largest DAG.
 *  Every slot a solve reads is written earlier in that same solve. */
struct LpDag::Scratch
{
    std::vector<double> cost;       ///< costs_ at the operating point.
    std::vector<double> dist;       ///< Longest-path distance per slot.
    std::vector<std::uint8_t> pick; ///< Binding entry per slot (Pick).
    std::size_t argmax = 0;         ///< First slot reaching the makespan.
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
    std::vector<int> topo;
    topo.reserve(nodeCount_);
    std::vector<int> frontier;
    for (int v = 0; v < n; v++)
        if (indeg[v] == 0)
            frontier.push_back(v);
    while (!frontier.empty()) {
        int v = frontier.back();
        frontier.pop_back();
        topo.push_back(v);
        for (int i = outOff[v]; i < outOff[v + 1]; i++)
            if (--indeg[out[i]] == 0)
                frontier.push_back(out[i]);
    }
    if (topo.size() != nodeCount_)
        return false;

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
    std::uint8_t *pick = nullptr;
    if constexpr (kDual) {
        sc.pick.resize(n + 1);
        pick = sc.pick.data();
        pick[0] = kNone;
    }
    dist[0] = 0.0;

    // Every node starts no earlier than time zero, so every distance
    // is at least +0 and so is the makespan. A partial maximum never
    // exceeds its node's distance, so the makespan over all slots is
    // the makespan over nodes. Ties keep the first slot to reach it:
    // slot 1 when every distance is zero.
    double makespan = 0.0;
    sc.argmax = 1;
    const Slot *slot = slots_.data();
    for (std::size_t k = 1; k <= n; k++) {
        const Slot &s = slot[k - 1];
        const double a = dist[s.srcA] + cost[s.costA];
        const double b = dist[s.srcB] + cost[s.costB];
        const double atLeastA = std::max(0.0, a);
        const double d = std::max(atLeastA, b);
        dist[k] = d;
        if constexpr (kDual) {
            pick[k] = b > atLeastA ? kB : a > 0 ? kA : kNone;
            if (d > makespan) {
                makespan = d;
                sc.argmax = k;
            }
        } else {
            makespan = std::max(makespan, d);
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
    // and stepping over links. A clamped edge (its weight hit the zero
    // floor) contributes no slope: its weight is locally constant in
    // every parameter.
    for (std::size_t k = sc.argmax; sc.pick[k] != kNone;) {
        const Slot &s = slots_[k - 1];
        const bool viaB = sc.pick[k] == kB;
        const std::uint32_t c = viaB ? s.costB : s.costA;
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
        k = viaB ? s.srcB : s.srcA;
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
