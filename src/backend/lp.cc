/**
 * @file
 * LpDag implementation: Kahn topological order + weighted longest path.
 */

#include "backend/lp.hh"

#include <bit>

namespace nowcluster::backend {

namespace {

/** The last in-edge of its node (the low bit of InEdge::coef). */
constexpr std::uint32_t kLast = 1;

} // namespace

/** Per-thread solve scratch: concurrent sweep points share nothing,
 *  and no solve reallocates once the thread has seen its largest DAG.
 *  Every slot a solve reads is written earlier in that same solve. */
struct LpDag::Scratch
{
    std::vector<double> dist; ///< Longest-path distance per slot.
    std::vector<int> pred;    ///< Binding stream entry per slot, or -1.
    std::vector<Tuple> terms; ///< tuples_ times the operating point.
    std::size_t argmax = 0;   ///< First slot reaching the makespan.
};

LpDag::Scratch &
LpDag::scratch()
{
    thread_local Scratch s;
    return s;
}

inline float
LpDag::weight(const InEdge &e, const Tuple *terms)
{
    const Tuple &t = terms[e.coef >> 1];
    const float w = e.fixed + t.l + t.o + t.g + t.gb;
    return w > 0 ? w : 0;
}

int
LpDag::addNode()
{
    prepared_ = false;
    return static_cast<int>(nodeCount_++);
}

std::size_t
LpDag::CoefsHash::operator()(const Coefs &c) const
{
    std::uint64_t h = 0;
    for (std::uint64_t v : c) {
        h = (h ^ v) * 0x9E3779B97F4A7C15ull;
        h ^= h >> 32;
    }
    return static_cast<std::size_t>(h);
}

void
LpDag::addEdge(int src, int dst, const LinCost &cost)
{
    prepared_ = false;
    const Coefs key = {std::bit_cast<std::uint64_t>(cost.perL),
                       std::bit_cast<std::uint64_t>(cost.perO),
                       std::bit_cast<std::uint64_t>(cost.perG),
                       std::bit_cast<std::uint64_t>(cost.perGb)};
    const auto next = static_cast<std::uint32_t>(coefs_.size());
    auto [it, fresh] = coefsIndex_.try_emplace(key, next);
    if (fresh)
        coefs_.push_back(key);
    edges_.push_back({src, dst, cost.fixed, it->second});
}

std::vector<LpDag::Edge>
LpDag::edges() const
{
    std::vector<Edge> out;
    out.reserve(edges_.size());
    for (const Stored &e : edges_) {
        const Coefs &c = coefs_[e.coefs];
        out.push_back({e.src, e.dst,
                       {e.fixed, std::bit_cast<double>(c[0]),
                        std::bit_cast<double>(c[1]),
                        std::bit_cast<double>(c[2]),
                        std::bit_cast<double>(c[3])}});
    }
    return out;
}

bool
LpDag::prepare()
{
    prepared_ = false;
    stream_.clear();
    tuples_.clear();
    const int n = static_cast<int>(nodeCount_);
    // Tuple indices and stream positions must fit in 31 bits.
    if (edges_.size() + nodeCount_ >= (std::size_t{1} << 31))
        return false;
    std::vector<int> indeg(nodeCount_, 0);
    std::vector<int> outOff(nodeCount_ + 1, 0);
    for (const Stored &e : edges_) {
        if (e.dst < 0 || e.dst >= n)
            return false;
        if (e.src < kSource || e.src >= n)
            return false;
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

    // Distance slots: topological position + 1 (slot 0 is the source).
    std::vector<std::uint32_t> slot(nodeCount_);
    for (std::size_t k = 0; k < nodeCount_; k++)
        slot[topo[k]] = static_cast<std::uint32_t>(k + 1);

    // The float table: the zero tuple of the entries without an edge,
    // then each exact tuple converted once, interned by bit pattern.
    // Exact tuples are numbered in the order edges first carry them,
    // so the table lists exactly the floats the edges carry, in the
    // order they first appear.
    std::unordered_map<Coefs, std::uint32_t, CoefsHash> index;
    auto intern = [&](const Tuple &t) {
        const auto bits = std::bit_cast<std::array<std::uint32_t, 4>>(t);
        const auto next = static_cast<std::uint32_t>(tuples_.size());
        auto [it, fresh] = index.try_emplace(
            Coefs{bits[0], bits[1], bits[2], bits[3]}, next);
        if (fresh)
            tuples_.push_back(t);
        return it->second << 1;
    };
    auto toFloat = [](std::uint64_t bits) {
        return static_cast<float>(std::bit_cast<double>(bits));
    };
    const std::uint32_t zero = intern({0, 0, 0, 0});
    std::vector<std::uint32_t> tupleOf(coefs_.size());
    for (std::size_t i = 0; i < coefs_.size(); i++) {
        const Coefs &c = coefs_[i];
        tupleOf[i] = intern(
            {toFloat(c[0]), toFloat(c[1]), toFloat(c[2]), toFloat(c[3])});
    }

    // Lay the in-edges out contiguously in *visit* order: the solve
    // loop then streams them front to back, and since sources are
    // stored as slots, its predecessor loads land on recently written,
    // still-cached distances. A node without in-edges gets one entry
    // from slot 0 at zero cost.
    std::vector<std::uint32_t> off(nodeCount_ + 1, 0); // by slot
    for (const Stored &e : edges_)
        off[slot[e.dst]]++;
    for (std::size_t k = 1; k <= nodeCount_; k++)
        off[k] = off[k - 1] + (off[k] > 0 ? off[k] : 1);
    // Node at slot k owns entries [off[k - 1], off[k]).
    stream_.assign(off[nodeCount_], {0, 0.0f, zero});
    std::vector<std::uint32_t> at(off.begin(), off.end() - 1);
    for (const Stored &e : edges_)
        stream_[at[slot[e.dst] - 1]++] = {
            e.src == kSource ? 0 : slot[e.src],
            static_cast<float>(e.fixed), tupleOf[e.coefs]};
    for (std::size_t k = 1; k <= nodeCount_; k++)
        stream_[off[k] - 1].coef |= kLast;
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
    sc.terms.resize(tuples_.size());
    for (std::size_t i = 0; i < tuples_.size(); i++) {
        const Tuple &t = tuples_[i];
        sc.terms[i] = {t.l * pL, t.o * pO, t.g * pG, t.gb * pGb};
    }
    sc.dist.resize(nodeCount_ + 1);
    double *dist = sc.dist.data();
    int *pred = nullptr;
    if constexpr (kDual) {
        sc.pred.resize(nodeCount_ + 1);
        pred = sc.pred.data();
        pred[0] = -1;
    }
    const Tuple *terms = sc.terms.data();
    dist[0] = 0.0;

    // Every node starts no earlier than time zero, so every distance
    // is at least +0 and so is the makespan. Ties keep the first node
    // to reach it: slot 1 when every distance is zero.
    double makespan = 0.0;
    sc.argmax = 1;
    double best = 0.0;
    int binding = -1;
    std::size_t k = 1;
    const InEdge *stream = stream_.data();
    const std::size_t m = stream_.size();
    for (std::size_t s = 0; s < m; s++) {
        const InEdge &e = stream[s];
        const double d = dist[e.src] + weight(e, terms);
        if (d > best) {
            best = d;
            if constexpr (kDual)
                binding = static_cast<int>(s);
        }
        if (e.coef & kLast) {
            dist[k] = best;
            if (best > makespan) {
                makespan = best;
                if constexpr (kDual)
                    sc.argmax = k;
            }
            if constexpr (kDual) {
                pred[k] = binding;
                binding = -1;
            }
            best = 0.0;
            k++;
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

    // Walk the binding path back to the source, summing coefficients.
    // A clamped edge (its weight hit the zero floor) contributes no
    // slope: its weight is locally constant in every parameter.
    for (int s = sc.pred[sc.argmax]; s >= 0;) {
        const InEdge &e = stream_[static_cast<std::size_t>(s)];
        if (weight(e, sc.terms.data()) > 0) {
            const Tuple &t = tuples_[e.coef >> 1];
            sol.gradient.fixed += e.fixed;
            sol.gradient.perL += t.l;
            sol.gradient.perO += t.o;
            sol.gradient.perG += t.g;
            sol.gradient.perGb += t.gb;
        }
        sol.pathEdges++;
        s = sc.pred[e.src];
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
