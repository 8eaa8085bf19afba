/**
 * @file
 * A small linear-program solver for LogGP sweep evaluation.
 *
 * The message-dependency graph of one traced run is a DAG whose edge
 * weights are *linear functions* of the four LogGP parameters: an edge
 * costs `fixed + perL*L + perO*o + perG*g + perGb*G`. The LP over
 * per-event start times ("every event starts no earlier than each
 * predecessor's start plus the connecting edge's cost, minimize the
 * makespan") therefore needs no external solver: its optimum is the
 * weighted longest path from source to sink, computable in one
 * topological pass, and the dual solution -- how much the makespan
 * moves per unit of each parameter -- is the sum of the binding path's
 * edge coefficients. That sum is exactly the paper's intuition made
 * precise: dT/dL is the number of wire crossings on the critical path,
 * dT/do the number of overhead phases on it, and so on.
 *
 * Built once per traced run (src/backend/model.hh), solved once per
 * sweep point: every (L, o, g, G) evaluation is O(V + E) over the
 * prepared graph -- milliseconds where a simulation costs seconds.
 * A sweep that needs only runtimes asks for makespan(), which skips
 * the dual.
 */

#ifndef NOWCLUSTER_BACKEND_LP_HH_
#define NOWCLUSTER_BACKEND_LP_HH_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace nowcluster::backend {

/** One LogGP operating point, in the solver's native units (ticks for
 *  L/o/g, ticks-per-byte for G). */
struct LpParams
{
    double L = 0;  ///< Total one-way latency.
    double o = 0;  ///< Added per-side overhead (the knob's addedO).
    double g = 0;  ///< Injection gap.
    double Gb = 0; ///< Bulk gap per byte.
};

/** An edge weight that is linear in the LogGP parameters. The solver
 *  evaluates it (LpDag::prepare describes how, and how exactly). */
struct LinCost
{
    double fixed = 0; ///< Parameter-independent part (ticks).
    double perL = 0;  ///< Wire crossings: coefficient of L.
    double perO = 0;  ///< Overhead phases: coefficient of added o.
    double perG = 0;  ///< Gap stalls: coefficient of g.
    double perGb = 0; ///< Bulk bytes serialized: coefficient of G.

    LinCost &
    operator+=(const LinCost &c)
    {
        fixed += c.fixed;
        perL += c.perL;
        perO += c.perO;
        perG += c.perG;
        perGb += c.perGb;
        return *this;
    }
};

/** The solved LP: the makespan and its parameter sensitivities. */
struct LpSolution
{
    bool ok = false;
    double makespan = 0;
    /** Coefficient sums along the binding (critical) path: the dual.
     *  gradient.perL is dT/dL, gradient.perO is dT/do, and so on;
     *  gradient.fixed is the path's parameter-independent time. Where
     *  paths tie, the binding one is the first strict maximum, walked
     *  back from the first slot at the makespan in the one-at-a-time
     *  order (see prepare()); its coefficients are one slope among
     *  several, so AnalyticModel::slopes solves one tick up each knob
     *  instead. */
    LinCost gradient;
    /** Edges on the critical path. */
    std::size_t pathEdges = 0;
};

/**
 * The dependency DAG. Nodes are events (span starts plus one sink);
 * edges carry LinCost weights. addEdge accepts kSource as a source to
 * anchor an event to virtual time zero. prepare() topologically orders
 * the graph once; solve() and makespan() then evaluate any operating
 * point without touching the structure, so they are const and safe to
 * call from many threads concurrently.
 *
 * An edge is kept as added in 12 bytes: its endpoints and the index of
 * its whole LinCost in a table of the DAG's distinct costs, which
 * addEdge interns by bit pattern (a traced model has a few hundred to
 * a few thousand), so edges() rebuilds every LinCost exactly.
 */
class LpDag
{
  public:
    static constexpr int kSource = -1;

    /** One constraint as added: start(dst) >= start(src) + cost. */
    struct Edge
    {
        int src;
        int dst;
        LinCost cost;
    };

    /** Add an event; returns its id (dense, starting at 0). */
    int addNode();

    /** Constrain start(dst) >= start(src) + cost(params). */
    void addEdge(int src, int dst, const LinCost &cost);

    /** Make room for `edges` edges in all, so that a caller that knows
     *  its bound adds them without regrowing the list. */
    void reserve(std::size_t edges) { edges_.reserve(edges); }

    /**
     * Topologically order the graph and lay it out for solving. Must
     * be called (once) before solve(); returns false if the edges form
     * a cycle, which a well-formed trace cannot produce (timestamps
     * only move forward) but a corrupt binary trace could.
     *
     * The solve form is one 16-byte slot per node, each holding two
     * in-edges: per entry, the source's distance slot and the index of
     * its cost. Slot 0, always zero, stands in for kSource. Every node
     * of a traced model but the sink has at most two in-edges; a node
     * with fewer pads its free entries with (slot 0, cost 0), and a
     * node with d > 2 takes d - 1 consecutive slots, each folding one
     * more in-edge, in added order, into the partial maximum of the
     * slot before it through a link entry of cost 0. Cost 0 is the zero
     * cost reserved for pads and links: no edge carries it, so the dual
     * walk knows a link by it.
     *
     * Slot order: Kahn's, off a stack, taking up to eight ready nodes
     * at a time and laying them out side by side before any of their
     * successors, so that a slot seldom reads the slot just before it
     * and a solve's loads do not wait on one another. Each slot also
     * keeps its rank in the one-at-a-time order (one ready node off
     * the stack at a time), which breaks the dual's ties.
     *
     * Exactness: an edge weighs ((((fixed + perL*L) + perO*o) +
     * perG*g) + perGb*G), computed in float in that order and clamped
     * at +0; distances accumulate in double, and a node's binding
     * in-edge is its first strict maximum. Each solve evaluates every
     * distinct cost once that way into a table of doubles, then takes
     * per slot max(dA, dB) of its two entries' distances, and the
     * makespan as the maximum over slots, which no order of the slots
     * can move. The dual walks back from the slot at the makespan of
     * smallest rank: the first to reach it in the one-at-a-time order,
     * whatever the layout. Floats are plenty: coefficients are
     * O(path-count) values whose rounding error is parts-per-ten-million
     * of the makespan, and the residual calibration in the model layer
     * absorbs it exactly at the base point.
     */
    bool prepare();

    /** Longest source-to-anywhere path at one operating point. The
     *  makespan is the largest completion time over all nodes; the
     *  gradient follows the binding path back to the source. */
    LpSolution solve(const LpParams &params) const;

    /** solve()'s makespan alone, bit for bit, without recording the
     *  binding edges or walking the path; nullopt until prepared. */
    std::optional<double> makespan(const LpParams &params) const;

    std::size_t nodeCount() const { return nodeCount_; }
    std::size_t edgeCount() const { return edges_.size(); }
    /** The edges in the order they were added, every cost bit for bit
     *  as added. Rebuilt on each call. */
    std::vector<Edge> edges() const;

  private:
    /** One edge as added, its cost interned in costs_. */
    struct Stored
    {
        int src;
        int dst;
        std::uint32_t cost; ///< costs_ index, never 0.
    };
    static_assert(sizeof(Stored) == 12);
    /** Two in-edges of one node (see prepare). */
    struct Slot
    {
        std::uint32_t srcA, srcB;   ///< Source distance slots.
        std::uint32_t costA, costB; ///< costs_ indices.
    };
    static_assert(sizeof(Slot) == 16);
    struct Scratch;

    static Scratch &scratch();
    /** costs_'s index of `cost`, added if new. */
    std::uint32_t intern(const LinCost &cost);

    /** The longest-path pass shared by solve() and makespan(): fills
     *  the thread's scratch and returns the makespan. kDual also
     *  records each slot's binding entry and the slot at the makespan
     *  to walk back from. */
    template <bool kDual>
    double propagate(const LpParams &params, Scratch &sc) const;

    std::size_t nodeCount_ = 0;
    std::vector<Stored> edges_;
    /** Distinct exact costs, first added first after the reserved
     *  zero cost at index 0. */
    std::vector<LinCost> costs_{LinCost{}};
    /** Open-addressed index over costs_ by bit pattern: a costs_
     *  index per bucket, 0 for an empty one. */
    std::vector<std::uint32_t> costIndex_;
    std::vector<Slot> slots_; ///< Filled by prepare; slot k at k - 1.
    /** Per slot (k at k - 1), its number in the one-at-a-time order:
     *  the dual's tie rank. */
    std::vector<std::uint32_t> rank_;
    bool prepared_ = false;
};

} // namespace nowcluster::backend

#endif // NOWCLUSTER_BACKEND_LP_HH_
