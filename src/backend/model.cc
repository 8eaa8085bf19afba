/**
 * @file
 * Lowering a span trace into the LogGP sweep LP.
 */

#include "backend/model.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/table.hh"

namespace nowcluster::backend {

namespace {

/** fatTreeRefusal's reason. */
constexpr const char *kFatTreeRefusal =
    "fat-tree contention is lowered as fixed edge time, so only the "
    "traced L/o/g/G is served";

/** "No span" / "no message" in lower()'s 32-bit index arrays. */
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/** Items grouped by node id: bucket k holds the items of node[k], and
 *  node ids ascend. */
struct Buckets
{
    std::vector<std::uint32_t> items;
    std::vector<std::uint32_t> first; ///< Bucket k: [first[k], first[k + 1]).
    std::vector<NodeId> node;

    std::pair<std::uint32_t, std::uint32_t>
    range(std::size_t k) const
    {
        return {first[k], first[k + 1]};
    }
};

/**
 * Group `items` by `nodeOf(item)`, keeping their given order within a
 * node: a radix sort of the ids, least significant byte first, that
 * skips every byte all ids share (one counting pass for up to 256
 * nodes). No id indexes an array: a NOWOBS01 file may carry any id.
 */
template <typename NodeOf>
Buckets
bucketByNode(std::vector<std::uint32_t> items, NodeOf nodeOf)
{
    // (id with its sign bit flipped) << 32 | item: unsigned order of
    // the high word is id order.
    constexpr std::uint32_t kFlip = 0x80000000u;
    std::vector<std::uint64_t> keyed(items.size());
    std::array<std::array<std::size_t, 256>, 4> count{};
    for (std::size_t k = 0; k < items.size(); k++) {
        const std::uint32_t key =
            static_cast<std::uint32_t>(nodeOf(items[k])) ^ kFlip;
        keyed[k] = std::uint64_t{key} << 32 | items[k];
        for (int d = 0; d < 4; d++)
            count[d][key >> (8 * d) & 0xff]++;
    }
    std::vector<std::uint64_t> sorted(keyed.size());
    for (int d = 0; d < 4; d++) {
        std::array<std::size_t, 256> &c = count[d];
        if (std::find(c.begin(), c.end(), keyed.size()) != c.end())
            continue; // every id shares this byte
        std::size_t next = 0;
        for (std::size_t &n : c)
            next += std::exchange(n, next);
        for (std::uint64_t v : keyed)
            sorted[c[v >> (32 + 8 * d) & 0xff]++] = v;
        keyed.swap(sorted);
    }

    Buckets b;
    b.items = std::move(items);
    for (std::size_t k = 0; k < keyed.size(); k++) {
        b.items[k] = static_cast<std::uint32_t>(keyed[k]);
        const auto node =
            static_cast<NodeId>(static_cast<std::uint32_t>(keyed[k] >> 32) ^
                                kFlip);
        if (k == 0 || node != b.node.back()) {
            b.first.push_back(static_cast<std::uint32_t>(k));
            b.node.push_back(node);
        }
    }
    b.first.push_back(static_cast<std::uint32_t>(keyed.size()));
    return b;
}

/** Put bucket k in `less` order, sorting only where the recording left
 *  it unsorted. */
template <typename Less>
void
sortBucket(Buckets &b, std::size_t k, Less less)
{
    const auto lo = b.items.begin() + b.first[k];
    const auto hi = b.items.begin() + b.first[k + 1];
    if (!std::is_sorted(lo, hi, less))
        std::sort(lo, hi, less);
}

} // namespace

std::string
fatTreeRefusal(const LogGPParams &traced, const LogGPParams &target)
{
    const LpParams a = AnalyticModel::pointOf(traced);
    const LpParams b = AnalyticModel::pointOf(target);
    if (!traced.topo ||
        (a.L == b.L && a.o == b.o && a.g == b.g && a.Gb == b.Gb))
        return "";
    return kFatTreeRefusal;
}

LpParams
AnalyticModel::pointOf(const LogGPParams &p)
{
    LpParams lp;
    lp.L = static_cast<double>(p.totalLatency());
    lp.o = static_cast<double>(p.addedO);
    lp.g = static_cast<double>(p.gap);
    lp.Gb = p.gPerByte;
    return lp;
}

LinCost
AnalyticModel::spanCost(const Span &s) const
{
    LinCost c;
    const double dur = static_cast<double>(s.end - s.begin);
    switch (s.cat) {
      case SpanCat::OSend:
      case SpanCat::ORecv:
        // Each overhead phase contains exactly one addedO; the rest
        // (the hardware oSend/oRecv) is fixed.
        c.fixed = dur - static_cast<double>(base_.addedO);
        c.perO = 1;
        break;
      case SpanCat::GapStall:
        // Back-pressure stalls scale with the injection gap.
        if (base_.gap > 0)
            c.perG = dur / static_cast<double>(base_.gap);
        else
            c.fixed = dur;
        break;
      case SpanCat::GStall:
        // Bulk DMA time scales with G.
        if (base_.gPerByte > 0)
            c.perGb = dur / base_.gPerByte;
        else
            c.fixed = dur;
        break;
      default:
        c.fixed = dur;
        break;
    }
    return c;
}

bool
AnalyticModel::build(const SpanTracer &tracer, const LogGPParams &base,
                     Tick measuredRuntime)
{
    ok_ = false;
    base_ = base;
    residual_ = 0;
    stats_ = {};
    dag_ = LpDag();
    // lower()'s scratch arrays are freed before prepare() lays out the
    // solve form, the step that needs the most memory.
    if (!lower(tracer))
        return false;
    stats_.lpNodes = dag_.nodeCount();
    stats_.lpEdges = dag_.edgeCount();
    if (!dag_.prepare())
        return false;

    // Calibrate: the LP explains the dependency structure; whatever is
    // left (untraced waits) is constant slack charged at every point.
    std::optional<double> atBase = dag_.makespan(pointOf(base_));
    if (!atBase)
        return false;
    residual_ = static_cast<double>(measuredRuntime) - *atBase;
    stats_.residual = residual_;
    ok_ = true;
    return true;
}

bool
AnalyticModel::lower(const SpanTracer &tracer)
{
    const std::vector<Span> &spans = tracer.spans();
    const std::vector<ObsMessage> &msgs = tracer.messages();
    // Span and message indices are stored in 32 bits; kNone is free.
    if (spans.size() >= kNone || msgs.size() >= kNone)
        return false;

    // The leaf CPU spans, per node in ascending node id, each node's
    // in timeline order. A span's *position* is its place in this
    // concatenation; per-span state below is indexed by position.
    Buckets timeline;
    {
        std::vector<std::uint32_t> leaves;
        for (std::size_t i = 0; i < spans.size(); i++) {
            const Span &s = spans[i];
            if (s.container || s.track != TrackKind::Cpu)
                continue;
            if (s.end <= s.begin)
                continue; // instant Retransmit markers
            leaves.push_back(static_cast<std::uint32_t>(i));
        }
        if (leaves.empty())
            return false;
        timeline = bucketByNode(std::move(leaves), [&](std::uint32_t i) {
            return spans[i].node;
        });
    }
    const std::vector<std::uint32_t> &at = timeline.items;
    const std::size_t nodes = timeline.node.size();
    for (std::size_t k = 0; k < nodes; k++) {
        sortBucket(timeline, k, [&](std::uint32_t a, std::uint32_t b) {
            const Span &x = spans[a], &y = spans[b];
            if (x.begin != y.begin)
                return x.begin < y.begin;
            if (x.end != y.end)
                return x.end < y.end;
            return a < b;
        });
    }
    stats_.cpuSpans = at.size();

    // One map turns a message id into the first message carrying it;
    // spans (and repeated records) reach their message through it.
    std::unordered_map<std::uint64_t, std::uint32_t> byId;
    byId.reserve(msgs.size());
    std::vector<std::uint32_t> idOf(msgs.size());
    for (std::size_t mi = 0; mi < msgs.size(); mi++)
        idOf[mi] = byId.try_emplace(msgs[mi].id,
                                    static_cast<std::uint32_t>(mi))
                       .first->second;

    // Per id: the first OSend leaf tagged with it and the earliest
    // ORecv leaf, plus that receive's predecessor-end on its own
    // timeline -- the test for whether an arrival was *binding* (the
    // CPU was waiting on the wire) or the message merely sat in the
    // receive queue while the CPU did other work. Along the way, the
    // least span end from each position to the end of its timeline:
    // it never falls along a timeline, so the last span to end by a
    // time is one binary search away.
    std::vector<std::uint32_t> sendAt(msgs.size(), kNone);
    std::vector<std::uint32_t> recvAt(msgs.size(), kNone);
    std::vector<Tick> recvPrevEnd(msgs.size(), 0);
    std::vector<Tick> minEndFrom(at.size());
    for (std::size_t k = 0; k < nodes; k++) {
        const auto [lo, hi] = timeline.range(k);
        Tick minEnd = std::numeric_limits<Tick>::max();
        for (std::uint32_t p = hi; p-- > lo;) {
            minEnd = std::min(minEnd, spans[at[p]].end);
            minEndFrom[p] = minEnd;
        }
        for (std::uint32_t p = lo; p < hi; p++) {
            const Span &s = spans[at[p]];
            if (s.msg == 0 ||
                (s.cat != SpanCat::OSend && s.cat != SpanCat::ORecv))
                continue;
            auto it = byId.find(s.msg);
            if (it == byId.end())
                continue;
            const std::uint32_t id = it->second;
            if (s.cat == SpanCat::OSend) {
                if (sendAt[id] == kNone)
                    sendAt[id] = p;
            } else if (recvAt[id] == kNone ||
                       s.begin < spans[at[recvAt[id]]].begin) {
                recvAt[id] = p;
                recvPrevEnd[id] = p > lo ? spans[at[p - 1]].end : 0;
            }
        }
    }

    // Only spans that cross-node edges attach to need their own LP
    // event: send overheads (they gate an injection), *binding*
    // receive overheads (an arrival gates them), and the fallback
    // anchors of untraced protocol sends. Everything between two such
    // spans is private to its CPU, so the whole run coalesces into one
    // accumulated chain edge -- the solve cost per sweep point drops
    // with the graph, and the LP's feasible region is unchanged.
    std::vector<char> needNode(at.size(), 0);
    std::vector<std::uint32_t> anchorOf(msgs.size(), kNone);
    std::vector<char> bindingOf(msgs.size(), 0);
    for (std::size_t mi = 0; mi < msgs.size(); mi++) {
        const ObsMessage &m = msgs[mi];
        const std::uint32_t id = idOf[mi];
        if (sendAt[id] != kNone) {
            needNode[sendAt[id]] = 1;
        } else {
            // An untraced send anchors on its sender's last span
            // ending by `issued`.
            auto node = std::lower_bound(timeline.node.begin(),
                                         timeline.node.end(), m.src);
            if (node != timeline.node.end() && *node == m.src) {
                const auto [lo, hi] = timeline.range(
                    static_cast<std::size_t>(node - timeline.node.begin()));
                const auto first = minEndFrom.begin() + lo;
                const auto past = std::upper_bound(
                    first, minEndFrom.begin() + hi, m.issued);
                if (past != first) {
                    anchorOf[mi] = static_cast<std::uint32_t>(
                        past - 1 - minEndFrom.begin());
                    needNode[anchorOf[mi]] = 1;
                }
            }
        }
        if (recvAt[id] != kNone && m.ready >= recvPrevEnd[id]) {
            bindingOf[mi] = 1;
            needNode[recvAt[id]] = 1;
        }
    }

    // The edge list is sized once, at its bound: per timeline a chain
    // edge into each kept span plus one to the sink, and per message at
    // most a tx-chain edge, a host edge, and a wire or a join edge.
    dag_.reserve(static_cast<std::size_t>(
                     std::count(needNode.begin(), needNode.end(), 1)) +
                 nodes + 3 * msgs.size());

    // Program order, coalesced: chain the kept spans per node, folding
    // the cost of everything in between (compute, buffered handlers,
    // stalls -- they occupy the CPU regardless of handler order) into
    // the connecting edge.
    std::vector<int> lpOf(at.size(), -1);
    const int sink = dag_.addNode();
    for (std::size_t k = 0; k < nodes; k++) {
        const auto [lo, hi] = timeline.range(k);
        int prev = LpDag::kSource;
        LinCost acc;
        for (std::uint32_t p = lo; p < hi; p++) {
            const Span &s = spans[at[p]];
            if (needNode[p]) {
                lpOf[p] = dag_.addNode();
                if (prev != LpDag::kSource || acc.fixed > 0 ||
                    acc.perO > 0 || acc.perG > 0 || acc.perGb > 0)
                    dag_.addEdge(prev, lpOf[p], acc);
                prev = lpOf[p];
                acc = spanCost(s);
            } else {
                acc += spanCost(s);
            }
        }
        dag_.addEdge(prev, sink, acc);
    }

    // The NIC transmit pipeline: one LP event per message injection,
    // chained per sender in inject order. The chain edge *is* LogGP's
    // g -- the tx context is occupied for one gap per short message
    // (plus size*G while a bulk fragment drains) -- so a gap sweep
    // re-times the model even though the base trace, recorded below
    // the saturation point, shows almost no host back-pressure. The
    // simulator enforces exactly this constraint, so at the base
    // operating point the chain is satisfied by the recorded
    // timestamps and never distorts the calibrated makespan.
    std::vector<int> injNode(msgs.size(), -1);
    Buckets bySrc;
    {
        std::vector<std::uint32_t> all(msgs.size());
        std::iota(all.begin(), all.end(), 0u);
        bySrc = bucketByNode(std::move(all), [&](std::uint32_t i) {
            return msgs[i].src;
        });
    }
    const std::vector<std::uint32_t> &order = bySrc.items;
    for (std::size_t k = 0; k < bySrc.node.size(); k++) {
        sortBucket(bySrc, k, [&](std::uint32_t a, std::uint32_t b) {
            const ObsMessage &x = msgs[a], &y = msgs[b];
            if (x.inject != y.inject)
                return x.inject < y.inject;
            if (x.id != y.id)
                return x.id < y.id;
            return a < b;
        });
        const auto [lo, hi] = bySrc.range(k);
        for (std::uint32_t q = lo; q < hi; q++) {
            injNode[order[q]] = dag_.addNode();
            if (q == lo)
                continue;
            const ObsMessage &prev = msgs[order[q - 1]];
            LinCost occ;
            occ.perG = 1;
            if (base_.gPerByte > 0)
                occ.perGb =
                    static_cast<double>(prev.wire - prev.inject) /
                    base_.gPerByte;
            dag_.addEdge(injNode[order[q - 1]], injNode[order[q]], occ);
        }
    }

    // The wire: bulk serialization (scales with G) and one wire
    // crossing (perL = 1, with any extra contention delay beyond L kept
    // as fixed time).
    auto flightOf = [&](const ObsMessage &m) {
        LinCost flight;
        const double serial = static_cast<double>(m.wire - m.inject);
        if (base_.gPerByte > 0)
            flight.perGb = serial / base_.gPerByte;
        else
            flight.fixed += serial;
        flight.perL = 1;
        flight.fixed += static_cast<double>(m.ready - m.wire) -
                        static_cast<double>(base_.totalLatency());
        return flight;
    };

    // Cross-node edges: host issue -> injection -> arrival. An arrival
    // that is not binding constrains only the completion join, whose
    // edges the pass below adds.
    for (std::size_t mi = 0; mi < msgs.size(); mi++) {
        const ObsMessage &m = msgs[mi];
        const std::uint32_t id = idOf[mi];

        // The host side: the injection cannot happen before the send
        // overhead that issued the descriptor completes. Untraced
        // protocol messages anchor on the sender's last span ending by
        // `issued`, or virtual time zero.
        if (sendAt[id] != kNone) {
            dag_.addEdge(lpOf[sendAt[id]], injNode[mi],
                         spanCost(spans[at[sendAt[id]]]));
        } else if (anchorOf[mi] != kNone) {
            const Span &a = spans[at[anchorOf[mi]]];
            LinCost c = spanCost(a);
            c.fixed += static_cast<double>(m.issued - a.end);
            dag_.addEdge(lpOf[anchorOf[mi]], injNode[mi], c);
        } else {
            LinCost c;
            c.fixed = static_cast<double>(m.issued);
            dag_.addEdge(LpDag::kSource, injNode[mi], c);
        }

        if (recvAt[id] == kNone) {
            // Bulk intermediate fragments bypass the receive queue by
            // design; only the closing fragment is handled. They still
            // occupy the tx chain above, and the transfer must finish
            // before the run can.
            stats_.messagesUnlinked++;
            continue;
        }

        // Where the arrival constrains the schedule depends on whether
        // the receiver was actually waiting for it. A *binding* recv
        // (presence bit set at or after the previous local span ended
        // -- a read reply, a barrier notification) gates the receive
        // overhead span itself: everything after it on that CPU slides
        // with the wire. A *buffered* recv (the message sat in the rx
        // queue while the CPU worked) imposes no mid-schedule order --
        // the simulator is free to reorder handler execution against
        // independent work -- but the data still has to arrive and be
        // handled before the run can complete, so it constrains the
        // completion join instead. This split is what makes write-
        // based apps latency-tolerant in the model exactly as they are
        // in the paper: their arrival edges only matter once L grows
        // past the compute they overlap with.
        if (bindingOf[mi])
            dag_.addEdge(injNode[mi], lpOf[recvAt[id]], flightOf(m));
        stats_.messagesLinked++;
    }

    // Completion joins, pruned by domination. Per sender the tx chain
    // is monotone, so a buffered arrival whose sink cost is, in every
    // coefficient, no more than [chain to the next kept arrival] +
    // [its sink cost] can never be the longest path at any operating
    // point (coefficients and parameters are nonnegative, and clamping
    // only raises the surviving path). One join per "frontier" arrival
    // survives instead of one per message.
    auto dominated = [](const LinCost &a, const LinCost &b) {
        return a.fixed <= b.fixed && a.perL <= b.perL &&
               a.perO <= b.perO && a.perG <= b.perG &&
               a.perGb <= b.perGb;
    };
    for (std::size_t k = 0; k < bySrc.node.size(); k++) {
        const auto [lo, hi] = bySrc.range(k);
        LinCost toKept;
        bool haveKept = false;
        for (std::uint32_t q = hi; q-- > lo;) {
            const std::uint32_t mi = order[q];
            if (!bindingOf[mi]) {
                // Its flight, plus its receive span when the arrival was
                // buffered: the handler still runs post-arrival.
                LinCost cost = flightOf(msgs[mi]);
                if (const std::uint32_t recv = recvAt[idOf[mi]]; recv != kNone)
                    cost += spanCost(spans[at[recv]]);
                if (haveKept && dominated(cost, toKept)) {
                    // Dropped: the chain successor's join covers it.
                } else {
                    dag_.addEdge(injNode[mi], sink, cost);
                    toKept = cost;
                    haveKept = true;
                }
            }
            if (q > lo && haveKept) {
                const ObsMessage &prev = msgs[order[q - 1]];
                toKept.perG += 1;
                if (base_.gPerByte > 0)
                    toKept.perGb +=
                        static_cast<double>(prev.wire - prev.inject) /
                        base_.gPerByte;
            }
        }
    }
    return true;
}

double
AnalyticModel::calibrated(double makespan) const
{
    const double t = makespan + residual_;
    return t < 0 ? 0 : t;
}

AnalyticPrediction
AnalyticModel::predict(const LogGPParams &target) const
{
    AnalyticPrediction p;
    if (!ok_)
        return p;
    LpSolution sol = dag_.solve(pointOf(target));
    if (!sol.ok)
        return p;
    p.ok = true;
    p.runtime = calibrated(sol.makespan);
    p.path = sol.gradient;
    p.pathEdges = sol.pathEdges;
    return p;
}

AnalyticSlopes
AnalyticModel::slopes(const LogGPParams &at, unsigned knobs) const
{
    AnalyticSlopes s;
    if (!ok_ || base_.topo)
        return s;
    const LpParams point = pointOf(at);
    auto up = [&](double LpParams::*knob, double step) {
        LpParams p = point;
        p.*knob += step;
        return dag_.solve(p).gradient;
    };
    if (knobs & kSlopeL)
        s.dTdL = up(&LpParams::L, 1).perL;
    if (knobs & kSlopeO)
        s.dTdO = up(&LpParams::o, 1).perO;
    if (knobs & kSlopeG)
        s.dTdG = up(&LpParams::g, 1).perG;
    if (knobs & kSlopeGb)
        s.dTdGb = up(&LpParams::Gb, 1e-3).perGb; // one tick per kilobyte
    s.ok = true;
    return s;
}

std::string
AnalyticModel::report(const LogGPParams &at,
                      const std::string &noSlopes) const
{
    const AnalyticPrediction p = predict(at);
    if (!p.ok)
        return "critical path: the trace did not lower to an LP\n";
    const LpParams x = pointOf(at);
    Table t;
    t.row().cell("term").cell("coefficient").cell("knob").cell("ms");
    auto sum = [&](const char *name, double ticks) {
        t.row().cell(name).cell("").cell("").cell(ticks / kMsec, 6);
    };
    // `value` is the knob in ticks, `per` ticks to one printed `unit`.
    auto term = [&](const char *name, double coef, double value,
                    double per, const char *unit) {
        t.row()
            .cell(name)
            .cell(coef, 1)
            .cell(fmtDouble(value / per, 3) + unit)
            .cell(coef * value / kMsec, 6);
    };
    sum("fixed", p.path.fixed);
    term("perL*L", p.path.perL, x.L, kUsec, " us");
    term("perO*o", p.path.perO, x.o, kUsec, " us added");
    term("perG*g", p.path.perG, x.g, kUsec, " us");
    term("perGb*G", p.path.perGb, x.Gb, 1, " ns/byte");
    sum("residual", residual_);
    sum("runtime", p.runtime);
    std::string out = "critical path: the LP's binding path, " +
                      std::to_string(p.pathEdges) + " edges\n" + t.str();
    const std::string why =
        !noSlopes.empty() ? noSlopes : base_.topo ? kFatTreeRefusal : "";
    if (!why.empty())
        return out + "slopes: withheld: " + why + "\n";
    const AnalyticSlopes s = slopes(at);
    return out + "slopes, one tick up each knob: dT/dL " +
           fmtDouble(s.dTdL, 1) + ", dT/do " + fmtDouble(s.dTdO, 1) +
           ", dT/dg " + fmtDouble(s.dTdG, 1) + " (us per us), dT/dG " +
           fmtDouble(s.dTdGb, 1) + " (ns per ns/byte)\n";
}

std::optional<double>
AnalyticModel::runtime(const LogGPParams &target) const
{
    if (!ok_)
        return std::nullopt;
    std::optional<double> m = dag_.makespan(pointOf(target));
    if (!m)
        return std::nullopt;
    return calibrated(*m);
}

} // namespace nowcluster::backend
