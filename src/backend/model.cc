/**
 * @file
 * Lowering a span trace into the LogGP sweep LP.
 */

#include "backend/model.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <tuple>
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

/** Items 0..n-1 grouped by node id: bucket k holds the items of
 *  node[k] at positions [first[k], first[k + 1]), node ids ascend, and
 *  a bucket keeps its items in their given order. */
struct Buckets
{
    std::vector<std::uint32_t> first;
    std::vector<NodeId> node;
    std::vector<std::uint32_t> pos; ///< Item j's position.

    std::pair<std::uint32_t, std::uint32_t>
    range(std::size_t k) const
    {
        return {first[k], first[k + 1]};
    }
};

/**
 * Group items 0..n-1 by their nodes, `nodeOf[j]` being item j's: a
 * radix sort of the ids, least significant byte first, that skips
 * every byte all ids share (one counting pass for up to 256 nodes). No
 * id indexes an array: a NOWOBS02 file may carry any id. The caller
 * lays its items out by `pos` in one pass in item order.
 */
Buckets
bucketByNode(std::vector<NodeId> nodeOf)
{
    // (id with its sign bit flipped) << 32 | item: unsigned order of
    // the high word is id order.
    constexpr std::uint32_t kFlip = 0x80000000u;
    std::vector<std::uint64_t> keyed(nodeOf.size());
    std::array<std::array<std::size_t, 256>, 4> count{};
    for (std::size_t j = 0; j < nodeOf.size(); j++) {
        const std::uint32_t key =
            static_cast<std::uint32_t>(nodeOf[j]) ^ kFlip;
        keyed[j] = std::uint64_t{key} << 32 | j;
        for (int d = 0; d < 4; d++)
            count[d][key >> (8 * d) & 0xff]++;
    }
    std::vector<NodeId>().swap(nodeOf);
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
    std::vector<std::uint64_t>().swap(sorted);

    Buckets b;
    b.pos.resize(keyed.size());
    for (std::size_t p = 0; p < keyed.size(); p++) {
        b.pos[static_cast<std::uint32_t>(keyed[p])] =
            static_cast<std::uint32_t>(p);
        const auto node =
            static_cast<NodeId>(static_cast<std::uint32_t>(keyed[p] >> 32) ^
                                kFlip);
        if (p == 0 || node != b.node.back()) {
            b.first.push_back(static_cast<std::uint32_t>(p));
            b.node.push_back(node);
        }
    }
    b.first.push_back(static_cast<std::uint32_t>(keyed.size()));
    return b;
}

/**
 * Message ids to the first message that carries each. A traced run's
 * ids are 1..n, so a table over the id range maps them directly. Ids
 * spread wider than twice the message count (a NOWOBS02 file may carry
 * any 64-bit id) are sorted instead, and searched.
 */
class FirstCarrier
{
  public:
    explicit FirstCarrier(const std::vector<ObsMessage> &msgs)
        : of(msgs.size())
    {
        if (msgs.empty())
            return;
        const auto [lo, hi] = std::minmax_element(
            msgs.begin(), msgs.end(),
            [](const ObsMessage &a, const ObsMessage &b) {
                return a.id < b.id;
            });
        lo_ = lo->id;
        if (hi->id - lo_ < 2 * msgs.size()) {
            direct_.assign(hi->id - lo_ + 1, kNone);
            for (std::size_t mi = 0; mi < msgs.size(); mi++) {
                std::uint32_t &d = direct_[msgs[mi].id - lo_];
                if (d == kNone)
                    d = static_cast<std::uint32_t>(mi);
                of[mi] = d;
            }
            return;
        }
        sorted_.reserve(msgs.size());
        for (std::size_t mi = 0; mi < msgs.size(); mi++)
            sorted_.push_back({msgs[mi].id, static_cast<std::uint32_t>(mi)});
        std::sort(sorted_.begin(), sorted_.end());
        sorted_.erase(std::unique(sorted_.begin(), sorted_.end(),
                                  [](const auto &a, const auto &b) {
                                      return a.first == b.first;
                                  }),
                      sorted_.end());
        for (std::size_t mi = 0; mi < msgs.size(); mi++)
            of[mi] = find(msgs[mi].id);
    }

    /** The first message carrying `id`, or kNone. */
    std::uint32_t
    find(std::uint64_t id) const
    {
        if (sorted_.empty()) {
            const std::uint64_t k = id - lo_; // wraps for an id below lo_
            return k < direct_.size() ? direct_[k] : kNone;
        }
        const auto it = std::lower_bound(
            sorted_.begin(), sorted_.end(), id,
            [](const auto &e, std::uint64_t v) { return e.first < v; });
        return it != sorted_.end() && it->first == id ? it->second : kNone;
    }

    /** Per message, the first message carrying its id. */
    std::vector<std::uint32_t> of;

  private:
    std::uint64_t lo_ = 0;
    std::vector<std::uint32_t> direct_; ///< Id lo_ + k at k.
    /** (id, first message), by id, when the table would be sparse. */
    std::vector<std::pair<std::uint64_t, std::uint32_t>> sorted_;
};

/** A leaf CPU span as the passes after the layout read it: its times,
 *  category, and the message it serves (the first carrier of its id)
 *  if it is a send or receive overhead, else kNone. */
struct Leaf
{
    Tick begin;
    Tick end;
    std::uint32_t msg;
    SpanCat cat;
};

/** The host edge of message `msg`, which has no send span: from the
 *  position of the span it anchors on, at that span's cost plus the
 *  wait to the message's issue. */
struct Anchor
{
    std::uint32_t msg;
    std::uint32_t at;
    LinCost cost;
};

/** One message on its sender's transmit chain: the chain's sort key
 *  (inject, id, message index), then what the chain and the
 *  completion joins read of it. */
struct Injection
{
    Tick inject;
    std::uint64_t id;
    std::uint32_t msg;
    bool binding;  ///< Its arrival gates its receive span.
    bool received; ///< It has a receive span.
    Tick serial;   ///< wire - inject: bulk serialization.
    Tick tail;     ///< ready - wire: the wire crossing.

    bool
    operator<(const Injection &o) const
    {
        return std::tie(inject, id, msg) < std::tie(o.inject, o.id, o.msg);
    }
};

/** The cost of a span of `cat` lasting `dur` ticks, recorded at `base`. */
LinCost
spanCost(const LogGPParams &base, SpanCat cat, Tick dur)
{
    LinCost c;
    const double d = static_cast<double>(dur);
    switch (cat) {
      case SpanCat::OSend:
      case SpanCat::ORecv:
        // Each overhead phase contains exactly one addedO; the rest
        // (the hardware oSend/oRecv) is fixed.
        c.fixed = d - static_cast<double>(base.addedO);
        c.perO = 1;
        break;
      case SpanCat::GapStall:
        // Back-pressure stalls scale with the injection gap.
        if (base.gap > 0)
            c.perG = d / static_cast<double>(base.gap);
        else
            c.fixed = d;
        break;
      case SpanCat::GStall:
        // Bulk DMA time scales with G.
        if (base.gPerByte > 0)
            c.perGb = d / base.gPerByte;
        else
            c.fixed = d;
        break;
      default:
        c.fixed = d;
        break;
    }
    return c;
}

LinCost
spanCost(const LogGPParams &base, const Leaf &s)
{
    return spanCost(base, s.cat, s.end - s.begin);
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
    // in timeline order (begin, end, span index). A span's *position*
    // is its place in this concatenation; per-span state below is
    // indexed by position. The trace is recorded in global time order,
    // so one pass in that order lays out, by position, what the later
    // passes read of each span, and they stream through it. A timeline
    // the recording left out of order is sorted and laid out again.
    // Every message's id, and every span's, resolves to the first
    // message carrying it; per-id state is indexed by that message.
    std::vector<std::uint32_t> idOf;
    Buckets timeline;
    std::vector<Leaf> leaf;
    {
        FirstCarrier carrier(msgs);
        idOf = std::move(carrier.of);
        auto isLeaf = [](const Span &s) {
            // Not a container, on the CPU, and not an instant
            // Retransmit marker.
            return !s.container && s.track == TrackKind::Cpu &&
                   s.end > s.begin;
        };
        std::vector<NodeId> nodeOf;
        for (const Span &s : spans)
            if (isLeaf(s))
                nodeOf.push_back(s.node);
        if (nodeOf.empty())
            return false;
        timeline = bucketByNode(std::move(nodeOf));

        leaf.resize(timeline.pos.size());
        std::vector<std::uint32_t> at(leaf.size()); // span index by position
        auto put = [&](std::uint32_t p, std::uint32_t i) {
            const Span &s = spans[i];
            const bool tagged =
                s.msg != 0 &&
                (s.cat == SpanCat::OSend || s.cat == SpanCat::ORecv);
            leaf[p] = {s.begin, s.end, tagged ? carrier.find(s.msg) : kNone,
                       s.cat};
            at[p] = i;
        };
        std::uint32_t j = 0;
        for (std::size_t i = 0; i < spans.size(); i++)
            if (isLeaf(spans[i]))
                put(timeline.pos[j++], static_cast<std::uint32_t>(i));
        std::vector<std::uint32_t>().swap(timeline.pos);
        auto later = [](const Leaf &x, const Leaf &y) {
            return std::tie(x.begin, x.end) < std::tie(y.begin, y.end);
        };
        for (std::size_t k = 0; k < timeline.node.size(); k++) {
            const auto [lo, hi] = timeline.range(k);
            if (std::is_sorted(leaf.begin() + lo, leaf.begin() + hi, later))
                continue;
            std::sort(at.begin() + lo, at.begin() + hi,
                      [&](std::uint32_t a, std::uint32_t b) {
                          const Span &x = spans[a], &y = spans[b];
                          return std::tie(x.begin, x.end, a) <
                                 std::tie(y.begin, y.end, b);
                      });
            for (std::uint32_t p = lo; p < hi; p++)
                put(p, at[p]);
        }
    }
    const std::size_t nodes = timeline.node.size();
    stats_.cpuSpans = leaf.size();

    // Per id: the first OSend leaf tagged with it and the earliest
    // ORecv leaf, plus that receive's predecessor-end on its own
    // timeline -- the test for whether an arrival was *binding* (the
    // CPU was waiting on the wire) or the message merely sat in the
    // receive queue while the CPU did other work. Along the way, the
    // least span end from each position to the end of its timeline:
    // it never falls along a timeline, so the last span to end by a
    // time is one binary search away. The spans' durations are kept
    // per id too, so that the passes in message order read them there.
    std::vector<std::uint32_t> sendAt(msgs.size(), kNone);
    std::vector<std::uint32_t> recvAt(msgs.size(), kNone);
    std::vector<Tick> sendDur(msgs.size(), 0);
    std::vector<Tick> recvDur(msgs.size(), 0);
    std::vector<Tick> recvPrevEnd(msgs.size(), 0);
    std::vector<Tick> minEndFrom(leaf.size());
    for (std::size_t k = 0; k < nodes; k++) {
        const auto [lo, hi] = timeline.range(k);
        Tick minEnd = std::numeric_limits<Tick>::max();
        for (std::uint32_t p = hi; p-- > lo;) {
            minEnd = std::min(minEnd, leaf[p].end);
            minEndFrom[p] = minEnd;
        }
        for (std::uint32_t p = lo; p < hi; p++) {
            const Leaf &s = leaf[p];
            const std::uint32_t id = s.msg;
            if (id == kNone)
                continue;
            if (s.cat == SpanCat::OSend) {
                if (sendAt[id] == kNone) {
                    sendAt[id] = p;
                    sendDur[id] = s.end - s.begin;
                }
            } else if (recvAt[id] == kNone ||
                       s.begin < leaf[recvAt[id]].begin) {
                recvAt[id] = p;
                recvDur[id] = s.end - s.begin;
                recvPrevEnd[id] = p > lo ? leaf[p - 1].end : 0;
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
    std::vector<char> needNode(leaf.size(), 0);
    std::vector<Anchor> anchors; // in message order
    std::vector<char> bindingOf(msgs.size(), 0);
    std::vector<NodeId> srcOf(msgs.size());
    for (std::size_t mi = 0; mi < msgs.size(); mi++) {
        const ObsMessage &m = msgs[mi];
        const std::uint32_t id = idOf[mi];
        srcOf[mi] = m.src;
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
                    const auto at = static_cast<std::uint32_t>(
                        past - 1 - minEndFrom.begin());
                    needNode[at] = 1;
                    LinCost c = spanCost(base_, leaf[at]);
                    c.fixed += static_cast<double>(m.issued - leaf[at].end);
                    anchors.push_back({static_cast<std::uint32_t>(mi), at, c});
                }
            }
        }
        if (recvAt[id] != kNone && m.ready >= recvPrevEnd[id]) {
            bindingOf[mi] = 1;
            needNode[recvAt[id]] = 1;
        }
    }
    std::vector<Tick>().swap(minEndFrom);
    std::vector<Tick>().swap(recvPrevEnd);

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
    std::vector<int> lpOf(leaf.size(), -1);
    const int sink = dag_.addNode();
    for (std::size_t k = 0; k < nodes; k++) {
        const auto [lo, hi] = timeline.range(k);
        int prev = LpDag::kSource;
        LinCost acc;
        for (std::uint32_t p = lo; p < hi; p++) {
            if (needNode[p]) {
                lpOf[p] = dag_.addNode();
                if (prev != LpDag::kSource || acc.fixed > 0 ||
                    acc.perO > 0 || acc.perG > 0 || acc.perGb > 0)
                    dag_.addEdge(prev, lpOf[p], acc);
                prev = lpOf[p];
                acc = spanCost(base_, leaf[p]);
            } else {
                acc += spanCost(base_, leaf[p]);
            }
        }
        dag_.addEdge(prev, sink, acc);
    }
    std::vector<char>().swap(needNode);
    std::vector<Leaf>().swap(leaf);

    // The NIC transmit pipeline: one LP event per message injection,
    // chained per sender in inject order. The chain edge *is* LogGP's
    // g -- the tx context is occupied for one gap per short message
    // (plus size*G while a bulk fragment drains) -- so a gap sweep
    // re-times the model even though the base trace, recorded below
    // the saturation point, shows almost no host back-pressure. The
    // simulator enforces exactly this constraint, so at the base
    // operating point the chain is satisfied by the recorded
    // timestamps and never distorts the calibrated makespan. One pass
    // in message order lays each sender's messages out in chain order,
    // and the sort, where the recording left a chain out of order,
    // compares those dense keys.
    std::vector<int> injNode(msgs.size(), -1);
    Buckets bySrc = bucketByNode(std::move(srcOf));
    std::vector<Injection> chain(msgs.size());
    for (std::size_t mi = 0; mi < msgs.size(); mi++) {
        const ObsMessage &m = msgs[mi];
        const std::uint32_t id = idOf[mi];
        chain[bySrc.pos[mi]] = {m.inject,
                                m.id,
                                static_cast<std::uint32_t>(mi),
                                bindingOf[mi] != 0,
                                recvAt[id] != kNone,
                                m.wire - m.inject,
                                m.ready - m.wire};
    }
    std::vector<std::uint32_t>().swap(bySrc.pos);
    // A bulk fragment occupies the tx context for its serialization.
    auto occupancy = [&](const Injection &prev) {
        LinCost occ;
        occ.perG = 1;
        if (base_.gPerByte > 0)
            occ.perGb = static_cast<double>(prev.serial) / base_.gPerByte;
        return occ;
    };
    for (std::size_t k = 0; k < bySrc.node.size(); k++) {
        const auto [lo, hi] = bySrc.range(k);
        if (!std::is_sorted(chain.begin() + lo, chain.begin() + hi))
            std::sort(chain.begin() + lo, chain.begin() + hi);
        for (std::uint32_t q = lo; q < hi; q++) {
            injNode[chain[q].msg] = dag_.addNode();
            if (q > lo)
                dag_.addEdge(injNode[chain[q - 1].msg],
                             injNode[chain[q].msg],
                             occupancy(chain[q - 1]));
        }
    }

    // The wire: bulk serialization (scales with G) and one wire
    // crossing (perL = 1, with any extra contention delay beyond L kept
    // as fixed time).
    auto flightOf = [&](Tick serial, Tick tail) {
        LinCost flight;
        if (base_.gPerByte > 0)
            flight.perGb = static_cast<double>(serial) / base_.gPerByte;
        else
            flight.fixed += static_cast<double>(serial);
        flight.perL = 1;
        flight.fixed += static_cast<double>(tail) -
                        static_cast<double>(base_.totalLatency());
        return flight;
    };

    // Cross-node edges: host issue -> injection -> arrival. An arrival
    // that is not binding constrains only the completion join, whose
    // edges the pass below adds.
    auto anchor = anchors.begin();
    for (std::size_t mi = 0; mi < msgs.size(); mi++) {
        const ObsMessage &m = msgs[mi];
        const std::uint32_t id = idOf[mi];

        // The host side: the injection cannot happen before the send
        // overhead that issued the descriptor completes. Untraced
        // protocol messages anchor on the sender's last span ending by
        // `issued`, or virtual time zero.
        if (sendAt[id] != kNone) {
            dag_.addEdge(lpOf[sendAt[id]], injNode[mi],
                         spanCost(base_, SpanCat::OSend, sendDur[id]));
        } else if (anchor != anchors.end() && anchor->msg == mi) {
            dag_.addEdge(lpOf[anchor->at], injNode[mi], anchor->cost);
            ++anchor;
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
            dag_.addEdge(injNode[mi], lpOf[recvAt[id]],
                         flightOf(m.wire - m.inject, m.ready - m.wire));
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
            const Injection &x = chain[q];
            if (!x.binding) {
                // Its flight, plus its receive span when the arrival was
                // buffered: the handler still runs post-arrival.
                LinCost cost = flightOf(x.serial, x.tail);
                if (x.received)
                    cost += spanCost(base_, SpanCat::ORecv,
                                     recvDur[idOf[x.msg]]);
                if (haveKept && dominated(cost, toKept)) {
                    // Dropped: the chain successor's join covers it.
                } else {
                    dag_.addEdge(injNode[x.msg], sink, cost);
                    toKept = cost;
                    haveKept = true;
                }
            }
            if (q > lo && haveKept) {
                toKept.perG += 1;
                if (base_.gPerByte > 0)
                    toKept.perGb += static_cast<double>(chain[q - 1].serial) /
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
