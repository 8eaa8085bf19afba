/**
 * @file
 * Lowering a span trace into the LogGP sweep LP.
 */

#include "backend/model.hh"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "base/table.hh"

namespace nowcluster::backend {

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

    // Collect the leaf CPU spans, grouped per node in timeline order.
    const std::vector<Span> &spans = tracer.spans();
    std::unordered_map<NodeId, std::vector<std::size_t>> timeline;
    for (std::size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        if (s.container || s.track != TrackKind::Cpu)
            continue;
        if (s.end <= s.begin)
            continue; // instant Retransmit markers
        timeline[s.node].push_back(i);
    }
    if (timeline.empty())
        return false;
    for (auto &[node, idxs] : timeline) {
        std::sort(idxs.begin(), idxs.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (spans[a].begin != spans[b].begin)
                          return spans[a].begin < spans[b].begin;
                      return spans[a].end < spans[b].end;
                  });
        stats_.cpuSpans += idxs.size();
    }

    // Message spans: the first OSend / ORecv leaf tagged with each id,
    // plus each span's predecessor-end on its own timeline -- the test
    // for whether an arrival was *binding* (the CPU was waiting on the
    // wire) or the message merely sat in the receive queue while the
    // CPU did other work.
    std::unordered_map<std::uint64_t, std::size_t> sendSpan, recvSpan;
    std::unordered_map<std::size_t, Tick> prevEnd;
    for (auto &[node, idxs] : timeline) {
        for (std::size_t k = 0; k < idxs.size(); k++) {
            const std::size_t i = idxs[k];
            const Span &s = spans[i];
            prevEnd[i] = k > 0 ? spans[idxs[k - 1]].end : 0;
            if (s.msg == 0)
                continue;
            if (s.cat == SpanCat::OSend)
                sendSpan.emplace(s.msg, i);
            else if (s.cat == SpanCat::ORecv) {
                auto [it, fresh] = recvSpan.emplace(s.msg, i);
                if (!fresh && s.begin < spans[it->second].begin)
                    it->second = i;
            }
        }
    }

    const std::vector<ObsMessage> &msgs = tracer.messages();

    // Only spans that cross-node edges attach to need their own LP
    // event: send overheads (they gate an injection), *binding*
    // receive overheads (an arrival gates them), and the fallback
    // anchors of untraced protocol sends. Everything between two such
    // spans is private to its CPU, so the whole run coalesces into one
    // accumulated chain edge -- the solve cost per sweep point drops
    // with the graph, and the LP's feasible region is unchanged.
    std::vector<char> needNode(spans.size(), 0);
    std::vector<std::ptrdiff_t> anchorOf(msgs.size(), -1);
    std::vector<char> bindingOf(msgs.size(), 0);
    for (std::size_t mi = 0; mi < msgs.size(); mi++) {
        const ObsMessage &m = msgs[mi];
        auto su = sendSpan.find(m.id);
        if (su != sendSpan.end()) {
            needNode[su->second] = 1;
        } else {
            auto tl = timeline.find(m.src);
            if (tl != timeline.end()) {
                const std::vector<std::size_t> &idxs = tl->second;
                for (std::size_t k = idxs.size(); k-- > 0;) {
                    if (spans[idxs[k]].end <= m.issued) {
                        anchorOf[mi] =
                            static_cast<std::ptrdiff_t>(idxs[k]);
                        needNode[idxs[k]] = 1;
                        break;
                    }
                }
            }
        }
        auto rv = recvSpan.find(m.id);
        if (rv != recvSpan.end() && m.ready >= prevEnd[rv->second]) {
            bindingOf[mi] = 1;
            needNode[rv->second] = 1;
        }
    }

    // Program order, coalesced: chain the kept spans per node, folding
    // the cost of everything in between (compute, buffered handlers,
    // stalls -- they occupy the CPU regardless of handler order) into
    // the connecting edge.
    std::vector<int> lpOf(spans.size(), -1);
    const int sink = dag_.addNode();
    for (auto &[node, idxs] : timeline) {
        int prev = LpDag::kSource;
        LinCost acc;
        for (std::size_t i : idxs) {
            if (needNode[i]) {
                lpOf[i] = dag_.addNode();
                if (prev != LpDag::kSource || acc.fixed > 0 ||
                    acc.perO > 0 || acc.perG > 0 || acc.perGb > 0)
                    dag_.addEdge(prev, lpOf[i], acc);
                prev = lpOf[i];
                acc = spanCost(spans[i]);
            } else {
                acc += spanCost(spans[i]);
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
    std::unordered_map<NodeId, std::vector<std::size_t>> bySrc;
    for (std::size_t i = 0; i < msgs.size(); i++)
        bySrc[msgs[i].src].push_back(i);
    for (auto &[src, order] : bySrc) {
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (msgs[a].inject != msgs[b].inject)
                          return msgs[a].inject < msgs[b].inject;
                      return msgs[a].id < msgs[b].id;
                  });
        for (std::size_t k = 0; k < order.size(); k++) {
            injNode[order[k]] = dag_.addNode();
            if (k == 0)
                continue;
            const ObsMessage &prev = msgs[order[k - 1]];
            LinCost occ;
            occ.perG = 1;
            if (base_.gPerByte > 0)
                occ.perGb =
                    static_cast<double>(prev.wire - prev.inject) /
                    base_.gPerByte;
            dag_.addEdge(injNode[order[k - 1]], injNode[order[k]],
                         occ);
        }
    }

    // Cross-node edges: host issue -> injection -> arrival.
    std::vector<LinCost> sinkCost(msgs.size());
    std::vector<char> sinkBound(msgs.size(), 0);
    for (std::size_t mi = 0; mi < msgs.size(); mi++) {
        const ObsMessage &m = msgs[mi];

        // The host side: the injection cannot happen before the send
        // overhead that issued the descriptor completes. Untraced
        // protocol messages anchor on the sender's last span ending by
        // `issued`, or virtual time zero.
        auto su = sendSpan.find(m.id);
        if (su != sendSpan.end()) {
            dag_.addEdge(lpOf[su->second], injNode[mi],
                         spanCost(spans[su->second]));
        } else if (anchorOf[mi] >= 0) {
            const Span &a = spans[static_cast<std::size_t>(
                anchorOf[mi])];
            LinCost c = spanCost(a);
            c.fixed += static_cast<double>(m.issued - a.end);
            dag_.addEdge(lpOf[static_cast<std::size_t>(anchorOf[mi])],
                         injNode[mi], c);
        } else {
            LinCost c;
            c.fixed = static_cast<double>(m.issued);
            dag_.addEdge(LpDag::kSource, injNode[mi], c);
        }

        // The wire: bulk serialization (scales with G) and one wire
        // crossing (perL = 1, with any extra contention delay beyond
        // L kept as fixed time).
        LinCost flight;
        const double serial = static_cast<double>(m.wire - m.inject);
        if (base_.gPerByte > 0)
            flight.perGb = serial / base_.gPerByte;
        else
            flight.fixed += serial;
        flight.perL = 1;
        flight.fixed += static_cast<double>(m.ready - m.wire) -
                        static_cast<double>(base_.totalLatency());

        auto rv = recvSpan.find(m.id);
        if (rv == recvSpan.end()) {
            // Bulk intermediate fragments bypass the receive queue by
            // design; only the closing fragment is handled. They still
            // occupy the tx chain above, and the transfer must finish
            // before the run can.
            sinkCost[mi] = flight;
            sinkBound[mi] = 1;
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
        if (bindingOf[mi]) {
            dag_.addEdge(injNode[mi], lpOf[rv->second], flight);
        } else {
            LinCost c = flight;
            // Handler still runs post-arrival.
            c += spanCost(spans[rv->second]);
            sinkCost[mi] = c;
            sinkBound[mi] = 1;
        }
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
    for (auto &[src, order] : bySrc) {
        LinCost toKept;
        bool haveKept = false;
        for (std::size_t k = order.size(); k-- > 0;) {
            const std::size_t mi = order[k];
            if (sinkBound[mi]) {
                if (haveKept && dominated(sinkCost[mi], toKept)) {
                    // Dropped: the chain successor's join covers it.
                } else {
                    dag_.addEdge(injNode[mi], sink, sinkCost[mi]);
                    toKept = sinkCost[mi];
                    haveKept = true;
                }
            }
            if (k > 0 && haveKept) {
                const ObsMessage &prev = msgs[order[k - 1]];
                toKept.perG += 1;
                if (base_.gPerByte > 0)
                    toKept.perGb +=
                        static_cast<double>(prev.wire - prev.inject) /
                        base_.gPerByte;
            }
        }
    }

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
AnalyticModel::slopes(const LogGPParams &at) const
{
    AnalyticSlopes s;
    if (!ok_)
        return s;
    const LpParams point = pointOf(at);
    auto up = [&](double LpParams::*knob, double step) {
        LpParams p = point;
        p.*knob += step;
        return dag_.solve(p).gradient;
    };
    s.dTdL = up(&LpParams::L, 1).perL;
    s.dTdO = up(&LpParams::o, 1).perO;
    s.dTdG = up(&LpParams::g, 1).perG;
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
    if (!noSlopes.empty())
        return out + "slopes: withheld: " + noSlopes + "\n";
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
