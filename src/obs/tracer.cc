#include "obs/tracer.hh"

#include <algorithm>
#include <map>

namespace nowcluster {

void
SpanTracer::absorb(const SpanTracer &other)
{
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
    msgs_.reserve(msgs_.size() + other.msgs_.size());
    for (const ObsMessage &m : other.msgs_)
        message(m);
}

const char *
spanCatName(SpanCat cat)
{
    switch (cat) {
      case SpanCat::Compute:
        return "compute";
      case SpanCat::OSend:
        return "o_send";
      case SpanCat::ORecv:
        return "o_recv";
      case SpanCat::LWire:
        return "L-wire";
      case SpanCat::GapStall:
        return "g-stall";
      case SpanCat::GStall:
        return "G-stall";
      case SpanCat::Retransmit:
        return "retransmit";
      case SpanCat::BarrierWait:
        return "barrier-wait";
      case SpanCat::IdleWave:
        return "idle-wave";
    }
    return "?";
}

const char *
trackKindName(TrackKind track)
{
    switch (track) {
      case TrackKind::Cpu:
        return "cpu";
      case TrackKind::NicTx:
        return "nic-tx";
      case TrackKind::NicRx:
        return "nic-rx";
    }
    return "?";
}

double
meanFlightUs(const SpanTracer &tracer)
{
    double sum = 0;
    for (const ObsMessage &m : tracer.messages())
        sum += toUsec(m.ready - m.issued);
    const std::size_t n = tracer.messages().size();
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
burstFraction(const SpanTracer &tracer, Tick threshold)
{
    // Group issue times by source, then count consecutive gaps below
    // the threshold.
    std::map<NodeId, std::vector<Tick>> by_src;
    for (const ObsMessage &m : tracer.messages())
        by_src[m.src].push_back(m.issued);
    std::uint64_t close = 0, total = 0;
    for (auto &[src, times] : by_src) {
        std::sort(times.begin(), times.end());
        for (std::size_t i = 1; i < times.size(); ++i) {
            ++total;
            if (times[i] - times[i - 1] < threshold)
                ++close;
        }
    }
    return total ? static_cast<double>(close) /
                       static_cast<double>(total)
                 : 0.0;
}

} // namespace nowcluster
