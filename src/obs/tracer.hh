/**
 * @file
 * The span tracer: per-track timelines of categorized virtual-time
 * spans, plus one record per message with its LogGP decomposition.
 *
 * Every simulated node owns three tracks -- the CPU fiber, the NIC
 * transmit context, and the NIC receive context -- and instrumented
 * components append spans to them as virtual time unfolds. Recording is
 * strictly passive: a span is two timestamps that the simulation was
 * going to produce anyway, so an attached tracer never perturbs virtual
 * time and a detached one costs a single predicted-not-taken branch
 * (all record paths are inlined here and guarded by a null check;
 * `nowlab perf` times AM round trips with and without a tracer).
 *
 * The recorded data feeds every trace consumer: the Chrome/Perfetto
 * trace_event exporter and the compact binary format `nowlab replay
 * --obs` loads (src/obs/export.hh), the wavefront analyzer, the
 * analytic backend's LP lowering (src/backend/model.hh: what `nowlab
 * replay` solves, and the critical path `nowlab trace` prints), and
 * the message statistics at the end of this header.
 */

#ifndef NOWCLUSTER_OBS_TRACER_HH_
#define NOWCLUSTER_OBS_TRACER_HH_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "base/types.hh"

namespace nowcluster {

/** What a span of virtual time was spent on (the LogGP vocabulary). */
enum class SpanCat : std::uint8_t
{
    Compute,     ///< Application work charged via compute().
    OSend,       ///< Host send overhead (o_send).
    ORecv,       ///< Host receive overhead (o_recv).
    LWire,       ///< Wire + interface latency (L), on the rx track.
    GapStall,    ///< g back-pressure: tx-queue / credit / rx-occupancy.
    GStall,      ///< Bulk DMA transfer time (size * G).
    Retransmit,  ///< Reliability-protocol retransmission (instant).
    BarrierWait, ///< Waiting inside a barrier round.
    IdleWave,    ///< Wavefront analyzer: excess idle vs the baseline.
};

constexpr int kNumSpanCats = 9;

/** Timeline a span belongs to; each node has one of each. */
enum class TrackKind : std::uint8_t
{
    Cpu,   ///< The node's processor fiber.
    NicTx, ///< The NIC transmit context.
    NicRx, ///< The NIC receive context / delay queue.
};

constexpr int kNumTrackKinds = 3;

/** One categorized interval of virtual time on one track. */
struct Span
{
    Tick begin = 0;
    Tick end = 0;
    NodeId node = -1;
    TrackKind track = TrackKind::Cpu;
    SpanCat cat = SpanCat::Compute;
    /**
     * Container spans (barrier-wait, credit-wait) cover an interval in
     * which nested leaf spans (polling, handler work) also appear. The
     * exporters show them; the LP lowering and the wavefront analyzer
     * skip them and read the leaf spans.
     */
    bool container = false;
    /** Message this span serves (0 = none). */
    std::uint64_t msg = 0;
};

/**
 * One message's flight, decomposed into the LogGP terms the NIC
 * timestamp algebra produced:
 *
 *   issued --(queue wait: g)--> inject --(size*G)--> wire --(L)--> ready
 */
struct ObsMessage
{
    std::uint64_t id = 0;
    NodeId src = -1;
    NodeId dst = -1;
    Tick issued = 0; ///< Host offered the descriptor (after o_send).
    Tick inject = 0; ///< Tx context began injecting.
    Tick wire = 0;   ///< Payload fully left the NIC.
    Tick ready = 0;  ///< Presence bit at the receiver.
    std::uint8_t kind = 0; ///< PacketKind as an integer.
    std::uint32_t bytes = 0;
};

struct TraceHeader;

/** Human-readable category / track names (used by the exporters). */
const char *spanCatName(SpanCat cat);
const char *trackKindName(TrackKind track);

/**
 * The trace sink. One per traced run; single-threaded like the
 * simulation heap that feeds it (the parallel runner gives each point
 * its own tracer).
 */
class SpanTracer
{
  public:
    /**
     * Room for a run's spans and messages is reserved up front, past
     * the 32 MiB up to which glibc's malloc raises its mmap threshold,
     * so the two arrays never regrow in small steps: each is mapped
     * pages, committed as records land in them and returned to the
     * system when freed, whichever thread recorded the run. Grown by
     * doubling, each discarded copy would stay in that thread's heap.
     */
    SpanTracer()
    {
        spans_.reserve(kReservedBytes / sizeof(Span));
        msgs_.reserve(kReservedBytes / sizeof(ObsMessage));
    }

    /** Record a leaf span. Zero-length spans are kept only for the
     *  Retransmit category (exported as instant events). */
    void
    span(NodeId node, TrackKind track, SpanCat cat, Tick begin, Tick end,
         std::uint64_t msg = 0)
    {
        if (end <= begin && cat != SpanCat::Retransmit)
            return;
        spans_.push_back({begin, end, node, track, cat, false, msg});
    }

    /** Record a container span (see Span::container). */
    void
    containerSpan(NodeId node, SpanCat cat, Tick begin, Tick end)
    {
        if (end <= begin)
            return;
        spans_.push_back(
            {begin, end, node, TrackKind::Cpu, cat, true, 0});
    }

    /** Allocate a message id (> 0). */
    std::uint64_t
    newMsgId()
    {
        msgAt_.push_back(kUnrecorded);
        return msgBase_ + msgAt_.size();
    }

    /** Record one message's flight decomposition. The first message
     *  recorded under an id this tracer handed out is the one
     *  updateMessageReady refines. */
    void
    message(const ObsMessage &m)
    {
        const std::uint64_t k = m.id - msgBase_ - 1; // see msgAt_
        if (k < msgAt_.size() && msgAt_[k] == kUnrecorded &&
            msgs_.size() < kUnrecorded)
            msgAt_[k] = static_cast<std::uint32_t>(msgs_.size());
        msgs_.push_back(m);
    }

    /** Refine a message's presence-bit time (fabric contention, fault
     *  delay, retransmission all move it after the send recorded it).
     *  An id this tracer never handed out, or has no message for, is
     *  ignored. */
    void
    updateMessageReady(std::uint64_t id, Tick ready)
    {
        const std::uint64_t k = id - msgBase_ - 1; // see msgAt_
        if (k < msgAt_.size() && msgAt_[k] != kUnrecorded)
            msgs_[msgAt_[k]].ready = ready;
    }

    /** Append another tracer's spans and messages (e.g. a perturbed
     *  run stacked onto its baseline for the wavefront view). */
    void absorb(const SpanTracer &other);

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<ObsMessage> &messages() const { return msgs_; }

    /** Largest end timestamp over all spans (0 if empty). */
    Tick
    lastTick() const
    {
        Tick t = 0;
        for (const Span &s : spans_)
            t = s.end > t ? s.end : t;
        return t;
    }

    void
    clear()
    {
        spans_.clear();
        msgs_.clear();
        msgAt_.clear();
        msgBase_ = 0;
    }

  private:
    friend std::string readBinaryTrace(SpanTracer &, TraceHeader &,
                                       const std::string &);

    static constexpr std::size_t kReservedBytes = std::size_t{40} << 20;
    static constexpr std::uint32_t kUnrecorded =
        std::numeric_limits<std::uint32_t>::max();

    std::vector<Span> spans_;
    std::vector<ObsMessage> msgs_;
    /** newMsgId() hands ids out one after another from msgBase_ + 1,
     *  so a vector indexes them: per id (msgBase_ + 1 + k at k), the
     *  index in msgs_ of the first message recorded under it, or
     *  kUnrecorded. An id at or below msgBase_ wraps k past the end. */
    std::vector<std::uint32_t> msgAt_;
    /** 0, or a loaded trace's largest id: the ids it carries were not
     *  handed out here, and new ones follow them. */
    std::uint64_t msgBase_ = 0;
};

/** Mean in-flight time (issue to presence bit) of a trace's messages,
 *  in microseconds; 0 when it has none. */
double meanFlightUs(const SpanTracer &tracer);

/**
 * Fraction of consecutive same-source messages issued closer
 * together than `threshold` -- the burstiness measure behind the
 * paper's reading of its gap results (Section 5.2). 0 when no source
 * sent twice.
 */
double burstFraction(const SpanTracer &tracer, Tick threshold);

} // namespace nowcluster

#endif // NOWCLUSTER_OBS_TRACER_HH_
