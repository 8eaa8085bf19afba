#include "replay/replay.hh"

#include <algorithm>
#include <map>

#include "am/cluster.hh"
#include "base/logging.hh"

namespace nowcluster {

namespace {

// ObsMessage::kind holds a PacketKind as an integer.
constexpr auto kReply = static_cast<std::uint8_t>(PacketKind::Reply);
constexpr auto kBulkFrag = static_cast<std::uint8_t>(PacketKind::BulkFrag);

} // namespace

ReplaySchedule
extractSchedule(const SpanTracer &trace, int nprocs,
                const LogGPParams &recorded_on)
{
    ReplaySchedule sched;
    sched.nprocs = nprocs;
    sched.steps.resize(nprocs);

    // Per-source sequences, in issue order (the tracer appends sends in
    // issue order per processor already).
    std::vector<std::vector<const ObsMessage *>> by_src(nprocs);
    for (const ObsMessage &m : trace.messages()) {
        if (m.retx)
            continue;
        fatal_if(m.src < 0 || m.src >= nprocs || m.dst < 0 ||
                     m.dst >= nprocs,
                 "trace message %d -> %d names a node outside the "
                 "%d-proc cluster",
                 m.src, m.dst, nprocs);
        by_src[m.src].push_back(&m);
    }

    const Tick send_cost = recorded_on.sendOverhead();
    for (int p = 0; p < nprocs; ++p) {
        Tick prev_issue = 0;
        bool first = true;
        auto &steps = sched.steps[p];
        for (std::size_t i = 0; i < by_src[p].size(); ++i) {
            const ObsMessage &r = *by_src[p][i];
            // Replies and acks regenerate during replay.
            if (r.kind == kReply)
                continue;
            if (r.kind == kBulkFrag) {
                // Coalesce a run of fragments to the same destination
                // into one bulk operation.
                std::uint64_t bytes = r.bytes;
                std::size_t j = i + 1;
                while (j < by_src[p].size() &&
                       by_src[p][j]->kind == kBulkFrag &&
                       by_src[p][j]->dst == r.dst &&
                       by_src[p][j]->issued - by_src[p][j - 1]->issued
                           < usec(200)) {
                    bytes += by_src[p][j]->bytes;
                    ++j;
                }
                Tick gap = first ? 0 : r.issued - prev_issue;
                steps.push_back(
                    {std::max<Tick>(0, gap - send_cost), r.dst, true,
                     static_cast<std::uint32_t>(
                         std::min<std::uint64_t>(bytes, 1u << 30))});
                prev_issue = by_src[p][j - 1]->issued;
                first = false;
                i = j - 1;
                continue;
            }
            Tick gap = first ? 0 : r.issued - prev_issue;
            steps.push_back({std::max<Tick>(0, gap - send_cost), r.dst,
                             false, 0});
            prev_issue = r.issued;
            first = false;
        }
    }
    return sched;
}

ReplayResult
replaySchedule(const ReplaySchedule &schedule, const LogGPParams &params)
{
    ReplayResult result;
    const int p = schedule.nprocs;
    if (p == 0)
        return result;

    // Scratch target buffers sized to the largest bulk step per node.
    std::size_t max_bulk = 1;
    for (const auto &steps : schedule.steps) {
        for (const ReplayStep &s : steps)
            max_bulk = std::max<std::size_t>(max_bulk, s.bytes);
    }
    std::vector<std::vector<std::uint8_t>> scratch(p);
    for (auto &b : scratch)
        b.assign(max_bulk, 0);
    std::vector<std::uint8_t> payload(max_bulk, 0xEE);

    Cluster cluster(p, params);
    int finished = 0;
    bool stop = false;
    int sink = cluster.registerHandler([](AmNode &, Packet &) {});
    int h_done = cluster.registerHandler(
        [&](AmNode &, Packet &) { ++finished; });
    int h_stop = cluster.registerHandler(
        [&](AmNode &, Packet &) { stop = true; });

    bool ok = cluster.run([&](AmNode &n) {
        const int me = n.id();
        for (const ReplayStep &s : schedule.steps[me]) {
            if (s.think > 0)
                n.compute(s.think);
            if (s.bulk) {
                n.store(s.dst, scratch[s.dst].data(), payload.data(),
                        s.bytes);
            } else {
                n.oneWay(s.dst, sink);
            }
        }
        n.storeSync();
        // Completion protocol: everyone reports to 0; 0 broadcasts
        // stop so receivers keep polling until all traffic landed.
        if (me == 0) {
            ++finished;
            n.pollUntil([&] { return finished == p; },
                        "replay completion wait");
            stop = true;
            for (int q = 1; q < p; ++q)
                n.oneWay(q, h_stop);
        } else {
            n.oneWay(0, h_done);
            n.pollUntil([&] { return stop; }, "replay stop wait");
        }
    }, 3600 * kSec);

    result.ok = ok;
    result.makespan = cluster.runtime();
    result.sends = schedule.totalSends();
    return result;
}

} // namespace nowcluster
