#include "obs/export.hh"

#include <cstdio>
#include <fstream>
#include <set>
#include <vector>

namespace nowcluster {

namespace {

void
appendEvent(std::string &out, bool &first, const char *json)
{
    if (!first)
        out += ",\n";
    first = false;
    out += json;
}

/** ts/dur in microseconds with ns precision (ticks are ns). */
std::string
us(Tick t)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(t) / 1e3);
    return buf;
}

} // namespace

std::string
perfettoJson(const SpanTracer &tracer)
{
    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    char buf[512];

    // Metadata: name each (pid, tid) so the timeline reads
    // "node N / cpu|nic-tx|nic-rx". Tracks are emitted for every
    // node that has at least one span.
    std::set<NodeId> nodes;
    for (const Span &s : tracer.spans())
        nodes.insert(s.node);
    for (NodeId n : nodes) {
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                      "\"name\":\"process_name\","
                      "\"args\":{\"name\":\"node %d\"}}",
                      n, n);
        appendEvent(out, first, buf);
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                      "\"name\":\"process_sort_index\","
                      "\"args\":{\"sort_index\":%d}}",
                      n, n);
        appendEvent(out, first, buf);
        for (int k = 0; k < kNumTrackKinds; ++k) {
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                          "\"name\":\"thread_name\","
                          "\"args\":{\"name\":\"%s\"}}",
                          n, k,
                          trackKindName(static_cast<TrackKind>(k)));
            appendEvent(out, first, buf);
        }
    }

    for (const Span &s : tracer.spans()) {
        int tid = static_cast<int>(s.track);
        // Clamp degenerate records: SpanTracer::span() never stores
        // end < begin, but readBinaryTrace() trusts the file, and a
        // negative "dur" makes a trace_event viewer reject the whole
        // document. Clamped spans render as instant events.
        const Tick end = s.end < s.begin ? s.begin : s.end;
        if (end == s.begin) {
            // Zero-duration record (retransmit) -> instant event.
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,"
                          "\"ts\":%s,\"s\":\"t\",\"name\":\"%s\","
                          "\"cat\":\"%s\"}",
                          s.node, tid, us(s.begin).c_str(),
                          spanCatName(s.cat), spanCatName(s.cat));
            appendEvent(out, first, buf);
            continue;
        }
        if (s.msg) {
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                          "\"ts\":%s,\"dur\":%s,\"name\":\"%s\","
                          "\"cat\":\"%s\",\"args\":{\"msg\":%llu}}",
                          s.node, tid, us(s.begin).c_str(),
                          us(end - s.begin).c_str(),
                          spanCatName(s.cat), spanCatName(s.cat),
                          static_cast<unsigned long long>(s.msg));
        } else {
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                          "\"ts\":%s,\"dur\":%s,\"name\":\"%s\","
                          "\"cat\":\"%s%s\"}",
                          s.node, tid, us(s.begin).c_str(),
                          us(end - s.begin).c_str(),
                          spanCatName(s.cat), spanCatName(s.cat),
                          s.container ? ",container" : "");
        }
        appendEvent(out, first, buf);
    }

    // Flow arrows: message injection on the source tx track to
    // presence-bit time on the destination rx track.
    for (const ObsMessage &m : tracer.messages()) {
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"s\",\"pid\":%d,\"tid\":%d,"
                      "\"ts\":%s,\"id\":%llu,\"name\":\"msg\","
                      "\"cat\":\"flow\"}",
                      m.src, static_cast<int>(TrackKind::NicTx),
                      us(m.inject).c_str(),
                      static_cast<unsigned long long>(m.id));
        appendEvent(out, first, buf);
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"f\",\"pid\":%d,\"tid\":%d,"
                      "\"ts\":%s,\"id\":%llu,\"name\":\"msg\","
                      "\"cat\":\"flow\",\"bp\":\"e\"}",
                      m.dst, static_cast<int>(TrackKind::NicRx),
                      us(m.ready).c_str(),
                      static_cast<unsigned long long>(m.id));
        appendEvent(out, first, buf);
    }

    out += "\n],\"displayTimeUnit\":\"ns\"}\n";
    return out;
}

bool
writePerfettoJson(const SpanTracer &tracer, const std::string &path)
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    const std::string doc = perfettoJson(tracer);
    f.write(doc.data(), static_cast<std::streamsize>(doc.size()));
    return f.good();
}

namespace {

constexpr char kMagic[8] = {'N', 'O', 'W', 'O', 'B', 'S', '0', '2'};
constexpr char kMagicV1[8] = {'N', 'O', 'W', 'O', 'B', 'S', '0', '1'};

template <typename T>
void
put(std::string &out, T v)
{
    // Little-endian, field by field: the layout is explicit, not
    // a struct memcpy, so it is stable across compilers.
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out.push_back(static_cast<char>(
            (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff));
}

template <typename T>
bool
get(const std::string &in, std::size_t &pos, T &v)
{
    if (pos + sizeof(T) > in.size())
        return false;
    std::uint64_t raw = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        raw |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(in[pos + i]))
               << (8 * i);
    v = static_cast<T>(raw);
    pos += sizeof(T);
    return true;
}

} // namespace

bool
writeBinaryTrace(const SpanTracer &tracer, const TraceHeader &header,
                 const std::string &path)
{
    std::string out;
    out.append(kMagic, sizeof(kMagic));
    put<std::uint32_t>(out, header.spec.size());
    out += header.spec;
    put<std::int64_t>(out, header.runtime);
    put<std::uint64_t>(out, tracer.spans().size());
    put<std::uint64_t>(out, tracer.messages().size());
    for (const Span &s : tracer.spans()) {
        put<std::int64_t>(out, s.begin);
        put<std::int64_t>(out, s.end);
        put<std::int32_t>(out, s.node);
        put<std::uint8_t>(out, static_cast<std::uint8_t>(s.track));
        put<std::uint8_t>(out, static_cast<std::uint8_t>(s.cat));
        put<std::uint8_t>(out, s.container ? 1 : 0);
        put<std::uint64_t>(out, s.msg);
    }
    for (const ObsMessage &m : tracer.messages()) {
        put<std::uint64_t>(out, m.id);
        put<std::int32_t>(out, m.src);
        put<std::int32_t>(out, m.dst);
        put<std::int64_t>(out, m.issued);
        put<std::int64_t>(out, m.inject);
        put<std::int64_t>(out, m.wire);
        put<std::int64_t>(out, m.ready);
        put<std::uint8_t>(out, m.kind);
        put<std::uint32_t>(out, m.bytes);
    }

    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    f.write(out.data(), static_cast<std::streamsize>(out.size()));
    return f.good();
}

std::string
readBinaryTrace(SpanTracer &tracer, TraceHeader &header,
                const std::string &path)
{
    tracer.clear();
    header = {};

    std::ifstream f(path, std::ios::binary);
    if (!f)
        return "cannot open it";
    const std::string in((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
    if (in.compare(0, sizeof(kMagicV1), kMagicV1, sizeof(kMagicV1)) == 0)
        return "a NOWOBS01 trace records no run; trace it again with "
               "`nowlab trace --bin`";
    if (in.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0)
        return "not a NOWOBS02 trace";
    std::size_t pos = sizeof(kMagic);
    std::uint32_t specBytes = 0;
    if (!get(in, pos, specBytes) || specBytes > in.size() - pos)
        return "its header runs past the end of the file";
    std::string spec = in.substr(pos, specBytes);
    pos += specBytes;

    // Per-record sizes as written above; reject truncated files before
    // allocating anything (the counts are bounded first, so the
    // products cannot wrap).
    const std::size_t spanBytes = 8 + 8 + 4 + 1 + 1 + 1 + 8;
    const std::size_t msgBytes = 8 + 4 + 4 + 8 * 4 + 1 + 4;
    Tick runtime = 0;
    std::uint64_t nspans = 0, nmsgs = 0;
    if (!get(in, pos, runtime) || runtime < 0 || !get(in, pos, nspans) ||
        !get(in, pos, nmsgs) || nspans > (in.size() - pos) / spanBytes ||
        nmsgs > (in.size() - pos) / msgBytes ||
        in.size() - pos != nspans * spanBytes + nmsgs * msgBytes)
        return "truncated or corrupt";

    // Node ids index per-node state in every consumer, and the largest
    // PacketKind value is BulkFrag (3).
    const char *badRecord = "a record with an unknown track, category or "
                            "kind, or a negative node id";
    std::vector<Span> spans(nspans);
    for (Span &s : spans) {
        std::uint8_t track = 0, cat = 0, container = 0;
        if (!get(in, pos, s.begin) || !get(in, pos, s.end) ||
            !get(in, pos, s.node) || !get(in, pos, track) ||
            !get(in, pos, cat) || !get(in, pos, container) ||
            !get(in, pos, s.msg) || track >= kNumTrackKinds ||
            cat >= kNumSpanCats || s.node < 0)
            return badRecord;
        s.track = static_cast<TrackKind>(track);
        s.cat = static_cast<SpanCat>(cat);
        s.container = container != 0;
    }
    std::vector<ObsMessage> msgs(nmsgs);
    std::uint64_t maxId = 0;
    for (ObsMessage &m : msgs) {
        if (!get(in, pos, m.id) || !get(in, pos, m.src) ||
            !get(in, pos, m.dst) || !get(in, pos, m.issued) ||
            !get(in, pos, m.inject) || !get(in, pos, m.wire) ||
            !get(in, pos, m.ready) || !get(in, pos, m.kind) ||
            !get(in, pos, m.bytes) || m.kind > 3 || m.src < 0 ||
            m.dst < 0)
            return badRecord;
        maxId = m.id > maxId ? m.id : maxId;
    }
    tracer.spans_ = std::move(spans);
    tracer.msgs_ = std::move(msgs);
    tracer.msgBase_ = maxId;
    header = {std::move(spec), runtime};
    return "";
}

} // namespace nowcluster
