#include "svc/codec.hh"

#include <algorithm>
#include <cstring>

namespace nowcluster::svc {

namespace {

constexpr char kMagic[8] = {'N', 'O', 'W', 'R', 'E', 'S', '0', '1'};

// ---- encoding -------------------------------------------------------

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out += char((v >> (8 * i)) & 0xff);
}

void
putI64(std::string &out, std::int64_t v)
{
    putU64(out, static_cast<std::uint64_t>(v));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out += char((v >> (8 * i)) & 0xff);
}

void
putDouble(std::string &out, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putU64(out, bits);
}

void
putStr(std::string &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out += s;
}

// ---- decoding (bounds-checked cursor) -------------------------------

struct Cursor
{
    const char *p;
    const char *end;

    bool
    take(void *dst, std::size_t n)
    {
        if (static_cast<std::size_t>(end - p) < n)
            return false;
        std::memcpy(dst, p, n);
        p += n;
        return true;
    }

    bool
    u64(std::uint64_t &v)
    {
        unsigned char b[8];
        if (!take(b, 8))
            return false;
        v = 0;
        for (int i = 7; i >= 0; --i)
            v = (v << 8) | b[i];
        return true;
    }

    bool
    i64(std::int64_t &v)
    {
        std::uint64_t u;
        if (!u64(u))
            return false;
        v = static_cast<std::int64_t>(u);
        return true;
    }

    bool
    u32(std::uint32_t &v)
    {
        unsigned char b[4];
        if (!take(b, 4))
            return false;
        v = (std::uint32_t(b[3]) << 24) | (std::uint32_t(b[2]) << 16) |
            (std::uint32_t(b[1]) << 8) | std::uint32_t(b[0]);
        return true;
    }

    bool
    f64(double &v)
    {
        std::uint64_t bits;
        if (!u64(bits))
            return false;
        std::memcpy(&v, &bits, sizeof v);
        return true;
    }

    bool
    str(std::string &s)
    {
        std::uint32_t n;
        if (!u32(n) || static_cast<std::size_t>(end - p) < n)
            return false;
        s.assign(p, n);
        p += n;
        return true;
    }
};

void
putHistogram(std::string &out, const Histogram &h)
{
    putU32(out, static_cast<std::uint32_t>(h.bounds().size()));
    for (Tick b : h.bounds())
        putI64(out, b);
    for (std::uint64_t c : h.buckets())
        putU64(out, c);
    putU64(out, h.count());
    putI64(out, h.sum());
}

} // namespace

std::string
encodeResult(const RunResult &r)
{
    std::string out;
    out.reserve(1024);
    out.append(kMagic, sizeof kMagic);
    putU32(out, r.ok ? 1 : 0);
    putU32(out, r.validated ? 1 : 0);
    putI64(out, r.runtime);

    const CommSummary &s = r.summary;
    putStr(out, s.app);
    putU32(out, static_cast<std::uint32_t>(s.nprocs));
    putI64(out, s.runtime);
    putU64(out, s.avgMsgsPerProc);
    putU64(out, s.maxMsgsPerProc);
    putDouble(out, s.msgsPerProcPerMs);
    putDouble(out, s.msgIntervalUs);
    putDouble(out, s.barrierIntervalMs);
    putDouble(out, s.pctBulk);
    putDouble(out, s.pctReads);
    putDouble(out, s.bulkKBps);
    putDouble(out, s.smallKBps);
    putU64(out, s.lockFailures);
    putU64(out, s.lockAcquires);
    putU64(out, s.retransmits);
    putU64(out, s.dupsSuppressed);
    putU64(out, s.retxGiveUps);
    putU64(out, s.faultDropped);
    putU64(out, s.faultDuplicated);
    putU64(out, s.faultDelayed);

    putU32(out, static_cast<std::uint32_t>(r.matrix.nprocs));
    putU64(out, r.matrix.counts.size());
    for (std::uint64_t c : r.matrix.counts)
        putU64(out, c);

    putU64(out, r.maxMsgsPerProc);
    putU64(out, r.lockFailures);

    const MetricsSnapshot &m = r.metrics;
    putU32(out, static_cast<std::uint32_t>(m.counters.size()));
    for (const auto &[name, v] : m.counters) {
        putStr(out, name);
        putU64(out, v);
    }
    putU32(out, static_cast<std::uint32_t>(m.gauges.size()));
    for (const auto &[name, v] : m.gauges) {
        putStr(out, name);
        putDouble(out, v);
    }
    putU32(out, static_cast<std::uint32_t>(m.histograms.size()));
    for (const auto &[name, h] : m.histograms) {
        putStr(out, name);
        putHistogram(out, h);
    }
    return out;
}

bool
decodeResult(std::string_view payload, RunResult &out)
{
    if (payload.size() < sizeof kMagic ||
        std::memcmp(payload.data(), kMagic, sizeof kMagic) != 0)
        return false;
    Cursor c{payload.data() + sizeof kMagic,
             payload.data() + payload.size()};

    RunResult r;
    std::uint32_t ok, validated;
    if (!c.u32(ok) || !c.u32(validated) || !c.i64(r.runtime))
        return false;
    r.ok = ok != 0;
    r.validated = validated != 0;

    CommSummary &s = r.summary;
    std::uint32_t nprocs;
    if (!c.str(s.app) || !c.u32(nprocs) || !c.i64(s.runtime) ||
        !c.u64(s.avgMsgsPerProc) || !c.u64(s.maxMsgsPerProc) ||
        !c.f64(s.msgsPerProcPerMs) || !c.f64(s.msgIntervalUs) ||
        !c.f64(s.barrierIntervalMs) || !c.f64(s.pctBulk) ||
        !c.f64(s.pctReads) || !c.f64(s.bulkKBps) ||
        !c.f64(s.smallKBps) || !c.u64(s.lockFailures) ||
        !c.u64(s.lockAcquires) || !c.u64(s.retransmits) ||
        !c.u64(s.dupsSuppressed) || !c.u64(s.retxGiveUps) ||
        !c.u64(s.faultDropped) || !c.u64(s.faultDuplicated) ||
        !c.u64(s.faultDelayed))
        return false;
    s.nprocs = static_cast<int>(nprocs);

    std::uint32_t mprocs;
    std::uint64_t ncounts;
    if (!c.u32(mprocs) || !c.u64(ncounts))
        return false;
    if (ncounts > static_cast<std::size_t>(c.end - c.p) / 8)
        return false;
    r.matrix.nprocs = static_cast<int>(mprocs);
    r.matrix.counts.resize(ncounts);
    for (auto &v : r.matrix.counts) {
        if (!c.u64(v))
            return false;
    }

    if (!c.u64(r.maxMsgsPerProc) || !c.u64(r.lockFailures))
        return false;

    MetricsSnapshot &m = r.metrics;
    std::uint32_t n;
    if (!c.u32(n))
        return false;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        std::uint64_t v;
        if (!c.str(name) || !c.u64(v))
            return false;
        m.counters.emplace(std::move(name), v);
    }
    if (!c.u32(n))
        return false;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        double v;
        if (!c.str(name) || !c.f64(v))
            return false;
        m.gauges.emplace(std::move(name), v);
    }
    if (!c.u32(n))
        return false;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        std::uint32_t nbounds;
        if (!c.str(name) || !c.u32(nbounds))
            return false;
        if (nbounds > static_cast<std::size_t>(c.end - c.p) / 8)
            return false;
        std::vector<Tick> bounds(nbounds);
        for (auto &b : bounds) {
            if (!c.i64(b))
                return false;
        }
        // The Histogram constructor panics on unsorted bounds; corrupt
        // input must be a decode failure instead.
        if (!std::is_sorted(bounds.begin(), bounds.end()))
            return false;
        Histogram h(std::move(bounds));
        std::vector<std::uint64_t> buckets(nbounds + 1);
        for (auto &b : buckets) {
            if (!c.u64(b))
                return false;
        }
        std::uint64_t count;
        Tick sum;
        if (!c.u64(count) || !c.i64(sum))
            return false;
        if (!h.restore(buckets, count, sum))
            return false;
        m.histograms.emplace(std::move(name), std::move(h));
    }
    if (c.p != c.end)
        return false; // Trailing garbage is corruption, not slack.
    out = std::move(r);
    return true;
}

} // namespace nowcluster::svc
