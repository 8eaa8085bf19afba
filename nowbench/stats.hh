/**
 * @file
 * The benchmark's own arithmetic, kept free of simulator dependencies
 * so selftest.cc can check it in isolation: medians and tail
 * percentiles, span self time, the fingerprint digest, and failure
 * accounting.
 */

#ifndef NOWBENCH_STATS_HH_
#define NOWBENCH_STATS_HH_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace nowbench {

/** Median (mean of the two middle values for an even count; 0 if
 *  empty). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** 1-based nearest rank of percentile `p` (0 < p <= 100) in `n`
 *  samples. */
inline std::size_t
nearestRank(double p, std::size_t n)
{
    const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

/** Samples strictly beyond the nearest-rank percentile `p`. */
inline std::size_t
samplesBeyond(double p, std::size_t n)
{
    return n == 0 ? 0 : n - nearestRank(p, n);
}

/**
 * The highest of p99.9, p99 and p90 that leaves at least ten samples
 * beyond it, or 0 when even p90 does not (too few samples for a tail).
 */
inline double
tailPercentile(std::size_t n)
{
    for (double p : {99.9, 99.0, 90.0}) {
        if (samplesBeyond(p, n) >= 10)
            return p;
    }
    return 0;
}

/** Nearest-rank percentile of `v` (0 if empty). */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[nearestRank(p, v.size()) - 1];
}

/** One recorded span: a call into a layer, in host nanoseconds. */
struct SpanRec
{
    std::string name; ///< "<layer>.<call>", e.g. "harness.runApp".
    std::int64_t begin = 0;
    std::int64_t end = 0;
    int parent = -1;       ///< Index of the enclosing span, -1 = root.
    std::uint64_t op = 0;  ///< Operation (experiment point) id.
    int thread = 0;        ///< Recording thread, 0 = main.
};

/** The layer a span belongs to: its name up to the first '.'. */
inline std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

/** Length of the union of `iv` clipped to [lo, hi]. */
inline std::int64_t
coveredLength(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
              std::int64_t lo, std::int64_t hi)
{
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_b = 0, cur_e = 0;
    bool open = false;
    for (auto [b, e] : iv) {
        b = std::max(b, lo);
        e = std::min(e, hi);
        if (e <= b)
            continue;
        if (open && b <= cur_e) {
            cur_e = std::max(cur_e, e);
            continue;
        }
        if (open)
            covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
        open = true;
    }
    if (open)
        covered += cur_e - cur_b;
    return covered;
}

/**
 * Self time of every span: its duration minus the part of it that its
 * direct children cover (children running in parallel on several
 * threads count once).
 */
inline std::vector<std::int64_t>
selfTimes(const std::vector<SpanRec> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const SpanRec &s : spans) {
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size())
            kids[s.parent].push_back({s.begin, s.end});
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        self[i] = (spans[i].end - spans[i].begin) -
                  coveredLength(kids[i], spans[i].begin, spans[i].end);
    }
    return self;
}

/** Self time summed per layer, in nanoseconds. */
inline std::map<std::string, std::int64_t>
selfTimeByLayer(const std::vector<SpanRec> &spans)
{
    std::map<std::string, std::int64_t> out;
    const std::vector<std::int64_t> self = selfTimes(spans);
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[layerOf(spans[i].name)] += self[i];
    return out;
}

/** 64-bit FNV-1a over every fingerprint, in order, each terminated by
 *  a NUL so that boundaries cannot alias. Rendered as 16 hex digits. */
inline std::string
digest(const std::vector<std::string> &fingerprints)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](unsigned char c) {
        h ^= c;
        h *= 0x100000001b3ull;
    };
    for (const std::string &fp : fingerprints) {
        for (unsigned char c : fp)
            mix(c);
        mix(0);
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Attempted / failed operation counts. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(bool failed_op)
    {
        ++attempted;
        failed += failed_op ? 1 : 0;
    }
};

/**
 * A simulated point fails when it timed out (`ok` false), failed its
 * application check, or its fingerprint differs from the reference run
 * of the same point (`reference` empty = no reference yet).
 */
inline bool
simPointFailed(bool ok, bool validated, const std::string &fingerprint,
               const std::string &reference)
{
    return !ok || !validated ||
           (!reference.empty() && fingerprint != reference);
}

/** An analytic spot check fails beyond the backend's drift tolerance
 *  (fractions, e.g. 0.10). */
inline bool
spotCheckFailed(double analytic, double simulated, double tolerance)
{
    return simulated <= 0 ||
           std::fabs(analytic - simulated) / simulated > tolerance;
}

} // namespace nowbench

#endif // NOWBENCH_STATS_HH_
