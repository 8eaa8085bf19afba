#include "svc/spec.hh"

#include <cstring>

#include "apps/app.hh"
#include "svc/hash.hh"

namespace nowcluster::svc {

namespace {

/**
 * Bump whenever simulator semantics change in a way that can alter
 * measured results (event ordering, model stages, parameter defaults).
 * Stale keys then simply never hit and age out of the store via LRU.
 */
constexpr const char *kCodeFingerprint = "nowcluster-sim-v7";

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
    // Bit pattern, not decimal text: distinct doubles never alias.
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

void
putParams(std::string &out, const LogGPParams &p)
{
    putI64(out, p.oSend);
    putI64(out, p.oRecv);
    putI64(out, p.addedO);
    putI64(out, p.gap);
    putI64(out, p.latency);
    putI64(out, p.addedL);
    putDouble(out, p.gPerByte);
    putI64(out, p.occupancy);
    putU32(out, static_cast<std::uint32_t>(p.window));
    putU32(out, static_cast<std::uint32_t>(p.txQueueDepth));
    putU64(out, p.maxFragment);
    putU32(out, p.fault.enabled ? 1 : 0);
    putDouble(out, p.fault.dropRate);
    putDouble(out, p.fault.dupRate);
    putDouble(out, p.fault.corruptRate);
    putDouble(out, p.fault.reorderRate);
    putI64(out, p.fault.reorderMaxDelay);
    putU64(out, p.fault.seed);
    // v5: scripted one-off delay windows shape results.
    putU32(out, static_cast<std::uint32_t>(p.fault.delays.size()));
    for (const DelaySpec &d : p.fault.delays) {
        putU32(out, static_cast<std::uint32_t>(d.node));
        putI64(out, d.at);
        putI64(out, d.duration);
    }
    putU32(out, p.reliable ? 1 : 0);
    putI64(out, p.retxTimeout);
    putU32(out, static_cast<std::uint32_t>(p.retxMaxRetries));
    putU32(out, p.topo ? 1 : 0);
    putU32(out, static_cast<std::uint32_t>(p.topoHostsPerLeaf));
    putDouble(out, p.topoLinkMBps);
    putDouble(out, p.topoOversub);
    putI64(out, p.topoHopLatency);
    putStr(out, p.collAlg);
}

void
putKnobs(std::string &out, const Knobs &k)
{
    putDouble(out, k.overheadUs);
    putDouble(out, k.gapUs);
    putDouble(out, k.latencyUs);
    putDouble(out, k.bulkMBps);
    putDouble(out, k.occupancyUs);
    putU32(out, static_cast<std::uint32_t>(k.window));
    putDouble(out, k.dropRate);
    putDouble(out, k.dupRate);
    putDouble(out, k.corruptRate);
    putDouble(out, k.reorderRate);
    putDouble(out, k.reorderMaxDelayUs);
    putI64(out, k.faultSeed);
    putU32(out, static_cast<std::uint32_t>(k.reliable));
    putDouble(out, k.retxTimeoutUs);
    putI64(out, k.delayNode);
    putDouble(out, k.delayAtUs);
    putDouble(out, k.delayUs);
    putU32(out, static_cast<std::uint32_t>(k.topo));
    putU32(out, static_cast<std::uint32_t>(k.topoHosts));
    putDouble(out, k.topoLinkMBps);
    putDouble(out, k.topoOversub);
    putDouble(out, k.topoHopUs);
    // Resolve the collective policy through the NOW_COLL_ALG fallback
    // the same way runApp() does, so the key names the algorithms the
    // run will actually use.
    putStr(out, !k.collAlg.empty() ? k.collAlg : envConfig().collAlg);
}

} // namespace

const std::string &
codeFingerprint()
{
    static const std::string fp = kCodeFingerprint;
    return fp;
}

std::string
canonicalSpec(const RunPoint &pt)
{
    std::string out;
    out.reserve(512);
    out += "NOWSPEC1";
    putStr(out, pt.app);
    const RunConfig &c = pt.config;
    putU32(out, static_cast<std::uint32_t>(c.nprocs));
    putDouble(out, c.scale);
    putU64(out, c.seed);
    putI64(out, c.maxTime);
    putU32(out, c.validate ? 1 : 0);
    putStr(out, c.machine.name);
    putParams(out, c.machine.params);
    putKnobs(out, c.knobs);
    // v4: the producing backend is part of the spec -- a model-derived
    // runtime and a simulated one for the same knobs are different
    // results and must never alias under one key.
    putU32(out, static_cast<std::uint32_t>(c.origin));
    return out;
}

std::string
cacheKey(const RunPoint &pt)
{
    return sha256Hex(canonicalSpec(pt) + codeFingerprint());
}

std::string
validateSpec(const RunPoint &pt)
{
    bool known = false;
    for (const auto &key : appKeys())
        known = known || key == pt.app;
    if (!known)
        return "unknown app '" + pt.app + "'";

    const RunConfig &c = pt.config;
    if (c.nprocs < 2 || c.nprocs > 4096)
        return "procs out of range [2, 4096]";
    if (!(c.scale > 0) || c.scale > 100)
        return "scale out of range (0, 100]";
    if (c.maxTime <= 0)
        return "maxTime must be positive";
    if (c.origin != 0 && c.origin != 1)
        return "origin must be 0 (sim) or 1 (analytic)";

    // Bound the microsecond knobs in double before any usec() below.
    const LogGPParams &p = c.machine.params;
    const Knobs &k = c.knobs;
    if (std::string why = k.boundError(); !why.empty())
        return why;

    // Mirror the fatal_if checks in LogGPParams::setDesired*Usec so a
    // bad knob is a protocol error, not a dead server.
    if (k.overheadUs >= 0 &&
        usec(k.overheadUs) < (p.oSend + p.oRecv) / 2)
        return "overhead below hardware baseline";
    if (k.gapUs >= 0 && usec(k.gapUs) < p.gap &&
        usec(k.gapUs) < usec(0.1))
        return "gap is not positive";
    if (k.latencyUs >= 0 && usec(k.latencyUs) < p.latency)
        return "latency below hardware baseline";
    if (k.bulkMBps == 0 || (k.bulkMBps > 0 && k.bulkMBps > 1e6))
        return "bulk bandwidth out of range";
    auto badRate = [](double r) { return r > 1.0; };
    if (badRate(k.dropRate) || badRate(k.dupRate) ||
        badRate(k.corruptRate) || badRate(k.reorderRate))
        return "fault rates must be <= 1";
    if (k.delayNode >= c.nprocs)
        return "delay node out of range";
    if (k.delayNode >= 0 && !(k.delayUs > 0))
        return "delay duration must be positive";
    return "";
}

} // namespace nowcluster::svc
