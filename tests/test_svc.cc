/**
 * @file
 * Tests for the experiment service: canonical spec hashing, the result
 * codec, the on-disk content-addressed store (corruption, LRU,
 * crash-recovery), the cached parallel runner, and nowlabd itself
 * (ServiceCore protocol + the TCP server end-to-end on an ephemeral
 * port). The load-bearing property throughout: a cache hit is
 * byte-identical to recomputation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>

#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "svc/backoff.hh"
#include "svc/codec.hh"
#include "svc/hash.hh"
#include "svc/json.hh"
#include "svc/server.hh"
#include "svc/service.hh"
#include "svc/spec.hh"
#include "svc/store.hh"

namespace nowcluster {
namespace {

/** A fresh store directory per test, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/nowsvc-XXXXXX";
        char *p = ::mkdtemp(tmpl);
        EXPECT_NE(p, nullptr);
        path = p ? p : "";
    }

    ~TempDir()
    {
        if (path.empty())
            return;
        if (DIR *d = ::opendir(path.c_str())) {
            while (struct dirent *e = ::readdir(d)) {
                std::string name = e->d_name;
                if (name != "." && name != "..")
                    std::remove((path + "/" + name).c_str());
            }
            ::closedir(d);
        }
        ::rmdir(path.c_str());
    }
};

/** Install a RunCache for one scope; always uninstalls. */
struct CacheGuard
{
    explicit CacheGuard(RunCache *c) { setRunCache(c); }
    ~CacheGuard() { setRunCache(nullptr); }
};

RunPoint
smallPoint(const std::string &app = "radix", double overhead = -1)
{
    RunPoint pt;
    pt.app = app;
    pt.config.nprocs = 4;
    pt.config.scale = 0.1;
    pt.config.seed = 1;
    if (overhead > 0)
        pt.config.knobs.overheadUs = overhead;
    return pt;
}

// ---- canonical spec + key -------------------------------------------

TEST(Spec, KeyIsStableAndWellFormed)
{
    RunPoint pt = smallPoint();
    std::string key = svc::cacheKey(pt);
    EXPECT_EQ(key.size(), 64u);
    for (char c : key)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << key;
    EXPECT_EQ(key, svc::cacheKey(pt));
    EXPECT_EQ(svc::canonicalSpec(pt), svc::canonicalSpec(pt));
}

TEST(Spec, KeyIsSensitiveToEveryFieldThatChangesResults)
{
    const std::string base = svc::cacheKey(smallPoint());

    std::vector<RunPoint> variants;
    variants.push_back(smallPoint("em3d-write"));
    RunPoint p = smallPoint();
    p.config.nprocs = 8;
    variants.push_back(p);
    p = smallPoint();
    p.config.scale = 0.2;
    variants.push_back(p);
    p = smallPoint();
    p.config.seed = 2;
    variants.push_back(p);
    p = smallPoint();
    p.config.validate = false;
    variants.push_back(p);
    p = smallPoint();
    p.config.maxTime = 42 * kSec;
    variants.push_back(p);
    p = smallPoint();
    p.config.machine = MachineConfig::intelParagon();
    variants.push_back(p);
    p = smallPoint();
    p.config.knobs.overheadUs = 12.9;
    variants.push_back(p);
    p = smallPoint();
    p.config.knobs.gapUs = 30;
    variants.push_back(p);
    p = smallPoint();
    p.config.knobs.latencyUs = 55;
    variants.push_back(p);
    p = smallPoint();
    p.config.knobs.bulkMBps = 10;
    variants.push_back(p);
    p = smallPoint();
    p.config.knobs.window = 4;
    variants.push_back(p);
    p = smallPoint();
    p.config.knobs.dropRate = 0.01;
    p.config.knobs.reliable = 1;
    variants.push_back(p);

    for (std::size_t i = 0; i < variants.size(); ++i) {
        EXPECT_NE(svc::cacheKey(variants[i]), base) << "variant " << i;
        for (std::size_t j = i + 1; j < variants.size(); ++j)
            EXPECT_NE(svc::cacheKey(variants[i]),
                      svc::cacheKey(variants[j]))
                << i << " vs " << j;
    }

    // A double that differs in the last bit must not alias.
    p = smallPoint();
    p.config.knobs.overheadUs = 12.9;
    RunPoint q = smallPoint();
    q.config.knobs.overheadUs =
        std::nextafter(12.9, 1e9);
    EXPECT_NE(svc::cacheKey(p), svc::cacheKey(q));
}

TEST(Spec, ValidateSpecAnswersInsteadOfKilling)
{
    EXPECT_EQ(svc::validateSpec(smallPoint()), "");

    RunPoint pt = smallPoint("no-such-app");
    EXPECT_NE(svc::validateSpec(pt), "");
    pt = smallPoint();
    pt.config.nprocs = 1;
    EXPECT_NE(svc::validateSpec(pt), "");
    pt = smallPoint();
    pt.config.nprocs = 100000;
    EXPECT_NE(svc::validateSpec(pt), "");
    pt = smallPoint();
    pt.config.scale = 0;
    EXPECT_NE(svc::validateSpec(pt), "");
    pt = smallPoint();
    pt.config.knobs.overheadUs = 0.5; // Below the hardware baseline.
    EXPECT_NE(svc::validateSpec(pt), "");
    pt = smallPoint();
    pt.config.knobs.dropRate = 2.0;
    EXPECT_NE(svc::validateSpec(pt), "");
}

// What a trace header carries: a point rendered as a submit request,
// every field of the request form away from its default, reads back
// to the same canonical spec (doubles by bit pattern, the budget to
// the tick).
TEST(Spec, SubmitRequestReadsBackToTheSameSpec)
{
    RunPoint pt;
    pt.app = "em3d-read";
    RunConfig &c = pt.config;
    c.nprocs = 12;
    c.scale = 0.3;
    c.seed = 7;
    c.maxTime = 2500 * kMsec + 123;
    c.validate = false;
    c.machine = MachineConfig::meikoCs2();
    double v = 0;
    for (const svc::KnobField &f : svc::knobFields()) {
        v += 1;
        f.set(c.knobs, f.integral ? v : v + 0.1);
        EXPECT_EQ(f.get(c.knobs), f.integral ? v : v + 0.1) << f.key;
    }

    const std::string line = svc::submitRequest(pt);
    svc::JsonValue req;
    ASSERT_TRUE(svc::parseJson(line, req)) << line;
    const RunPoint back = svc::pointOfRequest(req);
    EXPECT_EQ(back.config.machine.name, "Meiko CS-2");
    EXPECT_EQ(back.config.maxTime, c.maxTime);
    EXPECT_EQ(svc::canonicalSpec(back), svc::canonicalSpec(pt)) << line;
}

// ---- result codec ----------------------------------------------------

TEST(Codec, RoundTripIsByteIdentical)
{
    RunPoint pt = smallPoint();
    RunResult r = runApp(pt.app, pt.config);
    ASSERT_TRUE(r.ok);

    std::string payload = svc::encodeResult(r);
    RunResult back;
    ASSERT_TRUE(svc::decodeResult(payload, back));

    EXPECT_EQ(fingerprint(back), fingerprint(r));
    EXPECT_EQ(back.metrics.render(), r.metrics.render());
    EXPECT_EQ(back.runtime, r.runtime);
    EXPECT_EQ(back.validated, r.validated);
    // Re-encoding the decoded result reproduces the exact bytes.
    EXPECT_EQ(svc::encodeResult(back), payload);
}

TEST(Codec, EveryTruncationFailsCleanly)
{
    RunPoint pt = smallPoint();
    RunResult r = runApp(pt.app, pt.config);
    std::string payload = svc::encodeResult(r);
    for (std::size_t n = 0; n < payload.size(); ++n) {
        RunResult out;
        EXPECT_FALSE(svc::decodeResult(
            std::string_view(payload.data(), n), out))
            << "prefix of " << n << " bytes decoded";
    }
    // Trailing garbage is rejected too.
    RunResult out;
    EXPECT_FALSE(svc::decodeResult(payload + "x", out));
}

TEST(Codec, RandomFlipsNeverCrash)
{
    RunPoint pt = smallPoint();
    std::string payload = svc::encodeResult(runApp(pt.app, pt.config));
    for (std::size_t i = 0; i < payload.size(); i += 7) {
        std::string bad = payload;
        bad[i] = static_cast<char>(bad[i] ^ 0x5a);
        RunResult out;
        svc::decodeResult(bad, out); // Must return, not crash.
    }
}

// ---- result store ----------------------------------------------------

std::string
hexKey(char fill)
{
    return std::string(64, fill);
}

TEST(Store, RoundTripAndMissingKey)
{
    TempDir dir;
    svc::ResultStore store(dir.path);
    std::string payload = "some experiment bytes";
    EXPECT_TRUE(store.put(hexKey('a'), payload));

    std::string got;
    EXPECT_TRUE(store.get(hexKey('a'), got));
    EXPECT_EQ(got, payload);
    EXPECT_FALSE(store.get(hexKey('b'), got));
    EXPECT_FALSE(store.put("not-a-key", payload));

    svc::ResultStore::Stats s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.puts, 1u);
    EXPECT_EQ(store.entryCount(), 1u);
}

TEST(Store, SurvivesReopen)
{
    TempDir dir;
    {
        svc::ResultStore store(dir.path);
        EXPECT_TRUE(store.put(hexKey('a'), "alpha"));
        EXPECT_TRUE(store.put(hexKey('b'), "beta"));
    }
    svc::ResultStore store(dir.path);
    std::string got;
    EXPECT_TRUE(store.get(hexKey('a'), got));
    EXPECT_EQ(got, "alpha");
    EXPECT_TRUE(store.get(hexKey('b'), got));
    EXPECT_EQ(got, "beta");
}

TEST(Store, CorruptEntriesAreDetectedAndDropped)
{
    for (int mode = 0; mode < 3; ++mode) {
        TempDir dir;
        svc::ResultStore store(dir.path);
        ASSERT_TRUE(store.put(hexKey('c'), "precious result bytes"));
        std::string obj = dir.path + "/obj-" + hexKey('c');

        if (mode == 0) {
            // Flip one payload byte behind the store's back.
            std::FILE *f = std::fopen(obj.c_str(), "r+b");
            ASSERT_NE(f, nullptr);
            std::fseek(f, -3, SEEK_END);
            int c = std::fgetc(f);
            std::fseek(f, -3, SEEK_END);
            std::fputc(c ^ 0xff, f);
            std::fclose(f);
        } else if (mode == 1) {
            // Truncate mid-payload.
            ASSERT_EQ(::truncate(obj.c_str(), 90), 0);
        } else {
            // Replace with junk entirely.
            std::FILE *f = std::fopen(obj.c_str(), "wb");
            ASSERT_NE(f, nullptr);
            std::fputs("not a store entry at all", f);
            std::fclose(f);
        }

        std::string got;
        EXPECT_FALSE(store.get(hexKey('c'), got)) << "mode " << mode;
        EXPECT_EQ(store.stats().corrupt, 1u) << "mode " << mode;
        // The bad entry is gone: no longer indexed, file removed.
        EXPECT_EQ(store.entryCount(), 0u) << "mode " << mode;
        EXPECT_NE(::access(obj.c_str(), F_OK), 0) << "mode " << mode;
    }
}

TEST(Store, LruEvictionSparesRecentlyTouched)
{
    TempDir dir;
    // Entry file = 88 bytes of header + payload; bound fits three.
    const std::string payload(100, 'x');
    svc::ResultStore store(dir.path, 600);
    ASSERT_TRUE(store.put(hexKey('a'), payload));
    ASSERT_TRUE(store.put(hexKey('b'), payload));
    ASSERT_TRUE(store.put(hexKey('c'), payload));
    EXPECT_EQ(store.entryCount(), 3u);

    std::string got;
    EXPECT_TRUE(store.get(hexKey('a'), got)); // LRU touch: a is hot.

    ASSERT_TRUE(store.put(hexKey('d'), payload));
    EXPECT_EQ(store.entryCount(), 3u);
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_TRUE(store.contains(hexKey('a'))); // Touched: survived.
    EXPECT_FALSE(store.contains(hexKey('b'))); // Oldest cold: evicted.
    EXPECT_TRUE(store.contains(hexKey('c')));
    EXPECT_TRUE(store.contains(hexKey('d')));
    EXPECT_LE(store.totalBytes(), 600u);
}

TEST(Store, RebuildsFromObjectsWhenIndexIsLost)
{
    TempDir dir;
    {
        svc::ResultStore store(dir.path);
        ASSERT_TRUE(store.put(hexKey('a'), "alpha"));
        ASSERT_TRUE(store.put(hexKey('b'), "beta"));
    }
    // Lose the index, corrupt nothing else, leave a stale tmp file.
    std::remove((dir.path + "/index.txt").c_str());
    std::FILE *f =
        std::fopen((dir.path + "/.tmp-999-abcd").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("half-written wreck", f);
    std::fclose(f);

    svc::ResultStore store(dir.path);
    EXPECT_EQ(store.entryCount(), 2u);
    std::string got;
    EXPECT_TRUE(store.get(hexKey('a'), got));
    EXPECT_EQ(got, "alpha");
    // The crash leftover was swept.
    EXPECT_NE(::access((dir.path + "/.tmp-999-abcd").c_str(), F_OK), 0);
}

// ---- cached runs: hit == recomputation, byte for byte ---------------

TEST(CachedRuns, SecondSweepIsAllHitsAndByteIdentical)
{
    std::vector<RunPoint> points;
    for (double o : {2.9, 12.9, 22.9}) {
        RunPoint p = smallPoint("em3d-write", o);
        p.config.validate = false;
        points.push_back(p);
    }

    // Ground truth: no cache anywhere.
    std::vector<RunResult> plain = runPoints(points, 2);
    std::vector<std::string> truth;
    for (const RunResult &r : plain)
        truth.push_back(fingerprint(r));

    TempDir dir;
    svc::ResultStore store(dir.path);
    svc::StoreCache cache(store);
    CacheGuard guard(&cache);

    std::vector<RunResult> cold = runPoints(points, 2);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), points.size());

    std::vector<RunResult> warm = runPoints(points, 2);
    EXPECT_EQ(cache.hits(), points.size());

    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(fingerprint(cold[i]), truth[i]) << i;
        EXPECT_EQ(fingerprint(warm[i]), truth[i]) << i;
        EXPECT_EQ(warm[i].metrics.render(), cold[i].metrics.render())
            << i;
    }
}

TEST(CachedRuns, SinkedPointsBypassTheCache)
{
    TempDir dir;
    svc::ResultStore store(dir.path);
    svc::StoreCache cache(store);
    CacheGuard guard(&cache);

    RunPoint pt = smallPoint();
    SpanTracer trace;
    pt.config.obs = &trace;
    RunResult r = runPointCached(pt);
    EXPECT_TRUE(r.ok);
    // A traced run must really run (side effects), and must not
    // poison the store with a key that ignores the sink.
    EXPECT_GT(trace.messages().size(), 0u);
    EXPECT_EQ(store.entryCount(), 0u);
    EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

// ---- runner backpressure and drain ----------------------------------

TEST(Runner, BoundedQueueRejectsWhenFull)
{
    Runner pool(1, 1);
    std::atomic<bool> gate{false};
    std::atomic<int> ran{0};

    // Occupy the single worker...
    ASSERT_TRUE(pool.trySubmit([&] {
        while (!gate.load())
            std::this_thread::yield();
        ++ran;
    }));
    while (pool.activeCount() == 0 && pool.queueDepth() > 0)
        std::this_thread::yield();
    // ...fill the one queue slot...
    ASSERT_TRUE(pool.trySubmit([&] { ++ran; }));
    // ...and the bound holds.
    EXPECT_FALSE(pool.trySubmit([&] { ++ran; }));

    gate = true;
    pool.drain();
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(pool.queueDepth(), 0u);

    // Accepted again after the drain; rejected after shutdown.
    EXPECT_TRUE(pool.trySubmit([&] { ++ran; }));
    pool.shutdown();
    EXPECT_EQ(ran.load(), 3);
    EXPECT_FALSE(pool.trySubmit([&] { ++ran; }));
}

// ---- ServiceCore protocol -------------------------------------------

svc::JsonValue
parsed(const std::string &reply)
{
    svc::JsonValue v;
    std::string err;
    EXPECT_TRUE(svc::parseJson(reply, v, &err)) << reply << " " << err;
    return v;
}

const std::string kSubmitRadix =
    "{\"op\":\"submit\",\"app\":\"radix\",\"procs\":4,\"scale\":0.1}";

TEST(ServiceCore, SubmitStatusGetLifecycle)
{
    svc::ServiceConfig cfg;
    cfg.jobs = 2;
    svc::ServiceCore core(cfg);

    svc::JsonValue v = parsed(core.handleLine(kSubmitRadix));
    ASSERT_TRUE(v.boolOr("ok", false));
    std::uint64_t id = static_cast<std::uint64_t>(v.numberOr("id", 0));
    EXPECT_EQ(id, 1u);

    core.drain();
    std::string status = "{\"op\":\"status\",\"id\":1}";
    v = parsed(core.handleLine(status));
    EXPECT_EQ(v.stringOr("state", ""), "done");

    v = parsed(core.handleLine("{\"op\":\"get\",\"id\":1}"));
    ASSERT_TRUE(v.boolOr("ok", false));
    EXPECT_TRUE(v.boolOr("run_ok", false));
    EXPECT_TRUE(v.boolOr("validated", false));

    // The reported fingerprint is the local recomputation's, hashed or
    // not: compare against runApp directly.
    RunPoint pt = smallPoint();
    RunResult local = runApp(pt.app, pt.config);
    EXPECT_EQ(v.stringOr("fingerprint", ""), fingerprint(local));
    EXPECT_EQ(v.stringOr("key", ""), svc::cacheKey(pt));

    v = parsed(core.handleLine("{\"op\":\"get\",\"id\":99}"));
    EXPECT_FALSE(v.boolOr("ok", true));
}

TEST(ServiceCore, BadSubmitsAreAnsweredNotFatal)
{
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    svc::ServiceCore core(cfg);
    for (const char *line : {
             "{\"op\":\"submit\",\"app\":\"no-such-app\"}",
             "{\"op\":\"submit\",\"app\":\"radix\",\"procs\":1}",
             "{\"op\":\"submit\",\"app\":\"radix\",\"scale\":-1}",
             "{\"op\":\"submit\",\"app\":\"radix\","
             "\"knobs\":{\"overhead\":0.1}}",
             "{\"op\":\"nonsense\"}",
             "not json at all",
         }) {
        svc::JsonValue v = parsed(core.handleLine(line));
        EXPECT_FALSE(v.boolOr("ok", true)) << line;
    }
    svc::JsonValue v = parsed(core.handleLine("{\"op\":\"stats\"}"));
    EXPECT_EQ(v.find("counters")->numberOr("svc.requests.bad", 0), 6);
}

// Every microsecond knob is bounded before anything converts it to
// ticks. Unbounded, an occupancy of 1e300 reached the worker and
// aborted the server ("scheduling event in the past").
TEST(ServiceCore, HugeMicrosecondKnobsAreRefusedByName)
{
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    svc::ServiceCore core(cfg);
    for (const char *knob : {"overhead", "gap", "latency", "occupancy",
                             "reorder-delay", "rto", "delay-at",
                             "delay-us", "topo-hop"}) {
        const std::string line =
            std::string("{\"op\":\"submit\",\"app\":\"radix\","
                        "\"procs\":4,\"scale\":0.1,\"knobs\":{\"") +
            knob + "\":1e300}}";
        svc::JsonValue v = parsed(core.handleLine(line));
        EXPECT_FALSE(v.boolOr("ok", true)) << knob;
        EXPECT_NE(v.stringOr("error", "").find(knob), std::string::npos)
            << knob << ": " << v.stringOr("error", "");
    }
    svc::JsonValue v = parsed(core.handleLine("{\"op\":\"stats\"}"));
    EXPECT_EQ(v.find("counters")->numberOr("svc.submits", -1), 0);
}

// A knob key this build does not define must be refused, not dropped:
// a client still sending a retired key would otherwise get (and cache)
// a result computed without it. It is refused before any work is
// queued, and every key of the protocol's knob table is accepted.
TEST(ServiceCore, UnknownKnobsAreRefusedByWorkerAndCoordinator)
{
    const std::string line =
        "{\"op\":\"submit\",\"app\":\"radix\",\"procs\":4,"
        "\"scale\":0.1,\"knobs\":{\"overhead\":12.9,"
        "\"sim-threads\":4}}";
    const std::string refusal =
        "{\"ok\":false,\"error\":\"unknown knob 'sim-threads'\"}";

    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    svc::ServiceCore core(cfg);
    EXPECT_EQ(core.handleLine(line), refusal);
    svc::JsonValue v = parsed(core.handleLine("{\"op\":\"stats\"}"));
    EXPECT_EQ(v.find("counters")->numberOr("svc.requests.bad", 0), 1);
    EXPECT_EQ(v.find("counters")->numberOr("svc.submits", -1), 0);

    // A submit carrying every key of the table (the list `nowlab
    // submit` renders its knob options from) is not refused as an
    // unknown knob.
    ASSERT_FALSE(svc::knobFields().empty());
    svc::JsonWriter w;
    w.beginObject().field("op", "submit").field("app", "radix");
    w.beginObject("knobs");
    for (const svc::KnobField &f : svc::knobFields())
        w.field(f.key, 1.0);
    w.endObject().endObject();
    svc::JsonValue every = parsed(w.str());
    EXPECT_EQ(svc::submitComplaint(every, svc::pointOfRequest(every))
                  .rfind("unknown knob", 0),
              std::string::npos);
}

// A machine key the build does not know is refused by name, not run
// (and cached) as the Berkeley NOW.
TEST(ServiceCore, UnknownMachineIsRefusedNotRunOnTheDefault)
{
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    svc::ServiceCore core(cfg);
    EXPECT_EQ(core.handleLine("{\"op\":\"submit\",\"app\":\"radix\","
                              "\"procs\":4,\"scale\":0.05,"
                              "\"machine\":\"paragn\"}"),
              "{\"ok\":false,\"error\":\"unknown machine 'paragn' "
              "(now|paragon|meiko)\"}");
    svc::JsonValue v = parsed(core.handleLine("{\"op\":\"stats\"}"));
    EXPECT_EQ(v.find("counters")->numberOr("svc.submits", -1), 0);
}

// Integral fields arrive as JSON doubles; out-of-range values saturate
// instead of hitting an undefined narrowing cast, and validateSpec
// then refuses what is out of its range.
TEST(ServiceCore, OutOfRangeIntegralFieldsSaturate)
{
    RunPoint pt = svc::pointOfRequest(parsed(
        "{\"op\":\"submit\",\"app\":\"radix\",\"procs\":1e12,"
        "\"seed\":-5,\"max_ms\":1e300,\"knobs\":{\"window\":-1e12,"
        "\"delay-node\":1e30,\"topo-hosts\":3e9}}"));
    EXPECT_EQ(pt.config.nprocs, std::numeric_limits<int>::max());
    EXPECT_EQ(pt.config.seed, 0u);
    EXPECT_EQ(pt.config.maxTime, std::numeric_limits<Tick>::max());
    EXPECT_EQ(pt.config.knobs.window, std::numeric_limits<int>::min());
    EXPECT_EQ(pt.config.knobs.delayNode, std::numeric_limits<long>::max());
    EXPECT_EQ(pt.config.knobs.topoHosts, std::numeric_limits<int>::max());
    EXPECT_NE(svc::validateSpec(pt), "");

    // Job ids saturate too: a negative or huge id names no job.
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    svc::ServiceCore core(cfg);
    int bad = 0;
    for (const char *op : {"status", "get"}) {
        for (const char *id : {"-1", "1e300"}) {
            std::string line = std::string("{\"op\":\"") + op +
                               "\",\"id\":" + id + "}";
            EXPECT_EQ(core.handleLine(line),
                      "{\"ok\":false,\"error\":\"unknown id\"}")
                << line;
            ++bad;
        }
    }
    svc::JsonValue v = parsed(core.handleLine("{\"op\":\"stats\"}"));
    EXPECT_EQ(v.find("counters")->numberOr("svc.requests.bad", -1), bad);
}

TEST(ServiceCore, FullQueueAnswersBusyWithRetryHint)
{
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    cfg.maxQueue = 1;
    cfg.retryAfterMs = 123;
    svc::ServiceCore core(cfg);

    // Flood far faster than 4-proc radix runs can drain.
    int busy = 0, accepted = 0;
    std::uint64_t hinted = 0;
    for (int i = 0; i < 24; ++i) {
        svc::JsonValue v = parsed(core.handleLine(kSubmitRadix));
        if (v.boolOr("ok", false)) {
            ++accepted;
        } else {
            EXPECT_EQ(v.stringOr("error", ""), "busy");
            hinted =
                static_cast<std::uint64_t>(v.numberOr("retry_after_ms", 0));
            ++busy;
        }
    }
    EXPECT_GT(busy, 0);
    EXPECT_GT(accepted, 0);
    EXPECT_EQ(hinted, 123u);

    core.drain();
    // Every accepted job completed; every busy submit left no ghost.
    svc::JsonValue v = parsed(core.handleLine("{\"op\":\"stats\"}"));
    const svc::JsonValue *counters = v.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->numberOr("svc.jobs.done", -1), accepted);
    EXPECT_EQ(counters->numberOr("svc.requests.busy", -1), busy);
    EXPECT_EQ(v.numberOr("queue_depth", -1), 0);
}

TEST(ServiceCore, DrainingRefusesNewWorkButServesCacheHits)
{
    TempDir dir;
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    cfg.cacheDir = dir.path;
    svc::ServiceCore core(cfg);

    // Warm the store with one real run.
    parsed(core.handleLine(kSubmitRadix));
    core.drain();

    svc::JsonValue v = parsed(core.handleLine("{\"op\":\"shutdown\"}"));
    EXPECT_TRUE(v.boolOr("ok", false));
    EXPECT_TRUE(core.shuttingDown());

    // A novel point is refused...
    v = parsed(core.handleLine(
        "{\"op\":\"submit\",\"app\":\"radix\",\"procs\":8,"
        "\"scale\":0.1}"));
    EXPECT_EQ(v.stringOr("error", ""), "shutting-down");
    // ...but the warmed point still completes instantly from disk.
    v = parsed(core.handleLine(kSubmitRadix));
    EXPECT_TRUE(v.boolOr("ok", false));
    EXPECT_TRUE(v.boolOr("cached", false));
    EXPECT_EQ(v.stringOr("state", ""), "done");
}

TEST(ServiceCore, CacheOnlyModeNeverSimulates)
{
    TempDir dir;
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    cfg.cacheDir = dir.path;
    cfg.cacheOnly = true;
    svc::ServiceCore core(cfg);
    svc::JsonValue v = parsed(core.handleLine(kSubmitRadix));
    EXPECT_EQ(v.stringOr("error", ""), "cache-miss");
    v = parsed(core.handleLine("{\"op\":\"stats\"}"));
    EXPECT_EQ(v.find("counters")->numberOr("svc.jobs.done", -1), 0);
}

TEST(ServiceCore, AnalyticBackendServesEligibleJobs)
{
    svc::ServiceConfig cfg;
    cfg.jobs = 2;
    cfg.backend = "analytic";
    svc::ServiceCore core(cfg);

    svc::JsonValue v = parsed(core.handleLine(kSubmitRadix));
    ASSERT_TRUE(v.boolOr("ok", false));
    core.drain();

    // The get reply names the engine that actually answered, and the
    // analytic result matches the simulator within the validation
    // probe's tolerance (both at the model's own base point here, so
    // the residual calibration makes them agree exactly).
    v = parsed(core.handleLine("{\"op\":\"get\",\"id\":1}"));
    ASSERT_TRUE(v.boolOr("ok", false));
    EXPECT_TRUE(v.boolOr("run_ok", false));
    EXPECT_EQ(v.stringOr("backend", ""), "analytic");
    EXPECT_FALSE(v.boolOr("validated", true)); // Model-derived.
    RunPoint pt = smallPoint();
    RunResult local = runApp(pt.app, pt.config);
    EXPECT_EQ(static_cast<Tick>(v.numberOr("runtime_ticks", 0)),
              local.runtime);

    v = parsed(core.handleLine("{\"op\":\"stats\"}"));
    EXPECT_EQ(v.stringOr("backend", ""), "analytic");
    EXPECT_EQ(v.find("counters")->numberOr(
                  "svc.backend.analytic_served", 0),
              1);
    EXPECT_EQ(v.find("counters")->numberOr("svc.backend.fallbacks", -1),
              0);
}

TEST(ServiceCore, AnalyticBackendFallsBackToSimForIneligibleSpecs)
{
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    cfg.backend = "analytic";
    svc::ServiceCore core(cfg);

    // Fault injection is stochastic per point: the model must refuse
    // and the job must transparently drop to a real simulation.
    svc::JsonValue v = parsed(core.handleLine(
        "{\"op\":\"submit\",\"app\":\"radix\",\"procs\":4,"
        "\"scale\":0.1,\"knobs\":{\"drop\":0.01,\"reliable\":1}}"));
    ASSERT_TRUE(v.boolOr("ok", false));
    core.drain();

    v = parsed(core.handleLine("{\"op\":\"get\",\"id\":1}"));
    ASSERT_TRUE(v.boolOr("ok", false));
    EXPECT_TRUE(v.boolOr("run_ok", false));
    EXPECT_EQ(v.stringOr("backend", ""), "sim");

    v = parsed(core.handleLine("{\"op\":\"stats\"}"));
    EXPECT_EQ(v.find("counters")->numberOr("svc.backend.fallbacks", 0),
              1);
    EXPECT_EQ(v.find("counters")->numberOr(
                  "svc.backend.analytic_served", -1),
              0);
}

TEST(ServiceCore, StatsBreakFallbacksDownByReason)
{
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    cfg.backend = "analytic";
    svc::ServiceCore core(cfg);

    // Two distinct refusal reasons: stochastic faults, and a one-off
    // delay injection. The stats reply must count each separately
    // (the old first-reason-only string hid everything after job 1).
    svc::JsonValue v = parsed(core.handleLine(
        "{\"op\":\"submit\",\"app\":\"radix\",\"procs\":4,"
        "\"scale\":0.1,\"knobs\":{\"drop\":0.01,\"reliable\":1}}"));
    ASSERT_TRUE(v.boolOr("ok", false));
    v = parsed(core.handleLine(
        "{\"op\":\"submit\",\"app\":\"radix\",\"procs\":4,"
        "\"scale\":0.1,\"knobs\":{\"delay-node\":1,\"delay-at\":100,"
        "\"delay-us\":500}}"));
    ASSERT_TRUE(v.boolOr("ok", false));
    core.drain();

    v = parsed(core.handleLine("{\"op\":\"stats\"}"));
    EXPECT_EQ(v.find("counters")->numberOr("svc.backend.fallbacks", 0),
              2);
    const svc::JsonValue *reasons = v.find("fallback_reasons");
    ASSERT_NE(reasons, nullptr);
    EXPECT_EQ(reasons->numberOr(
                  "fault injection is stochastic per parameter point",
                  0),
              1);
    EXPECT_EQ(reasons->numberOr(
                  "one-off delay injection needs a real simulation", 0),
              1);
}

// A model its own probe poisoned names the drift for every job it turns
// away, the job whose run built it included.
TEST(ServiceCore, PoisonedModelFallbacksNameTheProbeDrift)
{
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    cfg.backend = "analytic";
    cfg.driftTolerance = 1e-6;
    svc::ServiceCore core(cfg);

    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(
            parsed(core.handleLine(kSubmitRadix)).boolOr("ok", false));
    core.drain();

    svc::JsonValue v = parsed(core.handleLine("{\"op\":\"stats\"}"));
    EXPECT_EQ(v.find("counters")->numberOr("svc.backend.fallbacks", 0),
              2);
    const svc::JsonValue *reasons = v.find("fallback_reasons");
    ASSERT_NE(reasons, nullptr);
    ASSERT_EQ(reasons->object.size(), 1u);
    EXPECT_EQ(reasons->object[0].first.rfind("probe drift ", 0), 0u)
        << reasons->object[0].first;
    EXPECT_EQ(reasons->object[0].second.number, 2);
}

TEST(ServiceCore, PerRequestBackendFieldOverridesSimDefault)
{
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    svc::ServiceCore core(cfg); // Default engine: sim.

    svc::JsonValue v = parsed(core.handleLine(
        "{\"op\":\"submit\",\"app\":\"radix\",\"procs\":4,"
        "\"scale\":0.1,\"backend\":\"analytic\"}"));
    ASSERT_TRUE(v.boolOr("ok", false));
    core.drain();

    v = parsed(core.handleLine("{\"op\":\"get\",\"id\":1}"));
    ASSERT_TRUE(v.boolOr("ok", false));
    EXPECT_EQ(v.stringOr("backend", ""), "analytic");
}

// Submits look the store up with origin 0 (simulated), so an analytic
// answer stored under origin 1 could never be read back: only
// simulated results are stored, fall-backs included.
TEST(ServiceCore, StoreHoldsOnlySimulatedResults)
{
    TempDir dir;
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    cfg.cacheDir = dir.path;
    cfg.backend = "analytic";
    svc::ServiceCore core(cfg);

    auto storePuts = [&core] {
        svc::JsonValue v = parsed(core.handleLine("{\"op\":\"stats\"}"));
        return v.find("store")->numberOr("puts", -1);
    };

    for (std::uint64_t id = 1; id <= 2; ++id) {
        svc::JsonValue v = parsed(core.handleLine(kSubmitRadix));
        ASSERT_TRUE(v.boolOr("ok", false));
        EXPECT_FALSE(v.boolOr("cached", true));
        core.drain();
        svc::JsonWriter g;
        g.beginObject().field("op", "get").field("id", id).endObject();
        v = parsed(core.handleLine(g.str()));
        EXPECT_EQ(v.stringOr("backend", ""), "analytic") << id;
    }
    EXPECT_EQ(storePuts(), 0);

    // Fault injection falls back to sim; that result is stored, and the
    // same analytic submit later is a cache hit on it.
    const std::string lossy =
        "{\"op\":\"submit\",\"app\":\"radix\",\"procs\":4,"
        "\"scale\":0.1,\"knobs\":{\"drop\":0.01,\"reliable\":1}}";
    svc::JsonValue v = parsed(core.handleLine(lossy));
    ASSERT_TRUE(v.boolOr("ok", false));
    EXPECT_FALSE(v.boolOr("cached", true));
    core.drain();
    EXPECT_EQ(storePuts(), 1);
    v = parsed(core.handleLine(lossy));
    EXPECT_TRUE(v.boolOr("cached", false));
    EXPECT_EQ(v.stringOr("state", ""), "done");
    v = parsed(core.handleLine("{\"op\":\"stats\"}"));
    EXPECT_EQ(v.find("counters")->numberOr("svc.cache.hits", -1), 1);
}

// A crash between a store write's tmp create and its rename leaves a
// .tmp- file; opening the store reaps it and the service counts it.
TEST(Fleet, StoreReapsStrayTmpFilesAndCountsThem)
{
    auto plantResidue = [](const std::string &dir) {
        for (const char *name : {".tmp-123-0", ".tmp-999-7"}) {
            std::FILE *f =
                std::fopen((dir + "/" + name).c_str(), "w");
            ASSERT_NE(f, nullptr);
            std::fputs("crash residue", f);
            std::fclose(f);
        }
    };

    TempDir dir;
    plantResidue(dir.path);
    {
        svc::ResultStore store(dir.path);
        EXPECT_EQ(store.stats().tmpReaped, 2u);
        EXPECT_EQ(store.entryCount(), 0u);
    }

    // The reap is surfaced as a service metric too.
    TempDir dir2;
    plantResidue(dir2.path);
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    cfg.cacheDir = dir2.path;
    svc::ServiceCore core(cfg);
    svc::JsonValue v = parsed(core.handleLine("{\"op\":\"stats\"}"));
    const svc::JsonValue *store = v.find("store");
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->numberOr("tmp_reaped", -1), 2);
    const svc::JsonValue *counters = v.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->numberOr("store_tmp_reaped", -1), 2);
}

// ---- client backoff -------------------------------------------------

TEST(Backoff, DoublesWithEqualJitterUpToCap)
{
    svc::Backoff b(100, 800, 7);
    int window = 100;
    for (int step = 0; step < 12; ++step) {
        int d = b.nextMs();
        EXPECT_GE(d, window / 2) << step;
        EXPECT_LE(d, window) << step;
        window = std::min(800, window * 2);
    }
    // Settled at the cap: every further delay is in [cap/2, cap].
    for (int step = 0; step < 8; ++step) {
        int d = b.nextMs();
        EXPECT_GE(d, 400);
        EXPECT_LE(d, 800);
    }
}

TEST(Backoff, ResetReturnsToBase)
{
    svc::Backoff b(100, 10'000, 3);
    for (int i = 0; i < 6; ++i)
        b.nextMs();
    b.reset();
    int d = b.nextMs();
    EXPECT_GE(d, 50);
    EXPECT_LE(d, 100);
}

TEST(Backoff, DeterministicPerSeed)
{
    svc::Backoff a(50, 5000, 42), b(50, 5000, 42), c(50, 5000, 43);
    std::vector<int> sa, sb, sc;
    for (int i = 0; i < 10; ++i) {
        sa.push_back(a.nextMs());
        sb.push_back(b.nextMs());
        sc.push_back(c.nextMs());
    }
    EXPECT_EQ(sa, sb);
    EXPECT_NE(sa, sc); // Distinct seeds decorrelate retriers.
}

// ---- the TCP server, end to end -------------------------------------

TEST(Server, SubmitPollGetOverTcpMatchesLocalRun)
{
    TempDir dir;
    svc::ServiceConfig cfg;
    cfg.jobs = 2;
    cfg.cacheDir = dir.path;
    svc::NowlabServer server(cfg, 0); // Ephemeral port.
    ASSERT_TRUE(server.start());
    ASSERT_GT(server.port(), 0);

    svc::Client client("127.0.0.1", server.port());
    std::string reply;
    ASSERT_TRUE(client.request(kSubmitRadix, reply));
    svc::JsonValue v = parsed(reply);
    ASSERT_TRUE(v.boolOr("ok", false));
    std::uint64_t id = static_cast<std::uint64_t>(v.numberOr("id", 0));

    std::string state = v.stringOr("state", "");
    while (state == "queued" || state == "running") {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ASSERT_TRUE(client.request("{\"op\":\"status\",\"id\":" +
                                       std::to_string(id) + "}",
                                   reply));
        state = parsed(reply).stringOr("state", "failed");
    }
    ASSERT_EQ(state, "done");

    ASSERT_TRUE(client.request(
        "{\"op\":\"get\",\"id\":" + std::to_string(id) + "}", reply));
    v = parsed(reply);
    RunPoint pt = smallPoint();
    RunResult local = runApp(pt.app, pt.config);
    EXPECT_EQ(v.stringOr("fingerprint", ""), fingerprint(local));

    // Resubmitting the same spec is an instant cache hit with the
    // byte-identical fingerprint.
    ASSERT_TRUE(client.request(kSubmitRadix, reply));
    v = parsed(reply);
    ASSERT_TRUE(v.boolOr("ok", false));
    EXPECT_TRUE(v.boolOr("cached", false));
    EXPECT_EQ(v.stringOr("state", ""), "done");
    std::uint64_t id2 = static_cast<std::uint64_t>(v.numberOr("id", 0));
    ASSERT_TRUE(client.request(
        "{\"op\":\"get\",\"id\":" + std::to_string(id2) + "}", reply));
    EXPECT_EQ(parsed(reply).stringOr("fingerprint", ""),
              fingerprint(local));

    server.requestStop();
    server.wait();
}

TEST(Server, SigtermStyleStopDrainsAcceptedJobs)
{
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    svc::NowlabServer server(cfg, 0);
    ASSERT_TRUE(server.start());

    svc::Client client("127.0.0.1", server.port());
    std::string reply;
    ASSERT_TRUE(client.request(kSubmitRadix, reply));
    ASSERT_TRUE(parsed(reply).boolOr("ok", false));

    // Stop immediately -- like the SIGTERM handler would -- and wait.
    server.requestStop();
    server.wait();

    // The accepted job must have completed, not been abandoned.
    svc::JsonValue v =
        parsed(server.core().handleLine("{\"op\":\"status\",\"id\":1}"));
    EXPECT_EQ(v.stringOr("state", ""), "done");
}

TEST(Server, StatsReportMetricsAndStore)
{
    TempDir dir;
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    cfg.cacheDir = dir.path;
    svc::NowlabServer server(cfg, 0);
    ASSERT_TRUE(server.start());

    svc::Client client("127.0.0.1", server.port());
    std::string reply;
    ASSERT_TRUE(client.request(kSubmitRadix, reply));
    server.core().drain();
    ASSERT_TRUE(client.request("{\"op\":\"stats\"}", reply));
    svc::JsonValue v = parsed(reply);
    const svc::JsonValue *counters = v.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->numberOr("svc.submits", -1), 1);
    EXPECT_EQ(counters->numberOr("svc.jobs.done", -1), 1);
    const svc::JsonValue *hist = v.find("histograms");
    ASSERT_NE(hist, nullptr);
    ASSERT_NE(hist->find("svc.run_time"), nullptr);
    EXPECT_EQ(hist->find("svc.run_time")->numberOr("count", -1), 1);
    const svc::JsonValue *store = v.find("store");
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->numberOr("puts", -1), 1);

    server.requestStop();
    server.wait();
}

// ---- hostile clients: the server must outlive every one of them -----

/** Blocking raw socket to 127.0.0.1:port; -1 on failure. */
int
rawConnect(int port, int rcvbuf = 0)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (rcvbuf > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** send() everything with MSG_NOSIGNAL; false once the peer is gone. */
bool
sendRaw(int fd, const std::string &data)
{
    const char *p = data.data();
    std::size_t n = data.size();
    while (n > 0) {
        ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/** Read up to the next '\n' (stripped); false on EOF/error/timeout. */
bool
readLineRaw(int fd, std::string &line, int timeoutMs = 5000)
{
    line.clear();
    for (;;) {
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, timeoutMs) <= 0)
            return false;
        char ch;
        ssize_t r = ::recv(fd, &ch, 1, 0);
        if (r <= 0)
            return false;
        if (ch == '\n')
            return true;
        line += ch;
        if (line.size() > (1u << 20))
            return false;
    }
}

/** True when the fd reaches EOF (orderly close) or error within
 *  `timeoutMs`, discarding any buffered reply bytes along the way. */
bool
drainsToEof(int fd, int timeoutMs)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeoutMs);
    for (;;) {
        int left = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count());
        if (left <= 0)
            return false;
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, left) <= 0)
            return false;
        char buf[4096];
        ssize_t r = ::recv(fd, buf, sizeof buf, 0);
        if (r <= 0)
            return true;
    }
}

const std::string kStatsLine = "{\"op\":\"stats\"}\n";

/** Cache-only config: every request answers instantly, so hostile-
 *  client tests exercise the transport, not the simulator. */
svc::ServiceConfig
transportConfig()
{
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    cfg.cacheOnly = true;
    return cfg;
}

TEST(Server, SurvivesMidReplyCloseAndReset)
{
    svc::NowlabServer server(transportConfig(), 0);
    ASSERT_TRUE(server.start());

    // Round 1: pipeline a burst of requests and close without reading
    // a single reply -- the classic SIGPIPE recipe (the server is
    // mid-write when the FIN arrives).
    {
        int fd = rawConnect(server.port());
        ASSERT_GE(fd, 0);
        std::string burst;
        for (int i = 0; i < 200; ++i)
            burst += kStatsLine;
        ASSERT_TRUE(sendRaw(fd, burst));
        ::close(fd);
    }

    // Round 2: same, but SO_LINGER{1,0} turns the close into a hard
    // RST, so the server's next send/recv errors instead of EOF-ing.
    {
        int fd = rawConnect(server.port());
        ASSERT_GE(fd, 0);
        std::string burst;
        for (int i = 0; i < 200; ++i)
            burst += kStatsLine;
        ASSERT_TRUE(sendRaw(fd, burst));
        struct linger lg = {1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
        ::close(fd);
    }

    // The daemon must still be alive and answering new connections.
    svc::Client client("127.0.0.1", server.port());
    std::string reply;
    ASSERT_TRUE(client.request("{\"op\":\"stats\"}", reply));
    EXPECT_TRUE(parsed(reply).find("counters") != nullptr);

    server.requestStop();
    server.wait();
}

TEST(Server, HalfCloseStillGetsTheReply)
{
    svc::NowlabServer server(transportConfig(), 0);
    ASSERT_TRUE(server.start());

    int fd = rawConnect(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendRaw(fd, kStatsLine));
    // shutdown(SHUT_WR): "no more requests, but I am still reading".
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

    std::string reply;
    ASSERT_TRUE(readLineRaw(fd, reply));
    EXPECT_TRUE(parsed(reply).find("counters") != nullptr);
    // After the last reply the server closes its side too.
    EXPECT_TRUE(drainsToEof(fd, 5000));
    ::close(fd);

    server.requestStop();
    server.wait();
}

TEST(Server, OversizedLineIsAnsweredAndTheConnectionRecovers)
{
    svc::NowlabServer server(transportConfig(), 0);
    ASSERT_TRUE(server.start());

    int fd = rawConnect(server.port());
    ASSERT_GE(fd, 0);
    // Well past kMaxRequestBytes without a newline: the server must
    // answer with an error instead of buffering without bound...
    ASSERT_TRUE(sendRaw(fd, std::string(svc::kMaxRequestBytes + 4096,
                                        'x')));
    std::string reply;
    ASSERT_TRUE(readLineRaw(fd, reply));
    EXPECT_EQ(parsed(reply).stringOr("error", ""), "oversized request");

    // ...and once the monster line finally ends, the same connection
    // serves normal requests again.
    ASSERT_TRUE(sendRaw(fd, "\n" + kStatsLine));
    ASSERT_TRUE(readLineRaw(fd, reply));
    EXPECT_TRUE(parsed(reply).find("counters") != nullptr);
    ::close(fd);

    server.requestStop();
    server.wait();
}

TEST(Server, SlowReaderIsDisconnectedAtTheWriteBufferBound)
{
    svc::ServerLimits limits;
    limits.maxWriteBuffer = 4096; // Tiny: overflow fast.
    svc::NowlabServer server(transportConfig(), 0, limits);
    ASSERT_TRUE(server.start());

    // A tiny receive window keeps the kernel from absorbing the
    // replies the client never reads; the pipelined burst piles them
    // up in the server's per-connection out buffer instead.
    int fd = rawConnect(server.port(), 4096);
    ASSERT_GE(fd, 0);
    for (int i = 0; i < 2000; ++i) {
        if (!sendRaw(fd, kStatsLine))
            break;
    }
    // The drop arrives asynchronously (close with unread data = RST),
    // so probe until a send bounces.
    bool disconnected = false;
    for (int i = 0; i < 200 && !disconnected; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        disconnected = !sendRaw(fd, kStatsLine);
    }
    EXPECT_TRUE(disconnected) << "server never dropped the slow reader";
    ::close(fd);

    // Punishing one hog must not hurt anyone else.
    svc::Client client("127.0.0.1", server.port());
    std::string reply;
    ASSERT_TRUE(client.request("{\"op\":\"stats\"}", reply));

    server.requestStop();
    server.wait();
}

TEST(Server, StalledWriterIsDisconnectedOnTimeout)
{
    svc::ServerLimits limits;
    limits.writeTimeoutMs = 200; // Pending replies, no progress.
    limits.maxWriteBuffer = 256u << 20; // The bound must NOT trip
                                        // first: this tests the timer.
    svc::NowlabServer server(transportConfig(), 0, limits);
    ASSERT_TRUE(server.start());

    // Enough pipelined replies to overflow both kernel socket buffers,
    // then never read: write progress stalls and the sweep must evict
    // us well before the generous buffer bound would.
    int fd = rawConnect(server.port(), 4096);
    ASSERT_GE(fd, 0);
    for (int i = 0; i < 20000; ++i) {
        if (!sendRaw(fd, kStatsLine))
            break;
    }
    // Probe patiently: sanitizer builds take many seconds just to
    // process the burst, and the timeout sweep cannot run until then.
    bool disconnected = false;
    for (int i = 0; i < 1200 && !disconnected; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        disconnected = !sendRaw(fd, kStatsLine);
    }
    EXPECT_TRUE(disconnected) << "write timeout never fired";
    ::close(fd);

    svc::Client client("127.0.0.1", server.port());
    std::string reply;
    ASSERT_TRUE(client.request("{\"op\":\"stats\"}", reply));

    server.requestStop();
    server.wait();
}

TEST(Server, ConnectionCapTurnsAwayExtras)
{
    svc::ServerLimits limits;
    limits.maxConnections = 2;
    svc::NowlabServer server(transportConfig(), 0, limits);
    ASSERT_TRUE(server.start());

    // Fill both slots (a round trip each proves they are registered).
    int a = rawConnect(server.port());
    int b = rawConnect(server.port());
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    std::string reply;
    ASSERT_TRUE(sendRaw(a, kStatsLine));
    ASSERT_TRUE(readLineRaw(a, reply));
    ASSERT_TRUE(sendRaw(b, kStatsLine));
    ASSERT_TRUE(readLineRaw(b, reply));

    // The third visitor gets a polite error line, then the door.
    int c = rawConnect(server.port());
    ASSERT_GE(c, 0);
    ASSERT_TRUE(readLineRaw(c, reply));
    EXPECT_EQ(parsed(reply).stringOr("error", ""),
              "too-many-connections");
    EXPECT_TRUE(drainsToEof(c, 5000));
    ::close(c);

    // Freeing a slot re-admits new clients (the FIN takes a loop tick
    // to process, so retry briefly).
    ::close(a);
    bool admitted = false;
    for (int i = 0; i < 100 && !admitted; ++i) {
        int d = rawConnect(server.port());
        ASSERT_GE(d, 0);
        if (sendRaw(d, kStatsLine) && readLineRaw(d, reply) &&
            parsed(reply).find("counters") != nullptr)
            admitted = true;
        ::close(d);
        if (!admitted)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(admitted);
    ::close(b);

    server.requestStop();
    server.wait();
}

TEST(Server, IdleConnectionsAreReaped)
{
    svc::ServerLimits limits;
    limits.idleTimeoutMs = 100;
    svc::NowlabServer server(transportConfig(), 0, limits);
    ASSERT_TRUE(server.start());

    int fd = rawConnect(server.port());
    ASSERT_GE(fd, 0);
    std::string reply;
    ASSERT_TRUE(sendRaw(fd, kStatsLine));
    ASSERT_TRUE(readLineRaw(fd, reply));
    // Now go quiet; within a few sweep ticks the server hangs up.
    EXPECT_TRUE(drainsToEof(fd, 5000));
    ::close(fd);

    server.requestStop();
    server.wait();
}

// ---- store crash injection ------------------------------------------

/** The step a forked writer dies at (set before fork; read in child). */
const char *gCrashStep = nullptr;

void
crashAtStep(const char *step)
{
    if (std::strcmp(step, gCrashStep) == 0)
        ::_exit(0); // Simulated power loss: no destructors, no flush.
}

TEST(Store, CrashAtEveryWriteStepLeavesOldOrNewNeverGarbage)
{
    // Same payload length old and new, so a stale index entry stays
    // size-consistent whichever bytes the crash left behind.
    const std::string oldVal = "old value";
    const std::string newVal = "new value";

    for (const char *step :
         {"tmp-create", "tmp-open", "tmp-written", "tmp-synced",
          "renamed", "dir-synced"}) {
        TempDir dir;
        {
            svc::ResultStore store(dir.path);
            ASSERT_TRUE(store.put(hexKey('a'), oldVal));
        }

        gCrashStep = step;
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0) << step;
        if (pid == 0) {
            // Child: overwrite the entry and die mid-write. The store
            // is opened before arming the hook so only put()'s own
            // writes hit the crash points.
            svc::ResultStore store(dir.path);
            svc::setStoreCrashHook(&crashAtStep);
            store.put(hexKey('a'), newVal);
            ::_exit(1); // The hook never fired: fail the step below.
        }
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid) << step;
        ASSERT_TRUE(WIFEXITED(status)) << step;
        ASSERT_EQ(WEXITSTATUS(status), 0)
            << step << ": crash hook never fired";

        // Reopen after the "crash": the entry is the complete old or
        // the complete new bytes, never a mix or a truncation...
        svc::ResultStore store(dir.path);
        std::string got;
        ASSERT_TRUE(store.get(hexKey('a'), got)) << step;
        EXPECT_TRUE(got == oldVal || got == newVal)
            << step << ": got '" << got << "'";
        // ...and once the rename happened, the new bytes are it.
        if (std::strcmp(step, "renamed") == 0 ||
            std::strcmp(step, "dir-synced") == 0) {
            EXPECT_EQ(got, newVal) << step;
        }

        // The survivor store still takes writes...
        EXPECT_TRUE(store.put(hexKey('b'), "still writable")) << step;
        // ...and the only possible residue, a stale .tmp-, was swept
        // on open.
        if (DIR *d = ::opendir(dir.path.c_str())) {
            while (struct dirent *e = ::readdir(d)) {
                EXPECT_EQ(std::string(e->d_name).rfind(".tmp-", 0),
                          std::string::npos)
                    << step << " left " << e->d_name;
            }
            ::closedir(d);
        }
    }
}

} // namespace
} // namespace nowcluster
