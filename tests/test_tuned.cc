/**
 * @file
 * Tests for the tuned collective library: every algorithm of every
 * collective against a simple reference result, across power-of-two,
 * odd, and prime processor counts and payloads from empty to the
 * megabyte regime; the LogP-greedy broadcast schedule; the cost
 * model's basic shape; the auto-tuner's policy plumbing; and measured
 * races between algorithms (the LogP-optimal broadcast never loses to
 * a tree and wins at high latency).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <optional>
#include <vector>

#include "coll/cost.hh"
#include "coll/tuned/harness.hh"
#include "coll/tuned/registry.hh"
#include "coll/tuned/tuned.hh"

namespace nowcluster {
namespace coll {
namespace {

LogGPParams
baseline()
{
    return MachineConfig::berkeleyNow().params;
}

std::uint8_t
patByte(int root, std::size_t i)
{
    return static_cast<std::uint8_t>((i * 7 + root * 131 + 13) & 0xff);
}

/** Big-payload cap: full megabyte at small P, scaled down at large P
 *  so staging and output buffers stay reasonable. */
std::size_t
bigPayload(int p)
{
    if (p <= 8)
        return std::size_t(1) << 20;
    return std::size_t(64) << 10;
}

class TunedEachP : public ::testing::TestWithParam<int>
{};

TEST_P(TunedEachP, BroadcastEveryAlgorithm)
{
    const int p = GetParam();
    SplitCRuntime rt(p, baseline());
    TunedCollectives tc(rt);
    const std::size_t payloads[] = {0, 1, 4096, bigPayload(p)};
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        for (std::size_t bytes : payloads) {
            for (CollAlg alg : algsFor(Coll::Broadcast)) {
                if (!algValid(alg, p, bytes))
                    continue;
                std::vector<int> roots = {0};
                if (p > 1 && bytes <= 4096)
                    roots.push_back(p - 1);
                for (int root : roots) {
                    std::vector<std::uint8_t> data(
                        std::max<std::size_t>(bytes, 1), 0);
                    if (sc.myProc() == root)
                        for (std::size_t i = 0; i < bytes; ++i)
                            data[i] = patByte(root, i);
                    tc.broadcast(sc, data.data(), bytes, root, alg);
                    for (std::size_t i = 0; i < bytes; ++i)
                        ASSERT_EQ(data[i], patByte(root, i))
                            << algName(alg) << " p=" << p
                            << " bytes=" << bytes << " root=" << root
                            << " me=" << sc.myProc() << " i=" << i;
                }
            }
        }
    }));
}

TEST_P(TunedEachP, AllGatherEveryAlgorithm)
{
    const int p = GetParam();
    SplitCRuntime rt(p, baseline());
    TunedCollectives tc(rt);
    const std::size_t payloads[] = {0, 1, 4096, bigPayload(p)};
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        for (std::size_t total : payloads) {
            const std::size_t block =
                total / static_cast<std::size_t>(p);
            for (CollAlg alg : algsFor(Coll::AllGather)) {
                if (!algValid(alg, p, block))
                    continue;
                std::vector<std::uint8_t> mine(
                    std::max<std::size_t>(block, 1));
                std::vector<std::uint8_t> out(
                    std::max<std::size_t>(block * p, 1), 0);
                for (std::size_t i = 0; i < block; ++i)
                    mine[i] = patByte(sc.myProc(), i);
                tc.allGather(sc, mine.data(), block, out.data(), alg);
                for (int src = 0; src < p; ++src)
                    for (std::size_t i = 0; i < block; ++i)
                        ASSERT_EQ(out[src * block + i],
                                  patByte(src, i))
                            << algName(alg) << " p=" << p
                            << " block=" << block
                            << " me=" << sc.myProc()
                            << " src=" << src << " i=" << i;
            }
        }
    }));
}

TEST_P(TunedEachP, AllToAllEveryAlgorithm)
{
    const int p = GetParam();
    SplitCRuntime rt(p, baseline());
    TunedCollectives tc(rt);
    const std::size_t payloads[] = {0, 1, 4096, bigPayload(p)};
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        const int me = sc.myProc();
        for (std::size_t total : payloads) {
            const std::size_t block =
                total / static_cast<std::size_t>(p);
            for (CollAlg alg : algsFor(Coll::AllToAll)) {
                if (!algValid(alg, p, block))
                    continue;
                std::vector<std::uint8_t> send(
                    std::max<std::size_t>(block * p, 1));
                std::vector<std::uint8_t> recv(
                    std::max<std::size_t>(block * p, 1), 0);
                // Block for dst j carries patByte(me * p + j, .).
                for (int j = 0; j < p; ++j)
                    for (std::size_t i = 0; i < block; ++i)
                        send[j * block + i] = patByte(me * p + j, i);
                tc.allToAll(sc, send.data(), block, recv.data(), alg);
                for (int src = 0; src < p; ++src)
                    for (std::size_t i = 0; i < block; ++i)
                        ASSERT_EQ(recv[src * block + i],
                                  patByte(src * p + me, i))
                            << algName(alg) << " p=" << p
                            << " block=" << block << " me=" << me
                            << " src=" << src << " i=" << i;
            }
        }
    }));
}

TEST_P(TunedEachP, AllReduceEveryAlgorithm)
{
    const int p = GetParam();
    SplitCRuntime rt(p, baseline());
    TunedCollectives tc(rt);
    const std::size_t payloads[] = {0, 1, 4096, bigPayload(p)};
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        const int me = sc.myProc();
        for (std::size_t total : payloads) {
            const std::size_t n =
                total / static_cast<std::size_t>(p) / 8;
            for (CollAlg alg : algsFor(Coll::AllReduce)) {
                if (!algValid(alg, p, n * 8))
                    continue;
                std::vector<std::int64_t> vec(
                    std::max<std::size_t>(n, 1));
                for (std::size_t i = 0; i < n; ++i)
                    vec[i] = me * 1000 + static_cast<std::int64_t>(i);
                tc.allReduceAdd(sc, vec.data(), n, alg);
                const std::int64_t ranks =
                    static_cast<std::int64_t>(p) * (p - 1) / 2;
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(vec[i],
                              ranks * 1000 +
                                  static_cast<std::int64_t>(i) * p)
                        << algName(alg) << " p=" << p << " n=" << n
                        << " me=" << me << " i=" << i;
            }
        }
    }));
}

TEST_P(TunedEachP, BarrierEveryAlgorithmHoldsEveryoneBack)
{
    const int p = GetParam();
    SplitCRuntime rt(p, baseline());
    TunedCollectives tc(rt);
    // Arrival flags live outside run(); every processor raises its
    // own flag, crosses the barrier, and must then observe all flags.
    std::vector<int> arrived(p, 0);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        for (CollAlg alg : algsFor(Coll::Barrier)) {
            std::fill(arrived.begin(), arrived.end(), 0);
            sc.barrier();
            // Stagger entries so late arrivals are real.
            for (int i = 0; i < sc.myProc() % 7; ++i)
                sc.compute(usec(3));
            arrived[sc.myProc()] = 1;
            tc.barrier(sc, alg);
            for (int i = 0; i < p; ++i)
                ASSERT_EQ(arrived[i], 1)
                    << algName(alg) << " p=" << p
                    << " me=" << sc.myProc() << " flag=" << i;
            tc.barrier(sc, alg); // Exit sync before refilling flags.
        }
        // Algorithms must also mix freely back to back.
        tc.barrier(sc, CollAlg::BarFlat);
        tc.barrier(sc, CollAlg::BarTournament);
        tc.barrier(sc, CollAlg::BarDissemination);
        tc.barrier(sc, CollAlg::BarFlat);
    }));
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, TunedEachP,
                         ::testing::Values(1, 2, 3, 5, 8, 64, 257));

// ---------------------------------------------------------------------
// Word-sized payloads: every root, back-to-back epochs, and the
// auto-tuned entries next to every explicit algorithm.
// ---------------------------------------------------------------------

class CollEachP : public ::testing::TestWithParam<int>
{};

TEST_P(CollEachP, BroadcastAllAlgorithmsAllRoots)
{
    // The schedules are root-relative (logp's greedy targets, the
    // binomial relays), so every rotation must deliver, not just
    // roots 0 and P-1.
    const int p = GetParam();
    SplitCRuntime rt(p, baseline());
    TunedCollectives tc(rt);
    std::vector<Word> v(p, 0);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        const int me = sc.myProc();
        auto check = [&](int root, const char *what) {
            ASSERT_EQ(v[me], static_cast<Word>(4000 + root))
                << what << " p=" << p << " root=" << root
                << " me=" << me;
        };
        for (int root = 0; root < p; ++root) {
            for (CollAlg alg : algsFor(Coll::Broadcast)) {
                if (!algValid(alg, p, sizeof(Word)))
                    continue;
                v[me] = me == root ? 4000 + root : 0;
                tc.broadcast(sc, &v[me], sizeof(Word), root, alg);
                check(root, algName(alg));
            }
            v[me] = me == root ? 4000 + root : 0;
            tc.broadcast(sc, &v[me], sizeof(Word), root);
            check(root, "auto");
        }
    }));
}

TEST_P(CollEachP, AllGatherBothAlgorithms)
{
    const int p = GetParam();
    SplitCRuntime rt(p, baseline());
    TunedCollectives tc(rt);
    const std::size_t n = 3;
    const std::size_t block = n * sizeof(Word);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        const int me = sc.myProc();
        std::vector<Word> mine(n), out(n * p);
        for (std::size_t i = 0; i < n; ++i)
            mine[i] = static_cast<Word>(me) * 100 + i;
        auto check = [&](const char *what) {
            for (int q = 0; q < p; ++q)
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(out[static_cast<std::size_t>(q) * n + i],
                              static_cast<Word>(q) * 100 + i)
                        << what << " p=" << p << " me=" << me;
        };
        // Ring everywhere; recursive doubling at power-of-two P.
        for (CollAlg alg : {CollAlg::AgRing, CollAlg::AgRecDouble}) {
            if (!algValid(alg, p, block))
                continue;
            std::fill(out.begin(), out.end(), 0);
            tc.allGather(sc, mine.data(), block, out.data(), alg);
            check(algName(alg));
        }
        std::fill(out.begin(), out.end(), 0);
        tc.allGather(sc, mine.data(), block, out.data());
        check("auto");
    }));
}

TEST_P(CollEachP, AllToAllTransposes)
{
    const int p = GetParam();
    SplitCRuntime rt(p, baseline());
    TunedCollectives tc(rt);
    const std::size_t n = 2;
    const std::size_t block = n * sizeof(Word);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        const int me = sc.myProc();
        std::vector<Word> send(n * p), recv(n * p);
        for (int q = 0; q < p; ++q)
            for (std::size_t i = 0; i < n; ++i)
                send[static_cast<std::size_t>(q) * n + i] =
                    static_cast<Word>(me * 1000 + q * 10 + i);
        auto check = [&](const char *what) {
            for (int q = 0; q < p; ++q)
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(recv[static_cast<std::size_t>(q) * n + i],
                              static_cast<Word>(q * 1000 + me * 10 + i))
                        << what << " p=" << p << " me=" << me;
        };
        for (CollAlg alg : algsFor(Coll::AllToAll)) {
            std::fill(recv.begin(), recv.end(), 0);
            tc.allToAll(sc, send.data(), block, recv.data(), alg);
            check(algName(alg));
        }
        std::fill(recv.begin(), recv.end(), 0);
        tc.allToAll(sc, send.data(), block, recv.data());
        check("auto");
    }));
}

TEST_P(CollEachP, BarrierAlgorithmsHaveIdenticalSemantics)
{
    const int p = GetParam();
    // No processor may return from the barrier before every processor
    // has entered it -- checked over several epochs, for every
    // algorithm and the auto-tuned entry alike (identical semantics is
    // the contract that lets the tuner switch between them by size).
    std::vector<std::optional<CollAlg>> algs(algsFor(Coll::Barrier).begin(),
                                             algsFor(Coll::Barrier).end());
    algs.push_back(std::nullopt); // The auto-tuned entry.
    for (const std::optional<CollAlg> &alg : algs) {
        SplitCRuntime rt(p, baseline());
        TunedCollectives tc(rt);
        std::vector<int> entered(p, 0);
        ASSERT_TRUE(rt.run([&](SplitC &sc) {
            const int me = sc.myProc();
            for (int round = 1; round <= 3; ++round) {
                entered[me] = round;
                if (alg)
                    tc.barrier(sc, *alg);
                else
                    tc.barrier(sc);
                for (int q = 0; q < p; ++q)
                    ASSERT_GE(entered[q], round)
                        << (alg ? algName(*alg) : "auto") << " proc "
                        << me << " released before " << q
                        << " entered (round " << round << ")";
            }
        }));
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollEachP,
                         ::testing::Values(1, 2, 5, 8, 16));

// ---------------------------------------------------------------------
// The LogP-greedy broadcast schedule (coll/cost.hh).
// ---------------------------------------------------------------------

TEST(BcastSchedule, CoversEveryRankExactlyOnce)
{
    auto steps = buildOptimalBroadcast(17, usec(5.8), usec(10.8));
    EXPECT_EQ(steps.size(), 16u);
    std::vector<bool> reached(17, false);
    reached[0] = true;
    for (const auto &s : steps) {
        EXPECT_TRUE(reached[s.sender]) << "sender not yet reached";
        EXPECT_FALSE(reached[s.receiver]) << "double delivery";
        reached[s.receiver] = true;
    }
    for (bool r : reached)
        EXPECT_TRUE(r);
}

TEST(BcastSchedule, TrivialSizes)
{
    EXPECT_TRUE(buildOptimalBroadcast(1, usec(1), usec(1)).empty());
    auto two = buildOptimalBroadcast(2, usec(1), usec(1));
    ASSERT_EQ(two.size(), 1u);
    EXPECT_EQ(two[0].sender, 0);
    EXPECT_EQ(two[0].receiver, 1);
    EXPECT_EQ(two[0].issueAt, 0);
}

TEST(BcastSchedule, PredictedCompletionBeatsBinomialWhenLatencyHigh)
{
    // With L >> g a fixed binomial tree wastes the root's send slots;
    // the greedy schedule keeps every holder transmitting. Binomial
    // completion under the same model: ceil(log2 P) * arrival (the
    // last leaf waits for a full chain), here computed explicitly.
    const int p = 32;
    Tick send = usec(5.8);
    Tick arrive = usec(5.8 + 105 + 5.8); // o + L + o with L=105.
    auto steps = buildOptimalBroadcast(p, send, arrive);
    Tick optimal = predictedBroadcastCompletion(steps, arrive);

    // Binomial: depth levels of arrival, plus send-slot serialization
    // at the root; lower bound is 5 * arrival for 32 procs.
    Tick binomial_lb = 5 * arrive;
    EXPECT_LE(optimal, binomial_lb);

    // The registered model agrees at the same operating point.
    auto params = baseline();
    params.setDesiredLatencyUsec(105.0);
    const LogGPPoint pt = pointFromParams(params);
    EXPECT_LT(predictCollective(pt, Coll::Broadcast, CollAlg::BcastLogp,
                                p, sizeof(Word)),
              predictCollective(pt, Coll::Broadcast,
                                CollAlg::BcastBinomial, p,
                                sizeof(Word)));
}

TEST(BcastSchedule, MonotoneIssueTimesPerSender)
{
    auto steps = buildOptimalBroadcast(32, usec(5.8), usec(10.8));
    std::map<NodeId, Tick> last;
    for (const auto &s : steps) {
        if (last.count(s.sender)) {
            EXPECT_GT(s.issueAt, last[s.sender]);
        }
        last[s.sender] = s.issueAt;
    }
}

// ---------------------------------------------------------------------
// Degenerate sizes and the tuner's barrier pick.
// ---------------------------------------------------------------------

TEST(CollEdge, TrivialScheduleSkipsParameterValidation)
{
    // A one-processor schedule needs no model, so degenerate
    // parameters must not trip the positivity check.
    EXPECT_TRUE(buildOptimalBroadcast(1, 0, 0).empty());
    EXPECT_TRUE(buildOptimalBroadcast(0, -1, -1).empty());
    EXPECT_EQ(predictedBroadcastCompletion({}, usec(10)), 0);
}

TEST(CollEdge, SingleProcessorEntryPointsShortCircuit)
{
    SplitCRuntime rt(1, baseline());
    TunedCollectives tc(rt);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        Word token = 42;
        tc.broadcast(sc, &token, sizeof(Word), 0);
        EXPECT_EQ(token, Word{42});
        const Word mine[4] = {7, 8, 9, 10};
        Word out[4] = {0, 0, 0, 0};
        tc.allGather(sc, mine, sizeof(mine), out);
        Word recv[4] = {0, 0, 0, 0};
        tc.allToAll(sc, mine, sizeof(mine), recv);
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(out[i], mine[i]);
            EXPECT_EQ(recv[i], mine[i]);
        }
        std::int64_t vec[2] = {11, 12};
        tc.allReduceAdd(sc, vec, 2);
        EXPECT_EQ(vec[0], 11);
        EXPECT_EQ(vec[1], 12);
        tc.barrier(sc);
    }));
}

TEST(CollEdge, CostPointDrivesAutoBarrierSelection)
{
    // Under the NOW numbers the flat barrier pays a full extra arrival
    // (L + occupancy + a serialization slot) even at P = 2, so the
    // model picks dissemination at small and large P alike.
    const LogGPPoint pt = pointFromParams(baseline());
    EXPECT_EQ(chooseAlg(pt, Coll::Barrier, 8, 0),
              CollAlg::BarDissemination);
    EXPECT_EQ(chooseAlg(pt, Coll::Barrier, 128, 0),
              CollAlg::BarDissemination);

    // The auto entry runs that pick and keeps barrier semantics.
    const int p = 8;
    SplitCRuntime rt(p, baseline());
    TunedCollectives tc(rt);
    EXPECT_EQ(tc.select(Coll::Barrier, p, 0), CollAlg::BarDissemination);
    std::vector<int> entered(p, 0);
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        const int me = sc.myProc();
        for (int round = 1; round <= 3; ++round) {
            entered[me] = round;
            tc.barrier(sc);
            for (int q = 0; q < p; ++q)
                ASSERT_GE(entered[q], round);
        }
    }));
}

// ---------------------------------------------------------------------
// Auto-tuned entry points and policy plumbing.
// ---------------------------------------------------------------------

TEST(TunedAuto, AutoEntriesProduceCorrectResultsAndMatchChooseAlg)
{
    const int p = 6;
    SplitCRuntime rt(p, baseline());
    TunedCollectives tc(rt);
    EXPECT_EQ(tc.select(Coll::Broadcast, p, 4096),
              chooseAlg(tc.point(), Coll::Broadcast, p, 4096));
    EXPECT_EQ(tc.select(Coll::AllReduce, p, 64),
              chooseAlg(tc.point(), Coll::AllReduce, p, 64));
    ASSERT_TRUE(rt.run([&](SplitC &sc) {
        std::vector<std::uint8_t> data(512);
        if (sc.myProc() == 2)
            for (std::size_t i = 0; i < data.size(); ++i)
                data[i] = patByte(2, i);
        tc.broadcast(sc, data.data(), data.size(), 2);
        for (std::size_t i = 0; i < data.size(); ++i)
            ASSERT_EQ(data[i], patByte(2, i));

        std::vector<std::int64_t> vec(9, sc.myProc());
        tc.allReduceAdd(sc, vec.data(), vec.size());
        for (std::int64_t v : vec)
            ASSERT_EQ(v, static_cast<std::int64_t>(p) * (p - 1) / 2);

        tc.barrier(sc);
    }));
}

TEST(TunedAuto, PolicyStringPinsAlgorithms)
{
    CollPolicy naive = CollPolicy::parse("");
    EXPECT_FALSE(naive.tuned());
    EXPECT_FALSE(CollPolicy::parse("naive").tuned());

    CollPolicy tuned = CollPolicy::parse("tuned");
    EXPECT_TRUE(tuned.tuned());
    EXPECT_FALSE(tuned.forcedFor(Coll::Broadcast).has_value());

    CollPolicy pinned =
        CollPolicy::parse("bcast=chain,allreduce=rdouble");
    EXPECT_TRUE(pinned.tuned());
    ASSERT_TRUE(pinned.forcedFor(Coll::Broadcast).has_value());
    EXPECT_EQ(*pinned.forcedFor(Coll::Broadcast), CollAlg::BcastChain);
    ASSERT_TRUE(pinned.forcedFor(Coll::AllReduce).has_value());
    EXPECT_EQ(*pinned.forcedFor(Coll::AllReduce),
              CollAlg::ArRecDouble);
    EXPECT_FALSE(pinned.forcedFor(Coll::Barrier).has_value());
}

TEST(TunedAuto, PinnedPolicyIsHonoredByTheRuntimeParams)
{
    LogGPParams params = baseline();
    params.collAlg = "bcast=chain";
    SplitCRuntime rt(4, params);
    TunedCollectives tc(rt);
    EXPECT_EQ(tc.select(Coll::Broadcast, 4, 1 << 16),
              CollAlg::BcastChain);
    EXPECT_EQ(tc.select(Coll::Broadcast, 4, 0), CollAlg::BcastChain);
}

TEST(TunedAuto, LogpPinRoundTripsAndIsHonored)
{
    const auto &bcast = algsFor(Coll::Broadcast);
    EXPECT_NE(std::find(bcast.begin(), bcast.end(), CollAlg::BcastLogp),
              bcast.end());
    CollPolicy pinned = CollPolicy::parse("bcast=logp");
    ASSERT_TRUE(pinned.forcedFor(Coll::Broadcast).has_value());
    EXPECT_EQ(*pinned.forcedFor(Coll::Broadcast), CollAlg::BcastLogp);
    EXPECT_EQ(pinned.str(), "bcast=logp");
    EXPECT_EQ(CollPolicy::parse(pinned.str()).str(), "bcast=logp");

    // Honored even at 1 MiB, where the model would pick a pipeline.
    LogGPParams params = baseline();
    params.collAlg = "bcast=logp";
    SplitCRuntime rt(8, params);
    TunedCollectives tc(rt);
    EXPECT_NE(chooseAlg(tc.point(), Coll::Broadcast, 8, 1 << 20),
              CollAlg::BcastLogp);
    EXPECT_EQ(tc.select(Coll::Broadcast, 8, 1 << 20), CollAlg::BcastLogp);
    EXPECT_EQ(tc.select(Coll::Broadcast, 8, 8), CollAlg::BcastLogp);
}

TEST(TunedAuto, PinTheCallCannotRunFallsBackToTheModel)
{
    // One rule for every tuned call site (selectAlg): rabenseifner
    // pins the vector all-reduce where it is valid, and elsewhere --
    // a ragged P, or the word all-reduce's candidate list -- the
    // model picks as if unpinned.
    const LogGPPoint pt = pointFromParams(baseline());
    const CollPolicy pin = CollPolicy::parse("allreduce=rabenseifner");
    const auto &all = algsFor(Coll::AllReduce);
    EXPECT_EQ(selectAlg(pin, pt, Coll::AllReduce, 8, 64 * 8, all),
              CollAlg::ArRabenseifner);
    EXPECT_EQ(selectAlg(pin, pt, Coll::AllReduce, 6, 64 * 8, all),
              chooseAlg(pt, Coll::AllReduce, 6, 64 * 8));
    const std::vector<CollAlg> word = {CollAlg::ArBinomial,
                                       CollAlg::ArRecDouble};
    EXPECT_EQ(selectAlg(pin, pt, Coll::AllReduce, 8, 8, word),
              chooseAlgAmong(pt, Coll::AllReduce, 8, 8, word));
}

// ---------------------------------------------------------------------
// Cost-model shape.
// ---------------------------------------------------------------------

TEST(CollCost, RegistryAndModelAgreeOnCoverage)
{
    const LogGPPoint pt = pointFromParams(baseline());
    for (int c = 0; c < kNumColls; ++c) {
        const Coll coll = static_cast<Coll>(c);
        for (CollAlg alg : algsFor(coll)) {
            EXPECT_EQ(collOf(alg), coll);
            for (int p : {2, 8, 64}) {
                if (!algValid(alg, p, 8192))
                    continue;
                EXPECT_GT(predictCollective(pt, coll, alg, p, 8192), 0)
                    << collName(coll) << "/" << algName(alg);
            }
        }
    }
}

TEST(CollCost, LargeBroadcastPrefersPipelinesSmallPrefersTrees)
{
    const LogGPPoint pt = pointFromParams(baseline());
    // 8-byte broadcast at 64 procs: log-depth tree beats the chain's
    // 63 serial hops.
    const CollAlg small = chooseAlg(pt, Coll::Broadcast, 64, 8);
    EXPECT_NE(small, CollAlg::BcastChain);
    EXPECT_NE(small, CollAlg::BcastFlat);
    // 1 MiB at 64 procs: bandwidth algorithms (chain or scatter-ag)
    // must beat the store-and-forward binomial tree.
    const CollAlg big =
        chooseAlg(pt, Coll::Broadcast, 64, std::size_t(1) << 20);
    EXPECT_TRUE(big == CollAlg::BcastChain ||
                big == CollAlg::BcastScatterAg)
        << algName(big);
}

TEST(CollCost, LogpNeverPredictsSlowerThanATree)
{
    // The greedy schedule is optimal under the model it is built
    // from, so the flat and binomial trees can at best tie it -- and
    // ties go to logp, which leads the broadcast registry. (The
    // binomial formula is that tree under the same model only while a
    // holder's send interval stays below one arrival, as on the NOW;
    // the Meiko's 13.6 us gap breaks that, and there binomial can
    // predict faster.)
    EXPECT_EQ(algsFor(Coll::Broadcast).front(), CollAlg::BcastLogp);
    const LogGPPoint pt = pointFromParams(baseline());
    for (int p : {2, 3, 4, 8, 16, 32, 64, 257})
        for (std::size_t b : {std::size_t(0), std::size_t(8),
                              std::size_t(256), std::size_t(16384)}) {
            const Tick logp = predictCollective(
                pt, Coll::Broadcast, CollAlg::BcastLogp, p, b);
            for (CollAlg tree : {CollAlg::BcastFlat, CollAlg::BcastBinomial})
                EXPECT_LE(logp,
                          predictCollective(pt, Coll::Broadcast, tree, p, b))
                    << algName(tree) << " p=" << p << " b=" << b;
        }
}

TEST(CollCost, DecisionTableCoversGridAndRenders)
{
    const LogGPPoint pt = pointFromParams(baseline());
    auto rows = decisionTable(pt, {4, 32}, {64, 65536});
    // 4 data collectives x 2 procs x 2 sizes + barrier x 2 procs.
    EXPECT_EQ(rows.size(), 4u * 2 * 2 + 2);
    const std::string text = renderDecisionTable(rows);
    EXPECT_NE(text.find("bcast"), std::string::npos);
    EXPECT_NE(text.find("barrier"), std::string::npos);
}

// ---------------------------------------------------------------------
// Validation harness.
// ---------------------------------------------------------------------

TEST(TunedHarness, MeasureAgreesAcrossAlgorithmsAndTunerRanksWell)
{
    ValidationReport rep =
        validateGrid(baseline(), {4, 8}, {256, 16384});
    ASSERT_FALSE(rep.points.empty());
    for (const GridPoint &gp : rep.points) {
        EXPECT_GT(gp.measuredOfBest, 0);
        EXPECT_GT(gp.measuredOfPick, 0);
    }
    // The model must rank-predict well on this easy grid.
    EXPECT_GE(rep.hitRate(0.10), 0.9)
        << "hit rate " << rep.hitRate(0.10);
}

// ---------------------------------------------------------------------
// The performance claims, measured in the simulator.
// ---------------------------------------------------------------------

Tick
bcastSpan(const LogGPParams &params, CollAlg alg)
{
    return measureCollective(params, Coll::Broadcast, alg, 32,
                             sizeof(Word));
}

TEST(CollPerf, OptimalBroadcastNeverLosesAndWinsAtHighLatency)
{
    // At high L/g the flat tree already beats binomial -- LogP's core
    // insight -- and the greedy schedule beats both.
    auto params = baseline();
    params.setDesiredLatencyUsec(105.0);
    const Tick logp = bcastSpan(params, CollAlg::BcastLogp);
    EXPECT_LT(logp, bcastSpan(params, CollAlg::BcastBinomial));
    EXPECT_LE(logp, bcastSpan(params, CollAlg::BcastFlat));
}

TEST(CollPerf, BinomialBeatsLinearAtLowLatency)
{
    // At baseline latency the root's serialized sends dominate, so
    // the log-depth tree wins over the flat one.
    EXPECT_LT(bcastSpan(baseline(), CollAlg::BcastBinomial),
              bcastSpan(baseline(), CollAlg::BcastFlat));
}

TEST(CollPerf, DisseminationBarrierWinsAtScale)
{
    // At P = 128 the dissemination barrier's log-depth rounds beat
    // the flat barrier's O(P) serialization at rank 0 by a wide
    // margin in simulated time.
    const Tick flat = measureCollective(baseline(), Coll::Barrier,
                                        CollAlg::BarFlat, 128, 0);
    const Tick diss = measureCollective(baseline(), Coll::Barrier,
                                        CollAlg::BarDissemination, 128, 0);
    EXPECT_LT(diss, flat);
}

TEST(CollPerf, RingBeatsDoublingForBigBlocksAtLowLatency)
{
    // Classic trade-off: recursive doubling sends log P messages of
    // growing size; ring sends P-1 fixed-size ones. With 4 KiB blocks
    // bulk time dominates, and ring must not lose badly.
    const std::size_t block = 4096;
    const Tick ring = measureCollective(baseline(), Coll::AllGather,
                                        CollAlg::AgRing, 8, block);
    const Tick doubling = measureCollective(
        baseline(), Coll::AllGather, CollAlg::AgRecDouble, 8, block);
    EXPECT_GT(ring, 0);
    EXPECT_GT(doubling, 0);
    EXPECT_LT(static_cast<double>(ring),
              1.5 * static_cast<double>(doubling));
}

} // namespace
} // namespace coll
} // namespace nowcluster
