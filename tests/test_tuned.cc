/**
 * @file
 * Tests for the tuned collective library: every algorithm of every
 * collective against a simple reference result, across power-of-two,
 * odd, and prime processor counts and payloads from empty to the
 * megabyte regime; the cost model's basic shape; and the auto-tuner's
 * policy plumbing.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
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

} // namespace
} // namespace coll
} // namespace nowcluster
