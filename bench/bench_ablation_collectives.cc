/**
 * @file
 * Extension: collective algorithms under the knobs. The LogP model was
 * built to design communication schedules; this bench closes that loop
 * inside the laboratory by racing the tuned library's broadcast
 * algorithms (flat, binomial, LogP-greedy) across the latency and
 * overhead sweeps, and its all-gather algorithms across block sizes.
 * Last comes what the tuner buys whole applications: murphi and barnes
 * at 1024 nodes on a 4:1 fat-tree (scale NOW_SCALE, default 0.02)
 * under the naive policy and the tuned one. The bench exits 1 when
 * tuned beats naive on neither app.
 */

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "coll/cost.hh"
#include "coll/tuned/harness.hh"

using namespace nowcluster;
using namespace nowcluster::bench;

namespace {

constexpr int kProcs = 32;
constexpr int kAbProcs = 1024; ///< The application A/B's node count.

/** Broadcast payload: one word, as the paper's apps broadcast. */
constexpr std::size_t kBcastBytes = sizeof(Word);

double
spanUs(const LogGPParams &params, coll::Coll c, coll::CollAlg alg,
       std::size_t bytes)
{
    return toUsec(coll::measureCollective(params, c, alg, kProcs, bytes));
}

double
bcastUs(const LogGPParams &params, coll::CollAlg alg)
{
    return spanUs(params, coll::Coll::Broadcast, alg, kBcastBytes);
}

} // namespace

int
main(int argc, char **argv)
{
    using coll::CollAlg;
    benchArgs(argc, argv, {}); // No option.
    std::printf("Collective algorithms under the LogGP knobs, %d "
                "nodes\n(columns: measureCollective span from the "
                "entry barrier to the last\nprocessor done, us; "
                "broadcasts carry one %zu-byte word)\n",
                kProcs, kBcastBytes);

    std::printf("\n--- broadcast vs latency ---\n");
    Table bl;
    bl.row().cell("L(us)").cell("flat").cell("binomial").cell("logp").cell(
        "logp-model");
    for (double l : {5.0, 15.0, 55.0, 105.0}) {
        auto params = MachineConfig::berkeleyNow().params;
        params.setDesiredLatencyUsec(l);
        const Tick model = coll::predictCollective(
            pointFromParams(params), coll::Coll::Broadcast,
            CollAlg::BcastLogp, kProcs, kBcastBytes);
        bl.row()
            .cell(l, 1)
            .cell(bcastUs(params, CollAlg::BcastFlat), 1)
            .cell(bcastUs(params, CollAlg::BcastBinomial), 1)
            .cell(bcastUs(params, CollAlg::BcastLogp), 1)
            .cell(toUsec(model), 1);
    }
    bl.print();

    std::printf("\n--- broadcast vs overhead ---\n");
    Table bo;
    bo.row().cell("o(us)").cell("flat").cell("binomial").cell("logp");
    for (double o : {2.9, 12.9, 52.9}) {
        auto params = MachineConfig::berkeleyNow().params;
        params.setDesiredOverheadUsec(o);
        bo.row()
            .cell(o, 1)
            .cell(bcastUs(params, CollAlg::BcastFlat), 1)
            .cell(bcastUs(params, CollAlg::BcastBinomial), 1)
            .cell(bcastUs(params, CollAlg::BcastLogp), 1);
    }
    bo.print();

    std::printf("\n--- all-gather: ring vs recursive doubling ---\n");
    Table ag;
    ag.row().cell("words/proc").cell("ring (us)").cell(
        "doubling (us)");
    const auto params = MachineConfig::berkeleyNow().params;
    for (std::size_t n : {8u, 128u, 2048u}) {
        const std::size_t block = n * sizeof(Word);
        ag.row()
            .cell(static_cast<std::int64_t>(n))
            .cell(spanUs(params, coll::Coll::AllGather, CollAlg::AgRing,
                         block),
                  1)
            .cell(spanUs(params, coll::Coll::AllGather,
                         CollAlg::AgRecDouble, block),
                  1);
    }
    ag.print();

    // murphi's termination detector calls allReduceAdd every round and
    // barnes bounds the space with allReduceMin/Max, so both ride the
    // word allreduce, where recursive doubling halves the message depth
    // of binomial reduce+broadcast (lg P vs 2 lg P): at 1024 nodes, 10
    // depths instead of 20 per call.
    const char *const apps[] = {"murphi", "barnes"};
    std::vector<RunPoint> ab;
    for (const char *app : apps) {
        for (const char *policy : {"naive", "tuned"}) {
            RunPoint p{app, baseConfig(kAbProcs, scaleOr(0.02))};
            p.config.validate = false;
            p.config.knobs.topo = 1;
            p.config.knobs.topoOversub = 4;
            p.config.knobs.collAlg = policy;
            ab.push_back(std::move(p));
        }
    }
    const std::vector<RunResult> rs = runPoints(ab);

    std::printf("\n--- %d-node fat-tree A/B: naive vs tuned ---\n",
                kAbProcs);
    Table t;
    t.row()
        .cell("app")
        .cell("P")
        .cell("naive(ms)")
        .cell("tuned(ms)")
        .cell("speedup");
    bool tuned_wins = false;
    for (std::size_t i = 0; i < std::size(apps); ++i) {
        const RunResult &naive = rs[2 * i];
        const RunResult &tuned = rs[2 * i + 1];
        fatal_if(!naive.ok || !tuned.ok, "%s did not finish at %d procs",
                 apps[i], kAbProcs);
        tuned_wins = tuned_wins || tuned.runtime < naive.runtime;
        t.row()
            .cell(std::string(apps[i]))
            .cell(static_cast<std::int64_t>(kAbProcs))
            .cell(toMsec(naive.runtime), 2)
            .cell(toMsec(tuned.runtime), 2)
            .cell(static_cast<double>(naive.runtime) /
                      static_cast<double>(tuned.runtime),
                  3);
    }
    t.print();
    if (!tuned_wins) {
        std::printf("tuned beats naive on neither app: FAIL\n");
        return 1;
    }
    return 0;
}
