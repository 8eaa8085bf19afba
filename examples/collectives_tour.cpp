/**
 * @file
 * Tour of the tuned collectives library: run the LogP-greedy broadcast
 * and a ring all-gather on a simulated cluster, then rebuild the
 * LogP-optimal broadcast schedule for a high-latency machine and watch
 * it restructure itself from a deep tree into a wide, pipelined one.
 *
 *   $ ./examples/collectives_tour [nprocs]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "coll/cost.hh"
#include "coll/tuned/tuned.hh"

using namespace nowcluster;

namespace {

void
describeSchedule(const char *title, Tick send_interval,
                 Tick arrival_cost, int p)
{
    auto steps =
        coll::buildOptimalBroadcast(p, send_interval, arrival_cost);
    // Fan-out of the root and depth of the tree.
    int root_sends = 0;
    std::vector<int> depth(p, 0);
    for (const auto &s : steps) {
        if (s.sender == 0)
            ++root_sends;
        depth[s.receiver] = depth[s.sender] + 1;
    }
    int max_depth = *std::max_element(depth.begin(), depth.end());
    std::printf("  %-28s root fan-out %2d, tree depth %d, predicted "
                "completion %.1f us\n",
                title, root_sends, max_depth,
                toUsec(coll::predictedBroadcastCompletion(
                    steps, arrival_cost)));
}

} // namespace

int
main(int argc, char **argv)
{
    const int p = argc > 1 ? std::atoi(argv[1]) : 16;
    auto params = MachineConfig::berkeleyNow().params;

    std::printf("collectives_tour on %d processors\n\n", p);

    // ---- Part 1: the operations, end to end ---------------------------
    SplitCRuntime rt(p, params);
    coll::TunedCollectives tc(rt);
    // Buffers live outside run(): peers store straight into them.
    std::vector<Word> token(p, 0);
    std::vector<std::vector<Word>> mine(p, std::vector<Word>(2));
    std::vector<std::vector<Word>> everyone(p, std::vector<Word>(2 * p));
    rt.run([&](SplitC &sc) {
        const int me = sc.myProc();

        if (me == 0)
            token[me] = 1234;
        tc.broadcast(sc, &token[me], sizeof(Word), 0,
                     coll::CollAlg::BcastLogp);

        mine[me][0] = static_cast<Word>(me);
        mine[me][1] = static_cast<Word>(me * me);
        tc.allGather(sc, mine[me].data(), 2 * sizeof(Word),
                     everyone[me].data(), coll::CollAlg::AgRing);

        if (me == p - 1) {
            std::printf("logp broadcast delivered %llu to rank %d\n",
                        static_cast<unsigned long long>(token[me]), me);
            std::printf("ring all-gather: rank 1 contributed (%llu, "
                        "%llu)\n",
                        static_cast<unsigned long long>(everyone[me][2]),
                        static_cast<unsigned long long>(
                            everyone[me][3]));
        }
    });

    // ---- Part 2: the schedule bends with the machine ------------------
    std::printf("\nLogP-optimal broadcast schedules (%d procs):\n", p);
    Tick send = std::max(params.oSend, params.gap);
    describeSchedule("NOW (L=5us):", send,
                     params.oSend + usec(5) + params.oRecv, p);
    describeSchedule("store-and-forward (L=105us):", send,
                     params.oSend + usec(105) + params.oRecv, p);
    describeSchedule("high-overhead (o=50us):", usec(50),
                     usec(50) + usec(5) + usec(50), p);

    std::printf("\nHigh latency widens the root's fan-out (keep every "
                "send slot busy); high\noverhead deepens the tree "
                "(send slots are the scarce resource).\n");
    return 0;
}
