/**
 * @file
 * Evidence for Section 5.2's explanation of the gap results: "the
 * linear response to increased gap suggests that communication tends
 * to be very bursty, rather than spaced at even intervals." This
 * bench traces every message of every application and reports the
 * fraction of consecutive sends per processor that are closer together
 * than the baseline gap (a direct burstiness measure), alongside the
 * mean message interval from Table 4. High burst fractions are why
 * the burst gap model beats the uniform model in Table 6.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace nowcluster;
using namespace nowcluster::bench;

int
main(int argc, char **argv)
{
    benchArgs(argc, argv, {}); // No option.
    double scale = scaleOr(1.0);
    std::printf("Burstiness of application communication, 32 nodes "
                "(scale=%.2f)\n",
                scale);
    std::printf("burst fraction = consecutive same-source sends closer "
                "than the threshold\n\n");

    Table t;
    t.row()
        .cell("Program")
        .cell("mean interval (us)")
        .cell("burst<2g (11.6us)")
        .cell("burst<5g (29us)")
        .cell("mean flight (us)");

    for (const auto &key : appKeys()) {
        SpanTracer trace;
        RunConfig c = baseConfig(32, scale);
        c.obs = &trace;
        RunResult r = runApp(key, c);
        t.row()
            .cell(r.summary.app)
            .cell(r.summary.msgIntervalUs, 1)
            .cell(burstFraction(trace, usec(11.6)), 2)
            .cell(burstFraction(trace, usec(29.0)), 2)
            .cell(meanFlightUs(trace), 1);
    }
    t.print();
    std::printf("\nEven the apps with 100+ us mean intervals send most "
                "messages in sub-30 us bursts,\nwhich is why the burst "
                "model of Table 6 fits and the uniform model does "
                "not.\n");
    return 0;
}
