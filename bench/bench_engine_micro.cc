/**
 * @file
 * google-benchmark microbenchmarks of the simulator engine itself:
 * event-queue throughput, fiber context switches, and the end-to-end
 * wall-clock cost of simulating one Active Message. These bound how
 * large an experiment the laboratory can run per wall-second.
 */

#include <benchmark/benchmark.h>

#include <cstring>

#include "am/cluster.hh"
#include "obs/export.hh"
#include "obs/tracer.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/simulator.hh"

using namespace nowcluster;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        Simulator sim;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            sim.schedule(i, [&] { ++sink; });
        sim.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// The raw queue fast path: schedule a batch with a realistic 24-byte
// capture (more than std::function's 16-byte small-object buffer, as
// almost every real event closure is) and drain it in order.
struct EventCapture // 24 bytes: the shape of a delivery closure.
{
    void *a;
    void *b;
    std::uint64_t c;
};

void
BM_EventQueueFastPath(benchmark::State &state)
{
    std::uint64_t sink = 0;
    EventCapture cap{&sink, &sink, 1};
    EventQueue q;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            q.schedule(i, [cap, &sink] { sink += cap.c; });
        while (!q.empty())
            q.pop().second();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueFastPath);

void
BM_FiberCreateDestroyPooled(benchmark::State &state)
{
    // Stand-up/tear-down cost of one node's fiber; after the first
    // iteration the 256 KiB stack comes from the thread-local pool.
    for (auto _ : state) {
        Fiber f([] {});
        f.resume();
        benchmark::DoNotOptimize(&f);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FiberCreateDestroyPooled);

void
BM_FiberSwitch(benchmark::State &state)
{
    Fiber f([] {
        for (;;)
            Fiber::yield();
    });
    for (auto _ : state)
        f.resume();
    state.SetItemsProcessed(state.iterations() * 2); // In + out.
}
BENCHMARK(BM_FiberSwitch);

void
BM_ProcComputeEvent(benchmark::State &state)
{
    Simulator sim;
    Proc p(sim, 0, [](Proc &self) {
        for (;;)
            self.compute(100);
    });
    p.start(0);
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProcComputeEvent);

// Shared body for the tracing A/B pair below: request/reply round
// trips over whole two-node cluster runs, with or without a span
// tracer attached. Comparing the two bounds the wall-clock cost of
// observability; with `tracer == nullptr` every obs hook reduces to a
// null-pointer test, so the pair should differ by well under 2%.
void
amRoundTripRuns(benchmark::State &state, SpanTracer *tracer)
{
    const int kMsgs = 2000;
    for (auto _ : state) {
        if (tracer)
            tracer->clear();
        Cluster c(2, MachineConfig::berkeleyNow().params);
        if (tracer)
            c.setTracer(tracer);
        int done = c.registerHandler([](AmNode &, Packet &) {});
        int echo = c.registerHandler([done](AmNode &self, Packet &pkt) {
            self.reply(pkt, done);
        });
        bool stop = false;
        c.run([&](AmNode &n) {
            if (n.id() == 0) {
                for (int i = 0; i < kMsgs; ++i)
                    n.request(1, echo);
                n.pollUntil([&] {
                    return n.counters().received >= kMsgs;
                });
                stop = true;
                n.oneWay(1, done);
            } else {
                n.pollUntil([&] { return stop; });
            }
        });
    }
    state.SetItemsProcessed(state.iterations() * kMsgs);
}

void
BM_AmRoundTrip(benchmark::State &state)
{
    // Wall-clock cost of simulating request/reply round trips,
    // measured over whole two-node cluster runs.
    amRoundTripRuns(state, nullptr);
}
BENCHMARK(BM_AmRoundTrip);

void
BM_AmRoundTripTraced(benchmark::State &state)
{
    SpanTracer tracer;
    amRoundTripRuns(state, &tracer);
}
BENCHMARK(BM_AmRoundTripTraced);

void
BM_BulkStoreMB(benchmark::State &state)
{
    const std::size_t kBytes = 1 << 20;
    std::vector<std::uint8_t> src(kBytes, 1), dst(kBytes);
    for (auto _ : state) {
        Cluster c(2, MachineConfig::berkeleyNow().params);
        bool got = false;
        int h = c.registerHandler([&](AmNode &, Packet &) {
            got = true;
        });
        c.run([&](AmNode &n) {
            if (n.id() == 0) {
                n.store(1, dst.data(), src.data(), kBytes, h);
                n.storeSync();
            } else {
                n.pollUntil([&] { return got; });
            }
        });
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * kBytes));
}
BENCHMARK(BM_BulkStoreMB);

} // namespace

// Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects
// unknown flags, so `--trace-out FILE` (the bench-wide convention) is
// handled and stripped here. It writes a Perfetto trace of one traced
// round-trip cluster run.
int
main(int argc, char **argv)
{
    const char *trace_path = nullptr;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
            trace_path = argv[i + 1];
            ++i;
            continue;
        }
        args.push_back(argv[i]);
    }
    if (trace_path) {
        SpanTracer tracer;
        Cluster c(2, MachineConfig::berkeleyNow().params);
        c.setTracer(&tracer);
        int done = c.registerHandler([](AmNode &, Packet &) {});
        int echo = c.registerHandler([done](AmNode &self, Packet &pkt) {
            self.reply(pkt, done);
        });
        bool stop = false;
        c.run([&](AmNode &n) {
            if (n.id() == 0) {
                for (int i = 0; i < 200; ++i)
                    n.request(1, echo);
                n.pollUntil(
                    [&] { return n.counters().received >= 200; });
                stop = true;
                n.oneWay(1, done);
            } else {
                n.pollUntil([&] { return stop; });
            }
        });
        if (writePerfettoJson(tracer, trace_path))
            std::printf("trace-out: round-trip microbench -> %s "
                        "(%zu spans)\n",
                        trace_path, tracer.spans().size());
        else
            std::fprintf(stderr, "trace-out: cannot write %s\n",
                         trace_path);
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
