/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, fibers,
 * and the Proc state machine.
 */

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/random.hh"
#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/proc.hh"
#include "sim/simulator.hh"

namespace nowcluster {
namespace {

TEST(EventQueue, OrdersByTime)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.pop().second();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtEqualTimes)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        q.schedule(5, [&, i] { order.push_back(i); });
    while (!q.empty())
        q.pop().second();
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(order[i], i);
}

TEST(EventQueue, NextTime)
{
    EventQueue q;
    EXPECT_EQ(q.nextTime(), kTickNever);
    q.schedule(42, [] {});
    EXPECT_EQ(q.nextTime(), 42);
}

TEST(Simulator, AdvancesClock)
{
    Simulator sim;
    Tick seen = -1;
    sim.schedule(100, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 100);
    EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, ScheduleInIsRelative)
{
    Simulator sim;
    Tick seen = -1;
    sim.schedule(50, [&] {
        sim.scheduleIn(25, [&] { seen = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(seen, 75);
}

TEST(Simulator, ScheduleInPanicsOnTickOverflow)
{
    Simulator sim;
    Tick seen = -1;
    sim.schedule(100, [&] { seen = sim.now(); });
    sim.run();
    ASSERT_EQ(sim.now(), 100);
    // now + delta would wrap past kTickNever: must die loudly, not
    // schedule an event in the (negative) past.
    EXPECT_DEATH(sim.scheduleIn(kTickNever - 50, [] {}), "overflows");
    // A delta that lands exactly on the horizon is still rejected --
    // kTickNever is the "no event" sentinel, not a schedulable time.
    EXPECT_DEATH(sim.scheduleIn(kTickNever - 100, [] {}), "overflows");
    (void)seen;
}

TEST(Simulator, RunUntilStopsAtLimit)
{
    Simulator sim;
    int ran = 0;
    sim.schedule(10, [&] { ++ran; });
    sim.schedule(20, [&] { ++ran; });
    sim.schedule(30, [&] { ++ran; });
    sim.runUntil(20);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(sim.now(), 20);
    sim.run();
    EXPECT_EQ(ran, 3);
}

TEST(Simulator, StepExecutesOneEvent)
{
    Simulator sim;
    int ran = 0;
    sim.schedule(1, [&] { ++ran; });
    sim.schedule(2, [&] { ++ran; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(ran, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
    EXPECT_EQ(ran, 2);
}

TEST(Fiber, RunsBodyOnResume)
{
    bool ran = false;
    Fiber f([&] { ran = true; });
    EXPECT_FALSE(ran);
    f.resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> order;
    Fiber f([&] {
        order.push_back(1);
        Fiber::yield();
        order.push_back(3);
    });
    f.resume();
    order.push_back(2);
    f.resume();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, CurrentTracksExecution)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber *inside = nullptr;
    Fiber f([&] { inside = Fiber::current(); });
    f.resume();
    EXPECT_EQ(inside, &f);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, NestedCallsSurviveYield)
{
    // Yield from deep inside a call chain, as Split-C blocking ops do.
    int depth_seen = 0;
    std::function<void(int)> recurse = [&](int d) {
        if (d == 0) {
            Fiber::yield();
            depth_seen = 5;
            return;
        }
        recurse(d - 1);
    };
    Fiber f([&] { recurse(5); });
    f.resume();
    EXPECT_EQ(depth_seen, 0);
    f.resume();
    EXPECT_EQ(depth_seen, 5);
}

// 1/3 through SSE division; volatile keeps the compiler from folding or
// hoisting it out of the rounding mode it is meant to observe.
double
oneThird()
{
    volatile double one = 1.0, three = 3.0;
    volatile double q = one / three;
    return q;
}

TEST(Fiber, FpControlStateIsPerFiber)
{
    // The rounding mode lives in the x87 control word (fegetround) and
    // in MXCSR (SSE arithmetic); both are callee-saved state that a
    // switch must carry with each side.
    ASSERT_EQ(std::fegetround(), FE_TONEAREST);
    const double nearest = oneThird();
    double upward = 0, upward_after_yield = 0;
    int mode_after_yield = -1;
    Fiber f([&] {
        std::fesetround(FE_UPWARD);
        upward = oneThird();
        Fiber::yield();
        mode_after_yield = std::fegetround();
        upward_after_yield = oneThird();
    });
    f.resume();
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(oneThird(), nearest);
    EXPECT_GT(upward, nearest);
    f.resume();
    EXPECT_EQ(mode_after_yield, FE_UPWARD);
    EXPECT_EQ(upward_after_yield, upward);
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(oneThird(), nearest);
}

TEST(Fiber, StackIsAbiAligned)
{
    // A misaligned fiber entry shows up as a misaligned alignas(16)
    // local, or as a crash in libc code that spills SSE registers with
    // aligned stores (printf's %f path).
    std::vector<std::uintptr_t> misalign;
    std::vector<std::string> printed;
    auto probe = [&] {
        alignas(16) char slot[16] = {};
        volatile std::uintptr_t addr =
            reinterpret_cast<std::uintptr_t>(slot);
        misalign.push_back(addr % 16);
        char buf[32];
        std::snprintf(buf, sizeof buf, "%f", oneThird());
        printed.emplace_back(buf);
    };
    Fiber f([&] {
        probe();
        Fiber::yield();
        probe();
    });
    f.resume();
    f.resume();
    EXPECT_EQ(misalign, (std::vector<std::uintptr_t>{0, 0}));
    EXPECT_EQ(printed, (std::vector<std::string>{"0.333333", "0.333333"}));
}

TEST(Fiber, ExceptionCaughtInsideFiberAcrossYield)
{
    std::string caught;
    Fiber f([&] {
        try {
            Fiber::yield();
            throw std::runtime_error("thrown after resume");
        } catch (const std::runtime_error &e) {
            caught = e.what();
        }
    });
    f.resume();
    EXPECT_TRUE(caught.empty());
    f.resume();
    EXPECT_EQ(caught, "thrown after resume");
    EXPECT_TRUE(f.finished());
}

TEST(Proc, ComputeAdvancesVirtualTime)
{
    Simulator sim;
    Tick end = -1;
    Proc p(sim, 0, [&](Proc &self) {
        self.compute(100);
        self.compute(250);
        end = self.now();
    });
    p.start(0);
    sim.run();
    EXPECT_EQ(end, 350);
    EXPECT_EQ(p.busyTime(), 350);
    EXPECT_TRUE(p.done());
}

TEST(Proc, ZeroComputeDoesNotYield)
{
    Simulator sim;
    Proc p(sim, 0, [&](Proc &self) { self.compute(0); });
    p.start(0);
    // Exactly one event: the initial activation.
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_TRUE(p.done());
}

TEST(Proc, BlockAndWake)
{
    Simulator sim;
    Tick woke_at = -1;
    Proc p(sim, 0, [&](Proc &self) {
        self.block();
        woke_at = self.now();
    });
    p.start(0);
    sim.schedule(500, [&] { p.wake(); });
    sim.run();
    EXPECT_EQ(woke_at, 500);
}

TEST(Proc, WakeWhileRunningPreventsNextBlock)
{
    Simulator sim;
    Tick woke_at = -1;
    Proc p(sim, 0, [&](Proc &self) {
        self.wake(); // Posted to ourselves while running.
        self.block(); // Must return immediately.
        woke_at = self.now();
    });
    p.start(0);
    sim.run();
    EXPECT_EQ(woke_at, 0);
    EXPECT_TRUE(p.done());
}

TEST(Proc, SpuriousWakeIgnored)
{
    Simulator sim;
    Proc p(sim, 0, [&](Proc &self) { self.compute(10); });
    p.start(0);
    sim.schedule(5, [&] { p.wake(); }); // Proc is Ready, not Blocked.
    sim.run();
    EXPECT_TRUE(p.done());
}

TEST(Proc, TwoProcsInterleaveDeterministically)
{
    Simulator sim;
    std::vector<int> order;
    Proc a(sim, 0, [&](Proc &self) {
        order.push_back(0);
        self.compute(10);
        order.push_back(2);
        self.compute(20); // Finishes at 30.
        order.push_back(4);
    });
    Proc b(sim, 1, [&](Proc &self) {
        order.push_back(1);
        self.compute(15);
        order.push_back(3);
        self.compute(20); // Finishes at 35.
        order.push_back(5);
    });
    a.start(0);
    b.start(0);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

} // namespace
} // namespace nowcluster

// ----------------------------------------------------------------------
// Stress and edge cases.
// ----------------------------------------------------------------------

namespace nowcluster {
namespace {

TEST(EventQueue, InterleavedScheduleAndPop)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    auto [t1, f1] = q.pop();
    f1();
    q.schedule(5, [&] { order.push_back(2); });
    q.schedule(20, [&] { order.push_back(3); });
    while (!q.empty())
        q.pop().second();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(t1, 10);
}

TEST(EventQueue, LargeHeapStaysSorted)
{
    EventQueue q;
    Rng rng(123);
    for (int i = 0; i < 20000; ++i)
        q.schedule(static_cast<Tick>(rng.below(1000000)), [] {});
    Tick prev = -1;
    while (!q.empty()) {
        auto [t, f] = q.pop();
        EXPECT_GE(t, prev);
        prev = t;
    }
}

TEST(Fiber, DeepStackUsage)
{
    // A fiber with significant live stack state across yields.
    bool ok = false;
    Fiber f([&] {
        char buffer[64 * 1024];
        buffer[0] = 42;
        buffer[sizeof(buffer) - 1] = 24;
        Fiber::yield();
        ok = buffer[0] == 42 && buffer[sizeof(buffer) - 1] == 24;
    });
    f.resume();
    f.resume();
    EXPECT_TRUE(ok);
}

TEST(Fiber, ManyFibersInterleaved)
{
    const int n = 64;
    std::vector<std::unique_ptr<Fiber>> fibers;
    int counter = 0;
    for (int i = 0; i < n; ++i) {
        fibers.push_back(std::make_unique<Fiber>([&counter] {
            for (int k = 0; k < 3; ++k) {
                ++counter;
                Fiber::yield();
            }
        }));
    }
    for (int round = 0; round < 3; ++round) {
        for (auto &f : fibers)
            f->resume();
    }
    for (auto &f : fibers)
        f->resume(); // Let bodies return.
    EXPECT_EQ(counter, n * 3);
    for (auto &f : fibers)
        EXPECT_TRUE(f->finished());
}

TEST(Proc, ManyComputeStepsStayExact)
{
    Simulator sim;
    Tick end = -1;
    Proc p(sim, 0, [&](Proc &self) {
        for (int i = 0; i < 10000; ++i)
            self.compute(7);
        end = self.now();
    });
    p.start(0);
    sim.run();
    EXPECT_EQ(end, 70000);
    EXPECT_EQ(p.busyTime(), 70000);
}

TEST(Proc, WakeAtFutureTime)
{
    Simulator sim;
    Tick woke = -1;
    Proc p(sim, 0, [&](Proc &self) {
        self.block();
        woke = self.now();
    });
    p.start(0);
    sim.schedule(100, [&] { p.wake(400); });
    sim.run();
    EXPECT_EQ(woke, 400);
}

TEST(Proc, StartAtNonZeroTime)
{
    Simulator sim;
    Tick began = -1;
    Proc p(sim, 0, [&](Proc &self) { began = self.now(); });
    p.start(usec(50));
    sim.run();
    EXPECT_EQ(began, usec(50));
}

} // namespace
} // namespace nowcluster
