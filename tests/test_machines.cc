/**
 * @file
 * Cross-machine validation: every application must complete and
 * validate on every Table-1 machine configuration, and the relative
 * machine ordering must follow each machine's strengths.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "apps/app.hh"
#include "harness/experiment.hh"

namespace nowcluster {
namespace {

using Case = std::tuple<std::string, std::string>;

class AppOnMachine : public ::testing::TestWithParam<Case>
{};

TEST_P(AppOnMachine, CompletesAndValidates)
{
    auto [app, machine] = GetParam();
    RunConfig c;
    c.nprocs = 8;
    c.scale = 0.2;
    c.machine = MachineConfig::byKey(machine).value();
    RunResult r = runApp(app, c);
    EXPECT_TRUE(r.ok) << app << " on " << machine;
    EXPECT_TRUE(r.validated) << app << " on " << machine;
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (const auto &app : appKeys()) {
        for (const char *m : {"now", "paragon", "meiko"})
            cases.emplace_back(app, m);
    }
    return cases;
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    std::string n =
        std::get<0>(info.param) + "_on_" + std::get<1>(info.param);
    for (auto &ch : n) {
        if (ch == '-')
            ch = '_';
    }
    return n;
}

INSTANTIATE_TEST_SUITE_P(Matrix, AppOnMachine,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(MachineOrdering, MeikoGapHurtsFrequentCommunicators)
{
    // The Meiko's g = 13.6 us (vs NOW's 5.8) must slow the highest-
    // frequency apps despite its lower overhead.
    for (const std::string app : {"radix", "em3d-write"}) {
        RunConfig c;
        c.nprocs = 8;
        c.scale = 0.25;
        c.machine = MachineConfig::berkeleyNow();
        RunResult now_run = runApp(app, c);
        c.machine = MachineConfig::meikoCs2();
        RunResult meiko_run = runApp(app, c);
        ASSERT_TRUE(now_run.ok && meiko_run.ok);
        EXPECT_GT(meiko_run.runtime, now_run.runtime) << app;
    }
}

} // namespace
} // namespace nowcluster
