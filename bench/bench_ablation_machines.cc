/**
 * @file
 * Extension: the whole application suite on the three Table-1
 * machines. The paper only calibrates the Paragon and Meiko; running
 * the suite on their parameters shows which communication budget wins
 * per application class (the Paragon's bandwidth for bulk apps, the
 * NOW's gap for frequent small-message apps, low overhead for
 * everything).
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
    std::printf("Ablation: application suite across Table-1 machines, "
                "32 nodes (scale=%.2f)\n",
                scale);
    std::printf("Entries are runtimes in ms (and slowdown relative to "
                "the best machine for that app).\n\n");

    const std::vector<MachineConfig> machines = {
        MachineConfig::berkeleyNow(), MachineConfig::intelParagon(),
        MachineConfig::meikoCs2()};

    Table t;
    {
        auto row = t.row();
        row.cell("Program");
        for (const auto &m : machines)
            row.cell(m.name);
        row.cell("winner");
    }
    for (const auto &key : appKeys()) {
        std::vector<Tick> times;
        for (const auto &m : machines) {
            RunConfig c = baseConfig(32, scale);
            c.machine = m;
            c.validate = false;
            times.push_back(runApp(key, c).runtime);
        }
        Tick best = *std::min_element(times.begin(), times.end());
        auto row = t.row();
        row.cell(displayName(key));
        std::size_t win = 0;
        for (std::size_t i = 0; i < machines.size(); ++i) {
            row.cell(fmtDouble(toMsec(times[i]), 1) + " (" +
                     fmtDouble(slowdown(times[i], best), 2) + "x)");
            if (times[i] == best)
                win = i;
        }
        row.cell(machines[win].name);
    }
    t.print();
    return 0;
}
