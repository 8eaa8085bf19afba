/**
 * @file
 * Self-test of the benchmark's own arithmetic (stats.hh): percentile
 * selection, self time of nested spans, the fingerprint digest and the
 * failure counts. run.py runs it after every build and refuses to
 * benchmark if it fails.
 */

#include <cstdio>

#include "stats.hh"

namespace nb = nowbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                      \
    do {                                                                 \
        if (!(cond)) {                                                   \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,  \
                         __LINE__, #cond);                               \
            ++g_failures;                                                \
        }                                                                \
    } while (0)

void
testPercentiles()
{
    CHECK(nb::median({}) == 0);
    CHECK(nb::median({3, 1, 2}) == 2);
    CHECK(nb::median({4, 1, 3, 2}) == 2.5);

    // Nearest rank: p99 of 1..1000 is 990, and ten samples lie beyond.
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    CHECK(nb::percentile(v, 99) == 990);
    CHECK(nb::percentile(v, 50) == 500);
    CHECK(nb::samplesBeyond(99, 1000) == 10);
    CHECK(nb::samplesBeyond(99, 999) == 9);

    // The tail is the highest percentile with >= 10 samples beyond it.
    CHECK(nb::tailPercentile(0) == 0);
    CHECK(nb::tailPercentile(99) == 0);
    CHECK(nb::tailPercentile(100) == 90);
    CHECK(nb::tailPercentile(999) == 90);
    CHECK(nb::tailPercentile(1000) == 99);
    CHECK(nb::tailPercentile(1728) == 99);
    CHECK(nb::tailPercentile(9999) == 99);
    CHECK(nb::tailPercentile(10000) == 99.9);
    CHECK(nb::percentile({}, 99) == 0);
    CHECK(nb::percentile({7}, 99) == 7);
}

void
testSelfTime()
{
    // root [0,100] -> a [10,40] (-> a1 [20,30]) and b [30,60] on another
    // thread, overlapping a; c [90,120] overruns the root.
    std::vector<nb::SpanRec> s(5);
    s[0] = {"bench.pass", 0, 100, -1, 0, 0};
    s[1] = {"harness.runApp", 10, 40, 0, 1, 1};
    s[2] = {"backend.solve", 20, 30, 1, 1, 1};
    s[3] = {"harness.runApp", 30, 60, 0, 2, 2};
    s[4] = {"backend.run", 90, 120, 0, 3, 0};
    const std::vector<std::int64_t> self = nb::selfTimes(s);
    CHECK(self[0] == 100 - 50 - 10); // children cover [10,60] + [90,100]
    CHECK(self[1] == 30 - 10);
    CHECK(self[2] == 10);
    CHECK(self[3] == 30);
    CHECK(self[4] == 30);

    const auto by_layer = nb::selfTimeByLayer(s);
    CHECK(by_layer.at("bench") == 40);
    CHECK(by_layer.at("harness") == 50);
    CHECK(by_layer.at("backend") == 40);
    CHECK(nb::layerOf("sim") == "sim");

    CHECK(nb::coveredLength({}, 0, 10) == 0);
    CHECK(nb::coveredLength({{0, 5}, {5, 8}, {20, 30}}, 0, 25) == 13);
}

void
testDigest()
{
    const std::string d = nb::digest({"ok=1\n", "ok=0\n"});
    CHECK(d.size() == 16);
    CHECK(d == nb::digest({"ok=1\n", "ok=0\n"}));
    CHECK(d != nb::digest({"ok=0\n", "ok=1\n"}));
    // Boundaries matter: "ab"+"c" is not "a"+"bc".
    CHECK(nb::digest({"ab", "c"}) != nb::digest({"a", "bc"}));
    // FNV-1a offset basis for the empty list.
    CHECK(nb::digest({}) == "cbf29ce484222325");
}

void
testFailureCounts()
{
    CHECK(!nb::simPointFailed(true, true, "x", ""));
    CHECK(!nb::simPointFailed(true, true, "x", "x"));
    CHECK(nb::simPointFailed(false, true, "x", "x")); // timed out
    CHECK(nb::simPointFailed(true, false, "x", "x")); // failed its check
    CHECK(nb::simPointFailed(true, true, "x", "y"));  // fingerprint moved

    CHECK(!nb::spotCheckFailed(109, 100, 0.10));
    CHECK(nb::spotCheckFailed(111, 100, 0.10));
    CHECK(nb::spotCheckFailed(89, 100, 0.10));
    CHECK(nb::spotCheckFailed(1, 0, 0.10));

    nb::Tally t;
    t.add(false);
    t.add(true);
    t.add(false);
    CHECK(t.attempted == 3);
    CHECK(t.failed == 1);
}

} // namespace

int
main()
{
    testPercentiles();
    testSelfTime();
    testDigest();
    testFailureCounts();
    if (g_failures) {
        std::fprintf(stderr, "nowbench_selftest: %d check(s) failed\n",
                     g_failures);
        return 1;
    }
    std::printf("nowbench_selftest: all checks passed\n");
    return 0;
}
