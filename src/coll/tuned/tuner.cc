#include "coll/tuned/tuner.hh"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

#include "base/logging.hh"

namespace nowcluster {
namespace coll {

namespace {

/** "bcast=chain" -> pin the broadcast algorithm. */
void
applyToken(CollPolicy &policy, const std::string &token)
{
    const auto eq = token.find('=');
    fatal_if(eq == std::string::npos,
             "bad --coll-alg token '%s' (want coll=alg)", token.c_str());
    const std::string coll_name = token.substr(0, eq);
    const std::string alg_name = token.substr(eq + 1);
    for (int c = 0; c < kNumColls; ++c) {
        const Coll coll = static_cast<Coll>(c);
        if (coll_name != collName(coll))
            continue;
        CollAlg alg;
        fatal_if(!algFromName(coll, alg_name, alg),
                 "unknown %s algorithm '%s'", coll_name.c_str(),
                 alg_name.c_str());
        policy.forced[c] = alg;
        return;
    }
    fatal("unknown collective '%s' in --coll-alg", coll_name.c_str());
}

} // namespace

CollPolicy
CollPolicy::parse(const std::string &spec)
{
    CollPolicy policy;
    if (spec.empty() || spec == "naive")
        return policy;
    policy.mode = Mode::Tuned;
    if (spec == "tuned")
        return policy;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string token = spec.substr(start, comma - start);
        if (!token.empty() && token != "tuned")
            applyToken(policy, token);
        start = comma + 1;
    }
    return policy;
}

std::string
CollPolicy::str() const
{
    if (mode == Mode::Naive)
        return "naive";
    std::string out;
    for (int c = 0; c < kNumColls; ++c) {
        if (!forced[c])
            continue;
        if (!out.empty())
            out += ',';
        out += collName(static_cast<Coll>(c));
        out += '=';
        out += algName(*forced[c]);
    }
    return out.empty() ? "tuned" : out;
}

CollAlg
chooseAlg(const LogGPPoint &pt, Coll coll, int nprocs,
          std::size_t bytes)
{
    return chooseAlgAmong(pt, coll, nprocs, bytes, algsFor(coll));
}

CollAlg
chooseAlgAmong(const LogGPPoint &pt, Coll coll, int nprocs,
               std::size_t bytes,
               const std::vector<CollAlg> &candidates)
{
    bool have = false;
    CollAlg best{};
    Tick best_t = std::numeric_limits<Tick>::max();
    for (CollAlg alg : candidates) {
        panic_if(collOf(alg) != coll,
                 "candidate %s is not a %s algorithm", algName(alg),
                 collName(coll));
        if (!algValid(alg, nprocs, bytes))
            continue;
        const Tick t = predictCollective(pt, coll, alg, nprocs, bytes);
        if (!have || t < best_t) {
            have = true;
            best = alg;
            best_t = t;
        }
    }
    panic_if(!have, "no valid %s algorithm for p=%d bytes=%zu",
             collName(coll), nprocs, bytes);
    return best;
}

CollAlg
selectAlg(const CollPolicy &policy, const LogGPPoint &pt, Coll coll,
          int nprocs, std::size_t bytes,
          const std::vector<CollAlg> &candidates)
{
    if (auto pin = policy.forcedFor(coll))
        if (algValid(*pin, nprocs, bytes) &&
            std::find(candidates.begin(), candidates.end(), *pin) !=
                candidates.end())
            return *pin;
    return chooseAlgAmong(pt, coll, nprocs, bytes, candidates);
}

std::vector<DecisionRow>
decisionTable(const LogGPPoint &pt, const std::vector<int> &procs,
              const std::vector<std::size_t> &sizes)
{
    std::vector<DecisionRow> rows;
    for (int c = 0; c < kNumColls; ++c) {
        const Coll coll = static_cast<Coll>(c);
        for (int p : procs) {
            for (std::size_t b : sizes) {
                DecisionRow row;
                row.coll = coll;
                row.nprocs = p;
                row.bytes = b;
                row.pick = chooseAlg(pt, coll, p, b);
                row.predicted =
                    predictCollective(pt, coll, row.pick, p, b);
                rows.push_back(row);
                if (coll == Coll::Barrier)
                    break; // Payload-independent.
            }
        }
    }
    return rows;
}

std::string
renderDecisionTable(const std::vector<DecisionRow> &rows)
{
    std::ostringstream out;
    out << "collective  nprocs      bytes  algorithm      predicted_us\n";
    for (const DecisionRow &row : rows) {
        char line[128];
        std::snprintf(line, sizeof(line),
                      "%-10s  %6d  %9zu  %-13s  %12.2f\n",
                      collName(row.coll), row.nprocs, row.bytes,
                      algName(row.pick), toUsec(row.predicted));
        out << line;
    }
    return out.str();
}

} // namespace coll
} // namespace nowcluster
