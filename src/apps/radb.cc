#include "apps/radb.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/random.hh"

namespace nowcluster {

namespace {

constexpr Tick kHistPerKey = 1000;
constexpr Tick kScanPerBucket = 200;
constexpr Tick kDistPerKey = 5000;
constexpr Tick kScatterPerKey = 3500;

std::uint32_t
digitOf(std::uint32_t key, int pass)
{
    return (key >> (pass * RadbApp::kDigitBits)) & (RadbApp::kRadix - 1);
}

} // namespace

void
RadbApp::setup(int nprocs, double scale, std::uint64_t seed)
{
    nprocs_ = nprocs;
    keysPerProc_ = std::max(64, static_cast<int>(131072 * scale) / nprocs);
    regionCap_ = keysPerProc_ * 4 / nprocs + 512;
    nodes_.assign(nprocs, NodeState{});
    inputCopy_.clear();
    for (int p = 0; p < nprocs; ++p) {
        Rng rng(seed, 71000 + p);
        NodeState &n = nodes_[p];
        n.keys.resize(keysPerProc_);
        for (auto &k : n.keys)
            k = static_cast<std::uint32_t>(
                rng.below(1u << (kPasses * kDigitBits)));
        n.recv.assign(keysPerProc_, 0);
        n.ringBuf.assign(kRadix, 0);
        n.stage.assign(static_cast<std::size_t>(regionCap_) * nprocs, 0);
        n.stageCount.assign(nprocs, 0);
        inputCopy_.insert(inputCopy_.end(), n.keys.begin(),
                          n.keys.end());
    }
}

void
RadbApp::run(SplitC &sc)
{
    const int me = sc.myProc();
    const int p = sc.procs();
    const std::int64_t big_k = keysPerProc_;
    NodeState &self = nodes_[me];

    std::vector<std::int64_t> local(kRadix);
    std::vector<std::int64_t> prefix_below(kRadix);
    std::vector<std::int64_t> totals(kRadix);
    std::vector<std::int64_t> offset(kRadix);
    std::vector<std::vector<std::uint64_t>> out(p);

    for (int pass = 0; pass < kPasses; ++pass) {
        // ---- Local histogram -----------------------------------------
        std::fill(local.begin(), local.end(), 0);
        for (std::uint32_t k : self.keys)
            ++local[digitOf(k, pass)];
        sc.compute(kHistPerKey * big_k);

        // ---- Global histogram: ring scan, one bulk message per hop ---
        const std::int64_t gen1 = pass * 2 + 1;
        const std::int64_t gen2 = pass * 2 + 2;
        if (me == 0) {
            std::fill(prefix_below.begin(), prefix_below.end(), 0);
        } else {
            sc.am().pollUntil([&] { return self.ringFlag >= gen1; });
            std::copy(self.ringBuf.begin(), self.ringBuf.end(),
                      prefix_below.begin());
        }
        if (me + 1 < p) {
            NodeState &next = nodes_[me + 1];
            std::vector<std::int64_t> fwd(kRadix);
            for (int b = 0; b < kRadix; ++b)
                fwd[b] = prefix_below[b] + local[b];
            sc.compute(kScanPerBucket * kRadix);
            sc.storeArr(gptr(me + 1, next.ringBuf.data()), fwd.data(),
                        kRadix);
            sc.put(gptr(me + 1, &next.ringFlag), gen1);
            sc.sync();
        }
        const int fwd_proc = (me + 1) % p;
        if (me == p - 1) {
            for (int b = 0; b < kRadix; ++b)
                totals[b] = prefix_below[b] + local[b];
        } else {
            sc.am().pollUntil([&] { return self.ringFlag >= gen2; });
            std::copy(self.ringBuf.begin(), self.ringBuf.end(),
                      totals.begin());
        }
        if (fwd_proc != p - 1) {
            NodeState &next = nodes_[fwd_proc];
            sc.compute(kScanPerBucket * kRadix);
            sc.storeArr(gptr(fwd_proc, next.ringBuf.data()),
                        totals.data(), kRadix);
            sc.put(gptr(fwd_proc, &next.ringFlag), gen2);
            sc.sync();
        }
        // A drained scan returns before its counts arrive; garbage
        // offsets would index past the staging vectors below.
        if (sc.draining())
            return;
        std::int64_t acc = 0;
        for (int b = 0; b < kRadix; ++b) {
            offset[b] = acc + prefix_below[b];
            acc += totals[b];
        }

        // ---- Distribution: one bulk message of pairs per dest --------
        for (auto &v : out)
            v.clear();
        for (std::uint32_t k : self.keys) {
            std::uint32_t b = digitOf(k, pass);
            std::int64_t g = offset[b]++;
            int dst = static_cast<int>(g / big_k);
            std::uint64_t off = static_cast<std::uint64_t>(g % big_k);
            out[dst].push_back((off << 32) | k);
            sc.compute(kDistPerKey);
        }
        for (int dst = 0; dst < p; ++dst) {
            panic_if(static_cast<int>(out[dst].size()) > regionCap_,
                     "radb staging overflow (%zu > %d)",
                     out[dst].size(), regionCap_);
            if (dst == me) {
                // Scatter our own keys directly.
                for (std::uint64_t pair : out[me])
                    self.recv[pair >> 32] =
                        static_cast<std::uint32_t>(pair);
                sc.fetchAdd(gptr(me, &self.stageGen), 1);
                continue;
            }
            NodeState &d = nodes_[dst];
            if (!out[dst].empty()) {
                sc.storeArr(
                    gptr(dst, &d.stage[static_cast<std::size_t>(me) *
                                       regionCap_]),
                    out[dst].data(), out[dst].size());
            }
            sc.put(gptr(dst, &d.stageCount[me]),
                   static_cast<std::int64_t>(out[dst].size()));
            sc.fetchAdd(gptr(dst, &d.stageGen), 1);
        }
        sc.storeSync();
        sc.sync();

        // Wait for every source's announcement, then scatter.
        const std::int64_t expected =
            static_cast<std::int64_t>(pass + 1) * p;
        sc.am().pollUntil([&] { return self.stageGen >= expected; });
        for (int src = 0; src < p; ++src) {
            if (src == me)
                continue;
            const std::uint64_t *pairs =
                &self.stage[static_cast<std::size_t>(src) * regionCap_];
            std::int64_t count = self.stageCount[src];
            for (std::int64_t i = 0; i < count; ++i)
                self.recv[pairs[i] >> 32] =
                    static_cast<std::uint32_t>(pairs[i]);
            sc.compute(kScatterPerKey * count);
        }
        sc.barrier();
        self.keys.swap(self.recv);
        sc.barrier();
    }
}

bool
RadbApp::validate() const
{
    std::vector<std::uint32_t> out;
    out.reserve(inputCopy_.size());
    for (const NodeState &n : nodes_)
        out.insert(out.end(), n.keys.begin(), n.keys.end());
    if (out.size() != inputCopy_.size())
        return false;
    if (!std::is_sorted(out.begin(), out.end()))
        return false;
    std::vector<std::uint32_t> in = inputCopy_;
    std::sort(in.begin(), in.end());
    return in == out;
}

std::string
RadbApp::inputDesc() const
{
    return std::to_string(static_cast<long long>(nprocs_) *
                          keysPerProc_) +
           " 16-bit keys, bulk distribution";
}

} // namespace nowcluster
