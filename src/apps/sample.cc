#include "apps/sample.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/random.hh"

namespace nowcluster {

namespace {

constexpr Tick kPartitionPerKey = 900;
constexpr Tick kLocalSortPerKey = 900; // Four local radix passes.

/** Local LSD radix sort of 32-bit keys (the real computation). */
void
localRadixSort(std::vector<std::uint32_t> &keys, std::size_t n)
{
    std::vector<std::uint32_t> tmp(n);
    for (int pass = 0; pass < 4; ++pass) {
        int shift = pass * 8;
        std::size_t count[257] = {};
        for (std::size_t i = 0; i < n; ++i)
            ++count[((keys[i] >> shift) & 0xFF) + 1];
        for (int b = 1; b <= 256; ++b)
            count[b] += count[b - 1];
        for (std::size_t i = 0; i < n; ++i)
            tmp[count[(keys[i] >> shift) & 0xFF]++] = keys[i];
        std::copy(tmp.begin(), tmp.end(), keys.begin());
    }
}

} // namespace

void
SampleApp::setup(int nprocs, double scale, std::uint64_t seed)
{
    nprocs_ = nprocs;
    keysPerProc_ = std::max(64, static_cast<int>(131072 * scale) / nprocs);
    nodes_.assign(nprocs, NodeState{});
    inputCopy_.clear();
    for (int p = 0; p < nprocs; ++p) {
        Rng rng(seed, 21000 + p);
        NodeState &n = nodes_[p];
        n.keys.resize(keysPerProc_);
        for (auto &k : n.keys)
            k = rng.next32();
        // Buckets are probabilistically balanced; 3x slack plus a
        // constant covers the tail at any scale.
        n.recv.assign(keysPerProc_ * 3 + 64, 0);
        n.sample.assign(static_cast<std::size_t>(kOversample) * nprocs,
                        0);
        inputCopy_.insert(inputCopy_.end(), n.keys.begin(), n.keys.end());
    }
}

void
SampleApp::run(SplitC &sc)
{
    const int me = sc.myProc();
    const int p = sc.procs();
    NodeState &self = nodes_[me];
    Rng rng(sc.am().cluster().seed(), 22000 + me);

    // ---- Phase 1: sampling and splitter selection --------------------
    std::int64_t base = sc.fetchAdd(gptr(0, &nodes_[0].sampleTail),
                                    kOversample);
    for (int i = 0; i < kOversample; ++i) {
        std::uint32_t k =
            self.keys[rng.below(static_cast<std::uint64_t>(
                keysPerProc_))];
        sc.put(gptr(0, &nodes_[0].sample[base + i]), k);
    }
    sc.sync();
    sc.barrier();
    // Each proc keeps its own splitter copy, as each node of the real
    // machine holds the broadcast result in its own memory.
    std::vector<std::uint32_t> splitters(std::max(p - 1, 1), 0);
    if (me == 0) {
        auto &s = nodes_[0].sample;
        localRadixSort(s, s.size());
        sc.compute(kLocalSortPerKey * static_cast<Tick>(s.size()));
        for (int i = 1; i < p; ++i)
            splitters[i - 1] = s[static_cast<std::size_t>(i) *
                                 kOversample];
    }
    // Broadcast the splitters (word-granularity, as short messages).
    for (int i = 0; i + 1 < p; ++i)
        splitters[i] = static_cast<std::uint32_t>(
            sc.bcast(splitters[i], 0));
    sc.barrier();

    // ---- Phase 2: key distribution (unbalanced all-to-all) -----------
    // First pass: count keys per destination bucket.
    std::vector<std::int64_t> count(p, 0);
    for (std::uint32_t k : self.keys) {
        int dst = static_cast<int>(
            std::upper_bound(splitters.begin(),
                             splitters.begin() + (p - 1), k) -
            splitters.begin());
        ++count[dst];
        sc.compute(kPartitionPerKey / 2);
    }
    // Reserve space at each destination with one fetch-add per bucket.
    std::vector<std::int64_t> base_off(p, 0);
    for (int q = 0; q < p; ++q) {
        if (count[q] > 0)
            base_off[q] =
                sc.fetchAdd(gptr(q, &nodes_[q].recvTail), count[q]);
    }
    // Second pass: short writes to the owning bucket.
    std::vector<std::int64_t> cursor = base_off;
    for (std::uint32_t k : self.keys) {
        int dst = static_cast<int>(
            std::upper_bound(splitters.begin(),
                             splitters.begin() + (p - 1), k) -
            splitters.begin());
        std::int64_t off = cursor[dst]++;
        panic_if(off >= static_cast<std::int64_t>(
                     nodes_[dst].recv.size()),
                 "sample sort bucket overflow");
        sc.compute(kPartitionPerKey / 2);
        sc.put(gptr(dst, &nodes_[dst].recv[off]), k);
    }
    sc.sync();
    sc.barrier();

    // ---- Phase 3: local sort -----------------------------------------
    self.sorted = static_cast<std::size_t>(self.recvTail);
    localRadixSort(self.recv, self.sorted);
    sc.compute(kLocalSortPerKey * static_cast<Tick>(self.sorted));
    sc.barrier();
}

bool
SampleApp::validate() const
{
    std::vector<std::uint32_t> out;
    out.reserve(inputCopy_.size());
    for (const NodeState &n : nodes_)
        out.insert(out.end(), n.recv.begin(),
                   n.recv.begin() +
                       static_cast<std::ptrdiff_t>(n.sorted));
    if (out.size() != inputCopy_.size())
        return false;
    if (!std::is_sorted(out.begin(), out.end()))
        return false;
    std::vector<std::uint32_t> in = inputCopy_;
    std::sort(in.begin(), in.end());
    return in == out;
}

std::string
SampleApp::inputDesc() const
{
    return std::to_string(static_cast<long long>(nprocs_) *
                          keysPerProc_) +
           " 32-bit keys (" + std::to_string(keysPerProc_) + "/proc)";
}

} // namespace nowcluster
