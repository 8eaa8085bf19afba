#include "apps/nowsort.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/random.hh"

namespace nowcluster {

namespace {

constexpr Tick kPartitionPerRecord = 300;
constexpr Tick kSortPerRecord = usec(1.2);

std::uint64_t
recordChecksum(const NowSortApp::Record &r)
{
    std::uint64_t h = r.key * 0x9e3779b97f4a7c15ULL;
    h ^= r.payload[0] | (std::uint64_t(r.payload[95]) << 8);
    return h;
}

} // namespace

int
NowSortApp::destOf(std::uint32_t key) const
{
    // Even key-range partitioning: the perfectly balanced all-to-all
    // of Figure 4i.
    return static_cast<int>((static_cast<std::uint64_t>(key) * nprocs_)
                            >> 32);
}

void
NowSortApp::setup(int nprocs, double scale, std::uint64_t seed)
{
    nprocs_ = nprocs;
    recordsPerProc_ = std::max(64, static_cast<int>(32768 * scale) / nprocs);
    regionCap_ = recordsPerProc_ * 3 / nprocs + 64;
    nodes_.clear();
    nodes_.resize(nprocs); // NodeState is move-only (unique_ptr disks).
    inputChecksum_ = 0;
    inputCount_ = 0;
    for (int p = 0; p < nprocs; ++p) {
        Rng rng(seed, 61000 + p);
        NodeState &n = nodes_[p];
        n.input.resize(recordsPerProc_);
        for (Record &r : n.input) {
            r.key = rng.next32();
            for (auto &b : r.payload)
                b = static_cast<std::uint8_t>(rng.next() & 0xFF);
            inputChecksum_ += recordChecksum(r);
        }
        inputCount_ += static_cast<std::uint64_t>(recordsPerProc_);
        n.recv.resize(static_cast<std::size_t>(regionCap_) * nprocs);
        n.recvCount.assign(nprocs, 0);
    }
}

void
NowSortApp::run(SplitC &sc)
{
    const int me = sc.myProc();
    const int p = sc.procs();
    NodeState &self = nodes_[me];
    Simulator &sim = sc.am().cluster().sim();

    // The paper's configuration: one disk for reading and one for
    // writing, 5.5 MB/s each.
    self.readDisk = std::make_unique<Disk>(sim, kDiskMBps);
    self.writeDisk = std::make_unique<Disk>(sim, kDiskMBps);

    // ---- Phase 1: stream off disk, partition, ship ------------------
    std::vector<std::vector<Record>> batch(p);
    for (auto &b : batch)
        b.reserve(kSendBatch);
    std::vector<std::int64_t> sent_to(p, 0); ///< Records shipped so far.

    auto ship = [&](int dst) {
        auto &b = batch[dst];
        if (b.empty())
            return;
        panic_if(sent_to[dst] + static_cast<std::int64_t>(b.size()) >
                     regionCap_,
                 "nowsort: receive region overflow");
        Record *target =
            &nodes_[dst].recv[static_cast<std::size_t>(me) * regionCap_ +
                              sent_to[dst]];
        if (dst == me) {
            std::copy(b.begin(), b.end(), target);
            nodes_[me].received += b.size();
        } else {
            sc.am().store(dst, target, b.data(),
                          b.size() * sizeof(Record));
        }
        sent_to[dst] += static_cast<std::int64_t>(b.size());
        b.clear();
    };

    int offset = 0;
    while (offset < recordsPerProc_) {
        int chunk = std::min(kChunkRecords, recordsPerProc_ - offset);
        int disk_done = 0;
        self.readDisk->startTransfer(
            static_cast<std::size_t>(chunk) * sizeof(Record), &disk_done,
            &sc.am().proc());
        // Overlap: serve incoming bulk arrivals while the disk seeks
        // and streams.
        sc.am().pollUntil([&] { return disk_done != 0; });
        for (int i = 0; i < chunk; ++i) {
            const Record &r = self.input[offset + i];
            int dst = destOf(r.key);
            batch[dst].push_back(r);
            sc.compute(kPartitionPerRecord);
            if (static_cast<int>(batch[dst].size()) >= kSendBatch)
                ship(dst);
        }
        offset += chunk;
    }
    for (int dst = 0; dst < p; ++dst)
        ship(dst);
    sc.storeSync();

    // Record the per-source counts so phase 2 knows the region sizes.
    for (int dst = 0; dst < p; ++dst) {
        if (dst == me)
            self.recvCount[me] = sent_to[me];
        else
            sc.put(gptr(dst, &nodes_[dst].recvCount[me]), sent_to[dst]);
    }
    sc.sync();
    sc.barrier();

    // ---- Phase 2: local sort, stream to the write disk --------------
    self.output.clear();
    for (int src = 0; src < p; ++src) {
        const Record *region =
            &self.recv[static_cast<std::size_t>(src) * regionCap_];
        self.output.insert(self.output.end(), region,
                           region + self.recvCount[src]);
    }
    std::sort(self.output.begin(), self.output.end(),
              [](const Record &a, const Record &b) {
                  return a.key < b.key;
              });
    sc.compute(kSortPerRecord *
               static_cast<Tick>(self.output.size()));

    int write_done = 0;
    self.writeDisk->startTransfer(self.output.size() * sizeof(Record),
                                  &write_done, &sc.am().proc());
    sc.am().pollUntil([&] { return write_done != 0; });
    sc.barrier();
}

bool
NowSortApp::validate() const
{
    std::uint64_t count = 0, checksum = 0;
    std::uint32_t prev_max = 0;
    for (int p = 0; p < nprocs_; ++p) {
        const auto &out = nodes_[p].output;
        if (!std::is_sorted(out.begin(), out.end(),
                            [](const Record &a, const Record &b) {
                                return a.key < b.key;
                            }))
            return false;
        // Key ranges must not overlap across processors.
        if (!out.empty()) {
            if (p > 0 && out.front().key < prev_max)
                return false;
            prev_max = out.back().key;
        }
        for (const Record &r : out)
            checksum += recordChecksum(r);
        count += out.size();
    }
    return count == inputCount_ && checksum == inputChecksum_;
}

std::string
NowSortApp::inputDesc() const
{
    return std::to_string(static_cast<long long>(nprocs_) *
                          recordsPerProc_) +
           " 100-byte records, disk-to-disk";
}

} // namespace nowcluster
