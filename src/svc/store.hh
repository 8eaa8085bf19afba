/**
 * @file
 * The on-disk content-addressed result store.
 *
 * Layout under the store directory:
 *
 *   obj-<64-hex-key>   one entry per cached experiment:
 *                      "NOWCAS01" magic, key, payload length, FNV-1a
 *                      payload checksum, payload bytes.
 *   index.txt          "NOWIDX01 <clock>" header, then one
 *                      "<key> <bytes> <seq>" line per entry -- the LRU
 *                      book-keeping (seq is a logical access clock).
 *
 * Durability discipline: every file (entries and the index alike) is
 * written to a uniquely named ".tmp-" sibling (pid + process-wide
 * counter, so concurrent writers never collide), fsync'd, atomically
 * rename()d into place, and the directory is fsync'd -- so a crash at
 * any point leaves either the complete old file or the complete new
 * file, never a half-entry, and a put() that returned true survives
 * power loss. The only possible crash residue is a stale .tmp-
 * sibling, swept on the next open. Reads trust nothing anyway: magic,
 * key echo, length, and checksum are all verified, and any mismatch
 * deletes the entry and reports a miss, so a corrupt entry can only
 * ever cost a recomputation. A malformed index is rebuilt by scanning
 * the objects actually on disk.
 *
 * Capacity: the store is size-bounded; put() evicts
 * least-recently-used entries until the total fits. All methods are
 * thread-safe (one internal mutex) -- the parallel runner's workers
 * and nowlabd's pool insert concurrently.
 */

#ifndef NOWCLUSTER_SVC_STORE_HH_
#define NOWCLUSTER_SVC_STORE_HH_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "harness/runner.hh"

namespace nowcluster::svc {

/**
 * Test-only crash injection: when set, the hook is called at each
 * named step of the store's atomic-write sequence ("tmp-create",
 * "tmp-open", "tmp-written", "tmp-synced", "renamed", "dir-synced").
 * A forked test writer _exit()s inside the hook to simulate a crash at
 * exactly that step; production code never sets it.
 */
using StoreCrashHook = void (*)(const char *step);
void setStoreCrashHook(StoreCrashHook hook);

class ResultStore
{
  public:
    static constexpr std::uint64_t kDefaultMaxBytes = 256ull << 20;

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t puts = 0;
        std::uint64_t evictions = 0;
        std::uint64_t corrupt = 0;   ///< Entries rejected on load.
        std::uint64_t tmpReaped = 0; ///< Stale .tmp- files swept on open.
    };

    /** Opens (and creates if needed) the store at `dir`. */
    explicit ResultStore(std::string dir,
                         std::uint64_t maxBytes = kDefaultMaxBytes);
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Fetch the payload stored under `key`. Validates the entry
     * end-to-end; corrupt or truncated entries are deleted and
     * reported as misses.
     */
    bool get(const std::string &key, std::string &payload);

    /** Atomically store `payload` under `key`, then evict LRU entries
     *  until the store fits its byte bound. */
    bool put(const std::string &key, const std::string &payload);

    /** True if `key` is present (no payload read, no LRU touch). */
    bool contains(const std::string &key) const;

    Stats stats() const;
    std::uint64_t totalBytes() const;
    std::size_t entryCount() const;
    const std::string &dir() const { return dir_; }

  private:
    void loadIndexLocked();
    void flushIndexLocked();
    void evictLocked(const std::string &keep);
    void dropEntryLocked(const std::string &key);
    std::string objectPath(const std::string &key) const;

    mutable std::mutex mu_;
    std::string dir_;
    std::uint64_t maxBytes_;
    std::uint64_t clock_ = 0;

    struct Entry
    {
        std::uint64_t bytes = 0; ///< On-disk file size.
        std::uint64_t seq = 0;   ///< Last-access logical time.
    };
    std::map<std::string, Entry> index_;
    std::uint64_t totalBytes_ = 0;
    Stats stats_;
};

/**
 * RunCache adapter: plugs a ResultStore into the parallel runner's
 * global cache hook (harness/runner.hh). Keys come from svc::cacheKey;
 * payloads are svc::encodeResult bytes. A result that fails to decode
 * -- version skew, corruption the store-level checksum somehow missed
 * -- is a miss, never a wrong answer.
 */
class StoreCache : public RunCache
{
  public:
    explicit StoreCache(ResultStore &store) : store_(store) {}

    bool lookup(const RunPoint &pt, RunResult &out) override;
    void insert(const RunPoint &pt, const RunResult &r) override;

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    ResultStore &store() { return store_; }

  private:
    ResultStore &store_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

/**
 * The result store in `dir` as the runner's RunCache for the scope's
 * lifetime; "" is a no-op. While an instance is alive every
 * runPoints/runPointCached point is served from the store when it hits
 * (byte-identical to recomputation); the destructor prints the
 * hit/miss tally, so a warmed run is visibly cheap. `nowlab sweep`,
 * bench_paper and the ablations open their --cache-dir through it.
 */
class CacheScope
{
  public:
    explicit CacheScope(const std::string &dir);
    ~CacheScope();

    CacheScope(const CacheScope &) = delete;
    CacheScope &operator=(const CacheScope &) = delete;

  private:
    std::unique_ptr<ResultStore> store_;
    std::unique_ptr<StoreCache> cache_;
};

} // namespace nowcluster::svc

#endif // NOWCLUSTER_SVC_STORE_HH_
