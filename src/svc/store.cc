#include "svc/store.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "base/logging.hh"
#include "svc/codec.hh"
#include "svc/hash.hh"
#include "svc/spec.hh"

namespace nowcluster::svc {

namespace {

constexpr char kEntryMagic[8] = {'N', 'O', 'W', 'C', 'A', 'S', '0', '1'};
constexpr const char *kIndexMagic = "NOWIDX01";

bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    out.clear();
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

/** Crash-injection hook (tests only): invoked at each named step of
 *  writeFileAtomic so a forked writer can die mid-write. */
StoreCrashHook gCrashHook = nullptr;

inline void
crashPoint(const char *step)
{
    if (gCrashHook)
        gCrashHook(step);
}

/** Process-wide tmp-name counter: two writers (threads or store
 *  instances) sharing a directory never share a tmp file. */
std::atomic<std::uint64_t> gTmpSeq{0};

/**
 * Durable atomic write. The data goes to a uniquely named ".tmp-"
 * sibling (pid + process-wide counter), is written in full, fsync'd,
 * rename()d over `path`, and the parent directory is fsync'd so the
 * rename itself reaches stable storage. Guarantee: a crash at any
 * point leaves `path` holding either the complete old bytes or the
 * complete new bytes -- never a mix, never a truncation -- and once
 * this returns true the new bytes survive power loss. The only crash
 * residue is a stale .tmp- sibling, swept by loadIndexLocked() on the
 * next open.
 */
bool
writeFileAtomic(const std::string &dir, const std::string &path,
                const std::string &data)
{
    std::string tmp =
        dir + "/.tmp-" + std::to_string(::getpid()) + "-" +
        std::to_string(gTmpSeq.fetch_add(1, std::memory_order_relaxed));
    crashPoint("tmp-create");
    int fd = ::open(tmp.c_str(),
                    O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd < 0)
        return false;
    crashPoint("tmp-open");
    const char *p = data.data();
    std::size_t n = data.size();
    bool ok = true;
    while (n > 0) {
        ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            ok = false;
            break;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    crashPoint("tmp-written");
    ok = ok && ::fsync(fd) == 0;
    ok = ::close(fd) == 0 && ok;
    crashPoint("tmp-synced");
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    crashPoint("renamed");
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    crashPoint("dir-synced");
    return true;
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out += char((v >> (8 * i)) & 0xff);
}

bool
takeU64(const char *&p, const char *end, std::uint64_t &v)
{
    if (end - p < 8)
        return false;
    v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | static_cast<unsigned char>(p[i]);
    p += 8;
    return true;
}

bool
validKey(const std::string &key)
{
    if (key.size() != 64)
        return false;
    for (char c : key) {
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
            return false;
    }
    return true;
}

} // namespace

void
setStoreCrashHook(StoreCrashHook hook)
{
    gCrashHook = hook;
}

ResultStore::ResultStore(std::string dir, std::uint64_t maxBytes)
    : dir_(std::move(dir)), maxBytes_(maxBytes)
{
    ::mkdir(dir_.c_str(), 0777); // EEXIST is fine.
    std::lock_guard<std::mutex> lock(mu_);
    loadIndexLocked();
}

ResultStore::~ResultStore()
{
    std::lock_guard<std::mutex> lock(mu_);
    flushIndexLocked(); // Persist LRU touches from get().
}

std::string
ResultStore::objectPath(const std::string &key) const
{
    return dir_ + "/obj-" + key;
}

void
ResultStore::loadIndexLocked()
{
    index_.clear();
    totalBytes_ = 0;
    clock_ = 0;

    // The index is an LRU hint, not the source of truth: accept only
    // lines whose object file actually exists at the recorded size.
    std::string text;
    bool indexOk = readFile(dir_ + "/index.txt", text);
    if (indexOk) {
        const char *p = text.c_str();
        char magic[9] = {};
        unsigned long long clock = 0;
        int consumed = 0;
        if (std::sscanf(p, "%8s %llu\n%n", magic, &clock, &consumed) ==
                2 &&
            std::strcmp(magic, kIndexMagic) == 0) {
            clock_ = clock;
            p += consumed;
            char keybuf[80];
            unsigned long long bytes, seq;
            while (std::sscanf(p, "%79s %llu %llu\n%n", keybuf, &bytes,
                               &seq, &consumed) == 3) {
                p += consumed;
                std::string key = keybuf;
                struct stat st;
                if (validKey(key) &&
                    ::stat(objectPath(key).c_str(), &st) == 0 &&
                    static_cast<std::uint64_t>(st.st_size) == bytes) {
                    index_[key] = Entry{bytes, seq};
                    totalBytes_ += bytes;
                    clock_ = std::max<std::uint64_t>(clock_, seq);
                }
            }
        }
    }

    // Adopt objects the index does not know (crash between entry
    // rename and index flush): they join with seq 0, i.e. first out.
    if (DIR *d = ::opendir(dir_.c_str())) {
        while (struct dirent *e = ::readdir(d)) {
            std::string name = e->d_name;
            if (name.rfind(".tmp-", 0) == 0) {
                // Crash residue from an interrupted atomic write; it
                // is counted so operators can see crashes happened.
                if (std::remove((dir_ + "/" + name).c_str()) == 0)
                    ++stats_.tmpReaped;
                continue;
            }
            if (name.rfind("obj-", 0) != 0)
                continue;
            std::string key = name.substr(4);
            if (!validKey(key) || index_.count(key))
                continue;
            struct stat st;
            if (::stat((dir_ + "/" + name).c_str(), &st) == 0) {
                index_[key] =
                    Entry{static_cast<std::uint64_t>(st.st_size), 0};
                totalBytes_ += static_cast<std::uint64_t>(st.st_size);
            }
        }
        ::closedir(d);
    }
}

void
ResultStore::flushIndexLocked()
{
    std::string text = kIndexMagic;
    text += " " + std::to_string(clock_) + "\n";
    for (const auto &[key, e] : index_) {
        text += key + " " + std::to_string(e.bytes) + " " +
                std::to_string(e.seq) + "\n";
    }
    if (!writeFileAtomic(dir_, dir_ + "/index.txt", text))
        warn("result store: cannot write %s/index.txt", dir_.c_str());
}

void
ResultStore::dropEntryLocked(const std::string &key)
{
    // `key` may alias the map node's own key (evictLocked passes
    // victim->first), so build the path before the erase frees it.
    std::string path = objectPath(key);
    auto it = index_.find(key);
    if (it != index_.end()) {
        totalBytes_ -= it->second.bytes;
        index_.erase(it);
    }
    std::remove(path.c_str());
}

void
ResultStore::evictLocked(const std::string &keep)
{
    while (totalBytes_ > maxBytes_ && index_.size() > 1) {
        auto victim = index_.end();
        for (auto it = index_.begin(); it != index_.end(); ++it) {
            if (it->first == keep)
                continue;
            if (victim == index_.end() ||
                it->second.seq < victim->second.seq)
                victim = it;
        }
        if (victim == index_.end())
            return;
        dropEntryLocked(victim->first);
        ++stats_.evictions;
    }
}

bool
ResultStore::get(const std::string &key, std::string &payload)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++stats_.misses;
        return false;
    }

    std::string raw;
    bool ok = readFile(objectPath(key), raw);
    if (ok) {
        // Validate everything we wrote: magic, key echo, length,
        // payload checksum.
        const char *p = raw.data();
        const char *end = p + raw.size();
        std::uint64_t len = 0, sum = 0;
        ok = raw.size() >= sizeof kEntryMagic + 64 + 16 &&
             std::memcmp(p, kEntryMagic, sizeof kEntryMagic) == 0;
        if (ok) {
            p += sizeof kEntryMagic;
            ok = std::memcmp(p, key.data(), 64) == 0;
            p += 64;
        }
        ok = ok && takeU64(p, end, len) && takeU64(p, end, sum);
        ok = ok && static_cast<std::uint64_t>(end - p) == len;
        if (ok) {
            payload.assign(p, len);
            ok = fnv1a64(payload) == sum;
        }
    }
    if (!ok) {
        // Corrupt or truncated: the entry is gone, the caller
        // recomputes. Never serve bad bytes.
        dropEntryLocked(key);
        flushIndexLocked();
        ++stats_.corrupt;
        ++stats_.misses;
        return false;
    }
    it->second.seq = ++clock_; // LRU touch (flushed lazily).
    ++stats_.hits;
    return true;
}

bool
ResultStore::put(const std::string &key, const std::string &payload)
{
    if (!validKey(key))
        return false;
    std::lock_guard<std::mutex> lock(mu_);

    std::string raw;
    raw.reserve(payload.size() + 96);
    raw.append(kEntryMagic, sizeof kEntryMagic);
    raw += key;
    putU64(raw, payload.size());
    putU64(raw, fnv1a64(payload));
    raw += payload;

    if (!writeFileAtomic(dir_, objectPath(key), raw)) {
        warn("result store: cannot write entry under %s", dir_.c_str());
        return false;
    }

    auto it = index_.find(key);
    if (it != index_.end())
        totalBytes_ -= it->second.bytes;
    index_[key] = Entry{raw.size(), ++clock_};
    totalBytes_ += raw.size();
    ++stats_.puts;
    evictLocked(key);
    flushIndexLocked();
    return true;
}

bool
ResultStore::contains(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return index_.count(key) != 0;
}

ResultStore::Stats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::uint64_t
ResultStore::totalBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return totalBytes_;
}

std::size_t
ResultStore::entryCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return index_.size();
}

bool
StoreCache::lookup(const RunPoint &pt, RunResult &out)
{
    std::string payload;
    if (store_.get(cacheKey(pt), payload) &&
        decodeResult(payload, out)) {
        ++hits_;
        return true;
    }
    ++misses_;
    return false;
}

void
StoreCache::insert(const RunPoint &pt, const RunResult &r)
{
    store_.put(cacheKey(pt), encodeResult(r));
}

CacheScope::CacheScope(const std::string &dir)
{
    if (dir.empty())
        return;
    store_ = std::make_unique<ResultStore>(dir);
    cache_ = std::make_unique<StoreCache>(*store_);
    setRunCache(cache_.get());
}

CacheScope::~CacheScope()
{
    if (!cache_)
        return;
    setRunCache(nullptr);
    std::printf("cache      : %llu hits, %llu misses (%s, %zu entries, "
                "%.1f MB)\n",
                static_cast<unsigned long long>(cache_->hits()),
                static_cast<unsigned long long>(cache_->misses()),
                store_->dir().c_str(), store_->entryCount(),
                static_cast<double>(store_->totalBytes()) / 1e6);
}

} // namespace nowcluster::svc
