/**
 * @file
 * A Split-C-like SPMD runtime on top of the Active Message layer.
 *
 * Provides the operation vocabulary the paper's ten applications are
 * written in: global pointers, blocking read/write, split-phase put/get
 * with sync(), bulk store/get, barriers, reductions, broadcast, remote
 * fetch-and-add, and blocking locks.
 *
 * All communication is request/reply pairs over AM (as in the real
 * Split-C on GAM), which is what makes the paper's 2*m*delta-o overhead
 * model hold.
 */

#ifndef NOWCLUSTER_SPLITC_SPLITC_HH_
#define NOWCLUSTER_SPLITC_SPLITC_HH_

#include <bit>
#include <cstring>
#include <deque>
#include <map>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "am/cluster.hh"
#include "base/logging.hh"
#include "coll/tuned/tuner.hh"

namespace nowcluster {

/**
 * A global pointer: (owning node, local virtual address). All nodes
 * live in one simulator process, so the local address is directly
 * usable by the owner's handlers.
 */
template <typename T>
struct GlobalPtr
{
    NodeId node = -1;
    T *ptr = nullptr;

    GlobalPtr() = default;
    GlobalPtr(NodeId n, T *p) : node(n), ptr(p) {}

    bool valid() const { return node >= 0 && ptr != nullptr; }

    /** Element-offset arithmetic on the same node. */
    GlobalPtr
    operator+(std::ptrdiff_t d) const
    {
        return GlobalPtr(node, ptr + d);
    }
};

/** Convenience constructor. */
template <typename T>
GlobalPtr<T>
gptr(NodeId node, T *p)
{
    return GlobalPtr<T>(node, p);
}

/** A lock word living in some node's memory. */
struct SplitLock
{
    int held = 0;
};

class SplitCRuntime;

/**
 * Per-node face of the runtime; each SPMD program instance receives a
 * reference to its own SplitC.
 */
class SplitC
{
  public:
    SplitC(SplitCRuntime &rt, AmNode &am);

    SplitC(const SplitC &) = delete;
    SplitC &operator=(const SplitC &) = delete;

    NodeId myProc() const { return am_.id(); }
    int procs() const;
    AmNode &am() { return am_; }
    Rng &rng() { return am_.rng(); }
    Tick now() const { return am_.now(); }
    bool draining() const { return am_.draining(); }

    /** Charge local computation time. */
    void compute(Tick dt) { am_.compute(dt); }

    /** Service incoming requests without blocking. */
    void poll() { am_.poll(); }

    // ------------------------------------------------------------------
    // Word-granularity operations (T trivially copyable, <= 16 bytes)
    // ------------------------------------------------------------------

    /** Blocking read of a remote (or local) value. */
    template <typename T>
    T
    read(GlobalPtr<T> p)
    {
        checkWordType<T>();
        if (p.node == myProc()) {
            // memcpy, not a typed load: apps may alias byte buffers
            // through GlobalPtr<T>, and the remote handlers copy at
            // byte granularity, so the local fast path must too.
            T v;
            std::memcpy(&v, p.ptr, sizeof(T));
            return v;
        }
        am_.counters().readMsgs += 1; // The request is a read message.
        ReadSlot slot;
        am_.request(p.node, hRead_, toWord(p.ptr), sizeof(T),
                    toWord(&slot));
        am_.pollUntil([&] { return slot.done; }, "read reply wait");
        T v;
        std::memcpy(&v, slot.buf, sizeof(T));
        return v;
    }

    /** Blocking write: returns once the remote ack arrives. */
    template <typename T>
    void
    write(GlobalPtr<T> p, const T &v)
    {
        checkWordType<T>();
        if (p.node == myProc()) {
            std::memcpy(p.ptr, &v, sizeof(T));
            return;
        }
        Word w0, w1;
        packValue(v, w0, w1);
        ReadSlot slot;
        am_.request(p.node, hWrite_, toWord(p.ptr), sizeof(T),
                    toWord(&slot), w0, w1);
        am_.pollUntil([&] { return slot.done; }, "write reply wait");
    }

    /**
     * Split-phase (pipelined) write; completion is observed by sync().
     */
    template <typename T>
    void
    put(GlobalPtr<T> p, const T &v)
    {
        checkWordType<T>();
        if (p.node == myProc()) {
            std::memcpy(p.ptr, &v, sizeof(T));
            return;
        }
        Word w0, w1;
        packValue(v, w0, w1);
        ++outstandingPuts_;
        am_.request(p.node, hPut_, toWord(p.ptr), sizeof(T), w0, w1);
    }

    /**
     * Split-phase read into local memory; completion observed by sync().
     */
    template <typename T>
    void
    get(GlobalPtr<T> p, T *local)
    {
        checkWordType<T>();
        if (p.node == myProc()) {
            std::memcpy(local, p.ptr, sizeof(T));
            return;
        }
        am_.counters().readMsgs += 1;
        ++outstandingGets_;
        am_.request(p.node, hGet_, toWord(p.ptr), sizeof(T),
                    toWord(local));
    }

    /** Wait until every outstanding put and get has completed. */
    void
    sync()
    {
        am_.pollUntil([&] {
            return outstandingPuts_ == 0 && outstandingGets_ == 0;
        }, "split-phase sync");
    }

    // ------------------------------------------------------------------
    // Bulk operations
    // ------------------------------------------------------------------

    /** Asynchronous bulk store of n elements; see storeSync(). */
    template <typename T>
    void
    storeArr(GlobalPtr<T> dst, const T *src, std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (dst.node == myProc()) {
            if (n > 0)
                std::memmove(dst.ptr, src, n * sizeof(T));
            return;
        }
        am_.store(dst.node, dst.ptr, src, n * sizeof(T));
    }

    /** Wait until all our bulk stores have been acknowledged. */
    void storeSync() { am_.storeSync(); }

    /** Blocking bulk read of n elements into local memory. */
    template <typename T>
    void
    readBulk(GlobalPtr<T> src, T *dst, std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (src.node == myProc()) {
            if (n > 0)
                std::memmove(dst, src.ptr, n * sizeof(T));
            return;
        }
        am_.counters().readMsgs += 1;
        ReadSlot slot;
        am_.request(src.node, hGetBulk_, toWord(src.ptr), n * sizeof(T),
                    toWord(dst), toWord(&slot));
        am_.pollUntil([&] { return slot.done; }, "bulk read reply wait");
    }

    // ------------------------------------------------------------------
    // Synchronization and collectives
    // ------------------------------------------------------------------

    /** Dissemination barrier across all processors. */
    void barrier();

    /** All-reduce of a 64-bit integer. */
    std::int64_t allReduceAdd(std::int64_t v);
    std::int64_t allReduceMin(std::int64_t v);
    std::int64_t allReduceMax(std::int64_t v);
    /** All-reduce of a double. */
    double allReduceAdd(double v);
    double allReduceMin(double v);
    double allReduceMax(double v);

    /** Broadcast a word-sized value from root to everyone. */
    template <typename T>
    T
    bcast(T v, NodeId root = 0)
    {
        static_assert(std::is_trivially_copyable_v<T> &&
                      sizeof(T) <= sizeof(Word));
        Word w = 0;
        std::memcpy(&w, &v, sizeof(T));
        w = bcastWord(w, root);
        T out;
        std::memcpy(&out, &w, sizeof(T));
        return out;
    }

    /** Remote (or local) atomic fetch-and-add. */
    std::int64_t fetchAdd(GlobalPtr<std::int64_t> p, std::int64_t delta);

    /**
     * Acquire a blocking lock. Remote attempts retry until granted;
     * every denied attempt counts toward lockFailures (the paper's
     * Barnes livelock metric).
     */
    void lock(GlobalPtr<SplitLock> l);

    /** Release a lock (blocking until the owner acked). */
    void unlock(GlobalPtr<SplitLock> l);

  private:
    friend class SplitCRuntime;

    /** Reply landing zone for blocking operations. */
    struct ReadSlot
    {
        std::uint8_t buf[16] = {};
        int done = 0;
        int aux = 0;
    };

    template <typename T>
    static void
    checkWordType()
    {
        static_assert(std::is_trivially_copyable_v<T> &&
                          sizeof(T) <= 16,
                      "word-granularity ops need T <= 16 bytes; "
                      "use storeArr/readBulk");
    }

    template <typename T>
    static void
    packValue(const T &v, Word &w0, Word &w1)
    {
        Word w[2] = {0, 0};
        std::memcpy(w, &v, sizeof(T));
        w0 = w[0];
        w1 = w[1];
    }

    static Word
    toWord(const void *p)
    {
        return reinterpret_cast<Word>(p);
    }

    Word bcastWord(Word w, NodeId root);
    Word reduceWord(Word w, int op, bool is_double);
    Word reduceWordBinomial(Word w, int op, bool is_double);
    Word reduceWordRecDouble(Word w, int op, bool is_double);

    SplitCRuntime &rt_;
    AmNode &am_;

    int outstandingPuts_ = 0;
    int outstandingGets_ = 0;

    // Barrier state (dissemination, monotonic per-round counters).
    std::uint64_t barrierEpoch_ = 0;
    std::vector<std::uint64_t> barrierSeen_;

    // Reduction state: one slot per tree level.
    std::uint64_t reduceEpoch_ = 0;
    std::vector<std::uint64_t> reduceSeen_;
    std::vector<Word> reduceVal_;
    /** Recursive-doubling exchange values, keyed by epoch*64 + round.
     *  Keyed (not slotted) because an exchange partner may run a full
     *  epoch ahead before this processor consumes the current value. */
    std::map<std::uint64_t, Word> reduceExchVals_;

    // Broadcast state. Values are keyed by epoch because the parent can
    // differ per call (root rotation) and messages from different
    // parents may arrive out of epoch order.
    std::uint64_t bcastEpoch_ = 0;
    std::map<std::uint64_t, Word> bcastVals_;

    // Handler ids (shared across nodes; cached here for brevity).
    int hRead_, hWrite_, hPut_, hGet_, hGetBulk_, hBarrier_, hReduce_,
        hReduceExch_, hBcast_, hFetchAdd_, hTryLock_, hUnlock_;
};

/**
 * Cluster-wide runtime: owns the Cluster, registers the Split-C handler
 * suite, and launches SPMD programs.
 */
class SplitCRuntime
{
  public:
    SplitCRuntime(int nprocs, const LogGPParams &params,
                  std::uint64_t seed = 1);
    ~SplitCRuntime();

    /**
     * Run main on every processor. @return true if the run completed
     * within the virtual-time budget (false: drained, results invalid).
     */
    bool run(std::function<void(SplitC &)> main,
             Tick max_time = kTickNever);

    Cluster &cluster() { return cluster_; }
    SplitC &sc(int i) { return *scs_[i]; }
    int nprocs() const { return cluster_.nprocs(); }
    Tick runtime() const { return cluster_.runtime(); }
    bool timedOut() const { return cluster_.timedOut(); }

    /** The collective policy parsed from params.collAlg. */
    const coll::CollPolicy &collPolicy() const { return collPolicy_; }

    /**
     * The word-allreduce algorithm every allReduce{Add,Min,Max} call
     * runs. Resolved once at construction: the PR-7 binomial
     * reduce-plus-broadcast under the naive policy, the cost model's
     * pick between it and one-pass recursive doubling under "tuned".
     * An "allreduce=..." pin follows coll::selectAlg(): binomial and
     * rdouble run as pinned, rabenseifner (vector-only) falls back to
     * the model's pick.
     */
    coll::CollAlg reduceAlg() const { return reduceAlg_; }

  private:
    friend class SplitC;

    struct Handlers
    {
        int read, write, put, get, getBulk, barrier, reduce, reduceExch,
            bcast, fetchAdd, tryLock, unlock, readAck, writeAck, putAck,
            getAck, bulkDone, lockAck, faAck, unlockAck;
    };

    Handlers registerHandlers();

    Cluster cluster_;
    Handlers h_;
    std::vector<std::unique_ptr<SplitC>> scs_;
    coll::CollPolicy collPolicy_;
    coll::CollAlg reduceAlg_;
};

} // namespace nowcluster

#endif // NOWCLUSTER_SPLITC_SPLITC_HH_
