#include "splitc/splitc.hh"

#include <algorithm>

#include "model/models.hh"

namespace nowcluster {

namespace {

/** Combine two reduction operands. */
Word
combineWords(Word a, Word b, int op, bool is_double)
{
    if (is_double) {
        double x = std::bit_cast<double>(a);
        double y = std::bit_cast<double>(b);
        double r = op == 0 ? x + y : op == 1 ? std::min(x, y)
                                             : std::max(x, y);
        return std::bit_cast<Word>(r);
    }
    auto x = static_cast<std::int64_t>(a);
    auto y = static_cast<std::int64_t>(b);
    std::int64_t r = op == 0 ? x + y : op == 1 ? std::min(x, y)
                                               : std::max(x, y);
    return static_cast<Word>(r);
}

template <typename T>
T *
fromWord(Word w)
{
    return reinterpret_cast<T *>(w);
}

} // namespace

// ----------------------------------------------------------------------
// SplitC
// ----------------------------------------------------------------------

SplitC::SplitC(SplitCRuntime &rt, AmNode &am)
    : rt_(rt), am_(am), barrierSeen_(64, 0), reduceSeen_(64, 0),
      reduceVal_(64, 0)
{
    const auto &h = rt.h_;
    hRead_ = h.read;
    hWrite_ = h.write;
    hPut_ = h.put;
    hGet_ = h.get;
    hGetBulk_ = h.getBulk;
    hBarrier_ = h.barrier;
    hReduce_ = h.reduce;
    hReduceExch_ = h.reduceExch;
    hBcast_ = h.bcast;
    hFetchAdd_ = h.fetchAdd;
    hTryLock_ = h.tryLock;
    hUnlock_ = h.unlock;
}

int
SplitC::procs() const
{
    return rt_.nprocs();
}

void
SplitC::barrier()
{
    const int p = procs();
    if (p > 1) {
        const Tick t0 = am_.now();
        ++barrierEpoch_;
        const std::uint64_t target = barrierEpoch_;
        for (int r = 0; (1 << r) < p; ++r) {
            NodeId partner = (myProc() + (1 << r)) % p;
            am_.oneWay(partner, hBarrier_, static_cast<Word>(r));
            am_.pollUntil([&] { return barrierSeen_[r] >= target; },
                          "barrier");
        }
        if (am_.obs())
            am_.obs()->containerSpan(am_.id(), SpanCat::BarrierWait, t0,
                                     am_.now());
    }
    ++am_.counters().barriers;
}

Word
SplitC::bcastWord(Word w, NodeId root)
{
    const int p = procs();
    if (p == 1)
        return w;
    ++bcastEpoch_;
    const std::uint64_t target = bcastEpoch_;
    const int rel = (myProc() - root + p) % p;
    int levels = 0;
    while ((1 << levels) < p)
        ++levels;
    bool have = rel == 0;
    for (int k = levels - 1; k >= 0; --k) {
        if (!have && rel >= (1 << k) && rel < (1 << (k + 1))) {
            am_.pollUntil([&] { return bcastVals_.count(target) > 0; },
                          "broadcast");
            auto it = bcastVals_.find(target);
            if (it != bcastVals_.end()) {
                w = it->second;
                bcastVals_.erase(it);
            }
            have = true;
        } else if (have && !(rel & (1 << k)) && rel + (1 << k) < p) {
            NodeId dst = (rel + (1 << k) + root) % p;
            am_.oneWay(dst, hBcast_, w, target);
        }
    }
    return w;
}

Word
SplitC::reduceWord(Word w, int op, bool is_double)
{
    const int p = procs();
    if (p == 1)
        return w;
    if (rt_.reduceAlg() == coll::CollAlg::ArRecDouble)
        return reduceWordRecDouble(w, op, is_double);
    return reduceWordBinomial(w, op, is_double);
}

Word
SplitC::reduceWordBinomial(Word w, int op, bool is_double)
{
    const int p = procs();
    ++reduceEpoch_;
    const std::uint64_t target = reduceEpoch_;
    const int me = myProc();
    for (int k = 0; (1 << k) < p; ++k) {
        if (me & (1 << k)) {
            am_.oneWay(me - (1 << k), hReduce_, static_cast<Word>(k), w);
            break;
        }
        int peer = me + (1 << k);
        if (peer < p) {
            am_.pollUntil([&] { return reduceSeen_[k] >= target; },
                          "reduction");
            w = combineWords(w, reduceVal_[k], op, is_double);
        }
    }
    return bcastWord(w, 0);
}

Word
SplitC::reduceWordRecDouble(Word w, int op, bool is_double)
{
    // One-pass recursive doubling: log2 rounds of symmetric
    // exchange-and-combine instead of the binomial's reduce-then-
    // broadcast double traversal. Ranks beyond the largest power of
    // two fold into their mirror first and get the result back last
    // (rounds 62/63 in the key space).
    const int p = procs();
    ++reduceEpoch_;
    const std::uint64_t target = reduceEpoch_;
    const int me = myProc();
    int p2 = 1;
    while (p2 * 2 <= p)
        p2 *= 2;
    const int extra = p - p2;

    auto key = [](std::uint64_t epoch, int round) {
        return epoch * 64 + static_cast<std::uint64_t>(round);
    };
    auto take = [&](std::uint64_t k) {
        am_.pollUntil([&] { return reduceExchVals_.count(k) > 0; },
                      "reduction");
        auto it = reduceExchVals_.find(k);
        Word v = it->second;
        reduceExchVals_.erase(it);
        return v;
    };

    if (me >= p2) {
        am_.oneWay(me - p2, hReduceExch_, key(target, 62), w);
        return take(key(target, 63));
    }
    if (me < extra)
        w = combineWords(w, take(key(target, 62)), op, is_double);
    for (int k = 0; (1 << k) < p2; ++k) {
        const int partner = me ^ (1 << k);
        am_.oneWay(partner, hReduceExch_, key(target, k), w);
        w = combineWords(w, take(key(target, k)), op, is_double);
    }
    if (me < extra)
        am_.oneWay(me + p2, hReduceExch_, key(target, 63), w);
    return w;
}

std::int64_t
SplitC::allReduceAdd(std::int64_t v)
{
    return static_cast<std::int64_t>(
        reduceWord(static_cast<Word>(v), 0, false));
}

std::int64_t
SplitC::allReduceMin(std::int64_t v)
{
    return static_cast<std::int64_t>(
        reduceWord(static_cast<Word>(v), 1, false));
}

std::int64_t
SplitC::allReduceMax(std::int64_t v)
{
    return static_cast<std::int64_t>(
        reduceWord(static_cast<Word>(v), 2, false));
}

double
SplitC::allReduceAdd(double v)
{
    return std::bit_cast<double>(
        reduceWord(std::bit_cast<Word>(v), 0, true));
}

double
SplitC::allReduceMin(double v)
{
    return std::bit_cast<double>(
        reduceWord(std::bit_cast<Word>(v), 1, true));
}

double
SplitC::allReduceMax(double v)
{
    return std::bit_cast<double>(
        reduceWord(std::bit_cast<Word>(v), 2, true));
}

std::int64_t
SplitC::fetchAdd(GlobalPtr<std::int64_t> p, std::int64_t delta)
{
    if (p.node == myProc()) {
        std::int64_t old = *p.ptr;
        *p.ptr += delta;
        return old;
    }
    ReadSlot slot;
    am_.request(p.node, hFetchAdd_, toWord(p.ptr),
                static_cast<Word>(delta), toWord(&slot));
    am_.pollUntil([&] { return slot.done; }, "fetch-add reply wait");
    std::int64_t old;
    std::memcpy(&old, slot.buf, sizeof(old));
    return old;
}

void
SplitC::lock(GlobalPtr<SplitLock> l)
{
    if (l.node == myProc()) {
        if (l.ptr->held) {
            ++am_.counters().lockFailures;
            // The holder's unlock request executes on our fiber when we
            // poll, so waiting on the flag directly is correct.
            am_.pollUntil([&] { return !l.ptr->held; }, "lock wait");
        }
        if (!draining())
            l.ptr->held = 1;
        ++am_.counters().lockAcquires;
        return;
    }
    for (;;) {
        ReadSlot slot;
        am_.request(l.node, hTryLock_, toWord(l.ptr), toWord(&slot));
        am_.pollUntil([&] { return slot.done; }, "lock wait");
        if (draining())
            return;
        if (slot.aux)
            break;
        ++am_.counters().lockFailures;
    }
    ++am_.counters().lockAcquires;
}

void
SplitC::unlock(GlobalPtr<SplitLock> l)
{
    if (l.node == myProc()) {
        l.ptr->held = 0;
        return;
    }
    ReadSlot slot;
    am_.request(l.node, hUnlock_, toWord(l.ptr), toWord(&slot));
    am_.pollUntil([&] { return slot.done; }, "unlock reply wait");
}

// ----------------------------------------------------------------------
// SplitCRuntime
// ----------------------------------------------------------------------

SplitCRuntime::SplitCRuntime(int nprocs, const LogGPParams &params,
                             std::uint64_t seed)
    : cluster_(nprocs, params, seed),
      collPolicy_(coll::CollPolicy::parse(params.collAlg))
{
    // Resolve the word-allreduce algorithm once: every call has the
    // same 8-byte shape, so the pick is a property of the runtime, not
    // of the invocation.
    reduceAlg_ = coll::CollAlg::ArBinomial;
    if (collPolicy_.tuned())
        reduceAlg_ = coll::selectAlg(
            collPolicy_, pointFromParams(params), coll::Coll::AllReduce,
            nprocs, sizeof(Word),
            {coll::CollAlg::ArBinomial, coll::CollAlg::ArRecDouble});
    h_ = registerHandlers();
    scs_.reserve(nprocs);
    for (int i = 0; i < nprocs; ++i)
        scs_.push_back(std::make_unique<SplitC>(*this, cluster_.node(i)));
}

SplitCRuntime::~SplitCRuntime() = default;

bool
SplitCRuntime::run(std::function<void(SplitC &)> main, Tick max_time)
{
    return cluster_.run(
        [this, main = std::move(main)](AmNode &n) {
            main(*scs_[n.id()]);
        },
        max_time);
}

SplitCRuntime::Handlers
SplitCRuntime::registerHandlers()
{
    Handlers h;

    // --- acks (registered first so the forward handlers can cite them)

    h.readAck = cluster_.registerHandler([](AmNode &, Packet &pkt) {
        auto *slot = fromWord<SplitC::ReadSlot>(pkt.args[0]);
        Word w[2] = {pkt.args[1], pkt.args[2]};
        std::memcpy(slot->buf, w, sizeof(w));
        slot->done = 1;
    });

    h.writeAck = cluster_.registerHandler([](AmNode &, Packet &pkt) {
        fromWord<SplitC::ReadSlot>(pkt.args[0])->done = 1;
    });

    h.putAck = cluster_.registerHandler([this](AmNode &self, Packet &) {
        --scs_[self.id()]->outstandingPuts_;
    });

    h.getAck = cluster_.registerHandler([this](AmNode &self, Packet &pkt) {
        auto *dst = fromWord<std::uint8_t>(pkt.args[0]);
        std::size_t size = pkt.args[1];
        Word w[2] = {pkt.args[2], pkt.args[3]};
        std::memcpy(dst, w, std::min(size, sizeof(w)));
        --scs_[self.id()]->outstandingGets_;
    });

    h.bulkDone = cluster_.registerHandler([](AmNode &, Packet &pkt) {
        fromWord<SplitC::ReadSlot>(pkt.args[0])->done = 1;
    });

    h.lockAck = cluster_.registerHandler([](AmNode &, Packet &pkt) {
        auto *slot = fromWord<SplitC::ReadSlot>(pkt.args[0]);
        slot->aux = static_cast<int>(pkt.args[1]);
        slot->done = 1;
    });

    h.faAck = cluster_.registerHandler([](AmNode &, Packet &pkt) {
        auto *slot = fromWord<SplitC::ReadSlot>(pkt.args[0]);
        std::memcpy(slot->buf, &pkt.args[1], sizeof(Word));
        slot->done = 1;
    });

    h.unlockAck = cluster_.registerHandler([](AmNode &, Packet &pkt) {
        fromWord<SplitC::ReadSlot>(pkt.args[0])->done = 1;
    });

    // --- forward handlers

    h.read = cluster_.registerHandler(
        [this, ack = h.readAck](AmNode &self, Packet &pkt) {
            const auto *src = fromWord<std::uint8_t>(pkt.args[0]);
            std::size_t size = pkt.args[1];
            Word w[2] = {0, 0};
            std::memcpy(w, src, std::min(size, sizeof(w)));
            self.counters().readMsgs += 1; // The reply is a read message.
            self.reply(pkt, ack, pkt.args[2], w[0], w[1]);
        });

    h.write = cluster_.registerHandler(
        [ack = h.writeAck](AmNode &self, Packet &pkt) {
            auto *dst = fromWord<std::uint8_t>(pkt.args[0]);
            std::size_t size = pkt.args[1];
            Word w[2] = {pkt.args[3], pkt.args[4]};
            std::memcpy(dst, w, std::min(size, sizeof(w)));
            self.reply(pkt, ack, pkt.args[2]);
        });

    h.put = cluster_.registerHandler(
        [ack = h.putAck](AmNode &self, Packet &pkt) {
            auto *dst = fromWord<std::uint8_t>(pkt.args[0]);
            std::size_t size = pkt.args[1];
            Word w[2] = {pkt.args[2], pkt.args[3]};
            std::memcpy(dst, w, std::min(size, sizeof(w)));
            self.reply(pkt, ack);
        });

    h.get = cluster_.registerHandler(
        [ack = h.getAck](AmNode &self, Packet &pkt) {
            const auto *src = fromWord<std::uint8_t>(pkt.args[0]);
            std::size_t size = pkt.args[1];
            Word w[2] = {0, 0};
            std::memcpy(w, src, std::min(size, sizeof(w)));
            self.counters().readMsgs += 1;
            self.reply(pkt, ack, pkt.args[2], size, w[0], w[1]);
        });

    h.getBulk = cluster_.registerHandler(
        [done = h.bulkDone](AmNode &self, Packet &pkt) {
            auto *src = fromWord<std::uint8_t>(pkt.args[0]);
            std::size_t bytes = pkt.args[1];
            auto *dst = fromWord<std::uint8_t>(pkt.args[2]);
            self.counters().readMsgs += 1; // The bulk reply is a read.
            self.replyStore(pkt, dst, src, bytes, done, pkt.args[3]);
        });

    h.barrier = cluster_.registerHandler(
        [this](AmNode &self, Packet &pkt) {
            ++scs_[self.id()]->barrierSeen_[pkt.args[0]];
        });

    h.reduce = cluster_.registerHandler(
        [this](AmNode &self, Packet &pkt) {
            SplitC &sc = *scs_[self.id()];
            std::size_t k = pkt.args[0];
            sc.reduceVal_[k] = pkt.args[1];
            ++sc.reduceSeen_[k];
        });

    h.reduceExch = cluster_.registerHandler(
        [this](AmNode &self, Packet &pkt) {
            scs_[self.id()]->reduceExchVals_[pkt.args[0]] = pkt.args[1];
        });

    h.bcast = cluster_.registerHandler(
        [this](AmNode &self, Packet &pkt) {
            SplitC &sc = *scs_[self.id()];
            sc.bcastVals_[pkt.args[1]] = pkt.args[0];
        });

    h.fetchAdd = cluster_.registerHandler(
        [ack = h.faAck](AmNode &self, Packet &pkt) {
            auto *p = fromWord<std::int64_t>(pkt.args[0]);
            auto delta = static_cast<std::int64_t>(pkt.args[1]);
            std::int64_t old = *p;
            *p += delta;
            self.reply(pkt, ack, pkt.args[2], static_cast<Word>(old));
        });

    h.tryLock = cluster_.registerHandler(
        [ack = h.lockAck](AmNode &self, Packet &pkt) {
            auto *l = fromWord<SplitLock>(pkt.args[0]);
            Word granted = 0;
            if (!l->held) {
                l->held = 1;
                granted = 1;
            }
            self.reply(pkt, ack, pkt.args[1], granted);
        });

    h.unlock = cluster_.registerHandler(
        [ack = h.unlockAck](AmNode &self, Packet &pkt) {
            fromWord<SplitLock>(pkt.args[0])->held = 0;
            self.reply(pkt, ack, pkt.args[1]);
        });

    return h;
}

} // namespace nowcluster
