#include "svc/coordinator.hh"

#include "svc/codec.hh"
#include "svc/spec.hh"

namespace nowcluster::svc {

namespace {

/** {"op":<op>,"id":<id>} request line. */
std::string
idRequest(const char *op, std::uint64_t id)
{
    JsonWriter w;
    w.beginObject().field("op", op).field("id", id).endObject();
    return w.str();
}

/** {"op":"pull","key":<key>} request line. */
std::string
pullRequest(const std::string &key)
{
    JsonWriter w;
    w.beginObject().field("op", "pull").field("key", key).endObject();
    return w.str();
}

/**
 * Swap the worker-scope id in a reply line for the coordinator-scope
 * one. Worker replies all come from statusReply/resultReply, so the
 * prefix is the literal '{"ok":true,"id":<digits>'; anything else is
 * returned untouched (error replies carry no id).
 */
std::string
rewriteId(const std::string &reply, std::uint64_t id)
{
    constexpr std::string_view kPrefix = "{\"ok\":true,\"id\":";
    if (reply.compare(0, kPrefix.size(), kPrefix) != 0)
        return reply;
    std::size_t i = kPrefix.size();
    std::size_t j = i;
    while (j < reply.size() && reply[j] >= '0' && reply[j] <= '9')
        ++j;
    if (j == i)
        return reply;
    return reply.substr(0, i) + std::to_string(id) + reply.substr(j);
}

/** The worker-style "result not ready" reply. */
std::string
notDoneReply(const char *state)
{
    JsonWriter w;
    w.beginObject()
        .field("ok", false)
        .field("error", "not-done")
        .field("state", state)
        .endObject();
    return w.str();
}

} // namespace

bool
parseHostPort(const std::string &addr, std::string &host, int &port)
{
    std::size_t colon = addr.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= addr.size())
        return false;
    int p = 0;
    for (std::size_t i = colon + 1; i < addr.size(); ++i) {
        char c = addr[i];
        if (c < '0' || c > '9')
            return false;
        p = p * 10 + (c - '0');
        if (p > 65535)
            return false;
    }
    if (p <= 0)
        return false;
    host = addr.substr(0, colon);
    port = p;
    return true;
}

CoordinatorCore::CoordinatorCore(const CoordinatorConfig &config)
    : config_(config),
      ring_(config.workers, config.vnodes),
      local_(config.local),
      reqTotal_(metrics_.counter("coord.requests")),
      reqBad_(metrics_.counter("coord.requests.bad")),
      submits_(metrics_.counter("coord.submits")),
      forwarded_(metrics_.counter("coord.forwarded")),
      failovers_(metrics_.counter("coord.failovers")),
      orphans_(metrics_.counter("coord.orphans")),
      replicaReads_(metrics_.counter("coord.replica_reads")),
      recomputes_(metrics_.counter("coord.recomputes")),
      localRuns_(metrics_.counter("coord.local_runs")),
      replCopies_(metrics_.counter("coord.repl.copies"))
{
    for (std::size_t i = 0; i < config_.workers.size(); ++i) {
        const std::string &addr = config_.workers[i];
        std::string host = "127.0.0.1";
        int port = 0;
        parseHostPort(addr, host, port);
        Backoff backoff(config_.backoffBaseMs, config_.backoffCapMs,
                        config_.backoffSeed + i);
        workers_.push_back(std::make_unique<Worker>(
            addr,
            std::make_unique<Client>(host, port, config_.rpcTimeoutMs),
            backoff));
    }
    heartbeat_ = std::thread([this] { heartbeatLoop(); });
}

CoordinatorCore::~CoordinatorCore()
{
    beginShutdown();
    drain();
}

std::string
CoordinatorCore::handleLine(const std::string &line)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++reqTotal_;
    }
    if (line.size() > kMaxRequestBytes) {
        std::lock_guard<std::mutex> lock(mu_);
        ++reqBad_;
        return errorReply("oversized request");
    }
    JsonValue req;
    std::string err;
    if (!parseJson(line, req, &err) || !req.isObject()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++reqBad_;
        return errorReply(err.empty() ? "not a JSON object" : err);
    }
    std::string op = req.stringOr("op", "");
    if (op == "submit")
        return handleSubmit(req);
    if (op == "status")
        return handleStatus(req);
    if (op == "get")
        return handleGet(req);
    if (op == "stats")
        return handleStats();
    if (op == "ping")
        return handlePing();
    if (op == "shutdown")
        return handleShutdown();
    std::lock_guard<std::mutex> lock(mu_);
    ++reqBad_;
    return errorReply("unknown op '" + op + "'");
}

// ---- submit ---------------------------------------------------------

int
CoordinatorCore::offerRemote(Rec &rec, JsonValue &reply,
                             std::string &raw)
{
    // Every rpc() failure marks its worker dead, so the next primary()
    // walks past it; at most one attempt per configured worker.
    for (std::size_t tries = 0; tries < workers_.size(); ++tries) {
        int w;
        {
            std::lock_guard<std::mutex> lock(mu_);
            w = ring_.primary(rec.key, aliveLocked());
        }
        if (w < 0)
            return 0;
        if (!rpc(w, submitRequest(rec.pt), reply, &raw))
            continue;
        if (!reply.boolOr("ok", false))
            return -1;
        rec.home = Home::kRemote;
        rec.worker = w;
        rec.remoteId =
            static_cast<std::uint64_t>(reply.numberOr("id", 0));
        rec.cached = reply.boolOr("cached", false);
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++forwarded_;
        }
        return 1;
    }
    return 0;
}

bool
CoordinatorCore::localSubmit(Rec &rec, std::string &raw)
{
    raw = local_.handleLine(submitRequest(rec.pt));
    JsonValue r;
    if (!parseJson(raw, r, nullptr) || !r.boolOr("ok", false))
        return false;
    rec.home = Home::kLocal;
    rec.worker = -1;
    rec.remoteId = static_cast<std::uint64_t>(r.numberOr("id", 0));
    rec.cached = r.boolOr("cached", false);
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++localRuns_;
    }
    return true;
}

std::string
CoordinatorCore::handleSubmit(const JsonValue &req)
{
    if (shuttingDown())
        return errorReply("shutting-down");
    Rec rec;
    rec.pt = pointOfRequest(req);
    std::string complaint = submitComplaint(req, rec.pt);
    if (!complaint.empty()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++reqBad_;
        return errorReply(complaint);
    }
    rec.key = cacheKey(rec.pt);
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++submits_;
    }

    JsonValue reply;
    std::string raw;
    int got = offerRemote(rec, reply, raw);
    if (got < 0)
        return raw; // Busy / refusal: backpressure passes through.
    std::string state = "queued";
    if (got > 0) {
        state = reply.stringOr("state", "queued");
    } else {
        // Fleet dark: degrade to the embedded local worker.
        if (!localSubmit(rec, raw))
            return raw;
        JsonValue r;
        if (parseJson(raw, r, nullptr))
            state = r.stringOr("state", "queued");
    }
    bool cached = rec.cached;
    std::uint64_t id = nextId_++;
    recs_[id] = std::move(rec);
    return statusReply(id, state.c_str(), cached);
}

// ---- failover -------------------------------------------------------

void
CoordinatorCore::adopt(std::uint64_t id, Rec &rec)
{
    (void)id;
    // A surviving replica of the answer beats recomputing it.
    std::vector<int> shard;
    {
        std::lock_guard<std::mutex> lock(mu_);
        shard = ring_.pick(rec.key, config_.replicas, aliveLocked());
    }
    for (int w : shard) {
        JsonValue r;
        if (!rpc(w, pullRequest(rec.key), r))
            continue;
        if (!r.boolOr("ok", false))
            continue;
        std::string payload;
        RunResult res;
        if (!hexDecode(r.stringOr("payload", ""), payload) ||
            !decodeResult(payload, res))
            continue;
        rec.result = std::move(res);
        rec.home = Home::kDone;
        rec.cached = true;
        std::lock_guard<std::mutex> lock(mu_);
        ++replicaReads_;
        return;
    }
    // Recompute: content-addressed specs make this correct by
    // construction -- the new owner computes the byte-identical result.
    JsonValue reply;
    std::string raw;
    int got = offerRemote(rec, reply, raw);
    if (got > 0) {
        std::lock_guard<std::mutex> lock(mu_);
        ++recomputes_;
        return;
    }
    if (got < 0)
        return; // Fleet busy: stay orphaned, the next poll retries.
    if (localSubmit(rec, raw)) {
        std::lock_guard<std::mutex> lock(mu_);
        ++recomputes_;
    }
}

bool
CoordinatorCore::fetchResult(Rec &rec, int w)
{
    JsonValue r;
    if (!rpc(w, pullRequest(rec.key), r) || !r.boolOr("ok", false))
        return false;
    std::string payload;
    RunResult res;
    if (!hexDecode(r.stringOr("payload", ""), payload) ||
        !decodeResult(payload, res))
        return false;
    rec.result = std::move(res);
    rec.home = Home::kDone;
    return true;
}

void
CoordinatorCore::replicate(Rec &rec, int computedOn)
{
    if (rec.replicated || config_.replicas <= 1)
        return;
    JsonWriter put;
    put.beginObject()
        .field("op", "put")
        .field("key", rec.key)
        .field("payload", hexEncode(encodeResult(rec.result)))
        .endObject();
    if (put.str().size() > kMaxRequestBytes)
        return; // Oversized result: skip replication, keep serving.
    std::vector<int> shard;
    {
        std::lock_guard<std::mutex> lock(mu_);
        shard = ring_.pick(rec.key, config_.replicas, aliveLocked());
    }
    bool all = true;
    for (int w : shard) {
        if (w == computedOn)
            continue;
        JsonValue r;
        if (rpc(w, put.str(), r) && r.boolOr("ok", false)) {
            std::lock_guard<std::mutex> lock(mu_);
            ++replCopies_;
        } else {
            all = false;
        }
    }
    rec.replicated = all;
}

// ---- status / get ---------------------------------------------------

std::string
CoordinatorCore::handleStatus(const JsonValue &req)
{
    std::uint64_t id =
        static_cast<std::uint64_t>(req.numberOr("id", 0));
    auto it = recs_.find(id);
    if (it == recs_.end()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++reqBad_;
        return errorReply("unknown id");
    }
    Rec &rec = it->second;
    if (rec.home == Home::kOrphan)
        adopt(id, rec);
    switch (rec.home) {
    case Home::kDone:
        return statusReply(id, "done", rec.cached);
    case Home::kOrphan:
        return statusReply(id, "queued", false);
    case Home::kLocal:
        return rewriteId(
            local_.handleLine(idRequest("status", rec.remoteId)), id);
    case Home::kRemote:
        break;
    }
    JsonValue r;
    if (!rpc(rec.worker, idRequest("status", rec.remoteId), r) ||
        !r.boolOr("ok", false)) {
        // Owner gone (or restarted and forgot the id): orphan the job
        // and re-home it right away.
        rec.home = Home::kOrphan;
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++orphans_;
        }
        adopt(id, rec);
        if (rec.home == Home::kDone)
            return statusReply(id, "done", rec.cached);
        return statusReply(id, "queued", rec.cached);
    }
    return statusReply(id, r.stringOr("state", "?").c_str(),
                       r.boolOr("cached", false));
}

std::string
CoordinatorCore::handleGet(const JsonValue &req)
{
    std::uint64_t id =
        static_cast<std::uint64_t>(req.numberOr("id", 0));
    auto it = recs_.find(id);
    if (it == recs_.end()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++reqBad_;
        return errorReply("unknown id");
    }
    Rec &rec = it->second;
    if (rec.home == Home::kOrphan)
        adopt(id, rec);
    switch (rec.home) {
    case Home::kDone:
        return resultReply(id, "done", rec.cached, rec.pt, rec.result);
    case Home::kOrphan:
        return notDoneReply("queued");
    case Home::kLocal:
        return rewriteId(
            local_.handleLine(idRequest("get", rec.remoteId)), id);
    case Home::kRemote:
        break;
    }
    JsonValue r;
    std::string raw;
    if (!rpc(rec.worker, idRequest("get", rec.remoteId), r, &raw)) {
        rec.home = Home::kOrphan;
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++orphans_;
        }
        adopt(id, rec);
        if (rec.home == Home::kDone)
            return resultReply(id, "done", rec.cached, rec.pt,
                               rec.result);
        return notDoneReply("queued");
    }
    if (!r.boolOr("ok", false)) {
        std::string err = r.stringOr("error", "");
        if (err == "not-done")
            return raw; // Carries state, no id: verbatim.
        rec.home = Home::kOrphan;
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++orphans_;
        }
        adopt(id, rec);
        if (rec.home == Home::kDone)
            return resultReply(id, "done", rec.cached, rec.pt,
                               rec.result);
        return notDoneReply("queued");
    }
    std::string state = r.stringOr("state", "");
    if (state == "done") {
        int src = rec.worker;
        rec.cached = r.boolOr("cached", false);
        if (fetchResult(rec, src)) {
            replicate(rec, src);
            return resultReply(id, "done", rec.cached, rec.pt,
                               rec.result);
        }
        // No pullable payload (storeless or evicted): the worker's own
        // reply is still authoritative -- forward it under our id.
        return rewriteId(raw, id);
    }
    // "failed" is deterministic (a spec that exceeds its budget does so
    // everywhere), so the owner's verdict is final.
    return rewriteId(raw, id);
}

// ---- introspection --------------------------------------------------

std::string
CoordinatorCore::handleStats()
{
    MetricsSnapshot snap;
    std::size_t alive = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        snap = metrics_.snapshot();
        for (const auto &wk : workers_)
            alive += wk->alive ? 1 : 0;
    }
    JsonWriter w;
    w.beginObject()
        .field("ok", true)
        .field("role", "coordinator")
        .field("draining", shuttingDown())
        .field("jobs_tracked", static_cast<std::uint64_t>(recs_.size()))
        .field("workers", static_cast<std::uint64_t>(workers_.size()))
        .field("workers_alive", static_cast<std::uint64_t>(alive))
        .field("replicas", config_.replicas);
    w.beginObject("counters");
    for (const auto &[name, v] : snap.counters)
        w.field(name, v);
    w.endObject();
    w.beginObject("fleet");
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &wk : workers_) {
            w.beginObject(wk->addr);
            w.field("alive", wk->alive);
            w.field("failures", wk->failures);
            w.endObject();
        }
    }
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
CoordinatorCore::handlePing()
{
    std::size_t alive = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &wk : workers_)
            alive += wk->alive ? 1 : 0;
    }
    JsonWriter w;
    w.beginObject()
        .field("ok", true)
        .field("role", "coordinator")
        .field("draining", shuttingDown())
        .field("workers_alive", static_cast<std::uint64_t>(alive))
        .endObject();
    return w.str();
}

std::string
CoordinatorCore::handleShutdown()
{
    beginShutdown();
    JsonWriter w;
    w.beginObject()
        .field("ok", true)
        .field("state", "draining")
        .endObject();
    return w.str();
}

// ---- liveness -------------------------------------------------------

bool
CoordinatorCore::rpc(int w, const std::string &line, JsonValue &reply,
                     std::string *raw)
{
    Worker &wk = *workers_[static_cast<std::size_t>(w)];
    std::string text;
    bool ok;
    {
        std::lock_guard<std::mutex> lock(wk.rpcMu);
        ok = wk.client->request(line, text);
    }
    if (!ok) {
        markDead(w);
        return false;
    }
    std::string err;
    if (!parseJson(text, reply, &err) || !reply.isObject()) {
        markDead(w);
        return false;
    }
    if (raw)
        *raw = text;
    markAlive(w);
    return true;
}

void
CoordinatorCore::markDead(int w)
{
    std::lock_guard<std::mutex> lock(mu_);
    Worker &wk = *workers_[static_cast<std::size_t>(w)];
    ++wk.failures;
    wk.nextProbe = Clock::now() +
                   std::chrono::milliseconds(wk.backoff.nextMs());
    if (wk.alive) {
        wk.alive = false;
        ++failovers_;
    }
}

void
CoordinatorCore::markAlive(int w)
{
    std::lock_guard<std::mutex> lock(mu_);
    Worker &wk = *workers_[static_cast<std::size_t>(w)];
    wk.alive = true;
    wk.backoff.reset();
}

std::vector<bool>
CoordinatorCore::aliveLocked() const
{
    std::vector<bool> alive(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i)
        alive[i] = workers_[i]->alive;
    return alive;
}

std::vector<bool>
CoordinatorCore::aliveView() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return aliveLocked();
}

int
CoordinatorCore::shardOfKey(const std::string &key) const
{
    return ring_.primary(key); // Static ring: no lock needed.
}

void
CoordinatorCore::heartbeatLoop()
{
    JsonWriter ping;
    ping.beginObject().field("op", "ping").endObject();
    std::unique_lock<std::mutex> lock(mu_);
    while (!stopHeartbeat_) {
        std::vector<int> probe;
        Clock::time_point now = Clock::now();
        for (std::size_t w = 0; w < workers_.size(); ++w) {
            // Alive workers are pinged every beat; dead ones only once
            // their jittered backoff window has elapsed, so a downed
            // box is not hammered with reconnects.
            if (workers_[w]->alive || now >= workers_[w]->nextProbe)
                probe.push_back(static_cast<int>(w));
        }
        lock.unlock();
        for (int w : probe) {
            JsonValue r;
            rpc(w, ping.str(), r); // Marks alive/dead itself.
        }
        lock.lock();
        heartbeatCv_.wait_for(
            lock, std::chrono::milliseconds(config_.heartbeatMs),
            [this] { return stopHeartbeat_; });
    }
}

// ---- lifecycle ------------------------------------------------------

void
CoordinatorCore::beginShutdown()
{
    std::lock_guard<std::mutex> lock(mu_);
    shuttingDown_ = true;
}

bool
CoordinatorCore::shuttingDown() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return shuttingDown_;
}

void
CoordinatorCore::drain()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopHeartbeat_ = true;
    }
    heartbeatCv_.notify_all();
    if (heartbeat_.joinable())
        heartbeat_.join();
    local_.beginShutdown();
    local_.drain();
}

} // namespace nowcluster::svc
