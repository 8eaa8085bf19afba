#include "svc/server.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "base/logging.hh"

namespace nowcluster::svc {

namespace {

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** send() the whole buffer (blocking socket), riding out EINTR and
 *  short writes. MSG_NOSIGNAL: a vanished peer is an error return,
 *  never a SIGPIPE. */
bool
sendAll(int fd, const char *p, std::size_t n)
{
    while (n > 0) {
        ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/**
 * Read up to the next '\n' into `line` (newline stripped), carrying
 * leftover bytes between calls in `buffer`. Blocking-socket helper for
 * the client side only; the server never blocks on a read.
 */
bool
readLine(int fd, std::string &buffer, std::string &line,
         std::size_t maxLine)
{
    for (;;) {
        std::size_t nl = buffer.find('\n');
        if (nl != std::string::npos) {
            line = buffer.substr(0, nl);
            buffer.erase(0, nl + 1);
            return true;
        }
        char chunk[4096];
        ssize_t r = ::read(fd, chunk, sizeof chunk);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (r == 0)
            return false; // Peer closed.
        buffer.append(chunk, static_cast<std::size_t>(r));
        if (buffer.size() > maxLine + 1 &&
            buffer.find('\n') == std::string::npos)
            return false; // Oversized reply: treat as transport error.
    }
}

} // namespace

NowlabServer::NowlabServer(const ServiceConfig &config, int port,
                           const ServerLimits &limits)
    : core_(config), limits_(limits), requestedPort_(port)
{
}

NowlabServer::~NowlabServer()
{
    requestStop();
    wait();
}

bool
NowlabServer::start()
{
    // SIGPIPE immunity belt-and-braces: every send already passes
    // MSG_NOSIGNAL, but third-party code (or a future write path)
    // must not be able to kill the daemon either.
    std::signal(SIGPIPE, SIG_IGN);

    int pipefd[2];
    if (::pipe(pipefd) != 0)
        return false;
    wakeRead_ = pipefd[0];
    wakeWrite_ = pipefd[1];
    setNonBlocking(wakeRead_);
    setNonBlocking(wakeWrite_);

    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd_ < 0) {
        ::close(wakeRead_);
        ::close(wakeWrite_);
        wakeRead_ = wakeWrite_ = -1;
        return false;
    }

    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listenFd_ < 0)
        return false;
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(requestedPort_));
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listenFd_, 64) != 0) {
        warn("nowlabd: cannot bind 127.0.0.1:%d: %s", requestedPort_,
             std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    socklen_t len = sizeof addr;
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
    ev.data.fd = wakeRead_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeRead_, &ev);

    loop_ = std::thread([this] { eventLoop(); });
    return true;
}

void
NowlabServer::eventLoop()
{
    // A fixed short tick bounds both timeout sweep latency and how
    // long a missed self-pipe edge could ever go unnoticed.
    constexpr int kTickMs = 100;
    std::vector<epoll_event> events(64);

    for (;;) {
        int n = ::epoll_wait(epollFd_, events.data(),
                             static_cast<int>(events.size()), kTickMs);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            int fd = events[i].data.fd;
            std::uint32_t ev = events[i].events;
            if (fd == wakeRead_) {
                char buf[64];
                while (::read(wakeRead_, buf, sizeof buf) > 0) {
                }
                continue; // stopping_ is checked below.
            }
            if (fd == listenFd_) {
                if (!draining_)
                    acceptReady();
                continue;
            }
            auto it = conns_.find(fd);
            if (it == conns_.end())
                continue; // Closed earlier in this batch.
            Conn &c = it->second;
            bool dead = false;
            if (ev & (EPOLLIN | EPOLLHUP | EPOLLERR))
                dead = !readReady(c);
            if (!dead && (ev & EPOLLOUT))
                dead = !flushWrites(c);
            if (!dead && c.eof && c.out.empty())
                dead = true; // Half-close: last reply flushed.
            if (dead)
                closeConn(fd);
        }

        if (stopping_.load(std::memory_order_acquire) && !draining_) {
            draining_ = true;
            drainDeadline_ = Clock::now() + std::chrono::milliseconds(
                                               limits_.drainTimeoutMs);
            ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
            // Connections with nothing left to say close now; the rest
            // get the drain window to flush their final replies.
            std::vector<int> idle;
            for (auto &[fd, c] : conns_) {
                if (c.out.empty())
                    idle.push_back(fd);
            }
            for (int fd : idle)
                closeConn(fd);
        }
        if (draining_ && (conns_.empty() || Clock::now() >= drainDeadline_))
            break;

        sweepTimeouts(Clock::now());
    }

    std::vector<int> all;
    for (auto &[fd, c] : conns_)
        all.push_back(fd);
    for (int fd : all)
        closeConn(fd);
}

void
NowlabServer::acceptReady()
{
    for (;;) {
        int fd = ::accept4(listenFd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // EAGAIN, or a transient accept error.
        }
        if (conns_.size() >= limits_.maxConnections) {
            // Best-effort turn-away; never block the loop for it.
            std::string msg = errorReply("too-many-connections");
            msg += '\n';
            ::send(fd, msg.data(), msg.size(),
                   MSG_NOSIGNAL | MSG_DONTWAIT);
            ::close(fd);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        Conn &c = conns_[fd];
        c.fd = fd;
        c.lastActivity = c.writeSince = Clock::now();
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            conns_.erase(fd);
            ::close(fd);
        }
    }
}

bool
NowlabServer::readReady(Conn &c)
{
    for (;;) {
        char chunk[1 << 16];
        ssize_t r = ::recv(c.fd, chunk, sizeof chunk, 0);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            return false; // ECONNRESET and friends.
        }
        if (r == 0) {
            c.eof = true;
            break;
        }
        c.lastActivity = Clock::now();
        if (!draining_)
            c.in.append(chunk, static_cast<std::size_t>(r));
        // Don't starve other connections on one firehose; level-
        // triggered epoll re-arms whatever is left.
        if (c.in.size() >= (1u << 20))
            break;
    }
    if (!processInput(c))
        return false;
    return flushWrites(c);
}

bool
NowlabServer::processInput(Conn &c)
{
    for (;;) {
        std::size_t nl = c.in.find('\n');
        if (nl == std::string::npos) {
            if (c.in.size() > kMaxRequestBytes) {
                // Oversized line: answer once, then discard bytes
                // until the newline finally shows up. The buffer never
                // grows past one read chunk beyond the limit.
                if (!c.tooLong) {
                    c.tooLong = true;
                    queueReply(c, errorReply("oversized request"));
                }
                c.in.clear();
            }
            break;
        }
        std::string line = c.in.substr(0, nl);
        c.in.erase(0, nl + 1);
        if (c.tooLong) {
            c.tooLong = false; // The tail of the oversized line.
            continue;
        }
        if (line.empty())
            continue;
        queueReply(c, core_.handleLine(line));
        // A {"op":"shutdown"} request stops the whole server, not just
        // the core: the reply is queued first, then flushed during the
        // drain window.
        if (core_.shuttingDown())
            requestStop();
    }
    // A reader slower than its own request stream gets disconnected
    // once the unsent backlog passes the bound.
    return c.out.size() - c.outOff <= limits_.maxWriteBuffer;
}

void
NowlabServer::queueReply(Conn &c, const std::string &reply)
{
    if (c.out.empty())
        c.writeSince = Clock::now();
    c.out += reply;
    c.out += '\n';
}

bool
NowlabServer::flushWrites(Conn &c)
{
    while (c.outOff < c.out.size()) {
        ssize_t w = ::send(c.fd, c.out.data() + c.outOff,
                           c.out.size() - c.outOff, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            return false; // EPIPE / ECONNRESET: peer is gone.
        }
        c.outOff += static_cast<std::size_t>(w);
        c.writeSince = Clock::now();
    }
    if (c.outOff >= c.out.size()) {
        c.out.clear();
        c.outOff = 0;
    } else if (c.outOff > (64u << 10)) {
        // Compact the sent prefix so a long-lived slow reader does not
        // pin already-delivered bytes.
        c.out.erase(0, c.outOff);
        c.outOff = 0;
    }
    updateInterest(c);
    return true;
}

void
NowlabServer::updateInterest(Conn &c)
{
    bool want = !c.out.empty();
    if (want == c.wantWrite)
        return;
    c.wantWrite = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.fd = c.fd;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void
NowlabServer::closeConn(int fd)
{
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    conns_.erase(fd);
}

void
NowlabServer::sweepTimeouts(Clock::time_point now)
{
    std::vector<int> victims;
    for (auto &[fd, c] : conns_) {
        if (!c.out.empty()) {
            if (now - c.writeSince >
                std::chrono::milliseconds(limits_.writeTimeoutMs))
                victims.push_back(fd);
        } else if (now - c.lastActivity >
                   std::chrono::milliseconds(limits_.idleTimeoutMs)) {
            victims.push_back(fd);
        }
    }
    for (int fd : victims)
        closeConn(fd);
}

void
NowlabServer::requestStop()
{
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true))
        return;
    if (wakeWrite_ >= 0) {
        // One byte; async-signal-safe, so the SIGTERM handler can call
        // this directly.
        char b = 0;
        [[maybe_unused]] ssize_t w = ::write(wakeWrite_, &b, 1);
    }
}

void
NowlabServer::wait()
{
    if (loop_.joinable())
        loop_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (epollFd_ >= 0) {
        ::close(epollFd_);
        epollFd_ = -1;
    }
    core_.beginShutdown();
    core_.drain();
    if (wakeRead_ >= 0) {
        ::close(wakeRead_);
        ::close(wakeWrite_);
        wakeRead_ = wakeWrite_ = -1;
    }
}

// ---- client ---------------------------------------------------------

Client::Client(std::string host, int port, int timeoutMs)
    : host_(std::move(host)), port_(port), timeoutMs_(timeoutMs)
{
}

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
Client::reset()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buffer_.clear();
}

bool
Client::connect()
{
    if (fd_ >= 0)
        return true;
    // The client paths (nowlab submit/get/stats) must survive the
    // server dying mid-conversation too.
    std::signal(SIGPIPE, SIG_IGN);
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
        ::close(fd_);
        fd_ = -1;
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd_);
        fd_ = -1;
        return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (timeoutMs_ > 0) {
        timeval tv{};
        tv.tv_sec = timeoutMs_ / 1000;
        tv.tv_usec = (timeoutMs_ % 1000) * 1000;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    }
    return true;
}

bool
Client::request(const std::string &line, std::string &reply)
{
    if (!connect())
        return false;
    std::string out = line;
    out += '\n';
    if (!sendAll(fd_, out.data(), out.size()) ||
        !readLine(fd_, buffer_, reply, 16u << 20)) {
        reset();
        return false;
    }
    return true;
}

} // namespace nowcluster::svc
