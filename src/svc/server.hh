/**
 * @file
 * nowlabd's transport: an epoll connection engine pumping
 * line-delimited JSON between non-blocking sockets and a ServiceCore,
 * plus the matching blocking client.
 *
 * Threading: ONE event-loop thread owns the listen socket, a self-pipe
 * (so requestStop() wakes it instantly and async-signal-safely), and
 * every connection. Connections are plain state machines -- a read
 * buffer accumulating the next request line, a write buffer draining
 * the queued replies -- so a thousand idle or misbehaving clients cost
 * a map entry each, not a thread each. The expensive fan-out still
 * happens in the ServiceCore's bounded Runner pool, never on a socket.
 *
 * Hostile-client containment (ServerLimits):
 *   - request lines beyond kMaxRequestBytes are answered with a JSON
 *     error and discarded to the next newline -- never buffered
 *     unboundedly;
 *   - a slow reader whose pending replies exceed maxWriteBuffer is
 *     disconnected;
 *   - connections idle past idleTimeoutMs, or making no write progress
 *     for writeTimeoutMs, are disconnected;
 *   - at maxConnections, new sockets get a best-effort
 *     "too-many-connections" error and are closed.
 * Every send uses MSG_NOSIGNAL and start() ignores SIGPIPE, so a
 * client vanishing mid-reply is a closed connection, not a dead
 * daemon.
 *
 * Shutdown: requestStop() (the SIGTERM handler writes the self-pipe)
 * stops accepting, flushes pending replies (bounded by drainTimeoutMs),
 * closes every connection, and drains the ServiceCore so each accepted
 * job completes before wait() returns -- the graceful-drain contract
 * test_svc.cc exercises.
 */

#ifndef NOWCLUSTER_SVC_SERVER_HH_
#define NOWCLUSTER_SVC_SERVER_HH_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <thread>

#include "svc/service.hh"

namespace nowcluster::svc {

/** Default nowlabd TCP port. */
constexpr int kDefaultPort = 7747;

/** Connection-engine limits; defaults suit laboratory sweep traffic,
 *  tests tighten them to provoke each disconnect path. */
struct ServerLimits
{
    std::size_t maxConnections = 128;
    int idleTimeoutMs = 120'000;  ///< No bytes from the peer this long.
    int writeTimeoutMs = 10'000;  ///< Pending replies, no send progress.
    std::size_t maxWriteBuffer = 8u << 20; ///< Queued unsent reply bytes.
    int drainTimeoutMs = 5'000;   ///< Reply-flush window at shutdown.
};

class NowlabServer
{
  public:
    /** Serve a ServiceCore built from `config`.
     *  @param port TCP port on 127.0.0.1; 0 = ephemeral. */
    NowlabServer(const ServiceConfig &config, int port,
                 const ServerLimits &limits = {});
    ~NowlabServer();

    NowlabServer(const NowlabServer &) = delete;
    NowlabServer &operator=(const NowlabServer &) = delete;

    /** Bind and start the event-loop thread. False on bind failure. */
    bool start();

    /** The bound port (valid after start()). */
    int port() const { return port_; }

    /** Ask the server to stop: async-signal-safe (one write to a
     *  pipe), callable from a signal handler. */
    void requestStop();

    /** Block until stopped and fully drained. */
    void wait();

    ServiceCore &core() { return core_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** One connection's state machine. */
    struct Conn
    {
        int fd = -1;
        std::string in;         ///< Bytes read, next line not complete.
        std::string out;        ///< Queued reply bytes.
        std::size_t outOff = 0; ///< Sent prefix of `out`.
        bool tooLong = false;   ///< Discarding an oversized line.
        bool eof = false;       ///< Peer half-closed; flush then close.
        bool wantWrite = false; ///< EPOLLOUT armed.
        Clock::time_point lastActivity; ///< Last byte from the peer.
        Clock::time_point writeSince;   ///< Pending-write progress mark.
    };

    void eventLoop();
    void acceptReady();
    bool readReady(Conn &c);     ///< False = close this connection.
    bool processInput(Conn &c);  ///< False = write buffer exceeded.
    bool flushWrites(Conn &c);   ///< False = peer gone (EPIPE/RST).
    void queueReply(Conn &c, const std::string &reply);
    void updateInterest(Conn &c);
    void closeConn(int fd);
    void sweepTimeouts(Clock::time_point now);

    ServiceCore core_;
    ServerLimits limits_;
    int requestedPort_;
    int port_ = -1;
    int listenFd_ = -1;
    int epollFd_ = -1;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;
    std::atomic<bool> stopping_{false};
    bool draining_ = false; ///< Event-loop thread only.
    Clock::time_point drainDeadline_;
    std::thread loop_;
    std::map<int, Conn> conns_; ///< Event-loop thread only.
};

/**
 * Blocking line-protocol client. request() sends one JSON line and
 * returns the reply line; false on connection failure (clients treat
 * that as a dead server). Writes use MSG_NOSIGNAL and connect()
 * ignores SIGPIPE, so a server dying mid-request surfaces as a failed
 * request, never as the client process being killed.
 */
class Client
{
  public:
    /** @param timeoutMs When > 0, SO_RCVTIMEO/SO_SNDTIMEO on the
     *  socket: a wedged server surfaces as a failed request after this
     *  long instead of a hung client (`nowlab storm` passes 10 s). */
    Client(std::string host, int port, int timeoutMs = 0);
    ~Client();

    /** Connect (idempotent). */
    bool connect();

    /**
     * One round trip; false on any transport error. A failed request
     * drops the connection (the stream is desynchronized at best), so
     * the next request() starts from a fresh connect().
     */
    bool request(const std::string &line, std::string &reply);

    /** Drop the connection; the next request() reconnects. */
    void reset();

  private:
    std::string host_;
    int port_;
    int timeoutMs_;
    int fd_ = -1;
    std::string buffer_; ///< Bytes past the last reply line.
};

} // namespace nowcluster::svc

#endif // NOWCLUSTER_SVC_SERVER_HH_
