/**
 * @file
 * Unix-domain stream sockets speaking a line protocol.
 *
 * The status socket (obs::StatusServer) and the `hieragen serve`
 * daemon (svc::Daemon) both answer newline-terminated requests on an
 * AF_UNIX path; LineServer is the one listener behind both, and
 * unixConnect()/sendAll() are the one client path.
 */

#ifndef HIERAGEN_UTIL_UNIXSOCK_HH
#define HIERAGEN_UTIL_UNIXSOCK_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <string>
#include <thread>

namespace hieragen::util
{

/** Connect a stream socket to @p path. The connected fd, or -1 with
 *  @p err (when given) saying why; errno is ENAMETOOLONG when the
 *  path does not fit sun_path. */
int unixConnect(const std::string &path, std::string *err = nullptr);

/** Write all of @p data to @p fd. False once the peer is gone or a
 *  send fails (errno says why). Never raises SIGPIPE. */
bool sendAll(int fd, const std::string &data);

/**
 * A line-protocol server on one socket path. start() binds the path
 * and runs a poll-accept thread; every connection gets its own thread,
 * which splits the byte stream at LF (a trailing CR is stripped, empty
 * lines are skipped, and a final line without LF is served when the
 * peer half-closes) and passes each line to the handler. The handler
 * writes its own reply to the fd and returns whether to keep the
 * connection open. A connection that sends more than kMaxLine bytes
 * without a newline receives the overflow reply and is closed.
 *
 * stop() (or destruction) joins the accept thread, then every
 * connection thread (each finishes the line in hand; an idle one
 * notices within 200 ms), then unlinks the path. Never call stop()
 * from a handler.
 */
class LineServer
{
  public:
    using Handler = std::function<bool(const std::string &line, int fd)>;

    static constexpr size_t kMaxLine = size_t{1} << 20;

    LineServer() = default;
    ~LineServer();

    LineServer(const LineServer &) = delete;
    LineServer &operator=(const LineServer &) = delete;

    /**
     * Listen on @p path. A path a live server answers on is refused
     * ("socket in use"); any other file there is stale and replaced.
     * False with error() on failure.
     */
    bool start(const std::string &path, Handler handle,
               std::string overflowReply);
    void stop();

    bool running() const { return running_.load(); }
    const std::string &path() const { return path_; }
    const std::string &error() const { return error_; }

  private:
    struct Connection
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void serve(int fd);

    Handler handle_;
    std::string overflowReply_;
    std::string path_;
    std::string error_;
    int listenFd_ = -1;
    std::atomic<bool> running_{false};
    std::atomic<bool> stop_{false};
    /** Accept thread only (finished ones are joined as it goes);
     *  stop() joins the rest once the accept thread is gone. */
    std::list<Connection> connections_;
    std::thread acceptThread_;
};

} // namespace hieragen::util

#endif // HIERAGEN_UTIL_UNIXSOCK_HH
