#include "util/unixsock.hh"

#include <cerrno>
#include <cstring>

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace hieragen::util
{

LineServer::~LineServer()
{
    stop();
}

#ifndef _WIN32

namespace
{

/** Fill @p addr for @p path; false (with @p err) when it is too long
 *  for sun_path. */
bool
socketAddress(const std::string &path, sockaddr_un &addr,
              std::string *err)
{
    addr = sockaddr_un{};
    if (path.size() >= sizeof(addr.sun_path)) {
        errno = ENAMETOOLONG;
        if (err)
            *err = "socket path too long: " + path;
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

} // namespace

int
unixConnect(const std::string &path, std::string *err)
{
    sockaddr_un addr;
    if (!socketAddress(path, addr, err))
        return -1;
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        if (err)
            *err = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (err)
            *err = "connect '" + path + "': " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

bool
LineServer::start(const std::string &path, Handler handle,
                  std::string overflowReply)
{
    stop();
    error_.clear();
    path_ = path;
    sockaddr_un addr;
    if (!socketAddress(path, addr, &error_))
        return false;
    // Only a file nobody answers on is stale (a crashed run's
    // leftover); replacing a live listener's path would cut it off.
    int probe = unixConnect(path);
    if (probe >= 0) {
        ::close(probe);
        error_ = "socket in use: " + path;
        return false;
    }
    ::unlink(path.c_str());
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        error_ = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, 16) != 0) {
        error_ = "bind/listen '" + path + "': " + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    handle_ = std::move(handle);
    overflowReply_ = std::move(overflowReply);
    stop_.store(false);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    running_.store(true);
    return true;
}

void
LineServer::stop()
{
    if (!acceptThread_.joinable())
        return;
    stop_.store(true);
    acceptThread_.join();
    for (Connection &c : connections_)
        c.thread.join();
    connections_.clear();
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(path_.c_str());
    running_.store(false);
}

void
LineServer::acceptLoop()
{
    while (!stop_.load()) {
        for (auto it = connections_.begin(); it != connections_.end();) {
            if (it->done.load()) {
                it->thread.join();
                it = connections_.erase(it);
            } else {
                ++it;
            }
        }
        pollfd pfd{listenFd_, POLLIN, 0};
        if (::poll(&pfd, 1, 100) <= 0)
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        Connection &c = connections_.emplace_back();
        c.thread = std::thread([this, fd, &c] {
            serve(fd);
            c.done.store(true);
        });
    }
}

void
LineServer::serve(int fd)
{
    std::string buf;
    char chunk[4096];
    bool open = true;
    bool eof = false;
    while (open && !stop_.load()) {
        size_t eol = buf.find('\n');
        if (eol == std::string::npos) {
            if (buf.size() > kMaxLine) {
                sendAll(fd, overflowReply_);
                break;
            }
            if (eof && buf.empty())
                break;
            if (!eof) {
                pollfd pfd{fd, POLLIN, 0};
                int r = ::poll(&pfd, 1, 200);
                if (r < 0)
                    break;
                if (r == 0)
                    continue;  // re-check stop_
                ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
                if (n < 0)
                    break;
                if (n == 0)
                    eof = true;  // serve an unterminated final line
                buf.append(chunk, static_cast<size_t>(n));
                continue;
            }
            eol = buf.size();
        }
        std::string line = buf.substr(0, eol);
        buf.erase(0, eol + 1);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (!line.empty())
            open = handle_(line, fd);
    }
    ::close(fd);
}

#else // _WIN32

int
unixConnect(const std::string &, std::string *err)
{
    if (err)
        *err = "unix-domain sockets are unavailable on this platform";
    return -1;
}

bool
sendAll(int, const std::string &)
{
    return false;
}

bool
LineServer::start(const std::string &path, Handler, std::string)
{
    path_ = path;
    error_ = "unix-domain sockets are unavailable on this platform";
    return false;
}

void
LineServer::stop()
{
}

#endif

} // namespace hieragen::util
