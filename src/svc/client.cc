#include "svc/client.hh"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "svc/proto.hh"
#include "util/unixsock.hh"

namespace hieragen::svc
{

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buf_.clear();
}

bool
Client::fail(ErrorKind kind, const std::string &msg)
{
    error_ = Error(kind, msg);
    return false;
}

bool
Client::connect(const std::string &socketPath)
{
    close();
    error_ = Error();
    std::string err;
    fd_ = util::unixConnect(socketPath, &err);
    if (fd_ < 0)
        return fail(errno == ENAMETOOLONG ? ErrorKind::BadRequest
                                          : ErrorKind::Unavailable,
                    err);
    return true;
}

bool
Client::sendLine(const std::string &line)
{
    if (!util::sendAll(fd_, line + "\n"))
        return fail(ErrorKind::Unavailable,
                    std::string("send: ") + std::strerror(errno));
    return true;
}

bool
Client::readFrame(JsonValue &out)
{
    if (fd_ < 0)
        return fail(ErrorKind::Unavailable, "not connected");
    char chunk[4096];
    for (;;) {
        size_t eol = buf_.find('\n');
        if (eol != std::string::npos) {
            std::string line = buf_.substr(0, eol);
            buf_.erase(0, eol + 1);
            if (line.empty())
                continue;
            std::string perr;
            if (!parseJson(line, out, &perr))
                return fail(ErrorKind::Internal,
                            "bad frame from daemon: " + perr);
            return true;
        }
        pollfd pfd{fd_, POLLIN, 0};
        int r = ::poll(&pfd, 1, 30000);
        if (r <= 0)
            return fail(ErrorKind::Unavailable,
                        r == 0 ? "timeout waiting for daemon"
                               : std::string("poll: ") +
                                     std::strerror(errno));
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return fail(ErrorKind::Unavailable,
                        "daemon closed the connection");
        buf_.append(chunk, static_cast<size_t>(n));
    }
}

bool
Client::call(const std::string &frame, JsonValue &reply)
{
    if (fd_ < 0)
        return fail(ErrorKind::Unavailable, "not connected");
    if (!sendLine(frame))
        return false;
    return readFrame(reply);
}

bool
Client::decodeReply(const JsonValue &reply)
{
    if (reply.boolean("ok"))
        return true;
    const JsonValue *e = reply.find("error");
    error_ = e ? errorFromJson(*e)
               : Error(ErrorKind::Internal,
                       "daemon reported failure without detail");
    return false;
}

bool
Client::submit(const api::JobSpec &spec, api::JobHandle &id)
{
    JsonValue reply;
    if (!call("{\"op\":\"submit\",\"spec\":" + jobSpecToJson(spec) +
                  "}",
              reply) ||
        !decodeReply(reply))
        return false;
    id.id = reply.uint("id");
    if (!id.valid())
        return fail(ErrorKind::Internal, "daemon returned no job id");
    return true;
}

bool
Client::jobs(std::vector<api::JobStatus> &out)
{
    out.clear();
    JsonValue reply;
    if (!call("{\"op\":\"jobs\"}", reply) || !decodeReply(reply))
        return false;
    const JsonValue *arr = reply.find("jobs");
    if (!arr || !arr->isArray())
        return fail(ErrorKind::Internal, "malformed jobs reply");
    for (const JsonValue &j : arr->items()) {
        api::JobStatus st;
        if (jobStatusFromJson(j, st))
            out.push_back(std::move(st));
    }
    return true;
}

bool
Client::status(api::JobHandle id, api::JobStatus &out)
{
    JsonValue reply;
    if (!call("{\"op\":\"status\",\"id\":" + std::to_string(id.id) +
                  "}",
              reply) ||
        !decodeReply(reply))
        return false;
    const JsonValue *st = reply.find("status");
    if (!st || !jobStatusFromJson(*st, out))
        return fail(ErrorKind::Internal, "malformed status reply");
    return true;
}

bool
Client::cancel(api::JobHandle id, api::JobStatus &out)
{
    JsonValue reply;
    if (!call("{\"op\":\"cancel\",\"id\":" + std::to_string(id.id) +
                  "}",
              reply) ||
        !decodeReply(reply))
        return false;
    const JsonValue *st = reply.find("status");
    if (!st || !jobStatusFromJson(*st, out))
        return fail(ErrorKind::Internal, "malformed cancel reply");
    return true;
}

bool
Client::result(api::JobHandle id, bool follow, api::JobStatus &out,
               std::string &resultJson,
               const std::function<void(const api::JobStatus &)>
                   &onProgress)
{
    resultJson.clear();
    std::string frame = "{\"op\":\"result\",\"id\":" +
                        std::to_string(id.id) +
                        (follow ? ",\"follow\":true}" : "}");
    if (!sendLine(frame))
        return false;
    for (;;) {
        JsonValue reply;
        if (!readFrame(reply))
            return false;
        if (!decodeReply(reply))
            return false;
        std::string event = reply.str("event");
        const JsonValue *st = reply.find("status");
        if (!st || !jobStatusFromJson(*st, out))
            return fail(ErrorKind::Internal,
                        "malformed result frame");
        if (event == "progress") {
            if (onProgress)
                onProgress(out);
            continue;
        }
        // Terminal frame: re-render the verdict object for the
        // caller to print or store.
        const JsonValue *res = reply.find("result");
        if (res && res->isObject())
            resultJson = writeJson(*res);
        return true;
    }
}

bool
Client::shutdown()
{
    JsonValue reply;
    return call("{\"op\":\"shutdown\"}", reply) &&
           decodeReply(reply);
}

} // namespace hieragen::svc
