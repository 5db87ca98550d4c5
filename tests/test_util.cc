/**
 * @file
 * Unit tests for the utility layer, including the unix-socket line
 * server behind the status socket and the service daemon.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "util/fileio.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "util/unixsock.hh"

namespace hieragen
{
namespace
{

TEST(Strings, SplitKeepsEmptyFields)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitSingleField)
{
    auto parts = split("alone", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "alone");
}

TEST(Strings, TrimBothEnds)
{
    EXPECT_EQ(trim("  x y \t\n"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith)
{
    EXPECT_TRUE(startsWith("FwdGetS", "Fwd"));
    EXPECT_FALSE(startsWith("Fwd", "FwdGetS"));
}

TEST(Strings, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ", "), "");
}

TEST(Strings, PadTo)
{
    EXPECT_EQ(padTo("ab", 4), "ab  ");
    EXPECT_EQ(padTo("abcdef", 4), "abcdef");
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad input ", 42), FatalError);
    try {
        fatal("code ", 7);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "code 7");
    }
}

TEST(Logging, LevelsGate)
{
    setLogLevel(LogLevel::Quiet);
    inform("should not crash");
    warn("should not crash");
    setLogLevel(LogLevel::Warn);
}

// --- readFileToString ------------------------------------------

std::string
tmpFile(const std::string &name)
{
    return testing::TempDir() + std::to_string(::getpid()) + ".util." +
           name;
}

TEST(Hash64, StreamingEqualsOneShotAtEverySplit)
{
    // Segment and checkpoint writers seal with Hasher64 in whatever
    // pieces their buffers flush; readers check with hash64 or with a
    // Hasher64 fed in other pieces. All must agree.
    std::string data;
    for (int i = 0; i < 61; ++i)
        data.push_back(static_cast<char>(i * 37 + 11));
    for (size_t len = 0; len <= data.size(); ++len) {
        const uint64_t want = util::hash64(data.data(), len, 7);
        for (size_t a = 0; a <= len; ++a) {
            for (size_t b = a; b <= len; b += 3) {
                util::Hasher64 h(7);
                h.update(data.data(), a);
                h.update(data.data() + a, b - a);
                h.update(data.data() + b, len - b);
                ASSERT_EQ(h.digest(), want) << len << " " << a << " " << b;
            }
        }
    }
}

TEST(Hash64, SeedLengthAndEveryBitMatter)
{
    std::string zeros(16, '\0');
    EXPECT_NE(util::hash64(zeros.data(), 15), util::hash64(zeros.data(), 16));
    EXPECT_NE(util::hash64(zeros.data(), 16, 0),
              util::hash64(zeros.data(), 16, 1));
    // Full avalanche, roughly: flipping any one input bit flips about
    // half of the output bits, the low ones (the shard index) too.
    std::string msg = "hieragen-state-fingerprint-avalanche!";
    const uint64_t base = util::hash64(msg.data(), msg.size());
    int total = 0, lowFlips = 0, n = 0;
    for (size_t i = 0; i < msg.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string m = msg;
            m[i] = static_cast<char>(m[i] ^ (1 << bit));
            const uint64_t d = base ^ util::hash64(m.data(), m.size());
            total += __builtin_popcountll(d);
            lowFlips += static_cast<int>(d & 1);
            ++n;
        }
    }
    EXPECT_NEAR(static_cast<double>(total) / n, 32.0, 2.0);
    EXPECT_NEAR(static_cast<double>(lowFlips) / n, 0.5, 0.1);
}

TEST(ReadFile, BinaryFileWithNulBytesRoundTrips)
{
    std::string bytes;
    for (int i = 0; i < 200000; ++i)
        bytes.push_back(static_cast<char>(i % 7 == 0 ? 0 : i & 0xff));
    std::string path = tmpFile("binary");
    std::ofstream(path, std::ios::binary) << bytes;
    std::string out = "stale contents";
    ASSERT_TRUE(util::readFileToString(path, out));
    EXPECT_EQ(out.size(), bytes.size());
    EXPECT_EQ(out, bytes);
    std::remove(path.c_str());
}

TEST(ReadFile, EmptyFileReadsEmpty)
{
    std::string path = tmpFile("empty");
    std::ofstream(path, std::ios::binary).close();
    std::string out = "stale contents";
    ASSERT_TRUE(util::readFileToString(path, out));
    EXPECT_TRUE(out.empty());
    std::remove(path.c_str());
}

TEST(ReadFile, MissingFileFails)
{
    std::string out;
    EXPECT_FALSE(
        util::readFileToString(tmpFile("does-not-exist"), out));
}

// --- LineServer ------------------------------------------------

std::string
sockPath(const std::string &name)
{
    return "/tmp/hg." + std::to_string(::getpid()) + ".util." + name;
}

/** Everything the peer sends until it closes (or 5 s of silence). */
std::string
readToEof(int fd)
{
    std::string out;
    char buf[4096];
    for (;;) {
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, 5000) <= 0)
            return out + "<timeout>";
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            return out;
        out.append(buf, static_cast<size_t>(n));
    }
}

/** A server that records each line and answers "echo:<line>\n";
 *  the line "bye" closes the connection. */
struct EchoServer
{
    std::mutex mu;
    std::vector<std::string> lines;
    util::LineServer server;

    bool
    start(const std::string &path)
    {
        return server.start(
            path,
            [this](const std::string &line, int fd) {
                {
                    std::lock_guard<std::mutex> lk(mu);
                    lines.push_back(line);
                }
                util::sendAll(fd, "echo:" + line + "\n");
                return line != "bye";
            },
            "overflow\n");
    }

    std::vector<std::string>
    seen()
    {
        std::lock_guard<std::mutex> lk(mu);
        return lines;
    }
};

TEST(LineServer, SplitsLinesAndStripsCr)
{
    EchoServer srv;
    std::string path = sockPath("split");
    ASSERT_TRUE(srv.start(path)) << srv.server.error();
    int fd = util::unixConnect(path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(util::sendAll(fd, "a\r\n\nb\nbye\nignored\n"));
    EXPECT_EQ(readToEof(fd), "echo:a\necho:b\necho:bye\n");
    ::close(fd);
    EXPECT_EQ(srv.seen(), (std::vector<std::string>{"a", "b", "bye"}));
}

TEST(LineServer, UnterminatedFinalLineServedOnHalfClose)
{
    EchoServer srv;
    std::string path = sockPath("halfclose");
    ASSERT_TRUE(srv.start(path)) << srv.server.error();
    int fd = util::unixConnect(path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(util::sendAll(fd, "status"));
    ::shutdown(fd, SHUT_WR);
    EXPECT_EQ(readToEof(fd), "echo:status\n");
    ::close(fd);
}

TEST(LineServer, OverlongLineGetsOverflowReplyThenClose)
{
    EchoServer srv;
    std::string path = sockPath("overlong");
    ASSERT_TRUE(srv.start(path)) << srv.server.error();
    int fd = util::unixConnect(path);
    ASSERT_GE(fd, 0);
    // More than kMaxLine bytes and no newline; the server may close
    // before taking all of it, so a short send is not a failure.
    util::sendAll(fd, std::string(util::LineServer::kMaxLine + 4096, 'x'));
    EXPECT_EQ(readToEof(fd), "overflow\n");
    ::close(fd);
    EXPECT_TRUE(srv.seen().empty());
}

TEST(LineServer, StopReturnsWithIdleClientAndUnlinks)
{
    EchoServer srv;
    std::string path = sockPath("idle");
    ASSERT_TRUE(srv.start(path)) << srv.server.error();
    int fd = util::unixConnect(path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(util::sendAll(fd, "hello\n"));
    char buf[64];
    ASSERT_GT(::recv(fd, buf, sizeof(buf), 0), 0);
    // The client now sits idle with the connection open.
    auto t0 = std::chrono::steady_clock::now();
    srv.server.stop();
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(5));
    EXPECT_FALSE(srv.server.running());
    EXPECT_NE(::access(path.c_str(), F_OK), 0);
    EXPECT_EQ(readToEof(fd), "");  // the server closed its end
    ::close(fd);
}

TEST(LineServer, SecondServerOnLivePathIsRefused)
{
    EchoServer first;
    std::string path = sockPath("inuse");
    ASSERT_TRUE(first.start(path)) << first.server.error();
    {
        EchoServer second;
        EXPECT_FALSE(second.start(path));
        EXPECT_NE(second.server.error().find("socket in use"),
                  std::string::npos)
            << second.server.error();
    }  // the refused server's teardown must not touch the path
    int fd = util::unixConnect(path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(util::sendAll(fd, "bye\n"));
    EXPECT_EQ(readToEof(fd), "echo:bye\n");
    ::close(fd);
}

TEST(LineServer, OverlongSocketPathIsRejected)
{
    std::string path = "/tmp/" + std::string(200, 'p');
    EchoServer srv;
    EXPECT_FALSE(srv.start(path));
    EXPECT_NE(srv.server.error().find("too long"), std::string::npos)
        << srv.server.error();
    std::string err;
    EXPECT_LT(util::unixConnect(path, &err), 0);
    EXPECT_NE(err.find("too long"), std::string::npos) << err;
}

TEST(UnixConnect, FailsWithoutListener)
{
    std::string err;
    EXPECT_LT(util::unixConnect(sockPath("nobody"), &err), 0);
    EXPECT_NE(err.find("connect"), std::string::npos) << err;
}

} // namespace
} // namespace hieragen
