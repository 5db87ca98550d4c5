#include "util/fileio.hh"

#include <cerrno>
#include <cstring>

#include <sys/stat.h>
#include <sys/types.h>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#else
#include <direct.h>
#endif

namespace hieragen::util
{

uint64_t
fnv1a64(const void *data, size_t len, uint64_t seed)
{
    uint64_t h = seed;
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

AtomicFileWriter::~AtomicFileWriter()
{
    abort();
}

bool
AtomicFileWriter::fail(const std::string &what)
{
    if (error_.empty()) {
        error_ = what;
        if (errno != 0)
            error_ += ": " + std::string(std::strerror(errno));
    }
    return false;
}

bool
AtomicFileWriter::open(const std::string &path)
{
    abort();
    error_.clear();
    bytes_ = 0;
    path_ = path;
    tmpPath_ = path + ".tmp";
    errno = 0;
    f_ = std::fopen(tmpPath_.c_str(), "wb");
    if (!f_)
        return fail("cannot open '" + tmpPath_ + "'");
    return true;
}

bool
AtomicFileWriter::append(const void *data, size_t len)
{
    if (!f_)
        return fail("append without open");
    if (len == 0)
        return true;
    errno = 0;
    if (std::fwrite(data, 1, len, f_) != len)
        return fail("short write to '" + tmpPath_ + "'");
    bytes_ += len;
    return true;
}

bool
AtomicFileWriter::commit()
{
    if (!f_)
        return fail("commit without open");
    errno = 0;
    if (std::fflush(f_) != 0) {
        abort();
        return fail("flush failed for '" + tmpPath_ + "'");
    }
#ifndef _WIN32
    // Durability barrier: the rename must not become visible before
    // the data it names. (Rename-only atomicity would still protect
    // against torn files, but not against data loss on power failure.)
    if (fsync(fileno(f_)) != 0) {
        abort();
        return fail("fsync failed for '" + tmpPath_ + "'");
    }
#endif
    std::fclose(f_);
    f_ = nullptr;
    errno = 0;
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        std::remove(tmpPath_.c_str());
        return fail("rename '" + tmpPath_ + "' -> '" + path_ + "'");
    }
    return true;
}

void
AtomicFileWriter::abort()
{
    if (f_) {
        std::fclose(f_);
        f_ = nullptr;
        std::remove(tmpPath_.c_str());
    }
}

LineAppender::~LineAppender()
{
    close();
}

bool
LineAppender::open(const std::string &path)
{
    close();
    error_.clear();
    bytes_ = 0;
#ifndef _WIN32
    errno = 0;
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
        error_ = "cannot open '" + path +
                 "': " + std::string(std::strerror(errno));
        return false;
    }
    return true;
#else
    error_ = "LineAppender unsupported on this platform";
    return false;
#endif
}

bool
LineAppender::appendLine(const std::string &line)
{
    if (fd_ < 0) {
        if (error_.empty())
            error_ = "appendLine without open";
        return false;
    }
#ifndef _WIN32
    std::string rec = line;
    rec.push_back('\n');
    // One write(2) for the whole record: O_APPEND makes the offset
    // update atomic, so concurrent appenders never interleave within
    // a line. Retry only on EINTR; a genuine short write means the
    // tail line is torn, which replay detects by checksum.
    size_t off = 0;
    while (off < rec.size()) {
        errno = 0;
        ssize_t n = ::write(fd_, rec.data() + off, rec.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error_ = "journal write failed: " +
                     std::string(std::strerror(errno));
            return false;
        }
        off += static_cast<size_t>(n);
    }
    bytes_ += rec.size();
    return true;
#else
    return false;
#endif
}

bool
LineAppender::sync()
{
    if (fd_ < 0)
        return false;
#ifndef _WIN32
    return ::fsync(fd_) == 0;
#else
    return false;
#endif
}

void
LineAppender::close()
{
    if (fd_ >= 0) {
#ifndef _WIN32
        ::close(fd_);
#endif
        fd_ = -1;
    }
}

bool
readFileToString(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    // One read into a buffer sized from the file; anything past the
    // size fstat saw (a growing file, a pipe) is appended in blocks.
    struct stat st{};
    size_t hint = 0;
    if (fstat(fileno(f), &st) == 0 && S_ISREG(st.st_mode))
        hint = static_cast<size_t>(st.st_size);
    out.resize(hint);
    out.resize(std::fread(out.data(), 1, hint, f));
    char block[1 << 16];
    size_t n;
    while ((n = std::fread(block, 1, sizeof(block), f)) > 0)
        out.append(block, n);
    bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

bool
ensureDirectory(const std::string &path)
{
#ifndef _WIN32
    if (mkdir(path.c_str(), 0755) == 0 || errno == EEXIST)
        return true;
#else
    if (_mkdir(path.c_str()) == 0 || errno == EEXIST)
        return true;
#endif
    struct stat st{};
    return stat(path.c_str(), &st) == 0 && (st.st_mode & S_IFDIR);
}

uint64_t
currentRssBytes()
{
#ifndef _WIN32
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long long pages = 0, rss = 0;
    int n = std::fscanf(f, "%llu %llu", &pages, &rss);
    std::fclose(f);
    if (n != 2)
        return 0;
    long page = sysconf(_SC_PAGESIZE);
    return rss * static_cast<uint64_t>(page > 0 ? page : 4096);
#else
    return 0;
#endif
}

uint64_t
peakRssBytes()
{
#ifndef _WIN32
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    uint64_t kib = 0;
    while (std::fgets(line, sizeof(line), f)) {
        unsigned long long v = 0;
        if (std::sscanf(line, "VmHWM: %llu kB", &v) == 1) {
            kib = v;
            break;
        }
    }
    std::fclose(f);
    return kib * 1024;
#else
    return 0;
#endif
}

} // namespace hieragen::util
