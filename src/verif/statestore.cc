#include "verif/statestore.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/fileio.hh"
#include "util/logging.hh"

namespace hieragen::verif
{

namespace
{

constexpr char kVisitedMagic[8] = {'H', 'G', 'S', 'P', 'I', 'L', 'L', '1'};
constexpr char kFrontierMagic[8] = {'H', 'G', 'S', 'P', 'I', 'L', 'L', 'Q'};
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kHeaderBytes = 28;  // magic + version + count + payload
constexpr size_t kIndexRecordBytes = 16;

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
le64At(const char *p)
{
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | static_cast<uint8_t>(p[i]);
    return v;
}

uint32_t
le32At(const char *p)
{
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | static_cast<uint8_t>(p[i]);
    return v;
}

/** Buffered segment writer: streams through AtomicFileWriter while
 *  accumulating the FNV-1a checksum that seals the file. */
class SegmentWriter
{
  public:
    bool
    open(const std::string &path)
    {
        buf_.reserve(kFlush + 4096);
        return file_.open(path);
    }

    void
    put8(uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void
    put32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            put8(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    put64(uint64_t v)
    {
        put32(static_cast<uint32_t>(v));
        put32(static_cast<uint32_t>(v >> 32));
    }

    void
    putBytes(const void *data, size_t len)
    {
        buf_.append(static_cast<const char *>(data), len);
        if (buf_.size() >= kFlush)
            flush();
    }

    void
    putString(const std::string &s)
    {
        putBytes(s.data(), s.size());
    }

    /** Append the checksum trailer, commit, report (checksum, size). */
    bool
    seal(uint64_t *checksum, uint64_t *bytes, std::string *err)
    {
        flush();
        uint64_t sum = checksum_;
        char t[8];
        for (int i = 0; i < 8; ++i)
            t[i] = static_cast<char>(sum >> (8 * i));
        file_.append(t, 8);
        if (!file_.error().empty()) {
            *err = file_.error();
            file_.abort();
            return false;
        }
        if (!file_.commit()) {
            *err = file_.error();
            return false;
        }
        *checksum = sum;
        *bytes = file_.bytesWritten();
        return true;
    }

  private:
    static constexpr size_t kFlush = 1 << 20;

    void
    flush()
    {
        if (buf_.empty())
            return;
        checksum_ = util::fnv1a64(buf_.data(), buf_.size(), checksum_);
        file_.append(buf_);  // failure latches inside the writer
        buf_.clear();
    }

    util::AtomicFileWriter file_;
    std::string buf_;
    uint64_t checksum_ = 14695981039346656037ull;
};

/** Next free "<dir>/<prefix>-NNNNNN.seg": probes with stat so resumed
 *  runs never overwrite adopted segments from a previous run. */
std::string
makeSegmentPath(const std::string &dir, const std::string &prefix,
                uint64_t &nextId)
{
    for (;;) {
        char name[64];
        std::snprintf(name, sizeof(name), "-%06llu.seg",
                      static_cast<unsigned long long>(nextId));
        std::string path = dir + "/" + prefix + name;
        ++nextId;
        struct stat st{};
        if (stat(path.c_str(), &st) != 0)
            return path;
    }
}

/** Validate a whole segment file image against its ref: size,
 *  trailing checksum, magic and header counts. On success fills
 *  @p count / @p payloadBytes. */
bool
validateSegmentImage(const std::string &raw, const SpillSegmentRef &ref,
                     const char (&magic)[8], uint64_t *count,
                     uint64_t *payloadBytes, std::string *err)
{
    if (raw.size() != ref.bytes || raw.size() < kHeaderBytes + 8) {
        *err = "spill segment '" + ref.path + "' has size " +
               std::to_string(raw.size()) + ", checkpoint recorded " +
               std::to_string(ref.bytes);
        return false;
    }
    uint64_t trailer = le64At(raw.data() + raw.size() - 8);
    uint64_t actual = util::fnv1a64(raw.data(), raw.size() - 8);
    if (trailer != actual || trailer != ref.checksum) {
        *err = "spill segment '" + ref.path +
               "' fails its checksum (truncated or corrupted)";
        return false;
    }
    if (std::memcmp(raw.data(), magic, 8) != 0) {
        *err = "'" + ref.path + "' is not a hieragen spill segment";
        return false;
    }
    if (le32At(raw.data() + 8) != kSegmentVersion) {
        *err = "spill segment '" + ref.path +
               "' has an unsupported format version";
        return false;
    }
    *count = le64At(raw.data() + 12);
    *payloadBytes = le64At(raw.data() + 20);
    if (*count != ref.states) {
        *err = "spill segment '" + ref.path + "' holds " +
               std::to_string(*count) + " states, checkpoint recorded " +
               std::to_string(ref.states);
        return false;
    }
    return true;
}

/** Positioned read that must succeed: a vanished or short segment
 *  would silently break dedup (and with it termination on cyclic
 *  spaces), so fail loudly instead. */
void
preadExact(int fd, void *buf, size_t len, uint64_t offset)
{
    char *p = static_cast<char *>(buf);
    while (len > 0) {
        ssize_t n = ::pread(fd, p, len, static_cast<off_t>(offset));
        HG_ASSERT(n > 0, "spill segment read failed");
        p += n;
        offset += static_cast<uint64_t>(n);
        len -= static_cast<size_t>(n);
    }
}

} // namespace

// ---------------------------------------------------------------
// SpillTier

SpillTier::~SpillTier()
{
    for (Segment &s : segments_) {
        if (s.fd >= 0)
            ::close(s.fd);
    }
}

void
SpillTier::configure(std::string dir, std::string prefix)
{
    dir_ = std::move(dir);
    prefix_ = std::move(prefix);
}

uint64_t
SpillTier::memoryBytes() const
{
    uint64_t indexes = 0;
    for (const Segment &s : segments_) {
        indexes += s.bloom.capacity() * sizeof(uint64_t) +
                   s.sparse.capacity() * sizeof(uint64_t) +
                   sizeof(Segment);
    }
    return indexes;
}

SpillStats
SpillTier::stats() const
{
    SpillStats st;
    st.spilledBytes = spilledBytes_.load(std::memory_order_relaxed);
    st.spilledStates = spilledStates_.load(std::memory_order_relaxed);
    st.segmentsWritten =
        segmentsWritten_.load(std::memory_order_relaxed);
    st.diskProbes = diskProbes_.load(std::memory_order_relaxed);
    st.diskHits = diskHits_.load(std::memory_order_relaxed);
    st.stallNs = stallNs_.load(std::memory_order_relaxed);
    return st;
}

void
SpillTier::indexSegment(Segment &s, const uint64_t *fps, uint64_t n)
{
    uint64_t bits = 1024;
    while (bits < n * 12)
        bits <<= 1;
    s.bloom.assign(bits / 64, 0);
    s.bloomMask = bits - 1;
    s.sparse.clear();
    s.sparse.reserve(n / 64 + 1);
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t h1 = fps[i] * 0x9e3779b97f4a7c15ull;
        uint64_t h2 = (fps[i] * 0xc2b2ae3d27d4eb4full) | 1;
        for (uint64_t k = 0; k < 3; ++k) {
            uint64_t bit = (h1 + k * h2) & s.bloomMask;
            s.bloom[bit >> 6] |= uint64_t{1} << (bit & 63);
        }
        if (i % 64 == 0)
            s.sparse.push_back(fps[i]);
    }
}

bool
SpillTier::spillHot(const StateTable *const *tables, size_t n,
                    std::string *err)
{
    if (!configured()) {
        *err = "spill tier not configured";
        return false;
    }
    uint64_t count = 0, payload = 0;
    for (size_t t = 0; t < n; ++t) {
        HG_ASSERT(tables[t]->mode() == StateTable::Mode::Exact,
                  "spillHot() needs exact-mode tables");
        count += tables[t]->size();
        payload += tables[t]->payloadBytes();
    }
    if (count == 0)
        return true;
    if (payload > 0xffffffffull) {
        *err = "hot tier exceeds the 4 GiB segment payload limit";
        return false;
    }
    uint64_t t0 = nowNs();

    struct Rec
    {
        uint64_t fp;
        uint32_t off;
        uint32_t len;
    };
    std::vector<Rec> index;
    index.reserve(count);

    std::string path = makeSegmentPath(dir_, prefix_, nextSegmentId_);
    SegmentWriter w;
    if (!w.open(path)) {
        *err = "cannot open spill segment '" + path + "'";
        return false;
    }
    w.putBytes(kVisitedMagic, 8);
    w.put32(kSegmentVersion);
    w.put64(count);
    w.put64(payload);
    uint32_t off = 0;
    for (size_t t = 0; t < n; ++t) {
        tables[t]->forEachExactFp(
            [&](uint64_t fp, const char *data, uint32_t len) {
                index.push_back({fp, off, len});
                w.putBytes(data, len);
                off += len;
            });
    }
    // Sort by fingerprint so probes can binary-search; offset breaks
    // ties deterministically for equal-fp (collision) runs.
    std::sort(index.begin(), index.end(),
              [](const Rec &a, const Rec &b) {
                  return a.fp != b.fp ? a.fp < b.fp : a.off < b.off;
              });
    for (const Rec &r : index) {
        w.put64(r.fp);
        w.put32(r.off);
        w.put32(r.len);
    }

    Segment s;
    if (!w.seal(&s.ref.checksum, &s.ref.bytes, err))
        return false;
    s.ref.path = path;
    s.ref.states = count;
    s.count = count;
    s.indexOffset = kHeaderBytes + payload;
    s.fd = ::open(path.c_str(), O_RDONLY);
    if (s.fd < 0) {
        *err = "cannot reopen spill segment '" + path + "'";
        std::remove(path.c_str());
        return false;
    }
    {
        std::vector<uint64_t> fps;
        fps.reserve(index.size());
        for (const Rec &r : index)
            fps.push_back(r.fp);
        indexSegment(s, fps.data(), fps.size());
    }
    states_ += count;
    spilledStates_.fetch_add(count, std::memory_order_relaxed);
    spilledBytes_.fetch_add(s.ref.bytes, std::memory_order_relaxed);
    segmentsWritten_.fetch_add(1, std::memory_order_relaxed);
    segments_.push_back(std::move(s));
    stallNs_.fetch_add(nowNs() - t0, std::memory_order_relaxed);
    return true;
}

bool
SpillTier::contains(uint64_t fp, const char *data, uint32_t len) const
{
    // Newest-first: successors most often duplicate recent states.
    for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
        if (segmentContains(*it, fp, data, len))
            return true;
    }
    return false;
}

bool
SpillTier::segmentContains(const Segment &s, uint64_t fp,
                           const char *data, uint32_t len) const
{
    uint64_t h1 = fp * 0x9e3779b97f4a7c15ull;
    uint64_t h2 = (fp * 0xc2b2ae3d27d4eb4full) | 1;
    for (uint64_t k = 0; k < 3; ++k) {
        uint64_t bit = (h1 + k * h2) & s.bloomMask;
        if (!((s.bloom[bit >> 6] >> (bit & 63)) & 1))
            return false;
    }
    diskProbes_.fetch_add(1, std::memory_order_relaxed);
    uint64_t t0 = nowNs();
    bool found = false;
    size_t block =
        static_cast<size_t>(std::upper_bound(s.sparse.begin(),
                                             s.sparse.end(), fp) -
                            s.sparse.begin());
    if (block == 0) {
        stallNs_.fetch_add(nowNs() - t0, std::memory_order_relaxed);
        return false;  // fp below the first record
    }
    uint64_t r = (block - 1) * 64;
    char rec[kIndexRecordBytes * 64];
    // Payload-compare scratch; thread-local so concurrent probes
    // (checker workers) never share a buffer.
    thread_local std::string scratch;
    bool done = false;
    while (!done && r < s.count) {
        uint64_t n = std::min<uint64_t>(64, s.count - r);
        preadExact(s.fd, rec, n * kIndexRecordBytes,
                   s.indexOffset + r * kIndexRecordBytes);
        for (uint64_t i = 0; i < n && !done; ++i) {
            const char *p = rec + i * kIndexRecordBytes;
            uint64_t rfp = le64At(p);
            if (rfp < fp)
                continue;
            if (rfp > fp) {
                done = true;
                break;
            }
            uint32_t roff = le32At(p + 8);
            uint32_t rlen = le32At(p + 12);
            if (rlen != len)
                continue;
            scratch.resize(len);
            preadExact(s.fd, scratch.data(), len, kHeaderBytes + roff);
            if (std::memcmp(scratch.data(), data, len) == 0) {
                found = true;
                done = true;
            }
        }
        r += n;
    }
    stallNs_.fetch_add(nowNs() - t0, std::memory_order_relaxed);
    if (found)
        diskHits_.fetch_add(1, std::memory_order_relaxed);
    return found;
}

bool
SpillTier::adoptSegment(const SpillSegmentRef &ref, std::string *err)
{
    std::string raw;
    if (!util::readFileToString(ref.path, raw)) {
        *err = "cannot read spill segment '" + ref.path + "'";
        return false;
    }
    uint64_t count = 0, payload = 0;
    if (!validateSegmentImage(raw, ref, kVisitedMagic, &count, &payload,
                              err))
        return false;
    if (kHeaderBytes + payload + count * kIndexRecordBytes + 8 !=
        raw.size()) {
        *err = "spill segment '" + ref.path +
               "' has an inconsistent layout";
        return false;
    }
    Segment s;
    s.ref = ref;
    s.count = count;
    s.indexOffset = kHeaderBytes + payload;
    s.fd = ::open(ref.path.c_str(), O_RDONLY);
    if (s.fd < 0) {
        *err = "cannot reopen spill segment '" + ref.path + "'";
        return false;
    }
    {
        std::vector<uint64_t> fps(count);
        for (uint64_t i = 0; i < count; ++i)
            fps[i] = le64At(raw.data() + s.indexOffset +
                            i * kIndexRecordBytes);
        indexSegment(s, fps.data(), count);
    }
    segments_.push_back(std::move(s));
    states_ += count;
    return true;
}

std::vector<SpillSegmentRef>
SpillTier::segmentRefs() const
{
    std::vector<SpillSegmentRef> out;
    out.reserve(segments_.size());
    for (const Segment &s : segments_)
        out.push_back(s.ref);
    return out;
}

void
SpillTier::removeSegmentFiles()
{
    for (Segment &s : segments_) {
        if (s.fd >= 0) {
            ::close(s.fd);
            s.fd = -1;
        }
        std::remove(s.ref.path.c_str());
    }
    segments_.clear();
    states_ = 0;
}

// ---------------------------------------------------------------
// SpillableFrontier

void
SpillableFrontier::configure(std::string dir, std::string prefix)
{
    dir_ = std::move(dir);
    prefix_ = std::move(prefix);
}

void
SpillableFrontier::enableSpill(size_t memWindowStates)
{
    HG_ASSERT(spillConfigured(), "enableSpill() needs configure()");
    spilling_ = true;
    window_ = std::max<size_t>(memWindowStates, 64);
    chunk_ = std::clamp<size_t>(window_ / 2, 64, 4096);
    // Keep the oldest window_ states in memory; the newer overflow
    // becomes the first segments, preserving FIFO order.
    while (head_.size() > window_ && error_.empty()) {
        size_t n = std::min<size_t>(chunk_, head_.size() - window_);
        std::string err;
        if (!writeSegmentRange(head_, window_, n, &err)) {
            error_ = err;
            return;
        }
        head_.erase(head_.begin() +
                        static_cast<std::ptrdiff_t>(window_),
                    head_.begin() +
                        static_cast<std::ptrdiff_t>(window_ + n));
    }
}

void
SpillableFrontier::push(SysState &&st)
{
    if (segments_.empty() && tail_.empty() &&
        (!spilling_ || head_.size() < window_)) {
        head_.push_back(std::move(st));
        return;
    }
    tail_.push_back(std::move(st));
    if (spilling_ && tail_.size() >= chunk_)
        flushTail();
}

bool
SpillableFrontier::flushTail()
{
    if (tail_.empty())
        return true;
    std::string err;
    if (!writeSegmentRange(tail_, 0, tail_.size(), &err)) {
        error_ = err;
        return false;
    }
    tail_.clear();
    return true;
}

bool
SpillableFrontier::pop(SysState &out)
{
    if (head_.empty()) {
        if (!segments_.empty()) {
            if (!loadFrontSegment())
                return false;  // error() latched
        } else if (!tail_.empty()) {
            head_.swap(tail_);
        }
    }
    if (head_.empty())
        return false;
    out = std::move(head_.front());
    head_.pop_front();
    return true;
}

bool
SpillableFrontier::writeSegmentRange(const std::deque<SysState> &q,
                                     size_t begin, size_t count,
                                     std::string *err)
{
    uint64_t t0 = nowNs();
    std::string payload;
    for (size_t i = 0; i < count; ++i)
        SysState::serialize(payload, q[begin + i]);

    std::string path = makeSegmentPath(dir_, prefix_, nextSegmentId_);
    SegmentWriter w;
    if (!w.open(path)) {
        *err = "cannot open frontier segment '" + path + "'";
        return false;
    }
    w.putBytes(kFrontierMagic, 8);
    w.put32(kSegmentVersion);
    w.put64(count);
    w.put64(payload.size());
    w.putString(payload);

    SpillSegmentRef ref;
    if (!w.seal(&ref.checksum, &ref.bytes, err))
        return false;
    ref.path = std::move(path);
    ref.states = count;
    segments_.push_back(std::move(ref));
    diskStates_ += count;
    stats_.spilledStates += count;
    stats_.spilledBytes += segments_.back().bytes;
    ++stats_.segmentsWritten;
    stats_.stallNs += nowNs() - t0;
    return true;
}

bool
SpillableFrontier::loadFrontSegment()
{
    uint64_t t0 = nowNs();
    SpillSegmentRef ref = std::move(segments_.front());
    segments_.pop_front();
    std::string raw;
    if (!util::readFileToString(ref.path, raw)) {
        error_ = "cannot read frontier segment '" + ref.path + "'";
        return false;
    }
    uint64_t count = 0, payload = 0;
    std::string err;
    if (!validateSegmentImage(raw, ref, kFrontierMagic, &count,
                              &payload, &err)) {
        error_ = err;
        return false;
    }
    if (kHeaderBytes + payload + 8 != raw.size()) {
        error_ = "frontier segment '" + ref.path +
                 "' has an inconsistent layout";
        return false;
    }
    size_t pos = kHeaderBytes;
    for (uint64_t i = 0; i < count; ++i) {
        SysState st;
        if (!SysState::deserialize(raw.data(), raw.size() - 8, pos,
                                   st)) {
            error_ = "frontier segment '" + ref.path +
                     "' holds a malformed state";
            return false;
        }
        head_.push_back(std::move(st));
    }
    diskStates_ -= count;
    if (retainConsumed_)
        consumed_.push_back(ref.path);
    else
        std::remove(ref.path.c_str());
    stats_.stallNs += nowNs() - t0;
    return true;
}

void
SpillableFrontier::purgeConsumed()
{
    for (const std::string &path : consumed_)
        std::remove(path.c_str());
    consumed_.clear();
}

bool
SpillableFrontier::adoptSegment(const SpillSegmentRef &ref,
                                std::string *err)
{
    std::string raw;
    if (!util::readFileToString(ref.path, raw)) {
        *err = "cannot read frontier segment '" + ref.path + "'";
        return false;
    }
    uint64_t count = 0, payload = 0;
    if (!validateSegmentImage(raw, ref, kFrontierMagic, &count,
                              &payload, err))
        return false;
    if (kHeaderBytes + payload + 8 != raw.size()) {
        *err = "frontier segment '" + ref.path +
               "' has an inconsistent layout";
        return false;
    }
    segments_.push_back(ref);
    diskStates_ += count;
    return true;
}

std::vector<SpillSegmentRef>
SpillableFrontier::segmentRefs() const
{
    return {segments_.begin(), segments_.end()};
}

void
SpillableFrontier::removeSegmentFiles()
{
    for (const SpillSegmentRef &ref : segments_)
        std::remove(ref.path.c_str());
    segments_.clear();
    diskStates_ = 0;
    purgeConsumed();
}

} // namespace hieragen::verif
