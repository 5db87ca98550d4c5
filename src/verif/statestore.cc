#include "verif/statestore.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/fileio.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace hieragen::verif
{

namespace
{

constexpr char kVisitedMagic[8] = {'H', 'G', 'S', 'P', 'I', 'L', 'L', '1'};
constexpr char kFrontierMagic[8] = {'H', 'G', 'S', 'P', 'I', 'L', 'L', 'Q'};
// Visited segments: payload encodings, then the sorted index (v2:
// util::hash64 fingerprints and seal; v1 used FNV-1a and is refused).
// Frontier segments: u32 length + packed record, per record (v3:
// util::hash64 seal; v2 was FNV-1a-sealed and v1 held serialized
// SysStates, both refused).
constexpr uint32_t kVisitedVersion = 2;
constexpr uint32_t kFrontierVersion = 3;
constexpr size_t kHeaderBytes = 28;  // magic + version + count + payload
constexpr size_t kIndexRecordBytes = 16;
constexpr size_t kScanBlock = size_t{1} << 20;  ///< adoption read size

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

    /** Append the checksum trailer, commit, report (checksum, size). */
    bool
    seal(uint64_t *checksum, uint64_t *bytes, std::string *err)
    {
        flush();
        uint64_t sum = checksum_.digest();
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
        checksum_.update(buf_.data(), buf_.size());
        file_.append(buf_);  // failure latches inside the writer
        buf_.clear();
    }

    util::AtomicFileWriter file_;
    std::string buf_;
    util::Hasher64 checksum_;
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

/** Check a segment's size, magic, version, checksum and header
 *  counts against its ref. @p header is the first kHeaderBytes of
 *  the file, @p sum the hash64 of everything before the trailer. On
 *  success fills @p count / @p payloadBytes. */
bool
checkSegment(const SpillSegmentRef &ref, uint64_t size,
             const char *header, uint64_t sum, uint64_t trailer,
             const char (&magic)[8], uint32_t version, uint64_t *count,
             uint64_t *payloadBytes, std::string *err)
{
    if (size != ref.bytes || size < kHeaderBytes + 8) {
        *err = "spill segment '" + ref.path + "' has size " +
               std::to_string(size) + ", checkpoint recorded " +
               std::to_string(ref.bytes);
        return false;
    }
    if (std::memcmp(header, magic, 8) != 0) {
        *err = "'" + ref.path + "' is not a hieragen spill segment";
        return false;
    }
    // The version comes before the seal, which depends on it.
    if (le32At(header + 8) != version) {
        *err = "spill segment '" + ref.path + "' has format version " +
               std::to_string(le32At(header + 8)) +
               "; this build reads " + std::to_string(version);
        return false;
    }
    if (trailer != sum || trailer != ref.checksum) {
        *err = "spill segment '" + ref.path +
               "' fails its checksum (truncated or corrupted)";
        return false;
    }
    *count = le64At(header + 12);
    *payloadBytes = le64At(header + 20);
    if (*count != ref.states) {
        *err = "spill segment '" + ref.path + "' holds " +
               std::to_string(*count) + " states, checkpoint recorded " +
               std::to_string(ref.states);
        return false;
    }
    return true;
}

/** Validate a segment image held in memory (see checkSegment). */
bool
checkSegmentImage(const std::string &raw, const SpillSegmentRef &ref,
                  const char (&magic)[8], uint32_t version,
                  uint64_t *count, uint64_t *payloadBytes,
                  std::string *err)
{
    if (raw.size() < kHeaderBytes + 8)
        return checkSegment(ref, raw.size(), nullptr, 0, 0, magic,
                            version, count, payloadBytes, err);
    return checkSegment(ref, raw.size(), raw.data(),
                        util::hash64(raw.data(), raw.size() - 8),
                        le64At(raw.data() + raw.size() - 8), magic,
                        version, count, payloadBytes, err);
}

/**
 * Open a segment written by an earlier run and validate it against
 * its ref (see checkSegment) by streaming it through the checksum in
 * kScanBlock reads, so adoption never holds a whole segment. Returns
 * the open descriptor, or -1 with *err set.
 */
int
openCheckedSegment(const SpillSegmentRef &ref, const char (&magic)[8],
                   uint32_t version, uint64_t *count,
                   uint64_t *payloadBytes, std::string *err)
{
    int fd = ::open(ref.path.c_str(), O_RDONLY);
    struct stat st{};
    if (fd < 0 || ::fstat(fd, &st) != 0) {
        *err = "cannot read spill segment '" + ref.path + "'";
        if (fd >= 0)
            ::close(fd);
        return -1;
    }
    const uint64_t size = static_cast<uint64_t>(st.st_size);
    char header[kHeaderBytes] = {};
    util::Hasher64 sum;
    uint64_t trailer = 0;
    if (size == ref.bytes && size >= kHeaderBytes + 8) {
        std::vector<char> block(kScanBlock);
        for (uint64_t off = 0, end = size - 8; off < end;) {
            size_t n = static_cast<size_t>(
                std::min<uint64_t>(kScanBlock, end - off));
            ssize_t got = ::pread(fd, block.data(), n,
                                  static_cast<off_t>(off));
            if (got <= 0) {
                *err = "cannot read spill segment '" + ref.path + "'";
                ::close(fd);
                return -1;
            }
            if (off == 0 && static_cast<size_t>(got) >= kHeaderBytes)
                std::memcpy(header, block.data(), kHeaderBytes);
            sum.update(block.data(), static_cast<size_t>(got));
            off += static_cast<uint64_t>(got);
        }
        char t[8];
        if (::pread(fd, t, 8, static_cast<off_t>(size - 8)) != 8) {
            *err = "cannot read spill segment '" + ref.path + "'";
            ::close(fd);
            return -1;
        }
        trailer = le64At(t);
    }
    if (!checkSegment(ref, size, header, sum.digest(), trailer, magic,
                      version, count, payloadBytes, err)) {
        ::close(fd);
        return -1;
    }
    return fd;
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
    w.put32(kVisitedVersion);
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
    uint64_t count = 0, payload = 0;
    int fd = openCheckedSegment(ref, kVisitedMagic, kVisitedVersion,
                                &count, &payload, err);
    if (fd < 0)
        return false;
    Segment s;
    s.ref = ref;
    s.count = count;
    s.indexOffset = kHeaderBytes + payload;
    s.fd = fd;
    if (s.indexOffset + count * kIndexRecordBytes + 8 != ref.bytes) {
        *err = "spill segment '" + ref.path +
               "' has an inconsistent layout";
        ::close(fd);
        return false;
    }
    // Only the index region is read back: the bloom filter and the
    // sparse index need nothing but its fingerprints.
    {
        std::vector<uint64_t> fps(count);
        constexpr uint64_t kPerRead = kScanBlock / kIndexRecordBytes;
        std::vector<char> block(kScanBlock);
        for (uint64_t i = 0; i < count; i += kPerRead) {
            uint64_t n = std::min(kPerRead, count - i);
            preadExact(fd, block.data(), n * kIndexRecordBytes,
                       s.indexOffset + i * kIndexRecordBytes);
            for (uint64_t k = 0; k < n; ++k)
                fps[i + k] = le64At(block.data() + k * kIndexRecordBytes);
        }
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
// RecordFifo

void
RecordFifo::retire(Chunk &&c)
{
    if (!spare_.data && c.cap == kChunkBytes)
        spare_ = std::move(c);
    else
        allocated_ -= c.cap;
}

void
RecordFifo::push(const char *data, uint32_t len)
{
    const size_t need = kLenBytes + len;
    if (chunks_.empty() ||
        chunks_.back().cap - chunks_.back().used < need) {
        if (count_ == 0 && !chunks_.empty()) {
            // The drained chunk must not stay ahead of the new one.
            retire(std::move(chunks_.front()));
            chunks_.clear();
            readPos_ = 0;
        }
        Chunk c;
        if (spare_.data && need <= spare_.cap) {
            c = std::move(spare_);
            spare_ = Chunk();
        } else {
            c.cap = std::max(kChunkBytes, need);
            c.data = std::make_unique_for_overwrite<char[]>(c.cap);
            allocated_ += c.cap;
        }
        c.used = 0;
        chunks_.push_back(std::move(c));
    }
    Chunk &c = chunks_.back();
    char *p = c.data.get() + c.used;
    for (size_t i = 0; i < kLenBytes; ++i)
        p[i] = static_cast<char>(len >> (8 * i));
    std::memcpy(p + kLenBytes, data, len);
    c.used += need;
    ++count_;
    bytes_ += need;
}

std::string_view
RecordFifo::front() const
{
    const char *p = chunks_.front().data.get() + readPos_;
    return {p + kLenBytes, loadLen(p)};
}

void
RecordFifo::pop()
{
    Chunk &c = chunks_.front();
    size_t stored = kLenBytes + loadLen(c.data.get() + readPos_);
    readPos_ += stored;
    --count_;
    bytes_ -= stored;
    if (readPos_ < c.used)
        return;
    readPos_ = 0;
    if (chunks_.size() == 1) {
        c.used = 0;  // the only chunk: reuse it in place
        return;
    }
    retire(std::move(c));
    chunks_.pop_front();
}

void
RecordFifo::clear()
{
    chunks_.clear();
    spare_ = Chunk();
    readPos_ = 0;
    count_ = bytes_ = allocated_ = 0;
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
SpillableFrontier::enableSpill(uint64_t memWindowBytes)
{
    HG_ASSERT(spillConfigured(), "enableSpill() needs configure()");
    spilling_ = true;
    window_ = memWindowBytes;
    segmentBytes_ = std::clamp<uint64_t>(window_ / 2, 4u << 10, 1u << 20);
    // Overflowing the head is only FIFO-safe while nothing newer is
    // queued behind it: the oldest window_ bytes stay, the rest goes
    // to the tail (and on to segments), ahead of any later push.
    if (!segments_.empty() || !tail_.empty() || head_.bytes() <= window_)
        return;
    RecordFifo keep;
    while (!head_.empty() && error_.empty()) {
        std::string_view r = head_.front();
        if (tail_.empty() && segments_.empty() &&
            keep.bytes() + RecordFifo::kLenBytes + r.size() <= window_) {
            keep.push(r.data(), static_cast<uint32_t>(r.size()));
        } else {
            tail_.push(r.data(), static_cast<uint32_t>(r.size()));
            if (tail_.bytes() >= segmentBytes_)
                flushTail();
        }
        head_.pop();
    }
    std::swap(head_, keep);
}

void
SpillableFrontier::push(const char *data, uint32_t len)
{
    if (segments_.empty() && tail_.empty() &&
        (!spilling_ || head_.bytes() < window_)) {
        head_.push(data, len);
        return;
    }
    tail_.push(data, len);
    if (spilling_ && tail_.bytes() >= segmentBytes_)
        flushTail();
}

bool
SpillableFrontier::pop(std::string &out)
{
    if (head_.empty()) {
        if (!segments_.empty()) {
            if (!loadFrontSegment())
                return false;  // error() latched
        } else if (!tail_.empty()) {
            std::swap(head_, tail_);
        }
    }
    if (head_.empty())
        return false;
    std::string_view r = head_.front();
    out.assign(r.data(), r.size());
    head_.pop();
    return true;
}

bool
SpillableFrontier::flushTail()
{
    if (tail_.empty())
        return true;
    uint64_t t0 = nowNs();
    std::string path = makeSegmentPath(dir_, prefix_, nextSegmentId_);
    SegmentWriter w;
    if (!w.open(path)) {
        error_ = "cannot open frontier segment '" + path + "'";
        return false;
    }
    w.putBytes(kFrontierMagic, 8);
    w.put32(kFrontierVersion);
    w.put64(tail_.size());
    w.put64(tail_.bytes());
    tail_.forEachSpan(
        [&](const char *data, size_t len) { w.putBytes(data, len); });

    SpillSegmentRef ref;
    if (!w.seal(&ref.checksum, &ref.bytes, &error_))
        return false;
    ref.path = std::move(path);
    ref.states = tail_.size();
    diskStates_ += ref.states;
    stats_.spilledStates += ref.states;
    stats_.spilledBytes += ref.bytes;
    ++stats_.segmentsWritten;
    segments_.push_back(std::move(ref));
    tail_.clear();
    stats_.stallNs += nowNs() - t0;
    return true;
}

bool
SpillableFrontier::loadFrontSegment()
{
    uint64_t t0 = nowNs();
    SpillSegmentRef ref = std::move(segments_.front());
    segments_.pop_front();
    if (!util::readFileToString(ref.path, loadBuf_)) {
        error_ = "cannot read frontier segment '" + ref.path + "'";
        return false;
    }
    uint64_t count = 0, payload = 0;
    if (!checkSegmentImage(loadBuf_, ref, kFrontierMagic,
                           kFrontierVersion, &count, &payload, &error_))
        return false;
    const size_t end = loadBuf_.size() - 8;
    size_t pos = kHeaderBytes;
    for (uint64_t i = 0; i < count; ++i) {
        if (end - pos < RecordFifo::kLenBytes ||
            end - pos - RecordFifo::kLenBytes <
                le32At(loadBuf_.data() + pos)) {
            break;
        }
        uint32_t len = le32At(loadBuf_.data() + pos);
        head_.push(loadBuf_.data() + pos + RecordFifo::kLenBytes, len);
        pos += RecordFifo::kLenBytes + len;
    }
    if (pos != end || kHeaderBytes + payload != end ||
        head_.size() != count) {
        error_ = "frontier segment '" + ref.path +
                 "' has an inconsistent layout";
        return false;
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
    uint64_t count = 0, payload = 0;
    int fd = openCheckedSegment(ref, kFrontierMagic, kFrontierVersion,
                                &count, &payload, err);
    if (fd < 0)
        return false;
    ::close(fd);
    if (kHeaderBytes + payload + 8 != ref.bytes) {
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
