#include "verif/checkpoint.hh"

#include <cstring>

namespace hieragen::verif
{

namespace
{

constexpr char kMagic[8] = {'H', 'G', 'C', 'K', 'P', 'T', '1', '\n'};

/** Incremental FNV-1a mixers for the fingerprint/hash builders. */
class Mixer
{
  public:
    void
    mix(uint64_t v)
    {
        h_ = util::fnv1a64(&v, sizeof(v), h_);
    }

    void
    mix(const std::string &s)
    {
        mix(s.size());
        h_ = util::fnv1a64(s.data(), s.size(), h_);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 14695981039346656037ull;
};

/** Table-shape fingerprint: states, events and transition skeletons.
 *  Reached marks and op payloads are deliberately excluded — marks
 *  are dynamic, and op internals cannot differ when the skeleton
 *  (guards, kinds, arity, next states) agrees for a generated
 *  machine. */
void
mixMachine(Mixer &m, const Machine &mach)
{
    m.mix(mach.name());
    m.mix(static_cast<uint64_t>(mach.role()));
    m.mix(static_cast<uint64_t>(mach.initial()));
    m.mix(mach.numStates());
    for (size_t s = 0; s < mach.numStates(); ++s) {
        const State &st = mach.state(static_cast<StateId>(s));
        m.mix(st.name);
        m.mix((static_cast<uint64_t>(st.stable) << 0) |
              (static_cast<uint64_t>(st.perm) << 1) |
              (static_cast<uint64_t>(st.owner) << 3) |
              (static_cast<uint64_t>(st.silentUpgrade) << 4));
    }
    m.mix(mach.table().size());
    for (const auto &[key, alts] : mach.table()) {
        m.mix(static_cast<uint64_t>(key.first));
        m.mix((static_cast<uint64_t>(key.second.kind) << 0) |
              (static_cast<uint64_t>(key.second.access) << 8) |
              (static_cast<uint64_t>(key.second.epoch) << 16));
        m.mix(static_cast<uint64_t>(key.second.type));
        m.mix(alts.size());
        for (const Transition &t : alts) {
            m.mix((static_cast<uint64_t>(t.guard) << 0) |
                  (static_cast<uint64_t>(t.guard2) << 8) |
                  (static_cast<uint64_t>(t.kind) << 16));
            m.mix(static_cast<uint64_t>(t.next));
            m.mix(t.ops.size());
        }
    }
}

/** Bounds-checked little-endian cursor over a loaded file. */
class Cursor
{
  public:
    Cursor(const std::string &data, size_t limit)
        : data_(data), limit_(limit)
    {}

    bool failed() const { return failed_; }
    size_t pos() const { return pos_; }
    size_t remaining() const { return failed_ ? 0 : limit_ - pos_; }

    uint8_t
    get8()
    {
        if (!need(1))
            return 0;
        return static_cast<uint8_t>(data_[pos_++]);
    }

    uint32_t
    get32()
    {
        uint32_t v = 0;
        if (!need(4))
            return 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(
                     static_cast<uint8_t>(data_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    int32_t getI32() { return static_cast<int32_t>(get32()); }

    uint64_t
    get64()
    {
        uint64_t lo = get32();
        uint64_t hi = get32();
        return lo | (hi << 32);
    }

    bool
    getBytes(void *out, size_t len)
    {
        if (!need(len))
            return false;
        std::memcpy(out, data_.data() + pos_, len);
        pos_ += len;
        return true;
    }

    bool
    need(size_t n)
    {
        if (failed_ || limit_ - pos_ < n) {
            failed_ = true;
            return false;
        }
        return true;
    }

    /** Jump to an absolute position (used after an out-of-band
     *  parser, e.g. SysState::deserialize, consumed bytes). */
    bool
    seekTo(size_t pos)
    {
        if (failed_ || pos > limit_) {
            failed_ = true;
            return false;
        }
        pos_ = pos;
        return true;
    }

    const std::string &rawData() const { return data_; }
    size_t limit() const { return limit_; }

  private:
    const std::string &data_;
    size_t limit_;
    size_t pos_ = 0;
    bool failed_ = false;
};

/** Parse one serialized SysState at the cursor (delegates to the
 *  shared SysState codec, then re-syncs the cursor). */
bool
getState(Cursor &c, SysState &st)
{
    size_t pos = c.pos();
    if (c.failed() ||
        !SysState::deserialize(c.rawData().data(), c.limit(), pos, st))
        return false;
    return c.seekTo(pos);
}

} // namespace

uint64_t
optionsFingerprint(const CheckOptions &opts)
{
    Mixer m;
    // The format version this fingerprint was defined under. Later
    // formats are refused by the reader's version check, so the
    // value — also a journal's run identity — stays put across them.
    m.mix(uint64_t{3});
    m.mix(static_cast<uint64_t>(opts.atomicTransactions));
    m.mix(static_cast<uint64_t>(
        static_cast<int64_t>(opts.accessBudget)));
    m.mix(static_cast<uint64_t>(opts.hashCompaction));
    m.mix(opts.compactionSeed);
    m.mix(static_cast<uint64_t>(opts.symmetryReduction));
    // The slot that held the partial-order-reduction bit: 0, so an
    // unreduced checkpoint from before its removal still resumes.
    m.mix(uint64_t{0});
    m.mix(static_cast<uint64_t>(opts.markReached));
    return m.value();
}

uint64_t
systemConfigHash(const System &sys)
{
    Mixer m;
    m.mix(sys.nodes.size());
    for (const NodeCtx &n : sys.nodes) {
        m.mix(static_cast<uint64_t>(n.id));
        m.mix(static_cast<uint64_t>(n.parent));
        m.mix((static_cast<uint64_t>(n.leafCache) << 0) |
              (static_cast<uint64_t>(n.level) << 1));
    }
    m.mix(sys.leafCaches.size());
    for (NodeId c : sys.leafCaches)
        m.mix(static_cast<uint64_t>(c));
    m.mix(sys.symClasses.size());
    for (const auto &cls : sys.symClasses) {
        m.mix(cls.size());
        for (NodeId c : cls)
            m.mix(static_cast<uint64_t>(c));
    }
    m.mix(sys.msgs->size());
    for (size_t t = 0; t < sys.msgs->size(); ++t) {
        const MsgType &mt = (*sys.msgs)[static_cast<MsgTypeId>(t)];
        m.mix(mt.name);
        m.mix((static_cast<uint64_t>(mt.level) << 0) |
              (static_cast<uint64_t>(mt.cls) << 8) |
              (static_cast<uint64_t>(mt.carriesData) << 16) |
              (static_cast<uint64_t>(mt.carriesAcks) << 17) |
              (static_cast<uint64_t>(mt.eviction) << 18) |
              (static_cast<uint64_t>(mt.invalidating) << 19) |
              (static_cast<uint64_t>(mt.orderedWithFwd) << 20));
    }
    for (const Machine *mach : checkpointMachines(sys))
        mixMachine(m, *mach);
    return m.value();
}

std::vector<const Machine *>
checkpointMachines(const System &sys)
{
    std::vector<const Machine *> out;
    for (const NodeCtx &n : sys.nodes) {
        bool seen = false;
        for (const Machine *m : out)
            seen = seen || m == n.machine;
        if (!seen && n.machine)
            out.push_back(n.machine);
    }
    return out;
}

std::string
resumeCompatibilityError(const CheckpointData &data, const System &sys,
                         const CheckOptions &opts)
{
    if (data.header.optionsFingerprint != optionsFingerprint(opts)) {
        return "checkpoint was written under different check options "
               "(access budget, compaction, symmetry or atomicity "
               "differ, or it holds a partial-order-reduced state "
               "space); refusing to resume";
    }
    if (data.header.systemHash != systemConfigHash(sys)) {
        return "checkpoint was written for a different system "
               "(protocol tables, node layout or message vocabulary "
               "differ); refusing to resume";
    }
    const auto machines = checkpointMachines(sys);
    if (data.census.size() != machines.size() &&
        !data.census.empty()) {
        return "checkpoint census does not match the system's "
               "machine count; refusing to resume";
    }
    return "";
}

bool
restoreCensus(const System &sys, const CheckpointData &data)
{
    if (data.census.empty())
        return true;  // written with markReached off
    const auto machines = checkpointMachines(sys);
    if (machines.size() != data.census.size())
        return false;
    for (size_t i = 0; i < machines.size(); ++i) {
        if (!machines[i]->importReachedMarks(data.census[i]))
            return false;
    }
    return true;
}

// ---------------------------------------------------------------
// CheckpointWriter

CheckpointWriter::CheckpointWriter(std::string path)
    : path_(std::move(path))
{
    buf_.reserve(kFlushThreshold + 4096);
}

void
CheckpointWriter::put8(uint8_t v)
{
    buf_.push_back(static_cast<char>(v));
}

void
CheckpointWriter::put32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        put8(static_cast<uint8_t>(v >> (8 * i)));
}

void
CheckpointWriter::put64(uint64_t v)
{
    put32(static_cast<uint32_t>(v));
    put32(static_cast<uint32_t>(v >> 32));
}

void
CheckpointWriter::putBytes(const void *data, size_t len)
{
    buf_.append(static_cast<const char *>(data), len);
}

void
CheckpointWriter::flushBuf()
{
    if (buf_.empty())
        return;
    checksum_.update(buf_.data(), buf_.size());
    file_.append(buf_);  // failure latches inside the writer
    buf_.clear();
}

void
CheckpointWriter::begin(const CheckpointHeader &h)
{
    opened_ = file_.open(path_);
    putBytes(kMagic, sizeof(kMagic));
    put32(kCheckpointFormatVersion);
    put64(h.optionsFingerprint);
    put64(h.systemHash);
    put8(h.storedAsHashes);
    put8(h.degraded);
    put8(h.symmetryApplied);
    put8(0);
    put64(h.statesExplored);
    put64(h.statesGenerated);
    put64(h.transitionsFired);
}

void
CheckpointWriter::beginVisited(uint64_t count, bool as_hashes)
{
    (void)as_hashes;  // recorded in the header
    put64(count);
}

void
CheckpointWriter::addVisitedExact(const std::string &enc)
{
    addVisitedExact(enc.data(), static_cast<uint32_t>(enc.size()));
}

void
CheckpointWriter::addVisitedExact(const char *data, uint32_t len)
{
    put32(len);
    putBytes(data, len);
    if (buf_.size() >= kFlushThreshold)
        flushBuf();
}

void
CheckpointWriter::addVisitedHash(uint64_t h)
{
    put64(h);
    if (buf_.size() >= kFlushThreshold)
        flushBuf();
}

void
CheckpointWriter::beginFrontier(uint64_t count)
{
    put64(count);
}

void
CheckpointWriter::addFrontierState(const SysState &st)
{
    SysState::serialize(buf_, st);
    if (buf_.size() >= kFlushThreshold)
        flushBuf();
}

void
CheckpointWriter::addCensus(const System &sys)
{
    const auto machines = checkpointMachines(sys);
    put32(static_cast<uint32_t>(machines.size()));
    for (const Machine *m : machines) {
        std::vector<unsigned char> marks = m->exportReachedMarks();
        put64(marks.size());
        putBytes(marks.data(), marks.size());
    }
}

void
CheckpointWriter::addSpillSegments(
    const std::vector<SpillSegmentRef> &visited,
    const std::vector<SpillSegmentRef> &frontier)
{
    auto putRefs = [&](const std::vector<SpillSegmentRef> &refs) {
        put32(static_cast<uint32_t>(refs.size()));
        for (const SpillSegmentRef &r : refs) {
            put32(static_cast<uint32_t>(r.path.size()));
            putBytes(r.path.data(), r.path.size());
            put64(r.states);
            put64(r.bytes);
            put64(r.checksum);
        }
    };
    putRefs(visited);
    putRefs(frontier);
    spillSectionsWritten_ = true;
    if (buf_.size() >= kFlushThreshold)
        flushBuf();
}

void
CheckpointWriter::beginFrontierTail(uint64_t count)
{
    put64(count);
    tailBegun_ = true;
}

CheckpointIo
CheckpointWriter::commit()
{
    CheckpointIo io;
    // Runs without a spill tier never call the v3 emitters; the
    // format still requires the sections, so emit them empty.
    if (!spillSectionsWritten_)
        addSpillSegments({}, {});
    if (!tailBegun_)
        beginFrontierTail(0);
    flushBuf();
    put64(checksum_.digest());
    // The trailer bypasses the checksum accumulator by construction:
    // flush the staged trailer bytes straight to the file.
    file_.append(buf_);
    buf_.clear();
    if (!opened_ || !file_.error().empty()) {
        io.error = file_.error().empty() ? "checkpoint write failed"
                                         : file_.error();
        file_.abort();
        return io;
    }
    if (!file_.commit()) {
        io.error = file_.error();
        return io;
    }
    io.ok = true;
    io.bytes = file_.bytesWritten();
    return io;
}

// ---------------------------------------------------------------
// CheckpointReader

CheckpointIo
CheckpointReader::read(const std::string &path, CheckpointData &out)
{
    CheckpointIo io;
    std::string raw;
    if (!util::readFileToString(path, raw)) {
        io.error = "cannot read checkpoint '" + path + "'";
        return io;
    }
    io.bytes = raw.size();
    if (raw.size() < sizeof(kMagic) + 4 + 8) {
        io.error = "checkpoint '" + path + "' is truncated";
        return io;
    }
    if (std::memcmp(raw.data(), kMagic, sizeof(kMagic)) != 0) {
        io.error = "'" + path + "' is not a hieragen checkpoint";
        return io;
    }
    // The version comes before the seal: how a checkpoint is sealed
    // depends on its version, so an older one must be refused by
    // name, not as corrupt.
    uint32_t version = 0;
    for (int i = 3; i >= 0; --i) {
        version = (version << 8) |
                  static_cast<uint8_t>(raw[sizeof(kMagic) +
                                           static_cast<size_t>(i)]);
    }
    if (version != kCheckpointFormatVersion) {
        io.error = "checkpoint '" + path + "' has format version " +
                   std::to_string(version) + "; this build reads " +
                   std::to_string(kCheckpointFormatVersion);
        return io;
    }
    // The trailer is written little-endian byte by byte; reassemble
    // portably rather than trusting host endianness.
    uint64_t sum_le = 0;
    for (int i = 7; i >= 0; --i) {
        sum_le = (sum_le << 8) |
                 static_cast<uint8_t>(raw[raw.size() - 8 +
                                          static_cast<size_t>(i)]);
    }
    if (util::hash64(raw.data(), raw.size() - 8) != sum_le) {
        io.error = "checkpoint '" + path +
                   "' fails its checksum (truncated or corrupted)";
        return io;
    }

    Cursor c(raw, raw.size() - 8);
    char magic[sizeof(kMagic)];
    c.getBytes(magic, sizeof(kMagic));
    c.get32();  // the version, checked above
    out.header.optionsFingerprint = c.get64();
    out.header.systemHash = c.get64();
    out.header.storedAsHashes = c.get8() != 0;
    out.header.degraded = c.get8() != 0;
    out.header.symmetryApplied = c.get8() != 0;
    c.get8();  // reserved
    out.header.statesExplored = c.get64();
    out.header.statesGenerated = c.get64();
    out.header.transitionsFired = c.get64();

    uint64_t visited_count = c.get64();
    out.visitedExact.clear();
    out.visitedHashes.clear();
    if (out.header.storedAsHashes) {
        if (!c.need(visited_count * 8)) {
            io.error = "checkpoint '" + path +
                       "' visited section is truncated";
            return io;
        }
        out.visitedHashes.reserve(visited_count);
        for (uint64_t i = 0; i < visited_count; ++i)
            out.visitedHashes.push_back(c.get64());
    } else {
        if (!c.need(visited_count * 4)) {
            io.error = "checkpoint '" + path +
                       "' visited section is truncated";
            return io;
        }
        out.visitedExact.reserve(visited_count);
        std::string enc;
        for (uint64_t i = 0; i < visited_count; ++i) {
            uint32_t len = c.get32();
            if (!c.need(len)) {
                io.error = "checkpoint '" + path +
                           "' visited entry overruns the file";
                return io;
            }
            enc.resize(len);
            c.getBytes(enc.data(), len);
            out.visitedExact.push_back(enc);
        }
    }

    uint64_t frontier_count = c.get64();
    if (!c.need(frontier_count)) {  // >= 1 byte per state
        io.error =
            "checkpoint '" + path + "' frontier section is truncated";
        return io;
    }
    out.frontier.clear();
    out.frontier.reserve(frontier_count);
    for (uint64_t i = 0; i < frontier_count; ++i) {
        SysState st;
        if (!getState(c, st)) {
            io.error = "checkpoint '" + path +
                       "' frontier state is malformed";
            return io;
        }
        out.frontier.push_back(std::move(st));
    }

    uint32_t census_machines = c.get32();
    out.census.clear();
    out.census.reserve(census_machines);
    for (uint32_t i = 0; i < census_machines; ++i) {
        uint64_t marks = c.get64();
        if (!c.need(marks)) {
            io.error = "checkpoint '" + path +
                       "' census section is truncated";
            return io;
        }
        std::vector<unsigned char> v(marks);
        c.getBytes(v.data(), marks);
        out.census.push_back(std::move(v));
    }

    auto readRefs = [&](std::vector<SpillSegmentRef> &refs) {
        uint32_t n = c.get32();
        refs.clear();
        refs.reserve(n);
        for (uint32_t i = 0; i < n; ++i) {
            SpillSegmentRef r;
            uint32_t plen = c.get32();
            if (!c.need(plen))
                return false;
            r.path.resize(plen);
            c.getBytes(r.path.data(), plen);
            r.states = c.get64();
            r.bytes = c.get64();
            r.checksum = c.get64();
            refs.push_back(std::move(r));
        }
        return !c.failed();
    };
    if (!readRefs(out.visitedSegments) ||
        !readRefs(out.frontierSegments)) {
        io.error = "checkpoint '" + path +
                   "' spill segment section is truncated";
        return io;
    }

    uint64_t tail_count = c.get64();
    if (!c.need(tail_count)) {  // >= 1 byte per state
        io.error = "checkpoint '" + path +
                   "' frontier tail section is truncated";
        return io;
    }
    out.frontierTail.clear();
    out.frontierTail.reserve(tail_count);
    for (uint64_t i = 0; i < tail_count; ++i) {
        SysState st;
        if (!getState(c, st)) {
            io.error = "checkpoint '" + path +
                       "' frontier tail state is malformed";
            return io;
        }
        out.frontierTail.push_back(std::move(st));
    }

    if (c.failed()) {
        io.error = "checkpoint '" + path + "' is truncated";
        return io;
    }
    io.ok = true;
    return io;
}

} // namespace hieragen::verif
