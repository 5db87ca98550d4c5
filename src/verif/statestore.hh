/**
 * @file
 * Tiered (spillable) state storage for the explicit-state checker.
 *
 * SpillTier + StateStore put a storage-policy seam between
 * exploration and the visited set. The hot tier is the existing
 * open-addressing StateTable (SIMD group-of-8 probing, append-only
 * arena — see statetable.hh; that fast path is untouched): the
 * checker owns one StateStore per visited-set shard (a single shard
 * when it runs one worker). The spill tier is a single SpillTier shared by every store:
 * a set of immutable on-disk segment files. When the memory watermark
 * fires under MemoryLimitPolicy::SpillToDisk, the live hot tables are
 * flushed together into one new segment — payload encodings followed
 * by a fingerprint-sorted (fp, offset, length) index, written
 * atomically via util::AtomicFileWriter and sealed with an FNV-1a
 * checksum — and the hot tables restart empty.
 *
 * The tier is shared (not per shard) so that checkpoint format v3 can
 * reference segments that any resumed run — at any thread count —
 * re-adopts wholesale: a segment holds fingerprints from
 * every shard, and every shard's store probes the same tier.
 *
 * A probe first consults the hot tier; on miss it walks the spill
 * segments newest-first, gated per segment by an in-memory bloom
 * filter (~1.5 bytes/state) so the common disk-miss costs a few hash
 * bits, not an I/O. A bloom hit binary-searches an in-memory sparse
 * index (the fingerprint of every 64th index record, 0.125
 * bytes/state) to locate one 64-record index block, reads it with a
 * single positioned read, and confirms any fingerprint match with a
 * payload read + memcmp — exactness is decided by bytes, exactly as
 * in the hot tier, so fingerprint collisions across tiers cannot
 * produce a wrong verdict. Tiers are disjoint by construction (an
 * encoding is only inserted hot after missing every segment), so the
 * visited cardinality is the plain sum of tiers.
 *
 * Concurrency: sealed segments are immutable and probed with
 * positioned reads (pread), so SpillTier::contains() is safe from any
 * number of threads. Mutation (spillHot, adoptSegment,
 * removeSegmentFiles) must be externally quiesced — the checker
 * runs them at a rendezvous with every other worker parked, or before
 * its workers start. StateStore and SpillableFrontier themselves are
 * unsynchronized; the checker guards them with a per-shard mutex
 * (skipped when one worker is the only thread touching the shards)
 * and its queue mutex.
 *
 * SpillableFrontier gives the work queue the same treatment: a FIFO
 * of opaque byte records (the checker's packed state encodings, kept
 * in RecordFifo chunks) whose middle overflows to bounded segment
 * files while the head and a bounded tail stay in memory.
 * Segment files are consumed whole; consumed files are deleted
 * immediately, or — under retainConsumed(), for checkpointed runs —
 * parked until purgeConsumed() after the next successful snapshot, so
 * the last durable checkpoint's segment references always resolve.
 */

#ifndef HIERAGEN_VERIF_STATESTORE_HH
#define HIERAGEN_VERIF_STATESTORE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "verif/statetable.hh"

namespace hieragen::verif
{

/** One sealed spill segment, as referenced by checkpoint format v3.
 *  `bytes` is the full file size and `checksum` the trailing FNV-1a
 *  value, so re-adoption can verify the file before trusting it. */
struct SpillSegmentRef
{
    std::string path;
    uint64_t states = 0;
    uint64_t bytes = 0;
    uint64_t checksum = 0;
};

/** Spill-tier activity counters (all monotone within a run). */
struct SpillStats
{
    uint64_t spilledBytes = 0;   ///< segment bytes written
    uint64_t spilledStates = 0;  ///< entries written to segments
    uint64_t segmentsWritten = 0;
    uint64_t diskProbes = 0;  ///< probes that passed a bloom filter
    uint64_t diskHits = 0;    ///< probes confirmed on disk
    uint64_t stallNs = 0;     ///< wall time blocked on spill I/O
};

/**
 * The on-disk half of the visited set: sealed, immutable, bloom- and
 * sparse-indexed segment files shared by every StateStore of a run.
 * contains() is thread-safe; everything that changes the segment list
 * must run quiesced (see the file comment).
 */
class SpillTier
{
  public:
    SpillTier() = default;
    ~SpillTier();

    SpillTier(const SpillTier &) = delete;
    SpillTier &operator=(const SpillTier &) = delete;

    /** Arm the tier: segments go to @p dir with names derived from
     *  @p prefix. Does not write anything by itself. */
    void configure(std::string dir, std::string prefix);
    bool configured() const { return !dir_.empty(); }

    /** Cheap gate for the insert fast path: false means no probe
     *  beyond the hot tier is ever needed. */
    bool hasSegments() const { return !segments_.empty(); }

    /** True iff some segment holds exactly these bytes. Thread-safe
     *  against concurrent contains() calls. @p fp must be the stored
     *  (empty-sentinel remapped) fingerprint of the bytes. */
    bool contains(uint64_t fp, const char *data, uint32_t len) const;

    /**
     * Flush the live contents of @p tables (all exact-mode) into one
     * new sealed segment. On success the caller must clear the tables
     * — their encodings are now owned by the tier. No-op (returning
     * true) when the tables are empty. False with *err set on I/O
     * failure; no segment is registered and the tables are untouched.
     */
    bool spillHot(const StateTable *const *tables, size_t n,
                  std::string *err);

    /**
     * Re-adopt a segment written by a previous run (resume path):
     * re-reads the file, verifies size and checksum against @p ref,
     * rebuilds the bloom/sparse indexes and registers the segment.
     * False with *err on any disagreement — the caller refuses the
     * resume, mirroring checkpoint corruption handling.
     */
    bool adoptSegment(const SpillSegmentRef &ref, std::string *err);

    /** Live segments, oldest first (checkpoint v3 references). */
    std::vector<SpillSegmentRef> segmentRefs() const;
    uint64_t segmentCount() const { return segments_.size(); }

    /** Unique states held on disk. */
    uint64_t states() const { return states_; }

    /** Resident bytes: the segments' bloom/sparse indexes (the only
     *  in-memory cost of spilled states). */
    uint64_t memoryBytes() const;

    /** Delete all segment files (end of run, nothing references
     *  them any more). */
    void removeSegmentFiles();

    SpillStats stats() const;

  private:
    struct Segment
    {
        SpillSegmentRef ref;
        uint64_t indexOffset = 0;  ///< byte offset of the index records
        uint64_t count = 0;
        std::vector<uint64_t> bloom;  ///< bit array, power-of-two bits
        uint64_t bloomMask = 0;       ///< bits - 1
        std::vector<uint64_t> sparse; ///< fp of every 64th index record
        int fd = -1;  ///< opened at seal/adopt; pread-only thereafter
    };

    bool segmentContains(const Segment &s, uint64_t fp,
                         const char *data, uint32_t len) const;
    static void indexSegment(Segment &s, const uint64_t *fps,
                             uint64_t n);

    std::string dir_;
    std::string prefix_;
    std::vector<Segment> segments_;
    uint64_t states_ = 0;
    uint64_t nextSegmentId_ = 0;

    // Write-side counters mutate quiesced but are sampled from the
    // telemetry thread; probe-side counters mutate concurrently.
    std::atomic<uint64_t> spilledBytes_{0};
    std::atomic<uint64_t> spilledStates_{0};
    std::atomic<uint64_t> segmentsWritten_{0};
    mutable std::atomic<uint64_t> diskProbes_{0};
    mutable std::atomic<uint64_t> diskHits_{0};
    mutable std::atomic<uint64_t> stallNs_{0};
};

/**
 * One engine-side visited store: a hot StateTable plus an optional
 * shared SpillTier consulted on hot misses. Without a tier (or before
 * anything spills) it costs the wrapped table plus one predictable
 * branch per insert. size() reports the hot tier only — the engine
 * adds SpillTier::states() once, since the tier is shared.
 */
class StateStore
{
  public:
    using Mode = StateTable::Mode;

    explicit StateStore(Mode mode = Mode::Exact, SpillTier *tier = nullptr)
        : hot_(mode), tier_(tier) {}

    StateStore(StateStore &&) = default;
    StateStore &operator=(StateStore &&) = default;

    Mode mode() const { return hot_.mode(); }

    void attachTier(SpillTier *tier) { tier_ = tier; }

    /** Exact-mode insert-if-absent across both tiers. */
    bool
    insert(uint64_t fp, const char *data, uint32_t len)
    {
        if (fp == 0)
            fp = 1;  // keep tier keys aligned with stored fps
        if (tier_ && tier_->hasSegments()) {
            if (hot_.containsExact(fp, data, len))
                return false;
            if (tier_->contains(fp, data, len))
                return false;
        }
        return hot_.insert(fp, data, len);
    }

    /** Hash-mode insert (hot tier only — signatures never spill). */
    bool insertHash(uint64_t fp) { return hot_.insertHash(fp); }

    void reserve(uint64_t expected) { hot_.reserve(expected); }
    void prefetch(uint64_t fp) const { hot_.prefetch(fp); }
    void prefetchMatch(uint64_t fp) const { hot_.prefetchMatch(fp); }

    /** Hot-tier entries (the engine adds the shared tier's states()
     *  to get the full visited cardinality). */
    uint64_t size() const { return hot_.size(); }
    uint64_t capacity() const { return hot_.capacity(); }
    uint64_t rehashes() const { return hot_.rehashes(); }
    uint64_t growNs() const { return hot_.growNs(); }
    double loadFactor() const { return hot_.loadFactor(); }

    /** Resident bytes of the hot tier (= what a spill would free). */
    uint64_t memoryBytes() const { return hot_.memoryBytes(); }
    uint64_t spillableBytes() const { return hot_.memoryBytes(); }

    /** Hot-tier payload bytes. */
    uint64_t payloadBytes() const { return hot_.payloadBytes(); }

    /** The hot table itself — the spill path hands it to
     *  SpillTier::spillHot(), checkpoints iterate it. */
    const StateTable &hot() const { return hot_; }

    /** Restart the hot tier empty (after a successful spill). */
    void resetHot() { hot_ = StateTable(hot_.mode()); }

    /** Swap in a replacement hot table (degrade-to-compaction). */
    void replaceHot(StateTable &&t) { hot_ = std::move(t); }

    /** Visit hot-tier encodings only (checkpoints serialize the hot
     *  tier and reference segments separately). */
    template <typename Fn>
    void
    forEachHotExact(Fn &&fn) const
    {
        hot_.forEachExact(fn);
    }

    template <typename Fn>
    void
    forEachHash(Fn &&fn) const
    {
        hot_.forEachHash(fn);
    }

  private:
    StateTable hot_;
    SpillTier *tier_ = nullptr;  ///< shared, non-owning; may be null
};

/**
 * FIFO of opaque byte records in fixed-size chunks, as the trace log
 * and the state arena grow: a push copies the record into the newest
 * chunk, so records cost no heap block each, and a drained chunk is
 * freed (one is kept for reuse). A record is stored as a 4-byte
 * little-endian length and its bytes, the layout of a frontier
 * segment's payload, so a segment write streams chunk contents as
 * they are.
 */
class RecordFifo
{
  public:
    /** Stored bytes per record beyond its payload. */
    static constexpr size_t kLenBytes = 4;

    void push(const char *data, uint32_t len);

    /** The oldest record; the FIFO must not be empty. */
    std::string_view front() const;
    void pop();

    bool empty() const { return count_ == 0; }
    uint64_t size() const { return count_; }

    /** Stored bytes (length prefixes included) of the live records. */
    uint64_t bytes() const { return bytes_; }

    /** Bytes the chunks hold allocated, the spare included. */
    uint64_t allocatedBytes() const { return allocated_; }

    /** Visit the stored bytes, oldest first, as contiguous spans. */
    template <typename Fn>
    void
    forEachSpan(Fn &&fn) const
    {
        for (size_t i = 0; i < chunks_.size(); ++i) {
            size_t from = i == 0 ? readPos_ : 0;
            if (chunks_[i].used > from)
                fn(chunks_[i].data.get() + from, chunks_[i].used - from);
        }
    }

    /** Visit the records, oldest first, as (data, len). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t i = 0; i < chunks_.size(); ++i) {
            const char *p = chunks_[i].data.get();
            for (size_t pos = i == 0 ? readPos_ : 0;
                 pos < chunks_[i].used;) {
                uint32_t len = loadLen(p + pos);
                fn(p + pos + kLenBytes, len);
                pos += kLenBytes + len;
            }
        }
    }

    void clear();

  private:
    static constexpr size_t kChunkBytes = size_t{64} << 10;

    struct Chunk
    {
        std::unique_ptr<char[]> data;
        size_t cap = 0;
        size_t used = 0;
    };

    /** Keep a drained chunk as the spare, or free it. */
    void retire(Chunk &&c);

    static uint32_t
    loadLen(const char *p)
    {
        uint32_t v = 0;
        for (int i = 3; i >= 0; --i)
            v = (v << 8) | static_cast<uint8_t>(p[i]);
        return v;
    }

    std::deque<Chunk> chunks_;
    Chunk spare_;  ///< a drained standard chunk kept for the next push
    size_t readPos_ = 0;  ///< offset of front() in chunks_.front()
    uint64_t count_ = 0;
    uint64_t bytes_ = 0;
    uint64_t allocated_ = 0;
};

/**
 * FIFO work queue of opaque byte records whose middle spills to
 * bounded segment files. Until enableSpill() every record lives in
 * the in-memory head. With spilling enabled, pushes accumulate in a
 * bounded tail that flushes whole segments; pops drain the head,
 * then reload segments oldest-first, then swap in the tail. FIFO
 * order is preserved exactly, so a spilled run explores states in
 * the same order as an unlimited one.
 *
 * A frontier segment (format v2) is the 28-byte segment header, then
 * each record as a u32 length plus its bytes, then the FNV-1a
 * trailer. v1 segments (serialized states) are refused.
 *
 * Not internally synchronized: the checker wraps it behind its queue
 * mutex.
 */
class SpillableFrontier
{
  public:
    SpillableFrontier() = default;
    ~SpillableFrontier() = default;

    SpillableFrontier(const SpillableFrontier &) = delete;
    SpillableFrontier &operator=(const SpillableFrontier &) = delete;

    /** Arm spilling (segment directory/prefix). Idempotent. */
    void configure(std::string dir, std::string prefix);
    bool spillConfigured() const { return !dir_.empty(); }

    /** Keep consumed segment files on disk until purgeConsumed() —
     *  set for checkpointed runs, whose last durable snapshot may
     *  still reference a segment this run has since loaded. */
    void retainConsumed(bool on) { retainConsumed_ = on; }

    /** Delete the consumed segment files accumulated so far (call
     *  after a successful checkpoint commit supersedes them). */
    void purgeConsumed();

    /**
     * Start overflowing to disk, keeping about @p memWindowBytes
     * stored record bytes in the head; segments hold about half a
     * window each (4 KiB to 1 MiB). Repeat calls adjust the window.
     * The head's overflow is written out only while no segment and
     * no tail exist; otherwise newer records already sit behind the
     * head and it simply drains.
     */
    void enableSpill(uint64_t memWindowBytes);
    bool spilling() const { return spilling_; }

    void push(const char *data, uint32_t len);

    /** Copy the oldest record into @p out and drop it. False when
     *  empty or when a segment load failed — distinguish via error().
     *  A failed load loses states, so the engine must abort the run
     *  on it. */
    bool pop(std::string &out);

    bool empty() const { return size() == 0; }
    uint64_t size() const
    {
        return head_.size() + tail_.size() + diskStates_;
    }
    uint64_t diskStates() const { return diskStates_; }

    /** Bytes the in-memory head and tail hold allocated. */
    uint64_t memBytes() const
    {
        return head_.allocatedBytes() + tail_.allocatedBytes();
    }

    /**
     * Checkpoint view: the FIFO is head records (in memory), then the
     * segment list, then tail records (in memory). A v3 checkpoint
     * records head in the classic frontier section, the segments by
     * reference, and tail in its own trailing section; restoring in
     * that order through push()/adoptSegment() reproduces the queue.
     */
    uint64_t headStates() const { return head_.size(); }
    uint64_t tailStates() const { return tail_.size(); }

    template <typename Fn>
    void
    forEachHead(Fn &&fn) const
    {
        head_.forEach(fn);
    }

    template <typename Fn>
    void
    forEachTail(Fn &&fn) const
    {
        tail_.forEach(fn);
    }

    std::vector<SpillSegmentRef> segmentRefs() const;

    /** Re-adopt an unconsumed frontier segment on resume (checksum
     *  verified against @p ref; false with *err on disagreement). */
    bool adoptSegment(const SpillSegmentRef &ref, std::string *err);

    void removeSegmentFiles();

    const SpillStats &stats() const { return stats_; }

    /** Latched I/O error ("" when healthy). */
    const std::string &error() const { return error_; }

  private:
    bool flushTail();
    bool loadFrontSegment();

    RecordFifo head_;
    RecordFifo tail_;
    std::deque<SpillSegmentRef> segments_;
    std::vector<std::string> consumed_;  ///< loaded, not yet deleted
    std::string loadBuf_;  ///< segment image, reused across loads
    uint64_t diskStates_ = 0;
    bool spilling_ = false;
    bool retainConsumed_ = false;
    uint64_t window_ = 0;
    uint64_t segmentBytes_ = 0;  ///< tail bytes that flush a segment
    std::string dir_;
    std::string prefix_;
    uint64_t nextSegmentId_ = 0;
    SpillStats stats_;
    std::string error_;
};

} // namespace hieragen::verif

#endif // HIERAGEN_VERIF_STATESTORE_HH
