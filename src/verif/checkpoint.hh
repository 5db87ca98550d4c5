/**
 * @file
 * Checkpoint/resume for the explicit-state checker.
 *
 * Long verification runs (the paper's non-stalling 2H+2L and 2H+3L
 * configurations take minutes even with symmetry reduction) must
 * survive a kill, an OOM or a preemption. A checkpoint snapshots the
 * exploration at a consistent point — the visited set (exact
 * encodings or Stern–Dill signatures), the unexpanded frontier, the
 * exploration counters and the Section V-E census marks — together
 * with a fingerprint of the CheckOptions that shape the state space
 * and a structural hash of the System, so a resume against different
 * semantics is refused instead of silently diverging.
 *
 * On-disk format (version 3, little-endian, see docs/VERIFIER.md):
 *
 *   magic "HGCKPT1\n"
 *   u32  format version
 *   u64  options fingerprint        u64  system config hash
 *   u8   storedAsHashes  u8 degraded  u8 symmetryApplied  u8 reserved
 *   u64  statesExplored  u64 statesGenerated  u64 transitionsFired
 *   u64  visited count   [u32 len + bytes]* | [u64 signature]*
 *   u64  frontier count  [serialized SysState]*      (queue head)
 *   u32  census machine count  [u64 mark count + bytes]*
 *   u32  visited spill segment count   [segment ref]*
 *   u32  frontier spill segment count  [segment ref]*
 *   u64  frontier tail count  [serialized SysState]*
 *   u64  FNV-1a checksum over everything above
 *
 * A segment ref is u32 path length + path bytes, u64 states,
 * u64 file bytes, u64 segment checksum. Under SpillToDisk a
 * checkpoint references the live spill segments instead of
 * re-serializing their contents; resume re-adopts each file after
 * verifying its size and checksum against the ref, and refuses the
 * checkpoint (errorKind "resume-mismatch") when any referenced
 * segment is missing, truncated or corrupted.
 *
 * Writes are atomic: CheckpointWriter streams to `path + ".tmp"` and
 * commit() fsyncs then renames, so the destination always holds either
 * the previous checkpoint or the complete new one. CheckpointReader
 * verifies magic, version and checksum and bounds-checks every section,
 * rejecting truncated or corrupted files.
 */

#ifndef HIERAGEN_VERIF_CHECKPOINT_HH
#define HIERAGEN_VERIF_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/fileio.hh"
#include "util/hash.hh"
#include "verif/checker.hh"
#include "verif/statestore.hh"
#include "verif/system.hh"

namespace hieragen::verif
{

/**
 * Format history:
 *   v1 — original layout; visited-exact entries held the fixed
 *        16-bytes-per-block encoding.
 *   v2 — visited-exact entries hold the bit-packed per-System
 *        encoding (System::enc field widths). The container layout
 *        is unchanged, but the bytes are not interchangeable with
 *        v1, so v1 snapshots are refused on read.
 *   v3 — adds the out-of-core sections: visited/frontier spill
 *        segment references and the frontier tail. Spilled state is
 *        referenced by (path, checksum), not copied, so checkpoint
 *        cost stays proportional to the in-memory tiers. v1/v2
 *        snapshots are refused on read.
 *   v4 — the container layout is unchanged, but visited-exact
 *        fingerprints, stored representatives and the trailing seal
 *        all use util::hash64 (and the canonical representative is
 *        the least image in field order), so no byte of a v3 state
 *        section is valid here: v3 snapshots are refused on read.
 */
inline constexpr uint32_t kCheckpointFormatVersion = 4;

/** Fixed-size leading section of a checkpoint. */
struct CheckpointHeader
{
    uint64_t optionsFingerprint = 0;
    uint64_t systemHash = 0;
    /** Visited entries are 64-bit signatures, not full encodings. */
    bool storedAsHashes = false;
    /** The run had degraded to compaction when this was written. */
    bool degraded = false;
    /** Symmetry reduction was active (informational). */
    bool symmetryApplied = false;
    uint64_t statesExplored = 0;
    uint64_t statesGenerated = 0;
    uint64_t transitionsFired = 0;
};

/** A fully materialized checkpoint, as loaded by CheckpointReader. */
struct CheckpointData
{
    CheckpointHeader header;
    std::vector<std::string> visitedExact;   ///< when !storedAsHashes
    std::vector<uint64_t> visitedHashes;     ///< when storedAsHashes
    std::vector<SysState> frontier;          ///< unexpanded (queue head)
    /** Reached-mark snapshot per unique machine, in the order of
     *  checkpointMachines(). */
    std::vector<std::vector<unsigned char>> census;
    /** Live spill segments at snapshot time (SpillToDisk runs);
     *  resume re-adopts these files after checksum verification. */
    std::vector<SpillSegmentRef> visitedSegments;
    std::vector<SpillSegmentRef> frontierSegments;
    /** Queue states newer than the frontier segments (FIFO order is
     *  frontier, then frontierSegments, then frontierTail). */
    std::vector<SysState> frontierTail;
};

/** Outcome of a checkpoint read or write. */
struct CheckpointIo
{
    bool ok = false;
    std::string error;
    uint64_t bytes = 0;
};

/**
 * Fingerprint of the CheckOptions fields that define the explored
 * state space: atomicTransactions, accessBudget, hashCompaction,
 * compactionSeed, symmetryReduction and markReached. Deliberately
 * excludes maxStates (resuming past a state-limit abort with a larger
 * budget is a feature), numThreads (checkpoints restore across 1..N
 * threads), traceOnError, telemetry and the checkpoint knobs
 * themselves.
 */
uint64_t optionsFingerprint(const CheckOptions &opts);

/**
 * Structural hash of a System: node layout (machine name, role, table
 * shape, parent, leaf role), leaf caches, symmetry classes and the
 * message-type table. Two systems with equal hashes explore the same
 * state space under equal options.
 */
uint64_t systemConfigHash(const System &sys);

/** The distinct machines of a system in first-appearance node order —
 *  the census section's machine ordering. */
std::vector<const Machine *> checkpointMachines(const System &sys);

/** "" when @p data may seed a run of (@p sys, @p opts); otherwise a
 *  human-readable refusal reason (fingerprint/hash mismatch). */
std::string resumeCompatibilityError(const CheckpointData &data,
                                     const System &sys,
                                     const CheckOptions &opts);

/** Overwrite the reached marks of every machine in @p sys from the
 *  checkpoint's census section; false on shape mismatch. */
bool restoreCensus(const System &sys, const CheckpointData &data);

/**
 * Streaming checkpoint serializer. Call begin(), then the section
 * emitters in order (visited, frontier, census), then commit(). Data
 * is buffered and streamed to the temp file as it accumulates, so a
 * multi-million-state snapshot never needs a second in-memory copy.
 * Any I/O failure latches; commit() reports it and leaves the
 * previous checkpoint file untouched.
 */
class CheckpointWriter
{
  public:
    explicit CheckpointWriter(std::string path);

    void begin(const CheckpointHeader &h);
    void beginVisited(uint64_t count, bool as_hashes);
    void addVisitedExact(const std::string &enc);
    /** Zero-copy variant for arena-backed encodings. */
    void addVisitedExact(const char *data, uint32_t len);
    void addVisitedHash(uint64_t h);
    void beginFrontier(uint64_t count);
    void addFrontierState(const SysState &st);
    /** Emit the census section from @p sys's current reached marks. */
    void addCensus(const System &sys);
    /**
     * Emit the v3 spill sections (after addCensus): visited and
     * frontier segment references. Follow with beginFrontierTail()
     * plus addFrontierState() per tail state. Runs without a spill
     * tier may skip all three — commit() emits empty sections.
     */
    void addSpillSegments(const std::vector<SpillSegmentRef> &visited,
                          const std::vector<SpillSegmentRef> &frontier);
    void beginFrontierTail(uint64_t count);
    CheckpointIo commit();

  private:
    static constexpr size_t kFlushThreshold = 1 << 20;

    std::string path_;
    util::AtomicFileWriter file_;
    std::string buf_;
    util::Hasher64 checksum_;
    bool opened_ = false;
    bool spillSectionsWritten_ = false;
    bool tailBegun_ = false;

    void put8(uint8_t v);
    void put32(uint32_t v);
    void put64(uint64_t v);
    void putBytes(const void *data, size_t len);
    void flushBuf();
};

/** Load and validate a checkpoint file. */
class CheckpointReader
{
  public:
    /** Read @p path into @p out. On failure out is unspecified and
     *  the returned error names the first problem found (missing
     *  file, bad magic, version skew, truncation, checksum). */
    CheckpointIo read(const std::string &path, CheckpointData &out);
};

} // namespace hieragen::verif

#endif // HIERAGEN_VERIF_CHECKPOINT_HH
