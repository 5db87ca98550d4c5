/**
 * @file
 * Flat visited-state storage for the explicit-state checker.
 *
 * StateTable replaces the per-shard `std::unordered_set<std::string>`
 * (exact mode) and `std::unordered_set<uint64_t>` (Stern–Dill hash
 * compaction) with one open-addressing table:
 *
 *   - a power-of-two slot array of 64-bit fingerprints (0 = empty),
 *     probed linearly from a Fibonacci-scrambled start index, grown
 *     at ~0.7 load;
 *   - in exact mode, a parallel slot array of packed references
 *     (arena offset << 16 | encoding length) into an append-only
 *     chunked byte arena that owns the canonical encodings.
 *
 * Insert/lookup is one cache-friendly probe sequence with no
 * per-state heap allocation: a fingerprint mismatch skips the slot
 * without touching the arena, a fingerprint match confirms with one
 * memcmp against the arena bytes, so false fingerprint collisions
 * cost a compare but never a wrong verdict. Rehashing moves only the
 * two slot arrays; arena bytes never move, which keeps growth cheap
 * and the per-state storage overhead at 16 bytes of slots (amortized
 * ~23 at the load ceiling) plus the encoding itself.
 *
 * Probing is batched: fingerprints are compared one aligned group of
 * eight slots at a time (SSE2 / NEON when available, a portable
 * scalar loop otherwise — see matchMask8 in statetable.cc), walking
 * lanes in probe order so inserts land in exactly the slot the
 * scalar probe would pick; grow() re-probes through the same path,
 * so batching never changes table layout. prefetch(fp) issues a
 * software prefetch for fp's first probe group (slots and refs), so
 * callers that know a batch of upcoming fingerprints — the checker
 * gathers them per expansion — can overlap the probe's main-memory
 * latency with the encoding work for the remaining successors.
 *
 * Hash-compaction mode stores only the fingerprints (the Stern–Dill
 * signatures); the zero signature — which would alias the empty-slot
 * sentinel — is tracked by a side flag so no signature is ever
 * silently dropped.
 *
 * The table is not internally synchronized: the checker wraps one per
 * visited-set shard behind the shard mutex (a lone worker, the only
 * thread touching its single shard, skips the lock).
 */

#ifndef HIERAGEN_VERIF_STATETABLE_HH
#define HIERAGEN_VERIF_STATETABLE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace hieragen::verif
{

/** Append-only byte storage with stable addresses. Entries are
 *  carved from 64 KiB chunks and never straddle a chunk boundary, so
 *  a packed (offset, length) reference stays valid across table
 *  growth. */
class StateArena
{
  public:
    static constexpr uint32_t kChunkShift = 16;  // 64 KiB
    static constexpr uint32_t kChunkSize = 1u << kChunkShift;

    /** Copy @p len bytes in and return a stable global offset. */
    uint64_t append(const char *data, uint32_t len);

    const char *
    at(uint64_t offset) const
    {
        return chunks_[offset >> kChunkShift].get() +
               (offset & (kChunkSize - 1));
    }

    /** Bytes allocated (chunks), not bytes used. */
    uint64_t allocatedBytes() const { return chunks_.size() * kChunkSize; }
    uint64_t usedBytes() const { return used_; }

    void clear();

  private:
    std::vector<std::unique_ptr<char[]>> chunks_;
    uint32_t tail_ = kChunkSize;  ///< bytes used in the last chunk
    uint64_t used_ = 0;
};

class StateTable
{
  public:
    enum class Mode
    {
        Exact,  ///< fingerprint + arena-backed encoding bytes
        Hashes, ///< Stern–Dill signatures only
    };

    explicit StateTable(Mode mode = Mode::Exact) : mode_(mode) {}

    Mode mode() const { return mode_; }

    /**
     * Exact-mode insert: add the encoding iff absent. Returns true
     * when the state is new. @p fp must be a 64-bit hash of
     * exactly @p data[0..len); equality is decided by the bytes, the
     * fingerprint only prunes probes (fp 0 is remapped internally so
     * it cannot alias the empty sentinel).
     */
    bool insert(uint64_t fp, const char *data, uint32_t len);

    /**
     * Exact-mode probe without insertion: true iff the encoding is
     * already stored. Same fingerprint contract (and empty-sentinel
     * remap) as insert(); shares the batched probe path, so a miss
     * costs the same group-of-8 walk an insert would.
     */
    bool containsExact(uint64_t fp, const char *data,
                       uint32_t len) const;

    /** Hash-mode insert: add the signature iff absent. In this mode
     *  two states sharing a signature are (unsoundly, with the
     *  documented Stern–Dill omission probability) identified. */
    bool insertHash(uint64_t fp);

    /** Pre-size so @p expected entries fit without a rehash. */
    void reserve(uint64_t expected);

    /**
     * Hint that @p fp is about to be probed: prefetch its first
     * probe group into cache. Pure optimization — never required for
     * correctness, safe on an empty table, and safe to call for
     * fingerprints that are never subsequently inserted.
     */
    void
    prefetch(uint64_t fp) const
    {
        if (fps_.empty())
            return;
        if (fp == 0)
            fp = 1;  // mirror insert()'s empty-sentinel remap
        size_t base = startIndex(fp) & ~size_t{7};
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(fps_.data() + base, 0, 1);
        if (mode_ == Mode::Exact)
            __builtin_prefetch(refs_.data() + base, 0, 1);
#endif
    }

    /**
     * Second-stage hint, for a fingerprint whose prefetch() has had
     * time to land: if @p fp's first probe group holds a matching
     * fingerprint, prefetch that entry's arena bytes, which the
     * insert's confirming memcmp will read. Exact mode only (a no-op
     * otherwise); same safety contract as prefetch().
     */
    void prefetchMatch(uint64_t fp) const;

    uint64_t size() const { return size_; }
    uint64_t capacity() const { return fps_.size(); }
    uint64_t rehashes() const { return rehashes_; }
    /** Wall time spent growing the slot arrays, in nanoseconds. */
    uint64_t growNs() const { return growNs_; }

    double
    loadFactor() const
    {
        return fps_.empty()
                   ? 0.0
                   : static_cast<double>(size_ - (hasZero_ ? 1 : 0)) /
                         static_cast<double>(fps_.size());
    }

    /** Resident bytes: slot arrays plus arena chunks. */
    uint64_t memoryBytes() const;

    /** Total encoding payload bytes stored (exact mode). */
    uint64_t payloadBytes() const { return arena_.usedBytes(); }

    /** Visit every stored encoding (exact mode only). */
    template <typename Fn>
    void
    forEachExact(Fn &&fn) const
    {
        for (size_t i = 0; i < fps_.size(); ++i) {
            if (fps_[i] != 0)
                fn(arena_.at(refs_[i] >> 16),
                   static_cast<uint32_t>(refs_[i] & 0xffff));
        }
    }

    /** Visit every stored encoding with its fingerprint (exact mode
     *  only) — the spill tier serializes through this. The reported
     *  fingerprint is the stored one, i.e. after the empty-sentinel
     *  remap of fp 0 to 1. */
    template <typename Fn>
    void
    forEachExactFp(Fn &&fn) const
    {
        for (size_t i = 0; i < fps_.size(); ++i) {
            if (fps_[i] != 0)
                fn(fps_[i], arena_.at(refs_[i] >> 16),
                   static_cast<uint32_t>(refs_[i] & 0xffff));
        }
    }

    /** Visit every stored signature (hash mode only). */
    template <typename Fn>
    void
    forEachHash(Fn &&fn) const
    {
        if (hasZero_)
            fn(uint64_t{0});
        for (uint64_t fp : fps_) {
            if (fp != 0)
                fn(fp);
        }
    }

  private:
    void grow(uint64_t minCapacity);

    /** Probe start: Fibonacci scramble so tables sharded by the low
     *  fingerprint bits still spread over the whole slot array. */
    size_t
    startIndex(uint64_t fp) const
    {
        return static_cast<size_t>((fp * 0x9e3779b97f4a7c15ull) >>
                                   shift_);
    }

    Mode mode_;
    std::vector<uint64_t> fps_;   ///< 0 = empty slot
    std::vector<uint64_t> refs_;  ///< exact mode: offset << 16 | len
    StateArena arena_;
    uint64_t size_ = 0;
    uint64_t rehashes_ = 0;
    uint64_t growNs_ = 0;
    unsigned shift_ = 64;  ///< 64 - log2(capacity)
    bool hasZero_ = false; ///< hash mode: signature 0 present
};

} // namespace hieragen::verif

#endif // HIERAGEN_VERIF_STATETABLE_HH
