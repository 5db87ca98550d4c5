#include "verif/statetable.hh"

#include <bit>
#include <cstring>

#include "util/logging.hh"
#include "util/stopwatch.hh"

// Batched fingerprint compare: one aligned group of eight 64-bit
// slots per step. Define HIERAGEN_SCALAR_PROBE to force the portable
// loop (used to cross-check the vector paths).
#if !defined(HIERAGEN_SCALAR_PROBE) && defined(__SSE2__)
#define HIERAGEN_PROBE_SSE2 1
#include <emmintrin.h>
#elif !defined(HIERAGEN_SCALAR_PROBE) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define HIERAGEN_PROBE_NEON 1
#include <arm_neon.h>
#endif

namespace hieragen::verif
{

uint64_t
StateArena::append(const char *data, uint32_t len)
{
    HG_ASSERT(len < kChunkSize, "arena entry exceeds chunk size");
    if (tail_ + len > kChunkSize) {
        chunks_.push_back(std::make_unique<char[]>(kChunkSize));
        tail_ = 0;
    }
    uint64_t offset =
        ((static_cast<uint64_t>(chunks_.size()) - 1) << kChunkShift) |
        tail_;
    std::memcpy(chunks_.back().get() + tail_, data, len);
    tail_ += len;
    used_ += len;
    return offset;
}

void
StateArena::clear()
{
    chunks_.clear();
    tail_ = kChunkSize;
    used_ = 0;
}

namespace
{

/** Max load factor 0.7 expressed as a rational: grow when
 *  10 * (size + 1) > 7 * capacity. */
bool
overloaded(uint64_t size, uint64_t capacity)
{
    return 10 * (size + 1) > 7 * capacity;
}

/**
 * Lane masks over one aligned group of eight slots: bit k of the
 * return is set when g[k] == fp; bit k of @p empty when g[k] == 0.
 * Lane order == probe order, so callers scan bits low-to-high.
 */
inline unsigned
matchMask8(const uint64_t *g, uint64_t fp, unsigned &empty)
{
#if defined(HIERAGEN_PROBE_SSE2)
    // SSE2 has no 64-bit compare; compare 32-bit lanes and require
    // both halves of each slot to match (AND with the half-swapped
    // compare), then movemask_pd extracts one bit per 64-bit lane.
    const __m128i needle = _mm_set1_epi64x(static_cast<int64_t>(fp));
    const __m128i zero = _mm_setzero_si128();
    unsigned eq = 0;
    empty = 0;
    for (int k = 0; k < 4; ++k) {
        __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(g + 2 * k));
        __m128i ce = _mm_cmpeq_epi32(v, needle);
        ce = _mm_and_si128(
            ce, _mm_shuffle_epi32(ce, _MM_SHUFFLE(2, 3, 0, 1)));
        eq |= static_cast<unsigned>(
                  _mm_movemask_pd(_mm_castsi128_pd(ce)))
              << (2 * k);
        __m128i cz = _mm_cmpeq_epi32(v, zero);
        cz = _mm_and_si128(
            cz, _mm_shuffle_epi32(cz, _MM_SHUFFLE(2, 3, 0, 1)));
        empty |= static_cast<unsigned>(
                     _mm_movemask_pd(_mm_castsi128_pd(cz)))
                 << (2 * k);
    }
    return eq;
#elif defined(HIERAGEN_PROBE_NEON)
    const uint64x2_t needle = vdupq_n_u64(fp);
    unsigned eq = 0;
    empty = 0;
    for (int k = 0; k < 4; ++k) {
        uint64x2_t v = vld1q_u64(g + 2 * k);
        uint64x2_t ce = vceqq_u64(v, needle);
        eq |= (vgetq_lane_u64(ce, 0) & 1u) << (2 * k);
        eq |= (vgetq_lane_u64(ce, 1) & 1u) << (2 * k + 1);
        uint64x2_t cz = vceqq_u64(v, vdupq_n_u64(0));
        empty |= (vgetq_lane_u64(cz, 0) & 1u) << (2 * k);
        empty |= (vgetq_lane_u64(cz, 1) & 1u) << (2 * k + 1);
    }
    return eq;
#else
    unsigned eq = 0;
    empty = 0;
    for (unsigned k = 0; k < 8; ++k) {
        eq |= static_cast<unsigned>(g[k] == fp) << k;
        empty |= static_cast<unsigned>(g[k] == 0) << k;
    }
    return eq;
#endif
}

} // namespace

void
StateTable::grow(uint64_t minCapacity)
{
    uint64_t cap = 64;
    while (cap < minCapacity)
        cap <<= 1;
    if (cap <= fps_.size())
        return;

    util::Stopwatch sw;
    std::vector<uint64_t> oldFps = std::move(fps_);
    std::vector<uint64_t> oldRefs = std::move(refs_);
    fps_.assign(cap, 0);
    if (mode_ == Mode::Exact)
        refs_.assign(cap, 0);
    shift_ = 64 - static_cast<unsigned>(std::bit_width(cap) - 1);
    const size_t mask = cap - 1;
    for (size_t i = 0; i < oldFps.size(); ++i) {
        uint64_t fp = oldFps[i];
        if (fp == 0)
            continue;
        size_t j = startIndex(fp);
        while (fps_[j] != 0)
            j = (j + 1) & mask;
        fps_[j] = fp;
        if (mode_ == Mode::Exact)
            refs_[j] = oldRefs[i];
    }
    if (!oldFps.empty())
        ++rehashes_;
    growNs_ += static_cast<uint64_t>(sw.ns());
}

void
StateTable::reserve(uint64_t expected)
{
    // Invert the load ceiling: expected entries need cap such that
    // 10 * expected <= 7 * cap.
    uint64_t need = (10 * expected) / 7 + 1;
    if (need > fps_.size())
        grow(need);
}

void
StateTable::prefetchMatch(uint64_t fp) const
{
    if (fps_.empty() || mode_ != Mode::Exact)
        return;
    if (fp == 0)
        fp = 1;  // mirror insert()'s empty-sentinel remap
    const size_t i = startIndex(fp);
    const size_t base = i & ~size_t{7};
    unsigned empty;
    const unsigned eq =
        matchMask8(fps_.data() + base, fp, empty) & (~0u << (i & 7));
#if defined(__GNUC__) || defined(__clang__)
    if (eq) {
        const uint64_t ref = refs_[base + static_cast<unsigned>(
                                              std::countr_zero(eq))];
        __builtin_prefetch(arena_.at(ref >> 16), 0, 1);
    }
#else
    (void)eq;
#endif
}

bool
StateTable::insert(uint64_t fp, const char *data, uint32_t len)
{
    HG_ASSERT(mode_ == Mode::Exact, "insert() needs exact mode");
    HG_ASSERT(len <= 0xffff, "encoding too long for packed ref");
    if (fp == 0)
        fp = 1;  // 0 marks empty slots; bytes still decide equality
    if (overloaded(size_, fps_.size()))
        grow(fps_.size() ? fps_.size() * 2 : 64);
    const size_t mask = fps_.size() - 1;
    size_t i = startIndex(fp);
    for (;;) {
        const size_t base = i & ~size_t{7};
        unsigned empty;
        unsigned eq = matchMask8(fps_.data() + base, fp, empty);
        const unsigned live = ~0u << (i & 7);
        eq &= live;
        empty &= live;
        if (empty) {
            // A match can only live before the first empty slot.
            eq &= (1u << std::countr_zero(empty)) - 1;
        }
        while (eq) {
            unsigned k = static_cast<unsigned>(std::countr_zero(eq));
            eq &= eq - 1;
            uint64_t ref = refs_[base + k];
            if ((ref & 0xffff) == len &&
                std::memcmp(arena_.at(ref >> 16), data, len) == 0)
                return false;
        }
        if (empty) {
            size_t j =
                base + static_cast<unsigned>(std::countr_zero(empty));
            fps_[j] = fp;
            refs_[j] = (arena_.append(data, len) << 16) | len;
            ++size_;
            return true;
        }
        i = (base + 8) & mask;
    }
}

bool
StateTable::containsExact(uint64_t fp, const char *data,
                          uint32_t len) const
{
    HG_ASSERT(mode_ == Mode::Exact, "containsExact() needs exact mode");
    if (fps_.empty())
        return false;
    if (fp == 0)
        fp = 1;  // mirror insert()'s empty-sentinel remap
    const size_t mask = fps_.size() - 1;
    size_t i = startIndex(fp);
    for (;;) {
        const size_t base = i & ~size_t{7};
        unsigned empty;
        unsigned eq = matchMask8(fps_.data() + base, fp, empty);
        const unsigned live = ~0u << (i & 7);
        eq &= live;
        empty &= live;
        if (empty)
            eq &= (1u << std::countr_zero(empty)) - 1;
        while (eq) {
            unsigned k = static_cast<unsigned>(std::countr_zero(eq));
            eq &= eq - 1;
            uint64_t ref = refs_[base + k];
            if ((ref & 0xffff) == len &&
                std::memcmp(arena_.at(ref >> 16), data, len) == 0)
                return true;
        }
        if (empty)
            return false;
        i = (base + 8) & mask;
    }
}

bool
StateTable::insertHash(uint64_t fp)
{
    HG_ASSERT(mode_ == Mode::Hashes, "insertHash() needs hash mode");
    if (fp == 0) {
        if (hasZero_)
            return false;
        hasZero_ = true;
        ++size_;
        return true;
    }
    if (overloaded(size_, fps_.size()))
        grow(fps_.size() ? fps_.size() * 2 : 64);
    const size_t mask = fps_.size() - 1;
    size_t i = startIndex(fp);
    for (;;) {
        const size_t base = i & ~size_t{7};
        unsigned empty;
        unsigned eq = matchMask8(fps_.data() + base, fp, empty);
        const unsigned live = ~0u << (i & 7);
        eq &= live;
        empty &= live;
        if (empty)
            eq &= (1u << std::countr_zero(empty)) - 1;
        if (eq)
            return false;
        if (empty) {
            fps_[base +
                 static_cast<unsigned>(std::countr_zero(empty))] = fp;
            ++size_;
            return true;
        }
        i = (base + 8) & mask;
    }
}

uint64_t
StateTable::memoryBytes() const
{
    uint64_t slots = fps_.capacity() * sizeof(uint64_t) +
                     refs_.capacity() * sizeof(uint64_t);
    return sizeof(*this) + slots + arena_.allocatedBytes();
}

} // namespace hieragen::verif
