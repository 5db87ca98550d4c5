/**
 * @file
 * The 64-bit word-at-a-time hash behind state fingerprints, hash
 * compaction signatures and the seals of spill segments and
 * checkpoints.
 *
 * Each round consumes one little-endian 8-byte word (MurmurHash3's
 * x64 word mix: the word is scrambled by two multiplies that do not
 * depend on the running state, so consecutive words pipeline; the
 * state takes one rotate, multiply-by-5 and add per word). A final
 * partial word is zero-extended; the byte length is folded in before
 * MurmurHash3's fmix64 finalizer, which gives full avalanche: every
 * input bit flips each output bit with probability ~1/2. Full
 * avalanche matters because the checker uses the low bits to pick a
 * visited-set shard and the whole value as a Stern–Dill signature.
 *
 * Hasher64 computes the same value incrementally, for data that
 * arrives in pieces of any size.
 */

#ifndef HIERAGEN_UTIL_HASH_HH
#define HIERAGEN_UTIL_HASH_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hieragen::util
{

namespace hash_detail
{

inline uint64_t
mixWord(uint64_t k)
{
    k *= 0x87c37b91114253d5ull;
    k = std::rotl(k, 31);
    return k * 0x4cf5ad432745937full;
}

inline uint64_t
absorb(uint64_t h, uint64_t word)
{
    h ^= mixWord(word);
    return std::rotl(h, 27) * 5 + 0x52dce729;
}

inline uint64_t
finish(uint64_t h, const unsigned char *tail, size_t tail_len,
       uint64_t total_len)
{
    if (tail_len) {
        uint64_t k = 0;
        for (size_t i = 0; i < tail_len; ++i)
            k |= static_cast<uint64_t>(tail[i]) << (8 * i);
        h ^= mixWord(k);
    }
    h ^= total_len;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    return h ^ (h >> 33);
}

inline uint64_t
load64(const unsigned char *p)
{
    uint64_t w;
    std::memcpy(&w, p, 8);
    if constexpr (std::endian::native == std::endian::big)
        w = __builtin_bswap64(w);
    return w;
}

} // namespace hash_detail

/** Hash @p data[0, len) with @p seed. */
inline uint64_t
hash64(const void *data, size_t len, uint64_t seed = 0)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t h = seed;
    size_t i = 0;
    for (; i + 8 <= len; i += 8)
        h = hash_detail::absorb(h, hash_detail::load64(p + i));
    return hash_detail::finish(h, p + i, len - i, len);
}

/** Streaming hash64: update() with the data in any number of pieces,
 *  then digest() equals hash64 of their concatenation. */
class Hasher64
{
  public:
    explicit Hasher64(uint64_t seed = 0) : h_(seed) {}

    void
    update(const void *data, size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        total_ += len;
        if (tailLen_) {
            size_t take = len < 8 - tailLen_ ? len : 8 - tailLen_;
            std::memcpy(tail_ + tailLen_, p, take);
            tailLen_ += take;
            p += take;
            len -= take;
            if (tailLen_ < 8)
                return;
            h_ = hash_detail::absorb(h_, hash_detail::load64(tail_));
            tailLen_ = 0;
        }
        for (; len >= 8; p += 8, len -= 8)
            h_ = hash_detail::absorb(h_, hash_detail::load64(p));
        std::memcpy(tail_, p, len);
        tailLen_ = len;
    }

    uint64_t
    digest() const
    {
        return hash_detail::finish(h_, tail_, tailLen_, total_);
    }

  private:
    uint64_t h_;
    uint64_t total_ = 0;
    unsigned char tail_[8] = {};
    size_t tailLen_ = 0;
};

} // namespace hieragen::util

#endif // HIERAGEN_UTIL_HASH_HH
