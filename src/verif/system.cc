#include "verif/system.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <sstream>

#include "fsm/printer.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace hieragen::verif
{

namespace
{

/** Cap on exact group enumeration: |H|!·|L|! beyond this falls back
 *  to the sorted-orbit heuristic (still sound, weaker reduction). */
constexpr uint64_t kMaxEnumPerms = 1024;

/** Derive the packed-encoding field widths from the instantiated
 *  machines and message table. Widths cover value + 1 so the -1
 *  sentinels (kNoNode, kNoState) pack as 0. */
void
finalizeEncoding(System &sys)
{
    size_t maxStates = 1;
    for (const auto &n : sys.nodes)
        maxStates = std::max(maxStates, n.machine->numStates());
    sys.enc.stateBits = static_cast<uint8_t>(std::bit_width(maxStates));
    sys.enc.nodeBits =
        static_cast<uint8_t>(std::bit_width(sys.nodes.size()));
    sys.enc.typeBits =
        static_cast<uint8_t>(std::bit_width(sys.msgs->size()));
    sys.enc.sharerBits = static_cast<uint8_t>(sys.nodes.size());
    // Zero-message upper bound, rounded up to whole bytes: per block
    // state + 2 flag bits + 5 byte-wide fields + TBE node refs +
    // sharers + owner, then budgets and the ghost byte.
    uint64_t blockBits = sys.enc.stateBits + 2 + 5 * 8 +
                         3 * sys.enc.nodeBits + sys.enc.sharerBits;
    uint64_t bits =
        blockBits * sys.nodes.size() + 8 * sys.leafCaches.size() + 8;
    sys.enc.maxBytes = static_cast<uint32_t>((bits + 7) / 8);
}

/** Enumerate the composite symmetry group once (identity excluded)
 *  when it is small enough for exact canonicalization. */
void
enumerateSymPerms(System &sys)
{
    uint64_t numPerms = 1;
    for (const auto &cls : sys.symClasses) {
        for (size_t k = 2; k <= cls.size() && numPerms <= kMaxEnumPerms;
             ++k) {
            numPerms *= k;
        }
        if (numPerms > kMaxEnumPerms)
            return;  // too large: heuristic fallback, symPerms empty
    }
    std::vector<std::vector<NodeId>> arrangement(sys.symClasses.begin(),
                                                 sys.symClasses.end());
    std::vector<NodeId> perm(sys.nodes.size());
    for (;;) {
        // Odometer step over per-class permutations; next_permutation
        // wrapping back to sorted carries into the next class.
        size_t c = 0;
        while (c < arrangement.size() &&
               !std::next_permutation(arrangement[c].begin(),
                                      arrangement[c].end())) {
            ++c;
        }
        if (c == arrangement.size())
            break;  // cycled through every composite permutation
        for (size_t i = 0; i < perm.size(); ++i)
            perm[i] = static_cast<NodeId>(i);
        for (size_t ci = 0; ci < sys.symClasses.size(); ++ci) {
            const auto &cls = sys.symClasses[ci];
            for (size_t k = 0; k < cls.size(); ++k)
                perm[static_cast<size_t>(cls[k])] = arrangement[ci][k];
        }
        sys.symPerms.push_back(perm);
    }
}

/** Fill in leafIndex and register one symmetry class per group of
 *  >= 2 interchangeable nodes (all members share one Machine and one
 *  parent by construction of the builders), then derive the packed
 *  encoding layout and precompute the symmetry group. */
void
finalizeSymmetry(System &sys,
                 std::initializer_list<std::pair<NodeId, NodeId>> groups)
{
    sys.leafIndex.assign(sys.nodes.size(), -1);
    for (size_t li = 0; li < sys.leafCaches.size(); ++li)
        sys.leafIndex[sys.leafCaches[li]] = static_cast<int32_t>(li);
    for (auto [first, last] : groups) {
        if (last - first + 1 < 2)
            continue;
        std::vector<NodeId> cls;
        for (NodeId n = first; n <= last; ++n)
            cls.push_back(n);
        sys.symClasses.push_back(std::move(cls));
    }
    finalizeEncoding(sys);
    enumerateSymPerms(sys);
}

/**
 * Canonical FIFO rank within each (src, dst) channel: the raw seq
 * depends on send history and would break deduplication, so the
 * encodings store the channel-relative rank instead. Counting beats
 * sorting at realistic in-flight message counts (a handful per
 * state), so the quadratic pass is the fast path; the sort handles
 * pathologically deep networks.
 */
void
computeRanks(const std::vector<Msg> &msgs, std::vector<uint32_t> &order,
             std::vector<uint8_t> &ranks)
{
    const size_t nm = msgs.size();
    ranks.resize(nm);
    if (nm <= 24) {
        for (size_t i = 0; i < nm; ++i) {
            const Msg &m = msgs[i];
            uint8_t rank = 0;
            for (size_t j = 0; j < nm; ++j) {
                const Msg &o = msgs[j];
                rank += o.src == m.src && o.dst == m.dst &&
                        o.seq < m.seq;
            }
            ranks[i] = rank;
        }
        return;
    }
    order.resize(nm);
    for (uint32_t i = 0; i < nm; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        const Msg &x = msgs[a];
        const Msg &y = msgs[b];
        return std::tie(x.src, x.dst, x.seq) <
               std::tie(y.src, y.dst, y.seq);
    });
    for (size_t k = 0; k < nm; ++k) {
        const Msg &m = msgs[order[k]];
        uint8_t rank = 0;
        if (k > 0) {
            const Msg &prev = msgs[order[k - 1]];
            if (prev.src == m.src && prev.dst == m.dst)
                rank = static_cast<uint8_t>(ranks[order[k - 1]] + 1);
        }
        ranks[order[k]] = rank;
    }
}

} // namespace

System
buildFlatSystem(const Protocol &p, int num_caches)
{
    HG_ASSERT(num_caches >= 1 && num_caches <= 28,
              "flat system supports 1..28 caches");
    System sys;
    sys.msgs = &p.msgs;

    NodeCtx dir;
    dir.id = 0;
    dir.machine = &p.directory;
    dir.parent = kNoNode;
    dir.leafCache = false;
    sys.nodes.push_back(dir);

    for (int i = 0; i < num_caches; ++i) {
        NodeCtx c;
        c.id = static_cast<NodeId>(1 + i);
        c.machine = &p.cache;
        c.parent = 0;
        c.leafCache = true;
        sys.nodes.push_back(c);
        sys.leafCaches.push_back(c.id);
    }
    finalizeSymmetry(
        sys, {{1, static_cast<NodeId>(num_caches)}});
    return sys;
}

System
buildHierSystem(const HierProtocol &p, int num_cache_h, int num_cache_l)
{
    HG_ASSERT(num_cache_h >= 1 && num_cache_l >= 1 &&
                  num_cache_h + num_cache_l <= 26,
              "hierarchical system size out of range");
    System sys;
    sys.msgs = &p.msgs;

    NodeCtx root;
    root.id = 0;
    root.machine = &p.root;
    root.parent = kNoNode;
    root.level = Level::Higher;
    sys.nodes.push_back(root);

    for (int i = 0; i < num_cache_h; ++i) {
        NodeCtx c;
        c.id = static_cast<NodeId>(1 + i);
        c.machine = &p.cacheH;
        c.parent = 0;
        c.leafCache = true;
        c.level = Level::Higher;
        sys.nodes.push_back(c);
        sys.leafCaches.push_back(c.id);
    }

    NodeCtx dc;
    dc.id = static_cast<NodeId>(1 + num_cache_h);
    dc.machine = &p.dirCache;
    dc.parent = 0;
    dc.leafCache = false;
    dc.level = Level::Lower;
    sys.nodes.push_back(dc);

    for (int i = 0; i < num_cache_l; ++i) {
        NodeCtx c;
        c.id = static_cast<NodeId>(2 + num_cache_h + i);
        c.machine = &p.cacheL;
        c.parent = dc.id;
        c.leafCache = true;
        c.level = Level::Lower;
        sys.nodes.push_back(c);
        sys.leafCaches.push_back(c.id);
    }
    finalizeSymmetry(
        sys,
        {{1, static_cast<NodeId>(num_cache_h)},
         {static_cast<NodeId>(2 + num_cache_h),
          static_cast<NodeId>(1 + num_cache_h + num_cache_l)}});
    return sys;
}

void
SysState::insertMsg(const Msg &m)
{
    Msg msg = m;
    auto cmp = [](const Msg &a, const Msg &b) {
        return std::tie(a.type, a.src, a.dst, a.requestor, a.epoch,
                        a.ackCount, a.hasData, a.data) <
               std::tie(b.type, b.src, b.dst, b.requestor, b.epoch,
                        b.ackCount, b.hasData, b.data);
    };
    // Single sweep: the FIFO position on the (src, dst) channel (one
    // past the newest) and the sorted insertion point. cmp ignores
    // seq, so the position is valid before seq is assigned.
    int32_t max_seq = -1;
    size_t pos = msgs.size();
    for (size_t i = 0; i < msgs.size(); ++i) {
        const Msg &other = msgs[i];
        if (other.src == msg.src && other.dst == msg.dst)
            max_seq = std::max(max_seq, other.seq);
        if (pos == msgs.size() && cmp(msg, other))
            pos = i;
    }
    msg.seq = max_seq + 1;
    msgs.insert(msgs.begin() + static_cast<ptrdiff_t>(pos), msg);
}

bool
SysState::deliverable(const MsgTypeTable &types, size_t index) const
{
    const Msg &m = msgs[index];
    if (!onOrderedVnet(types, m))
        return true;
    // Ordered forwarding network: only the oldest ordered message on
    // this (src, dst) channel may be delivered.
    for (size_t i = 0; i < msgs.size(); ++i) {
        if (i == index)
            continue;
        const Msg &o = msgs[i];
        if (o.src == m.src && o.dst == m.dst && o.seq < m.seq &&
            onOrderedVnet(types, o)) {
            return false;
        }
    }
    return true;
}

void
SysState::deliverableMask(const MsgTypeTable &types,
                          std::vector<char> &mask) const
{
    mask.assign(msgs.size(), 1);
    // Head seq per ordered (src, dst) channel. The handful of live
    // channels is tiny, so a flat scratch list beats any hash map.
    struct Head
    {
        NodeId src, dst;
        int32_t minSeq;
    };
    Head heads[16];
    size_t numHeads = 0;
    std::vector<Head> spill;  // only if >16 channels are live
    auto findHead = [&](const Msg &m) -> Head & {
        for (size_t i = 0; i < numHeads; ++i) {
            if (heads[i].src == m.src && heads[i].dst == m.dst)
                return heads[i];
        }
        for (Head &h : spill) {
            if (h.src == m.src && h.dst == m.dst)
                return h;
        }
        if (numHeads < 16) {
            heads[numHeads] = {m.src, m.dst, m.seq};
            return heads[numHeads++];
        }
        spill.push_back({m.src, m.dst, m.seq});
        return spill.back();
    };
    for (const Msg &m : msgs) {
        if (!onOrderedVnet(types, m))
            continue;
        Head &h = findHead(m);
        h.minSeq = std::min(h.minSeq, m.seq);
    }
    for (size_t i = 0; i < msgs.size(); ++i) {
        const Msg &m = msgs[i];
        if (!onOrderedVnet(types, m))
            continue;
        mask[i] = findHead(m).minSeq == m.seq ? 1 : 0;
    }
}

void
SysState::serialize(std::string &out, const SysState &st)
{
    auto put8 = [&](uint8_t v) { out.push_back(static_cast<char>(v)); };
    auto put32 = [&](uint32_t v) {
        for (int i = 0; i < 4; ++i)
            put8(static_cast<uint8_t>(v >> (8 * i)));
    };
    auto putI32 = [&](int32_t v) { put32(static_cast<uint32_t>(v)); };

    put32(static_cast<uint32_t>(st.blocks.size()));
    for (const BlockState &b : st.blocks) {
        putI32(b.state);
        put8(b.hasData);
        put8(b.data);
        put8(static_cast<uint8_t>(b.tbe.ackCtr));
        put8(b.tbe.countReceived);
        putI32(b.tbe.savedRequestor);
        putI32(b.tbe.savedLower);
        put8(static_cast<uint8_t>(b.tbe.savedAckCount));
        put8(static_cast<uint8_t>(b.tbe.stashedCtr));
        put8(b.tbe.stashedRecv);
        put32(b.sharers);
        putI32(b.owner);
    }
    put32(static_cast<uint32_t>(st.msgs.size()));
    for (const Msg &m : st.msgs) {
        putI32(m.type);
        putI32(m.src);
        putI32(m.dst);
        putI32(m.requestor);
        put8(static_cast<uint8_t>(m.epoch));
        putI32(m.ackCount);
        put8(m.hasData);
        put8(m.data);
        putI32(m.seq);
        putI32(m.addr);
    }
    put8(st.ghost);
    put32(static_cast<uint32_t>(st.budget.size()));
    for (uint8_t b : st.budget)
        put8(b);
}

bool
SysState::deserialize(const char *data, size_t size, size_t &pos,
                      SysState &st)
{
    bool ok = true;
    auto need = [&](size_t n) {
        if (!ok || size - pos < n) {
            ok = false;
            return false;
        }
        return true;
    };
    auto get8 = [&]() -> uint8_t {
        if (!need(1))
            return 0;
        return static_cast<uint8_t>(data[pos++]);
    };
    auto get32 = [&]() -> uint32_t {
        if (!need(4))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(
                     static_cast<uint8_t>(data[pos + i]))
                 << (8 * i);
        pos += 4;
        return v;
    };
    auto getI32 = [&]() -> int32_t {
        return static_cast<int32_t>(get32());
    };

    uint32_t nblocks = get32();
    if (!need(nblocks * 23ull))
        return false;
    st.blocks.resize(nblocks);
    for (BlockState &b : st.blocks) {
        b.state = getI32();
        b.hasData = get8() != 0;
        b.data = get8();
        b.tbe.ackCtr = static_cast<int8_t>(get8());
        b.tbe.countReceived = get8() != 0;
        b.tbe.savedRequestor = getI32();
        b.tbe.savedLower = getI32();
        b.tbe.savedAckCount = static_cast<int8_t>(get8());
        b.tbe.stashedCtr = static_cast<int8_t>(get8());
        b.tbe.stashedRecv = get8() != 0;
        b.sharers = get32();
        b.owner = getI32();
    }
    uint32_t nmsgs = get32();
    if (!need(nmsgs * 28ull))
        return false;
    st.msgs.resize(nmsgs);
    for (Msg &m : st.msgs) {
        m.type = getI32();
        m.src = getI32();
        m.dst = getI32();
        m.requestor = getI32();
        m.epoch = static_cast<FwdEpoch>(get8());
        m.ackCount = getI32();
        m.hasData = get8() != 0;
        m.data = get8();
        m.seq = getI32();
        m.addr = getI32();
    }
    st.ghost = get8();
    uint32_t nbudget = get32();
    if (!need(nbudget))
        return false;
    st.budget.resize(nbudget);
    std::memcpy(st.budget.data(), data + pos, nbudget);
    pos += nbudget;
    return ok;
}

void
SysState::removeMsg(size_t index)
{
    HG_ASSERT(index < msgs.size(), "removeMsg out of range");
    // Msg is trivially copyable, so the tail shift compiles down to
    // one memmove; the sorted-multiset invariant (cmp order, ties in
    // seq order) is untouched by erasing an element.
    msgs.erase(msgs.begin() + static_cast<ptrdiff_t>(index));
}

void
SysState::assignWithoutMsg(const SysState &src, size_t index)
{
    HG_ASSERT(index < src.msgs.size(), "assignWithoutMsg out of range");
    blocks = src.blocks;
    ghost = src.ghost;
    budget = src.budget;
    // One pass over the survivors instead of copy-then-middle-erase:
    // two block copies around the gap (memmove for trivially copyable
    // Msg), never materializing the dropped message. resize + copy
    // rather than clear + insert: both copies inline to memmove with
    // no per-call capacity checks, and in the checker's delivery loop
    // the destination usually already has the right size, making
    // resize() free.
    const auto *s = src.msgs.data();
    msgs.resize(src.msgs.size() - 1);
    std::copy_n(s, index, msgs.data());
    std::copy(s + index + 1, s + src.msgs.size(), msgs.data() + index);
}

std::string
SysState::encode() const
{
    std::string out;
    encodeTo(out);
    return out;
}

void
SysState::encodeTo(std::string &out) const
{
    out.clear();
    // 16 bytes per block, 9 per message (plus 1 rank byte), budgets,
    // ghost — sized so the hot loop never reallocates.
    out.reserve(blocks.size() * 16 + msgs.size() * 10 + budget.size() +
                1);
    auto put8 = [&](uint8_t v) { out.push_back(static_cast<char>(v)); };
    auto put16 = [&](uint16_t v) {
        put8(static_cast<uint8_t>(v & 0xff));
        put8(static_cast<uint8_t>(v >> 8));
    };
    auto put32 = [&](uint32_t v) {
        put16(static_cast<uint16_t>(v & 0xffff));
        put16(static_cast<uint16_t>(v >> 16));
    };
    for (const auto &b : blocks) {
        put16(static_cast<uint16_t>(b.state + 1));
        put8(b.hasData);
        put8(b.data);
        put8(static_cast<uint8_t>(b.tbe.ackCtr + 64));
        put8(b.tbe.countReceived);
        put8(static_cast<uint8_t>(b.tbe.savedRequestor + 1));
        put8(static_cast<uint8_t>(b.tbe.savedLower + 1));
        put8(static_cast<uint8_t>(b.tbe.savedAckCount + 64));
        put8(static_cast<uint8_t>(b.tbe.stashedCtr + 64));
        put8(b.tbe.stashedRecv);
        put32(b.sharers);
        put8(static_cast<uint8_t>(b.owner + 1));
    }
    // Scratch vectors are thread-local so parallel workers don't
    // allocate per call.
    static thread_local std::vector<uint32_t> order;
    static thread_local std::vector<uint8_t> ranks;
    computeRanks(msgs, order, ranks);
    const size_t nm = msgs.size();
    for (size_t i = 0; i < nm; ++i) {
        const Msg &m = msgs[i];
        put16(static_cast<uint16_t>(m.type + 1));
        put8(static_cast<uint8_t>(m.src + 1));
        put8(static_cast<uint8_t>(m.dst + 1));
        put8(static_cast<uint8_t>(m.requestor + 1));
        put8(static_cast<uint8_t>(m.epoch));
        put8(static_cast<uint8_t>(m.ackCount + 64));
        put8(m.hasData);
        put8(m.data);
        put8(ranks[i]);
    }
    for (uint8_t b : budget)
        put8(b);
    put8(ghost);
}

namespace
{

/** Little-endian bit accumulator writing straight into a pre-sized
 *  buffer (the caller guarantees capacity, so the hot path has no
 *  bounds checks), draining four bytes at a time. Safe for fields up
 *  to 32 bits: the residue never exceeds 31 bits before a put, so
 *  31 + 32 < 64 never overflows the accumulator. flush() may write
 *  up to 4 bytes of zero padding past the logical end — size the
 *  buffer with that slack. */
struct BitWriter
{
    char *p;
    uint64_t acc = 0;
    unsigned nbits = 0;

    explicit BitWriter(char *dst) : p(dst) {}

    void
    put(uint64_t v, unsigned bits)
    {
        acc |= (v & ((uint64_t{1} << bits) - 1)) << nbits;
        nbits += bits;
        if (nbits >= 32) {
            uint32_t word = static_cast<uint32_t>(acc);
            std::memcpy(p, &word, 4);
            p += 4;
            acc >>= 32;
            nbits -= 32;
        }
    }

    void
    flush()
    {
        uint32_t word = static_cast<uint32_t>(acc);
        std::memcpy(p, &word, 4);
        p += (nbits + 7) / 8;
        acc = 0;
        nbits = 0;
    }
};

/** Packing body shared by encodeTo() and the orbit walk: emit the
 *  bit-packed encoding of @p st using precomputed per-message
 *  @p ranks (canonicalizeImpl computes ranks once per state — they
 *  are permutation-invariant — and reuses them for every orbit
 *  image). */
void
packEncode(const SysState &st, const System &sys, std::string &out,
           const uint8_t *ranks)
{
    HG_ASSERT(sys.enc.valid(), "System lacks an encoding layout");
    const EncodingLayout &L = sys.enc;
    // Pre-size once (4 bytes of flush slack) and write through a raw
    // pointer; the trailing resize trims to the bytes produced.
    out.resize(L.maxBytes + st.msgs.size() * 8 + 4);
    BitWriter w(out.data());
    // Adjacent fields are merged into single puts — the bit layout is
    // identical to emitting them one by one (little-endian, in order).
    for (const auto &b : st.blocks) {
        w.put(static_cast<uint64_t>(b.state + 1), L.stateBits);
        w.put(static_cast<uint64_t>(b.hasData) |
                  static_cast<uint64_t>(b.data) << 1 |
                  static_cast<uint64_t>(
                      static_cast<uint8_t>(b.tbe.ackCtr))
                      << 9 |
                  static_cast<uint64_t>(b.tbe.countReceived) << 17,
              18);
        w.put(static_cast<uint64_t>(b.tbe.savedRequestor + 1) |
                  static_cast<uint64_t>(b.tbe.savedLower + 1)
                      << L.nodeBits,
              2u * L.nodeBits);
        w.put(static_cast<uint64_t>(
                  static_cast<uint8_t>(b.tbe.savedAckCount)) |
                  static_cast<uint64_t>(
                      static_cast<uint8_t>(b.tbe.stashedCtr))
                      << 8 |
                  static_cast<uint64_t>(b.tbe.stashedRecv) << 16,
              17);
        w.put(b.sharers, L.sharerBits);
        w.put(static_cast<uint64_t>(b.owner + 1), L.nodeBits);
    }
    for (size_t i = 0; i < st.msgs.size(); ++i) {
        const Msg &m = st.msgs[i];
        w.put(static_cast<uint64_t>(m.type + 1) |
                  static_cast<uint64_t>(m.src + 1) << L.typeBits |
                  static_cast<uint64_t>(m.dst + 1)
                      << (L.typeBits + L.nodeBits) |
                  static_cast<uint64_t>(m.requestor + 1)
                      << (L.typeBits + 2u * L.nodeBits),
              L.typeBits + 3u * L.nodeBits);
        w.put(static_cast<uint64_t>(m.epoch) |
                  static_cast<uint64_t>(
                      static_cast<uint8_t>(m.ackCount))
                      << 2 |
                  static_cast<uint64_t>(m.hasData) << 10 |
                  static_cast<uint64_t>(m.data) << 11 |
                  static_cast<uint64_t>(ranks[i]) << 19,
              27);
    }
    size_t bi = 0;
    for (; bi + 4 <= st.budget.size(); bi += 4) {
        w.put(static_cast<uint64_t>(st.budget[bi]) |
                  static_cast<uint64_t>(st.budget[bi + 1]) << 8 |
                  static_cast<uint64_t>(st.budget[bi + 2]) << 16 |
                  static_cast<uint64_t>(st.budget[bi + 3]) << 24,
              32);
    }
    for (; bi < st.budget.size(); ++bi)
        w.put(st.budget[bi], 8);
    w.put(st.ghost, 8);
    w.flush();
    out.resize(static_cast<size_t>(w.p - out.data()));
}

} // namespace

void
SysState::encodeTo(const System &sys, std::string &out,
                   EncodeScratch &sc) const
{
    computeRanks(msgs, sc.order, sc.ranks);
    packEncode(*this, sys, out, sc.ranks.data());
}

namespace
{

/** Little-endian bit reader, the inverse of BitWriter. The caller
 *  checks the record length against the layout first. A field is
 *  read from the 8-byte window at its first byte, assembled byte by
 *  byte near the end of the record, so no read leaves
 *  [data, data + len). Fields are at most 57 bits wide. */
struct BitReader
{
    const uint8_t *data;
    size_t len;
    uint64_t pos = 0;  ///< bit offset of the next field

    BitReader(const char *d, size_t n)
        : data(reinterpret_cast<const uint8_t *>(d)), len(n)
    {
    }

    uint64_t
    get(unsigned bits)
    {
        const size_t byte = static_cast<size_t>(pos >> 3);
        uint64_t word = 0;
        if (len - byte >= 8) {
            std::memcpy(&word, data + byte, 8);
        } else {
            for (size_t i = byte; i < len; ++i)
                word |= static_cast<uint64_t>(data[i]) << (8 * (i - byte));
        }
        const uint64_t v =
            (word >> (pos & 7)) & ((uint64_t{1} << bits) - 1);
        pos += bits;
        return v;
    }
};

} // namespace

bool
SysState::decodeFrom(const System &sys, const char *data, size_t len)
{
    HG_ASSERT(sys.enc.valid(), "System lacks an encoding layout");
    const EncodingLayout &L = sys.enc;
    const auto numNodes = static_cast<NodeId>(sys.nodes.size());
    const size_t numLeaves = sys.leafCaches.size();
    // The bit widths packEncode() writes: a record is the blocks, the
    // messages, the budgets and the ghost, padded to whole bytes. A
    // message is wider than a byte, so the length fixes its count.
    const uint64_t blockBits =
        L.stateBits + 18u + 3u * L.nodeBits + 17u + L.sharerBits;
    const uint64_t msgBits = L.typeBits + 3u * L.nodeBits + 27u;
    const uint64_t fixedBits =
        blockBits * sys.nodes.size() + 8 * numLeaves + 8;
    const uint64_t have = uint64_t{len} * 8;
    if (have < fixedBits)
        return false;
    const uint64_t numMsgs = (have - fixedBits) / msgBits;
    const uint64_t usedBits = fixedBits + numMsgs * msgBits;
    if ((usedBits + 7) / 8 != len)
        return false;

    // Each get() reads adjacent packEncode() fields at once; ids and
    // states are stored as value + 1.
    BitReader r(data, len);
    const uint64_t nodeMask = (uint64_t{1} << L.nodeBits) - 1;
    auto nodeId = [&](uint64_t v) {
        return static_cast<NodeId>(v & nodeMask) - 1;
    };
    bool ok = true;
    blocks.resize(sys.nodes.size());
    for (size_t n = 0; n < blocks.size(); ++n) {
        BlockState &b = blocks[n];
        uint64_t f = r.get(L.stateBits + 18u);
        b.state = static_cast<StateId>(
                      f & ((uint64_t{1} << L.stateBits) - 1)) -
                  1;
        f >>= L.stateBits;
        b.hasData = f & 1;
        b.data = static_cast<uint8_t>(f >> 1);
        b.tbe.ackCtr = static_cast<int8_t>(static_cast<uint8_t>(f >> 9));
        b.tbe.countReceived = (f >> 17) & 1;
        f = r.get(2u * L.nodeBits + 17u);
        b.tbe.savedRequestor = nodeId(f);
        b.tbe.savedLower = nodeId(f >> L.nodeBits);
        f >>= 2u * L.nodeBits;
        b.tbe.savedAckCount = static_cast<int8_t>(static_cast<uint8_t>(f));
        b.tbe.stashedCtr =
            static_cast<int8_t>(static_cast<uint8_t>(f >> 8));
        b.tbe.stashedRecv = (f >> 16) & 1;
        f = r.get(L.sharerBits + L.nodeBits);
        b.sharers = static_cast<uint32_t>(
            f & ((uint64_t{1} << L.sharerBits) - 1));
        b.owner = nodeId(f >> L.sharerBits);
        ok &= b.state <
                  static_cast<StateId>(sys.nodes[n].machine->numStates()) &&
              b.tbe.savedRequestor < numNodes &&
              b.tbe.savedLower < numNodes && b.owner < numNodes;
    }
    msgs.resize(static_cast<size_t>(numMsgs));
    const auto numTypes = static_cast<MsgTypeId>(sys.msgs->size());
    for (Msg &m : msgs) {
        uint64_t f = r.get(L.typeBits + 3u * L.nodeBits);
        m.type = static_cast<MsgTypeId>(
                     f & ((uint64_t{1} << L.typeBits) - 1)) -
                 1;
        f >>= L.typeBits;
        m.src = nodeId(f);
        m.dst = nodeId(f >> L.nodeBits);
        m.requestor = nodeId(f >> (2u * L.nodeBits));
        f = r.get(27);
        m.epoch = static_cast<FwdEpoch>(f & 3);
        m.ackCount = static_cast<int8_t>(static_cast<uint8_t>(f >> 2));
        m.hasData = (f >> 10) & 1;
        m.data = static_cast<uint8_t>(f >> 11);
        m.seq = static_cast<int32_t>((f >> 19) & 0xff);
        m.addr = 0;
        ok &= m.type >= 0 && m.type < numTypes && m.src >= 0 &&
              m.src < numNodes && m.dst >= 0 && m.dst < numNodes &&
              m.requestor < numNodes &&
              (f & 3) <= static_cast<uint64_t>(FwdEpoch::Future);
    }
    budget.resize(numLeaves);
    size_t bi = 0;
    for (; bi + 4 <= numLeaves; bi += 4) {
        uint64_t f = r.get(32);
        for (size_t k = 0; k < 4; ++k)
            budget[bi + k] = static_cast<uint8_t>(f >> (8 * k));
    }
    for (; bi < numLeaves; ++bi)
        budget[bi] = static_cast<uint8_t>(r.get(8));
    ghost = static_cast<uint8_t>(r.get(8));
    return ok && r.get(static_cast<unsigned>(have - usedBits)) == 0;
}

namespace
{

/**
 * Apply a node renaming to a whole state: permute the block and
 * budget slots, rename every NodeId stored inside blocks (owner, TBE
 * requestors, the sharers bitmask) and messages (src/dst/requestor),
 * and re-establish the sorted-multiset message order. Per-channel
 * FIFO seq values are carried over verbatim: a permutation maps each
 * (src, dst) channel onto another channel wholesale, so the relative
 * seq order within every channel — the only thing the encoding's
 * canonical ranks depend on — is preserved. When @p ranks is
 * non-null it holds src's per-message canonical ranks (which are
 * permutation-invariant, by the same argument) and is co-sorted into
 * dst's message order, sparing the caller a recompute per orbit
 * image.
 */
/**
 * Message half of an orbit image: copy @p src into @p dst with every
 * src/dst/requestor renamed through @p perm and the sorted-multiset
 * order re-established. When @p ranks is non-null it holds the
 * permutation-invariant canonical FIFO ranks in src order and is
 * co-sorted into dst order. Shared by applyPerm() and the early-exit
 * orbit encoder (which materializes messages lazily, only for
 * permutations whose block section has not already lost).
 */
void
permuteMsgsInto(const std::vector<NodeId> &perm,
                const std::vector<Msg> &src, std::vector<Msg> &dst,
                uint8_t *ranks)
{
    auto mapId = [&](NodeId id) {
        return id == kNoNode ? kNoNode : perm[static_cast<size_t>(id)];
    };
    dst = src;
    for (Msg &m : dst) {
        m.src = mapId(m.src);
        m.dst = mapId(m.dst);
        m.requestor = mapId(m.requestor);
    }
    // insertMsg's invariant: sorted by the seq-blind key, with equal
    // keys (necessarily same channel) in seq order.
    auto msgLess = [](const Msg &a, const Msg &b) {
        return std::tie(a.type, a.src, a.dst, a.requestor, a.epoch,
                        a.ackCount, a.hasData, a.data, a.seq) <
               std::tie(b.type, b.src, b.dst, b.requestor, b.epoch,
                        b.ackCount, b.hasData, b.data, b.seq);
    };
    if (!ranks) {
        std::sort(dst.begin(), dst.end(), msgLess);
        return;
    }
    // Insertion co-sort of msgs and ranks (message counts are small;
    // std::sort would use insertion sort at these sizes anyway).
    for (size_t i = 1; i < dst.size(); ++i) {
        Msg m = dst[i];
        uint8_t r = ranks[i];
        size_t j = i;
        for (; j > 0 && msgLess(m, dst[j - 1]); --j) {
            dst[j] = dst[j - 1];
            ranks[j] = ranks[j - 1];
        }
        dst[j] = m;
        ranks[j] = r;
    }
}

void
applyPerm(const System &sys, const std::vector<NodeId> &perm,
          const SysState &src, SysState &dst,
          uint8_t *ranks = nullptr)
{
    const size_t n = src.blocks.size();
    auto mapId = [&](NodeId id) {
        return id == kNoNode ? kNoNode : perm[static_cast<size_t>(id)];
    };

    dst.ghost = src.ghost;
    dst.blocks.resize(n);
    for (size_t i = 0; i < n; ++i) {
        BlockState &b = dst.blocks[static_cast<size_t>(perm[i])];
        b = src.blocks[i];
        b.owner = mapId(b.owner);
        b.tbe.savedRequestor = mapId(b.tbe.savedRequestor);
        b.tbe.savedLower = mapId(b.tbe.savedLower);
        uint32_t sh = 0;
        for (uint32_t bits = b.sharers; bits != 0; bits &= bits - 1) {
            sh |= 1u << static_cast<uint32_t>(
                      perm[static_cast<size_t>(std::countr_zero(bits))]);
        }
        b.sharers = sh;
    }

    dst.budget.resize(src.budget.size());
    for (size_t li = 0; li < sys.leafCaches.size(); ++li) {
        NodeId renamed = perm[static_cast<size_t>(sys.leafCaches[li])];
        dst.budget[static_cast<size_t>(sys.leafIndex[renamed])] =
            src.budget[li];
    }

    permuteMsgsInto(perm, src.msgs, dst.msgs, ranks);
}

/**
 * BitWriter variant for the orbit walk: writes the candidate encoding
 * while comparing it word-by-word against the reigning best. Every
 * drained 4-byte word is memcmp'd at the same offset until the
 * candidate either wins (strictly smaller byte — comparison stops,
 * writing continues so the full winner is materialized) or loses
 * (strictly larger byte — the caller aborts the permutation without
 * encoding the rest). Candidate and reference encodings of one orbit
 * always have identical length (same block/message/budget counts), so
 * the prefix-wise compare is exactly the std::string operator< the
 * previous implementation used on fully materialized images.
 */
struct CmpBitWriter
{
    char *p;
    const char *ref;
    uint64_t acc = 0;
    unsigned nbits = 0;
    enum : uint8_t { Tied, Winning, Lost } state = Tied;

    CmpBitWriter(char *dst, const char *best) : p(dst), ref(best) {}

    void
    put(uint64_t v, unsigned bits)
    {
        acc |= (v & ((uint64_t{1} << bits) - 1)) << nbits;
        nbits += bits;
        if (nbits >= 32) {
            uint32_t word = static_cast<uint32_t>(acc);
            std::memcpy(p, &word, 4);
            if (state == Tied) {
                int c = std::memcmp(p, ref, 4);
                if (c != 0)
                    state = c < 0 ? Winning : Lost;
            }
            p += 4;
            ref += 4;
            acc >>= 32;
            nbits -= 32;
        }
    }

    void
    flush()
    {
        uint32_t word = static_cast<uint32_t>(acc);
        std::memcpy(p, &word, 4);
        unsigned tail = (nbits + 7) / 8;
        if (state == Tied && tail != 0) {
            int c = std::memcmp(p, ref, tail);
            if (c != 0)
                state = c < 0 ? Winning : Lost;
        }
        p += tail;
        acc = 0;
        nbits = 0;
    }

    bool lost() const { return state == Lost; }
    bool won() const { return state == Winning; }
};

/**
 * Encode the image of @p st under @p perm directly from the source
 * state — no materialized SysState copy — into @p w, aborting as soon
 * as the comparison against the current best is lost. Blocks stream
 * straight out of st.blocks via the inverse permutation @p pinv with
 * owner/TBE/sharer renames applied on the fly; most losing
 * permutations die here, within the first block or two. Only if the
 * block section survives are the renamed, re-sorted messages (and the
 * permuted budget) materialized into scratch. The bit layout matches
 * packEncode() field for field, so the produced bytes are identical
 * to encoding applyPerm's image.
 */
bool
encodePermImage(const SysState &st, const System &sys,
                const std::vector<NodeId> &perm,
                const std::vector<NodeId> &pinv, EncodeScratch &sc,
                CmpBitWriter &w)
{
    const EncodingLayout &L = sys.enc;
    auto mapId = [&](NodeId id) {
        return id == kNoNode ? kNoNode : perm[static_cast<size_t>(id)];
    };
    const size_t n = st.blocks.size();
    for (size_t k = 0; k < n; ++k) {
        const BlockState &b = st.blocks[static_cast<size_t>(pinv[k])];
        w.put(static_cast<uint64_t>(b.state + 1), L.stateBits);
        w.put(static_cast<uint64_t>(b.hasData) |
                  static_cast<uint64_t>(b.data) << 1 |
                  static_cast<uint64_t>(
                      static_cast<uint8_t>(b.tbe.ackCtr))
                      << 9 |
                  static_cast<uint64_t>(b.tbe.countReceived) << 17,
              18);
        w.put(static_cast<uint64_t>(mapId(b.tbe.savedRequestor) + 1) |
                  static_cast<uint64_t>(mapId(b.tbe.savedLower) + 1)
                      << L.nodeBits,
              2u * L.nodeBits);
        w.put(static_cast<uint64_t>(
                  static_cast<uint8_t>(b.tbe.savedAckCount)) |
                  static_cast<uint64_t>(
                      static_cast<uint8_t>(b.tbe.stashedCtr))
                      << 8 |
                  static_cast<uint64_t>(b.tbe.stashedRecv) << 16,
              17);
        uint32_t sh = 0;
        for (uint32_t bits = b.sharers; bits != 0; bits &= bits - 1) {
            sh |= 1u << static_cast<uint32_t>(
                      perm[static_cast<size_t>(std::countr_zero(bits))]);
        }
        w.put(sh, L.sharerBits);
        w.put(static_cast<uint64_t>(mapId(b.owner) + 1), L.nodeBits);
        if (w.lost())
            return false;
    }

    sc.candRanks.assign(sc.ranks.begin(), sc.ranks.end());
    permuteMsgsInto(perm, st.msgs, sc.candMsgs, sc.candRanks.data());
    for (size_t i = 0; i < sc.candMsgs.size(); ++i) {
        const Msg &m = sc.candMsgs[i];
        w.put(static_cast<uint64_t>(m.type + 1) |
                  static_cast<uint64_t>(m.src + 1) << L.typeBits |
                  static_cast<uint64_t>(m.dst + 1)
                      << (L.typeBits + L.nodeBits) |
                  static_cast<uint64_t>(m.requestor + 1)
                      << (L.typeBits + 2u * L.nodeBits),
              L.typeBits + 3u * L.nodeBits);
        w.put(static_cast<uint64_t>(m.epoch) |
                  static_cast<uint64_t>(
                      static_cast<uint8_t>(m.ackCount))
                      << 2 |
                  static_cast<uint64_t>(m.hasData) << 10 |
                  static_cast<uint64_t>(m.data) << 11 |
                  static_cast<uint64_t>(sc.candRanks[i]) << 19,
              27);
        if (w.lost())
            return false;
    }

    sc.candBudget.resize(st.budget.size());
    for (size_t li = 0; li < sys.leafCaches.size(); ++li) {
        NodeId renamed =
            perm[static_cast<size_t>(sys.leafCaches[li])];
        sc.candBudget[static_cast<size_t>(sys.leafIndex[renamed])] =
            st.budget[li];
    }
    size_t bi = 0;
    for (; bi + 4 <= sc.candBudget.size(); bi += 4) {
        w.put(static_cast<uint64_t>(sc.candBudget[bi]) |
                  static_cast<uint64_t>(sc.candBudget[bi + 1]) << 8 |
                  static_cast<uint64_t>(sc.candBudget[bi + 2]) << 16 |
                  static_cast<uint64_t>(sc.candBudget[bi + 3]) << 24,
              32);
    }
    for (; bi < sc.candBudget.size(); ++bi)
        w.put(sc.candBudget[bi], 8);
    w.put(st.ghost, 8);
    w.flush();
    return !w.lost();
}

/**
 * Sorted-orbit fallback for symmetry classes too large to enumerate:
 * order the members of each class by a local signature (own block
 * state + remaining budget) and rename them into the class's slots in
 * that order, ties keeping their relative id order. Cross-node
 * references can still distinguish signature-tied members, so this is
 * not a full canonical form — but it is deterministic and always a
 * permutation image, which keeps the reduction sound.
 */
void
sortedOrbitPerm(const System &sys, const SysState &st,
                std::vector<NodeId> &perm)
{
    for (size_t i = 0; i < perm.size(); ++i)
        perm[i] = static_cast<NodeId>(i);
    for (const auto &cls : sys.symClasses) {
        auto sig = [&](NodeId n) {
            const BlockState &b = st.blocks[static_cast<size_t>(n)];
            int32_t li = sys.leafIndex[static_cast<size_t>(n)];
            uint8_t bud =
                li >= 0 ? st.budget[static_cast<size_t>(li)] : 0;
            return std::tuple(b.state, b.hasData, b.data, b.tbe.ackCtr,
                              b.tbe.countReceived, b.tbe.savedAckCount,
                              b.tbe.stashedCtr, b.tbe.stashedRecv, bud,
                              n);
        };
        std::vector<NodeId> order = cls;
        std::sort(order.begin(), order.end(),
                  [&](NodeId a, NodeId b) { return sig(a) < sig(b); });
        // order[k] is the old id that moves into the class's k-th slot.
        for (size_t k = 0; k < cls.size(); ++k)
            perm[static_cast<size_t>(order[k])] = cls[k];
    }
}

/**
 * Shared body of canonicalize()/encodeCanonicalTo(): minimize the
 * bit-packed encoding over the precomputed symmetry group. @p encOut
 * receives the canonical (packed) encoding, reusing the encoding the
 * orbit search already computed. @p sc is caller scratch — the
 * checker threads one instance through a whole frontier batch.
 */
uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
canonicalizeImpl(SysState &st, const System &sys, std::string &encOut,
                 EncodeScratch &sc)
{
    const bool timed = sc.timeSections;
    uint64_t t0 = timed ? nowNs() : 0;

    if (sys.symClasses.empty()) {
        st.encodeTo(sys, encOut, sc);
        if (timed)
            sc.encodeNs += nowNs() - t0;
        return;
    }

    if (sys.symPerms.empty()) {
        // Orbit too large to enumerate: sorted-orbit heuristic.
        sc.perm.resize(st.blocks.size());
        sortedOrbitPerm(sys, st, sc.perm);
        bool identity = true;
        for (size_t i = 0; i < sc.perm.size(); ++i)
            identity = identity && sc.perm[i] == static_cast<NodeId>(i);
        if (!identity) {
            applyPerm(sys, sc.perm, st, sc.cand);
            std::swap(st, sc.cand);
        }
        uint64_t t1 = timed ? nowNs() : 0;
        st.encodeTo(sys, encOut, sc);
        if (timed) {
            sc.orbitNs += t1 - t0;
            sc.encodeNs += nowNs() - t1;
        }
        return;
    }

    // Exact mode: walk the precomputed group, keeping whichever image
    // encodes lexicographically least. The minimum over the whole
    // orbit is permutation-invariant, so every member of an orbit
    // lands on the same representative. Ranks are computed once —
    // they are invariant across the orbit. Each image is encoded
    // directly from the source state against the reigning best with
    // an early-exit compare (encodePermImage): losing permutations
    // abort within a few blocks and never materialize a state copy,
    // and only the final winner — if any — is applied to st.
    computeRanks(st.msgs, sc.order, sc.ranks);
    packEncode(st, sys, encOut, sc.ranks.data());  // identity baseline
    uint64_t t1 = timed ? nowNs() : 0;
    const std::vector<NodeId> *bestPerm = nullptr;
    sc.pinv.resize(st.blocks.size());
    for (const auto &perm : sys.symPerms) {
        for (size_t i = 0; i < perm.size(); ++i)
            sc.pinv[static_cast<size_t>(perm[i])] =
                static_cast<NodeId>(i);
        sc.candEnc.resize(encOut.size() + 4);
        CmpBitWriter w(sc.candEnc.data(), encOut.data());
        if (!encodePermImage(st, sys, perm, sc.pinv, sc, w))
            continue;
        if (w.won()) {
            size_t len = static_cast<size_t>(w.p - sc.candEnc.data());
            HG_ASSERT(len == encOut.size(),
                      "orbit image length drifted from baseline");
            sc.candEnc.resize(len);
            encOut.swap(sc.candEnc);
            bestPerm = &perm;
        }
    }
    if (bestPerm) {
        applyPerm(sys, *bestPerm, st, sc.cand);
        std::swap(st, sc.cand);
    }
    if (timed) {
        sc.encodeNs += t1 - t0;
        sc.orbitNs += nowNs() - t1;
    }
}

/** Per-thread scratch backing the legacy two-argument entry points
 *  (unit tests, non-hot callers). */
EncodeScratch &
tlsScratch()
{
    static thread_local EncodeScratch sc;
    return sc;
}

} // namespace

void
SysState::canonicalize(const System &sys)
{
    EncodeScratch &sc = tlsScratch();
    std::string enc;
    canonicalizeImpl(*this, sys, enc, sc);
}

void
SysState::encodeCanonicalTo(const System &sys, std::string &out)
{
    canonicalizeImpl(*this, sys, out, tlsScratch());
}

void
SysState::encodeCanonicalTo(const System &sys, std::string &out,
                            EncodeScratch &sc)
{
    canonicalizeImpl(*this, sys, out, sc);
}

bool
SysState::quiescent(const System &sys) const
{
    if (!msgs.empty())
        return false;
    for (size_t i = 0; i < blocks.size(); ++i) {
        const Machine &m = *sys.nodes[i].machine;
        if (!m.state(blocks[i].state).stable)
            return false;
    }
    return true;
}

SysState
initialState(const System &sys, int access_budget)
{
    SysState st;
    st.blocks.resize(sys.nodes.size());
    for (size_t i = 0; i < sys.nodes.size(); ++i) {
        const NodeCtx &n = sys.nodes[i];
        BlockState b;
        b.state = n.machine->initial();
        // The top-level directory is backed by memory and always has
        // the (initially zero) block.
        if (n.parent == kNoNode) {
            b.hasData = true;
            b.data = 0;
        }
        st.blocks[i] = b;
    }
    st.budget.assign(sys.leafCaches.size(),
                     access_budget < 0
                         ? 255
                         : static_cast<uint8_t>(access_budget));
    return st;
}

std::string
describeState(const System &sys, const SysState &st)
{
    std::ostringstream os;
    for (size_t i = 0; i < sys.nodes.size(); ++i) {
        const NodeCtx &n = sys.nodes[i];
        const BlockState &b = st.blocks[i];
        os << n.machine->name() << i << "="
           << n.machine->state(b.state).name;
        if (b.hasData)
            os << "(d" << int(b.data) << ")";
        if (b.tbe.ackCtr != 0)
            os << "(a" << int(b.tbe.ackCtr) << ")";
        if (b.owner != kNoNode)
            os << "(o" << b.owner << ")";
        if (b.sharers != 0)
            os << "(s" << b.sharers << ")";
        os << " ";
    }
    os << "ghost=" << int(st.ghost);
    if (!st.msgs.empty()) {
        os << " net:[";
        for (const auto &m : st.msgs) {
            os << " " << sys.msgs->displayName(m.type) << " " << m.src
               << "->" << m.dst;
            if (m.epoch != FwdEpoch::None)
                os << "(" << toString(m.epoch)[0] << ")";
        }
        os << " ]";
    }
    return os.str();
}

std::string
describeStateJson(const System &sys, const SysState &st)
{
    std::ostringstream os;
    os << "{\"nodes\": [";
    for (size_t i = 0; i < sys.nodes.size(); ++i) {
        const NodeCtx &n = sys.nodes[i];
        const BlockState &b = st.blocks[i];
        if (i)
            os << ", ";
        os << "{\"id\": " << n.id << ", \"machine\": "
           << obs::jsonQuote(n.machine->name()) << ", \"state\": "
           << obs::jsonQuote(n.machine->state(b.state).name)
           << ", \"has_data\": " << (b.hasData ? "true" : "false")
           << ", \"data\": " << int(b.data) << ", \"ack_ctr\": "
           << int(b.tbe.ackCtr) << ", \"owner\": " << b.owner
           << ", \"sharers\": " << b.sharers << "}";
    }
    os << "], \"ghost\": " << int(st.ghost) << ", \"budget\": [";
    for (size_t i = 0; i < st.budget.size(); ++i)
        os << (i ? ", " : "") << int(st.budget[i]);
    os << "], \"msgs\": [";
    for (size_t i = 0; i < st.msgs.size(); ++i) {
        const Msg &m = st.msgs[i];
        if (i)
            os << ", ";
        os << "{\"type\": "
           << obs::jsonQuote(sys.msgs->displayName(m.type))
           << ", \"src\": " << m.src << ", \"dst\": " << m.dst
           << ", \"requestor\": " << m.requestor << ", \"epoch\": "
           << obs::jsonQuote(toString(m.epoch)) << ", \"ack_count\": "
           << m.ackCount << ", \"has_data\": "
           << (m.hasData ? "true" : "false") << ", \"data\": "
           << int(m.data) << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace hieragen::verif
