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
    // The bit writer and reader move a field group of at most 57
    // bits at a time.
    HG_ASSERT(sys.enc.blockBitsA() <= 57 && sys.enc.blockBitsB() <= 57 &&
                  sys.enc.msgBits() <= 57,
              "system too large for the packed encoding");
    // Zero-message size, rounded up to whole bytes: the blocks, then
    // budgets and the ghost byte.
    uint64_t bits = uint64_t{sys.enc.blockBitsA() + sys.enc.blockBitsB()} *
                        sys.nodes.size() +
                    8 * sys.leafCaches.size() + 8;
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
        std::vector<NodeId> inv(perm.size());
        for (size_t i = 0; i < perm.size(); ++i)
            inv[static_cast<size_t>(perm[i])] = static_cast<NodeId>(i);
        sys.symPerms.push_back(perm);
        sys.symPermsInv.push_back(std::move(inv));
    }
}

/** Compile the nodes' transition tables, fill in leafIndex, register
 *  one symmetry class per group of >= 2 interchangeable nodes (all
 *  members share one Machine and one parent by construction of the
 *  builders), then derive the packed encoding layout and precompute
 *  the symmetry group. */
void
finalizeSymmetry(System &sys,
                 std::initializer_list<std::pair<NodeId, NodeId>> groups)
{
    sys.dispatch = compileDispatch(sys.nodes, *sys.msgs);
    sys.leafIndex.assign(sys.nodes.size(), -1);
    for (size_t li = 0; li < sys.leafCaches.size(); ++li)
        sys.leafIndex[sys.leafCaches[li]] = static_cast<int32_t>(li);
    for (auto [first, last] : groups) {
        if (last - first + 1 < 2)
            continue;
        std::vector<NodeId> cls;
        for (NodeId n = first; n <= last; ++n) {
            cls.push_back(n);
            sys.symMembers.push_back(n);
        }
        sys.symClasses.push_back(std::move(cls));
    }
    finalizeEncoding(sys);
    enumerateSymPerms(sys);
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
    // Single sweep: the FIFO position on the (src, dst) channel (its
    // message count, seqs being ranks) and the sorted insertion
    // point. cmp ignores seq, so the position is valid before seq is
    // assigned.
    int32_t rank = 0;
    size_t pos = msgs.size();
    for (size_t i = 0; i < msgs.size(); ++i) {
        const Msg &other = msgs[i];
        rank += other.src == msg.src && other.dst == msg.dst;
        if (pos == msgs.size() && cmp(msg, other))
            pos = i;
    }
    msg.seq = rank;
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
    st.normalizeSeqs();
    return ok;
}

void
SysState::normalizeSeqs()
{
    // Rank by counting: a handful of messages are in flight per
    // state, and this runs only where a state enters from outside.
    std::vector<int32_t> ranks(msgs.size());
    for (size_t i = 0; i < msgs.size(); ++i) {
        const Msg &m = msgs[i];
        for (const Msg &o : msgs)
            ranks[i] += o.src == m.src && o.dst == m.dst && o.seq < m.seq;
    }
    for (size_t i = 0; i < msgs.size(); ++i)
        msgs[i].seq = ranks[i];
}

namespace
{

/** The messages behind a removed one on its channel move up a rank. */
void
closeChannelGap(std::vector<Msg> &msgs, const Msg &removed)
{
    for (Msg &m : msgs) {
        if (m.src == removed.src && m.dst == removed.dst &&
            m.seq > removed.seq)
            --m.seq;
    }
}

} // namespace

void
SysState::removeMsg(size_t index)
{
    HG_ASSERT(index < msgs.size(), "removeMsg out of range");
    // Msg is trivially copyable, so the tail shift compiles down to
    // one memmove; the sorted-multiset invariant (cmp order, ties in
    // seq order) is untouched by erasing an element, and closing the
    // channel's gap keeps every seq its rank.
    const Msg removed = msgs[index];
    msgs.erase(msgs.begin() + static_cast<ptrdiff_t>(index));
    closeChannelGap(msgs, removed);
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
    closeChannelGap(msgs, s[index]);
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
    for (const Msg &m : msgs) {
        put16(static_cast<uint16_t>(m.type + 1));
        put8(static_cast<uint8_t>(m.src + 1));
        put8(static_cast<uint8_t>(m.dst + 1));
        put8(static_cast<uint8_t>(m.requestor + 1));
        put8(static_cast<uint8_t>(m.epoch));
        put8(static_cast<uint8_t>(m.ackCount + 64));
        put8(m.hasData);
        put8(m.data);
        put8(static_cast<uint8_t>(m.seq));  // the channel rank
    }
    for (uint8_t b : budget)
        put8(b);
    put8(ghost);
}

namespace
{

/** Little-endian bit accumulator writing straight into a pre-sized
 *  buffer (the caller guarantees capacity, so the hot path has no
 *  bounds checks), draining eight bytes at a time. A field is at most
 *  57 bits wide (finalizeEncoding checks the merged field widths).
 *  flush() writes up to 8 bytes of zero padding past the logical
 *  end — size the buffer with that slack. */
struct BitWriter
{
    char *p;
    uint64_t acc = 0;
    unsigned nbits = 0;  ///< bits held in acc, always < 64

    explicit BitWriter(char *dst) : p(dst) {}

    void
    put(uint64_t v, unsigned bits)
    {
        v &= (uint64_t{1} << bits) - 1;
        acc |= v << nbits;
        nbits += bits;
        if (nbits >= 64) {
            std::memcpy(p, &acc, 8);
            p += 8;
            nbits -= 64;
            // The bits of v that did not fit, if any.
            acc = nbits ? v >> (bits - nbits) : 0;
        }
    }

    void
    flush()
    {
        std::memcpy(p, &acc, 8);
        p += (nbits + 7) / 8;
        acc = 0;
        nbits = 0;
    }
};

/** insertMsg's sorted-multiset order: the seq-blind key, then seq
 *  (equal keys are necessarily on one channel). */
bool
msgLess(const Msg &a, const Msg &b)
{
    return std::tie(a.type, a.src, a.dst, a.requestor, a.epoch,
                    a.ackCount, a.hasData, a.data, a.seq) <
           std::tie(b.type, b.src, b.dst, b.requestor, b.epoch,
                    b.ackCount, b.hasData, b.data, b.seq);
}

/** @p id renamed through @p perm (kNoNode stays kNoNode). */
inline NodeId
mapId(const NodeId *perm, NodeId id)
{
    return id == kNoNode ? kNoNode : perm[static_cast<size_t>(id)];
}

/** Sharer bitmask renamed through @p perm. */
inline uint32_t
mapSharers(const NodeId *perm, uint32_t sharers)
{
    uint32_t sh = 0;
    for (uint32_t bits = sharers; bits != 0; bits &= bits - 1) {
        sh |= 1u << static_cast<uint32_t>(
                  perm[static_cast<size_t>(std::countr_zero(bits))]);
    }
    return sh;
}

/**
 * Pack the image of @p st under a node renaming: block slot k is
 * st.blocks[pinv[k]] with every node id renamed through perm, and
 * @p msgs / @p budget are the image's (already renamed and sorted)
 * message list and budgets. kIdentity packs @p st itself (perm and
 * pinv unused). Each message's seq is its channel rank (the SysState
 * invariant), so it is packed as is. The bit layout is documented in
 * docs/VERIFIER.md.
 */
template <bool kIdentity>
void
packImage(const SysState &st, const System &sys, const NodeId *perm,
          const NodeId *pinv, const Msg *msgs, size_t nm,
          const uint8_t *budget, std::string &out)
{
    HG_ASSERT(sys.enc.valid(), "System lacks an encoding layout");
    const EncodingLayout &L = sys.enc;
    // Pre-size once (8 bytes of flush slack) and write through a raw
    // pointer; the trailing resize trims to the bytes produced.
    out.resize(L.maxBytes + nm * 8 + 8);
    BitWriter w(out.data());
    const size_t n = st.blocks.size();
    for (size_t k = 0; k < n; ++k) {
        const BlockState &b =
            st.blocks[kIdentity ? k : static_cast<size_t>(pinv[k])];
        const NodeId savedReq =
            kIdentity ? b.tbe.savedRequestor
                      : mapId(perm, b.tbe.savedRequestor);
        const NodeId savedLower =
            kIdentity ? b.tbe.savedLower : mapId(perm, b.tbe.savedLower);
        const uint32_t sharers =
            kIdentity ? b.sharers : mapSharers(perm, b.sharers);
        const NodeId owner = kIdentity ? b.owner : mapId(perm, b.owner);
        // Two puts per block and one per message: merging adjacent
        // fields leaves the bit layout as emitting them one by one.
        w.put(static_cast<uint64_t>(b.state + 1) |
                  (static_cast<uint64_t>(b.hasData) |
                   static_cast<uint64_t>(b.data) << 1 |
                   static_cast<uint64_t>(
                       static_cast<uint8_t>(b.tbe.ackCtr))
                       << 9 |
                   static_cast<uint64_t>(b.tbe.countReceived) << 17)
                      << L.stateBits |
                  (static_cast<uint64_t>(savedReq + 1) |
                   static_cast<uint64_t>(savedLower + 1) << L.nodeBits)
                      << (L.stateBits + 18u),
              L.blockBitsA());
        w.put(static_cast<uint64_t>(
                  static_cast<uint8_t>(b.tbe.savedAckCount)) |
                  static_cast<uint64_t>(
                      static_cast<uint8_t>(b.tbe.stashedCtr))
                      << 8 |
                  static_cast<uint64_t>(b.tbe.stashedRecv) << 16 |
                  static_cast<uint64_t>(sharers) << 17 |
                  static_cast<uint64_t>(owner + 1)
                      << (17u + L.sharerBits),
              L.blockBitsB());
    }
    for (size_t i = 0; i < nm; ++i) {
        const Msg &m = msgs[i];
        const unsigned idBits = L.typeBits + 3u * L.nodeBits;
        w.put(static_cast<uint64_t>(m.type + 1) |
                  static_cast<uint64_t>(m.src + 1) << L.typeBits |
                  static_cast<uint64_t>(m.dst + 1)
                      << (L.typeBits + L.nodeBits) |
                  static_cast<uint64_t>(m.requestor + 1)
                      << (L.typeBits + 2u * L.nodeBits) |
                  (static_cast<uint64_t>(m.epoch) |
                   static_cast<uint64_t>(
                       static_cast<uint8_t>(m.ackCount))
                       << 2 |
                   static_cast<uint64_t>(m.hasData) << 10 |
                   static_cast<uint64_t>(m.data) << 11 |
                   static_cast<uint64_t>(static_cast<uint8_t>(m.seq))
                       << 19)
                      << idBits,
              L.msgBits());
    }
    const size_t nb = st.budget.size();
    size_t bi = 0;
    for (; bi + 4 <= nb; bi += 4) {
        w.put(static_cast<uint64_t>(budget[bi]) |
                  static_cast<uint64_t>(budget[bi + 1]) << 8 |
                  static_cast<uint64_t>(budget[bi + 2]) << 16 |
                  static_cast<uint64_t>(budget[bi + 3]) << 24,
              32);
    }
    for (; bi < nb; ++bi)
        w.put(budget[bi], 8);
    w.put(st.ghost, 8);
    w.flush();
    out.resize(static_cast<size_t>(w.p - out.data()));
}

} // namespace

void
SysState::encodeTo(const System &sys, std::string &out) const
{
    packImage<true>(*this, sys, nullptr, nullptr, msgs.data(),
                    msgs.size(), budget.data(), out);
}

namespace
{

/** Little-endian bit reader, the inverse of BitWriter. Every field
 *  is one unaligned 8-byte load: from the record itself while eight
 *  bytes remain, else from a zero-padded copy of the record's last
 *  eight bytes, so no read leaves [data, data + len). Fields are at
 *  most 57 bits wide. */
struct BitReader
{
    const uint8_t *data;
    size_t tailStart;        ///< first byte served from tail
    uint8_t tail[16] = {};   ///< data[tailStart, len), zero-padded
    uint64_t pos = 0;        ///< bit offset of the next field

    BitReader(const char *d, size_t len)
        : data(reinterpret_cast<const uint8_t *>(d)),
          tailStart(len >= 8 ? len - 8 : 0)
    {
        std::memcpy(tail, data + tailStart, len - tailStart);
    }

    uint64_t
    get(unsigned bits)
    {
        const size_t byte = static_cast<size_t>(pos >> 3);
        uint64_t word;
        if (byte < tailStart)
            std::memcpy(&word, data + byte, 8);
        else
            std::memcpy(&word, tail + (byte - tailStart), 8);
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
    // The bit widths packImage() writes: a record is the blocks, the
    // messages, the budgets and the ghost, padded to whole bytes. A
    // message is wider than a byte, so the length fixes its count.
    const uint64_t blockBits = L.blockBitsA() + L.blockBitsB();
    const uint64_t msgBits = L.msgBits();
    const uint64_t fixedBits =
        blockBits * sys.nodes.size() + 8 * numLeaves + 8;
    const uint64_t have = uint64_t{len} * 8;
    if (have < fixedBits)
        return false;
    const uint64_t numMsgs = (have - fixedBits) / msgBits;
    const uint64_t usedBits = fixedBits + numMsgs * msgBits;
    if ((usedBits + 7) / 8 != len)
        return false;

    // Each get() reads adjacent packImage() fields at once; ids and
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
        uint64_t f = r.get(L.blockBitsA());
        b.state = static_cast<StateId>(
                      f & ((uint64_t{1} << L.stateBits) - 1)) -
                  1;
        f >>= L.stateBits;
        b.hasData = f & 1;
        b.data = static_cast<uint8_t>(f >> 1);
        b.tbe.ackCtr = static_cast<int8_t>(static_cast<uint8_t>(f >> 9));
        b.tbe.countReceived = (f >> 17) & 1;
        b.tbe.savedRequestor = nodeId(f >> 18);
        b.tbe.savedLower = nodeId(f >> (18u + L.nodeBits));
        f = r.get(L.blockBitsB());
        b.tbe.savedAckCount = static_cast<int8_t>(static_cast<uint8_t>(f));
        b.tbe.stashedCtr =
            static_cast<int8_t>(static_cast<uint8_t>(f >> 8));
        b.tbe.stashedRecv = (f >> 16) & 1;
        b.sharers = static_cast<uint32_t>(
            (f >> 17) & ((uint64_t{1} << L.sharerBits) - 1));
        b.owner = nodeId(f >> (17u + L.sharerBits));
        ok &= b.state <
                  static_cast<StateId>(sys.nodes[n].machine->numStates()) &&
              b.tbe.savedRequestor < numNodes &&
              b.tbe.savedLower < numNodes && b.owner < numNodes;
    }
    msgs.resize(static_cast<size_t>(numMsgs));
    const auto numTypes = static_cast<MsgTypeId>(sys.msgs->size());
    for (Msg &m : msgs) {
        uint64_t f = r.get(L.msgBits());
        m.type = static_cast<MsgTypeId>(
                     f & ((uint64_t{1} << L.typeBits) - 1)) -
                 1;
        f >>= L.typeBits;
        m.src = nodeId(f);
        m.dst = nodeId(f >> L.nodeBits);
        m.requestor = nodeId(f >> (2u * L.nodeBits));
        f >>= 3u * L.nodeBits;
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
 * Message half of an orbit image: copy @p src into @p dst with every
 * src/dst/requestor renamed through @p perm and the sorted-multiset
 * order re-established. Seqs are carried over verbatim: a renaming
 * maps each (src, dst) channel onto another channel wholesale, so
 * every seq stays its message's channel rank.
 */
void
permuteMsgsInto(const NodeId *perm, const std::vector<Msg> &src,
                std::vector<Msg> &dst)
{
    dst = src;
    for (Msg &m : dst) {
        m.src = mapId(perm, m.src);
        m.dst = mapId(perm, m.dst);
        m.requestor = mapId(perm, m.requestor);
    }
    std::sort(dst.begin(), dst.end(), msgLess);
}

/** Budget half of an orbit image: leaf li's budget moves to the slot
 *  of the leaf it is renamed to. */
void
permuteBudgetInto(const System &sys, const NodeId *perm,
                  const std::vector<uint8_t> &src,
                  std::vector<uint8_t> &dst)
{
    dst.resize(src.size());
    for (size_t li = 0; li < sys.leafCaches.size(); ++li) {
        NodeId renamed = perm[static_cast<size_t>(sys.leafCaches[li])];
        dst[static_cast<size_t>(sys.leafIndex[renamed])] = src[li];
    }
}

/**
 * Apply a node renaming to a whole state: permute the block and
 * budget slots, rename every NodeId stored inside blocks (owner, TBE
 * requestors, the sharers bitmask) and messages (src/dst/requestor),
 * and re-establish the sorted-multiset message order.
 */
void
applyPerm(const System &sys, const NodeId *p, const SysState &src,
          SysState &dst)
{
    dst.ghost = src.ghost;
    dst.blocks.resize(src.blocks.size());
    for (size_t i = 0; i < src.blocks.size(); ++i) {
        BlockState &b = dst.blocks[static_cast<size_t>(p[i])];
        b = src.blocks[i];
        b.owner = mapId(p, b.owner);
        b.tbe.savedRequestor = mapId(p, b.tbe.savedRequestor);
        b.tbe.savedLower = mapId(p, b.tbe.savedLower);
        b.sharers = mapSharers(p, b.sharers);
    }
    permuteBudgetInto(sys, p, src.budget, dst.budget);
    permuteMsgsInto(p, src.msgs, dst.msgs);
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

/** A block's fields no renaming touches — state, hasData, data,
 *  ackCtr, countReceived, savedAckCount, stashedCtr, stashedRecv, in
 *  that order of significance (signed counters as their bytes) — as
 *  one integer. */
inline uint64_t
fixedKey(const BlockState &b)
{
    return static_cast<uint64_t>(static_cast<uint32_t>(b.state + 1))
               << 35 |
           static_cast<uint64_t>(b.hasData) << 34 |
           static_cast<uint64_t>(b.data) << 26 |
           static_cast<uint64_t>(static_cast<uint8_t>(b.tbe.ackCtr))
               << 18 |
           static_cast<uint64_t>(b.tbe.countReceived) << 17 |
           static_cast<uint64_t>(
               static_cast<uint8_t>(b.tbe.savedAckCount))
               << 9 |
           static_cast<uint64_t>(static_cast<uint8_t>(b.tbe.stashedCtr))
               << 1 |
           static_cast<uint64_t>(b.tbe.stashedRecv);
}

/** A block's node-id fields renamed through @p perm, as one integer
 *  ordered as (savedRequestor, savedLower, owner, sharers). */
inline uint64_t
idKey(const BlockState &b, const NodeId *perm)
{
    auto id = [&](NodeId n) {
        return static_cast<uint64_t>(mapId(perm, n) + 1);
    };
    return id(b.tbe.savedRequestor) << 56 | id(b.tbe.savedLower) << 48 |
           id(b.owner) << 40 | mapSharers(perm, b.sharers);
}

/** Make @p im the image under @p perm (inverse @p pinv); an identity
 *  image's messages and budgets are the state's own. */
void
resetImage(OrbitImage &im, const NodeId *perm, const NodeId *pinv,
           bool identity = false)
{
    im.perm = perm;
    im.pinv = pinv;
    im.identity = identity;
    im.msgsReady = im.budgetReady = false;
}

const std::vector<Msg> &
imageMsgs(OrbitImage &im, const SysState &st)
{
    if (im.identity)
        return st.msgs;
    if (!im.msgsReady)
        permuteMsgsInto(im.perm, st.msgs, im.msgs);
    im.msgsReady = true;
    return im.msgs;
}

const std::vector<uint8_t> &
imageBudget(OrbitImage &im, const System &sys, const SysState &st)
{
    if (im.identity)
        return st.budget;
    if (!im.budgetReady)
        permuteBudgetInto(sys, im.perm, st.budget, im.budget);
    im.budgetReady = true;
    return im.budget;
}

/**
 * Field order on the images of one state, negative when @p a is the
 * lesser: the fixed block fields slot by slot (@p fixed holds them
 * for the class members), then the renamed
 * block fields slot by slot, then the sorted message lists element
 * by element (msgLess), then the budgets. Ghost bytes are equal
 * across an orbit. Images that compare equal are the same state, so
 * their packed encodings are equal.
 */
int
compareImages(const System &sys, const SysState &st,
              const std::vector<uint64_t> &fixed, OrbitImage &a,
              OrbitImage &b)
{
    // A slot outside every class holds the same block in every
    // image, so only class slots can differ in their fixed fields.
    for (NodeId k : sys.symMembers) {
        uint64_t x = fixed[static_cast<size_t>(a.pinv[k])];
        uint64_t y = fixed[static_cast<size_t>(b.pinv[k])];
        if (x != y)
            return x < y ? -1 : 1;
    }
    const size_t n = st.blocks.size();
    for (size_t k = 0; k < n; ++k) {
        uint64_t x =
            idKey(st.blocks[static_cast<size_t>(a.pinv[k])], a.perm);
        uint64_t y =
            idKey(st.blocks[static_cast<size_t>(b.pinv[k])], b.perm);
        if (x != y)
            return x < y ? -1 : 1;
    }
    const std::vector<Msg> &am = imageMsgs(a, st);
    const std::vector<Msg> &bm = imageMsgs(b, st);
    for (size_t i = 0; i < am.size(); ++i) {
        if (msgLess(am[i], bm[i]))
            return -1;
        if (msgLess(bm[i], am[i]))
            return 1;
    }
    const std::vector<uint8_t> &ab = imageBudget(a, sys, st);
    const std::vector<uint8_t> &bb = imageBudget(b, sys, st);
    return std::memcmp(ab.data(), bb.data(), ab.size());
}

/**
 * Orbit search: the permutation whose image of @p st is the orbit
 * representative, or null when that is @p st itself. With the
 * symmetry group enumerated (sys.symPerms) the representative is the
 * image least in compareImages() order over the whole group, so
 * every member of an orbit finds the same one; otherwise it is the
 * sorted-orbit heuristic's image. On a non-null return
 * sc.images[sc.best] is the winner (its messages and budgets
 * possibly not yet materialized).
 */
const NodeId *
findRepresentative(const SysState &st, const System &sys,
                   EncodeScratch &sc)
{
    const size_t n = st.blocks.size();
    if (sys.symPerms.empty()) {
        // Orbit too large to enumerate: sorted-orbit heuristic.
        sc.perm.resize(n);
        sortedOrbitPerm(sys, st, sc.perm);
        bool identity = true;
        for (size_t i = 0; i < n; ++i)
            identity = identity && sc.perm[i] == static_cast<NodeId>(i);
        if (identity)
            return nullptr;
        sc.pinv.resize(n);
        for (size_t i = 0; i < n; ++i)
            sc.pinv[static_cast<size_t>(sc.perm[i])] = static_cast<NodeId>(i);
        sc.best = 0;
        resetImage(sc.images[0], sc.perm.data(), sc.pinv.data());
        return sc.perm.data();
    }
    sc.fixed.resize(n);
    for (NodeId i : sys.symMembers)
        sc.fixed[static_cast<size_t>(i)] = fixedKey(st.blocks[i]);
    // The identity competes as an image like any other.
    if (sc.identity.size() != n) {
        sc.identity.resize(n);
        for (size_t i = 0; i < n; ++i)
            sc.identity[i] = static_cast<NodeId>(i);
    }
    sc.best = 0;
    resetImage(sc.images[0], sc.identity.data(), sc.identity.data(),
               true);
    bool bestIsIdentity = true;
    for (size_t pi = 0; pi < sys.symPerms.size(); ++pi) {
        OrbitImage &cand = sc.images[1 - sc.best];
        resetImage(cand, sys.symPerms[pi].data(),
                   sys.symPermsInv[pi].data());
        if (compareImages(sys, st, sc.fixed, cand,
                          sc.images[sc.best]) < 0) {
            sc.best = 1 - sc.best;
            bestIsIdentity = false;
        }
    }
    return bestIsIdentity ? nullptr : sc.images[sc.best].perm;
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Per-thread scratch backing the scratch-less entry points (unit
 *  tests, traces, non-hot callers). */
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
    const NodeId *perm = findRepresentative(*this, sys, sc);
    if (!perm)
        return;
    SysState image;
    applyPerm(sys, perm, *this, image);
    *this = std::move(image);
}

void
SysState::encodeCanonicalTo(const System &sys, std::string &out) const
{
    encodeCanonicalTo(sys, out, tlsScratch());
}

void
SysState::encodeCanonicalTo(const System &sys, std::string &out,
                            EncodeScratch &sc) const
{
    const bool timed = sc.timeSections;
    const uint64_t t0 = timed ? nowNs() : 0;
    const NodeId *perm =
        sys.symClasses.empty() ? nullptr
                               : findRepresentative(*this, sys, sc);
    const uint64_t t1 = timed ? nowNs() : 0;
    if (!perm) {
        packImage<true>(*this, sys, nullptr, nullptr, msgs.data(),
                        msgs.size(), budget.data(), out);
    } else {
        OrbitImage &w = sc.images[sc.best];
        const std::vector<Msg> &m = imageMsgs(w, *this);
        packImage<false>(*this, sys, perm, w.pinv, m.data(),
                         m.size(), imageBudget(w, sys, *this).data(),
                         out);
    }
    if (timed) {
        sc.orbitNs += t1 - t0;
        sc.encodeNs += nowNs() - t1;
    }
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
