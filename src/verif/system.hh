/**
 * @file
 * System instantiation for verification: node layout and global state.
 *
 * A System wires controller machines into the paper's configurations:
 * flat (one directory, N core/caches) or hierarchical (root, cache-H
 * nodes, one dir/cache, cache-L nodes — Figure 1b, the configuration
 * verified in Section VIII-C).
 */

#ifndef HIERAGEN_VERIF_SYSTEM_HH
#define HIERAGEN_VERIF_SYSTEM_HH

#include <string>
#include <vector>

#include "fsm/exec.hh"
#include "fsm/protocol.hh"

namespace hieragen::verif
{

/**
 * Per-System bit widths for the packed state encoding, derived once
 * at build time from the instantiated machines and message table.
 * Every variable-width field stores `value + 1` (so the kNoNode /
 * kNoState sentinel packs as 0) in just enough bits for its domain;
 * see docs/VERIFIER.md for the full field map.
 */
struct EncodingLayout
{
    uint8_t stateBits = 0;   ///< bit_width(max numStates over machines)
    uint8_t nodeBits = 0;    ///< bit_width(numNodes), for ids + 1
    uint8_t typeBits = 0;    ///< bit_width(numMsgTypes), for type + 1
    uint8_t sharerBits = 0;  ///< numNodes (one presence bit per node)
    uint32_t maxBytes = 0;   ///< upper bound on a zero-message encoding

    bool valid() const { return nodeBits != 0; }

    /** A block's first packed field group: state, the data and ack
     *  flags, and the two TBE node refs. */
    unsigned blockBitsA() const { return stateBits + 18u + 2u * nodeBits; }
    /** A block's second group: the stashed ack state, sharers, owner. */
    unsigned blockBitsB() const { return 17u + sharerBits + nodeBits; }
    /** One message. */
    unsigned msgBits() const { return typeBits + 3u * nodeBits + 27u; }
};

/** Static system description shared by every explored state. */
struct System
{
    const MsgTypeTable *msgs = nullptr;
    std::vector<NodeCtx> nodes;
    /** The nodes' compiled transition tables (NodeCtx::dispatch),
     *  built once per System; shared, immutable. */
    std::vector<std::shared_ptr<const DispatchTable>> dispatch;
    std::vector<NodeId> leafCaches;  ///< SWMR/data-value participants

    /**
     * Symmetry groups for scalarset-style state canonicalization
     * (Murphi's symmetry reduction). Each inner vector lists >= 2
     * node ids, ascending, that are fully interchangeable: they run
     * the same Machine, hang off the same parent, and play the same
     * role (core/cache peers in flat systems; cache-H peers and
     * cache-L peers in hierarchical ones). Permuting the members of a
     * class — renaming them inside messages, sharer masks, owner and
     * TBE fields, and permuting their block/budget slots — maps
     * reachable states to reachable states and preserves every
     * checked property, because all members share one Machine.
     */
    std::vector<std::vector<NodeId>> symClasses;
    /** Every member of every symmetry class, ascending: the only
     *  block slots a renaming moves. */
    std::vector<NodeId> symMembers;

    /** node id -> index into leafCaches (-1 for non-leaf nodes). */
    std::vector<int32_t> leafIndex;

    /** Packed-encoding field widths (set by the builders). */
    EncodingLayout enc;

    /**
     * The full composite symmetry group, enumerated once at build
     * time when the product of class factorials is small enough for
     * exact canonicalization (<= kMaxEnumPerms): every non-identity
     * node renaming as a whole-system permutation vector. Empty when
     * the orbit is too large — canonicalization then falls back to
     * the sorted-orbit heuristic. Precomputing this removes the
     * per-state next_permutation odometer from the hot loop.
     */
    std::vector<std::vector<NodeId>> symPerms;
    /** symPermsInv[i] is the inverse of symPerms[i]. */
    std::vector<std::vector<NodeId>> symPermsInv;

    NodeId
    dirCacheNode() const
    {
        for (const auto &n : nodes) {
            if (n.machine && n.machine->role() == MachineRole::DirCache)
                return n.id;
        }
        return kNoNode;
    }
};

/** Flat layout: node 0 = directory, nodes 1..N = core/caches. */
System buildFlatSystem(const Protocol &p, int num_caches);

/**
 * Hierarchical layout: node 0 = root, nodes 1..nH = cache-H,
 * node nH+1 = dir/cache, nodes nH+2 .. nH+1+nL = cache-L.
 */
System buildHierSystem(const HierProtocol &p, int num_cache_h,
                       int num_cache_l);

struct EncodeScratch;

/**
 * One explored global state.
 *
 * Invariant: every message's seq is its rank within its (src, dst)
 * channel — 0 for the oldest, then 1, 2, ... insertMsg(),
 * removeMsg(), assignWithoutMsg() and the renamings of the orbit
 * search keep it; decodeFrom() and deserialize() establish it; a
 * state built by hand calls normalizeSeqs(). The encodings pack seq
 * as the rank, so states that differ only in send history encode
 * alike.
 */
struct SysState
{
    /**
     * Exact round-trip serialization of an invariant-holding state.
     * Append to @p out; the format is the checkpoint frontier-entry
     * layout (verif/checkpoint.cc).
     */
    static void serialize(std::string &out, const SysState &st);

    /** Parse one serialized state from data[pos..size), advancing
     *  @p pos, and normalizeSeqs() it. False (with pos unspecified)
     *  on truncation. */
    static bool deserialize(const char *data, size_t size,
                            size_t &pos, SysState &st);

    std::vector<BlockState> blocks;  ///< indexed by node id
    std::vector<Msg> msgs;           ///< kept sorted (canonical multiset)
    uint8_t ghost = 0;               ///< last value written by any store
    std::vector<uint8_t> budget;     ///< accesses left per leaf cache

    void insertMsg(const Msg &m);
    void removeMsg(size_t index);

    /** Establish the seq == rank invariant: renumber each message's
     *  seq to its rank within its channel (relative order kept). */
    void normalizeSeqs();

    /**
     * Become a copy of @p src minus src.msgs[index], in one pass.
     * Equivalent to `*this = src; removeMsg(index);` but skips the
     * tail shift of the middle erase and never copies the dropped
     * message; vector capacities are reused across calls, so the
     * checker's delivery hot loop allocates nothing in steady state.
     */
    void assignWithoutMsg(const SysState &src, size_t index);

    /** Ordered-vnet FIFO check: may msgs[index] be delivered now? */
    bool deliverable(const MsgTypeTable &types, size_t index) const;

    /**
     * One-pass variant: mask[i] != 0 iff msgs[i] may be delivered.
     * Equivalent to calling deliverable() for every index but costs a
     * single sweep over the message multiset instead of one per
     * message. @p mask is reused across calls (resized, not shrunk).
     */
    void deliverableMask(const MsgTypeTable &types,
                         std::vector<char> &mask) const;

    /**
     * Portable byte encoding (fixed 16 bytes/block, 10 bytes/msg).
     * Injective over invariant-holding states, system-independent —
     * kept as the
     * diagnostic / unit-test path. The checker's hot loop uses the
     * bit-packed encodeTo(sys, out) overload instead, which
     * defines the same equality classes in ~2.5x fewer bytes.
     */
    std::string encode() const;

    /** encode() into a caller-owned buffer (cleared first), so hot
     *  loops can reuse one allocation per thread. */
    void encodeTo(std::string &out) const;

    /**
     * Bit-packed encoding using sys.enc field widths: the dedup/hash
     * representation the checker and checkpoints store. Injective
     * over invariant-holding states of @p sys (see docs/VERIFIER.md
     * for the proof sketch); NOT portable across different Systems.
     */
    void encodeTo(const System &sys, std::string &out) const;

    /**
     * Inverse of the packed encodeTo(sys, ...): become the state that
     * @p data[0, len) encodes, reusing this state's vector capacity.
     * The decoded seq is the packed channel rank and addr is 0, so
     * the decoded state explores exactly as the encoded one. False
     * (the state is then unspecified) when @p len is not the length
     * of a record of @p sys, a node, state or type field is out of
     * range, or the padding bits are not zero.
     */
    bool decodeFrom(const System &sys, const char *data, size_t len);

    /**
     * Symmetry reduction: replace *this with the representative of
     * its orbit under sys.symClasses — for small orbit products the
     * image least in field order over every permutation of each
     * symmetry class (see docs/VERIFIER.md), for large classes a
     * sorted-orbit heuristic (members ordered by a local signature).
     * Two states related by any class permutation canonicalize to
     * the same representative under full enumeration; the heuristic
     * is still sound (the result is always a reachable permutation
     * image) but may keep more than one representative per orbit.
     * No-op when symClasses is empty.
     */
    void canonicalize(const System &sys);

    /** Canonical variant of encodeTo(): the packed encoding of the
     *  representative canonicalize() would make, without changing
     *  this state — only the winning image is packed. */
    void encodeCanonicalTo(const System &sys, std::string &out) const;

    /** Scratch-threading variant for the checker's frontier loop:
     *  same result as the two-argument overload but reuses @p sc
     *  across a whole expansion batch. */
    void encodeCanonicalTo(const System &sys, std::string &out,
                           EncodeScratch &sc) const;

    /** All controllers stable and no messages in flight. */
    bool quiescent(const System &sys) const;
};

/**
 * One image of a state under the orbit search: the renaming @p perm,
 * its inverse, and the image's message list and budgets, which are
 * materialized only when a comparison gets that far.
 */
struct OrbitImage
{
    const NodeId *perm = nullptr;
    const NodeId *pinv = nullptr;
    std::vector<Msg> msgs;
    std::vector<uint8_t> budget;
    bool identity = false;  ///< msgs/budget are the state's own
    bool msgsReady = false, budgetReady = false;
};

/**
 * Caller-owned scratch for the canonical encode hot path. The
 * checker keeps one per worker and threads it through a whole
 * frontier batch, so the orbit search reuses the same vectors across
 * every successor instead of re-resolving thread-locals (and
 * reallocating) per call.
 */
struct EncodeScratch
{
    std::vector<uint64_t> fixed;    ///< class members' rename-free keys
    std::vector<NodeId> identity;   ///< the identity renaming
    std::vector<NodeId> perm;       ///< sorted-orbit fallback renaming
    std::vector<NodeId> pinv;       ///< ... and its inverse
    OrbitImage images[2];           ///< the reigning and the next image
    unsigned best = 0;              ///< index of the reigning image

    /**
     * Sampled phase attribution: when timeSections is set, the next
     * encodeCanonicalTo call adds the orbit search's nanoseconds to
     * orbitNs and packing the winner's to encodeNs. The checker
     * flips the flag on sampled calls only and reads/resets the
     * accumulators, so unsampled calls pay one predictable branch.
     */
    bool timeSections = false;
    uint64_t encodeNs = 0;
    uint64_t orbitNs = 0;
};

/** Initial state: memory at the top-level directory, caches invalid. */
SysState initialState(const System &sys, int access_budget);

/** Human-readable one-line state dump (for counterexample traces). */
std::string describeState(const System &sys, const SysState &st);

/**
 * Machine-readable JSON object for one state: per-node controller
 * states (with data/acks/owner/sharers), the data-value ghost, the
 * per-leaf access budgets, and the in-flight message multiset. Used
 * by CheckResult::traceJson() to emit structured counterexamples.
 */
std::string describeStateJson(const System &sys, const SysState &st);

} // namespace hieragen::verif

#endif // HIERAGEN_VERIF_SYSTEM_HH
