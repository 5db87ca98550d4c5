/**
 * @file
 * An independent oracle for the exploration engine. A plain
 * breadth-first search over whole states kept in a std::set, with
 * successors computed from the System and the fsm interpreter alone:
 * no packing, hashing, symmetry reduction or sharding, and its own
 * per-channel message queues in place of SysState's sorted multiset
 * and seq bookkeeping. Orbits are counted by brute force: every
 * reachable state is renamed by every permutation of each symmetry
 * class and the least renaming's key counts once.
 *
 * On the 1H+1L builtin configurations and on MSI/MSI non-stalling
 * 2H+1L it checks three things against the engine: the same verdict,
 * the engine's symmetry-off count equals the reachable count, and the
 * engine's canonical count equals the orbit count. This is the check
 * of the engine's encoding, fingerprint and canonicalization that
 * shares none of their code.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/hiera.hh"
#include "fsm/exec.hh"
#include "param_names.hh"
#include "protocols/registry.hh"
#include "seeded_bugs.hh"
#include "verif/checker.hh"
#include "verif/system.hh"

namespace hieragen
{
namespace
{

/** A global state: controller blocks, one FIFO per (src, dst)
 *  channel in send order (empty channels absent), the data-value
 *  ghost and the per-leaf access budgets. */
struct RefState
{
    std::vector<BlockState> blocks;
    std::map<std::pair<NodeId, NodeId>, std::vector<Msg>> channels;
    uint8_t ghost = 0;
    std::vector<uint8_t> budget;
};

/** Every field of @p st, in a fixed order: equal keys <=> equal
 *  states. */
std::string
keyOf(const RefState &st)
{
    std::string k;
    auto put = [&](int64_t v) {
        for (int i = 0; i < 8; ++i)
            k.push_back(static_cast<char>(v >> (8 * i)));
    };
    for (const BlockState &b : st.blocks) {
        put(b.state);
        put(b.hasData);
        put(b.data);
        put(b.tbe.ackCtr);
        put(b.tbe.countReceived);
        put(b.tbe.savedRequestor);
        put(b.tbe.savedLower);
        put(b.tbe.savedAckCount);
        put(b.tbe.stashedCtr);
        put(b.tbe.stashedRecv);
        put(b.sharers);
        put(b.owner);
    }
    put(static_cast<int64_t>(st.channels.size()));
    for (const auto &[ch, q] : st.channels) {
        put(ch.first);
        put(ch.second);
        put(static_cast<int64_t>(q.size()));
        for (const Msg &m : q) {
            put(m.type);
            put(m.requestor);
            put(static_cast<int64_t>(m.epoch));
            put(m.ackCount);
            put(m.hasData);
            put(m.data);
        }
    }
    put(st.ghost);
    for (uint8_t b : st.budget)
        put(b);
    return k;
}

/** Interpreter callbacks: sends join their channel's queue. */
class RefEnv : public ExecEnv
{
  public:
    explicit RefEnv(RefState &st) : st_(st) {}

    bool failed = false;

    void
    send(const Msg &msg) override
    {
        Msg m = msg;
        m.seq = 0;
        m.addr = 0;
        st_.channels[{m.src, m.dst}].push_back(m);
    }

    uint8_t
    storeValue(NodeId) override
    {
        st_.ghost = static_cast<uint8_t>(1 - st_.ghost);
        return st_.ghost;
    }

    void
    loadObserved(NodeId, bool has_data, uint8_t) override
    {
        failed = failed || !has_data;
    }

    void error(const std::string &) override { failed = true; }

  private:
    RefState &st_;
};

bool
stableAt(const verif::System &sys, const RefState &st, size_t n)
{
    return sys.nodes[n].machine->state(st.blocks[n].state).stable;
}

/** The engine's invariants, restated: SWMR over stable leaf caches
 *  (a silently upgradeable state writes), stable readable copies hold
 *  the ghost value, and no transient controller waits on an empty
 *  network. */
bool
violates(const verif::System &sys, const RefState &st)
{
    int writers = 0, readers = 0;
    for (NodeId c : sys.leafCaches) {
        const State &s = sys.nodes[c].machine->state(st.blocks[c].state);
        if (!s.stable)
            continue;
        if (s.perm == Perm::ReadWrite || s.silentUpgrade)
            ++writers;
        else if (s.perm == Perm::Read)
            ++readers;
        if (s.perm != Perm::None &&
            (!st.blocks[c].hasData || st.blocks[c].data != st.ghost))
            return true;
    }
    if (writers > 1 || (writers == 1 && readers > 0))
        return true;
    if (st.channels.empty()) {
        for (size_t n = 0; n < st.blocks.size(); ++n) {
            if (!stableAt(sys, st, n))
                return true;
        }
    }
    return false;
}

bool
onOrderedNet(const MsgTypeTable &types, const Msg &m)
{
    const MsgType &t = types[m.type];
    return t.cls == MsgClass::Forward || t.orderedWithFwd;
}

struct RefResult
{
    bool ok = true;
    std::set<std::string> reachable;
    size_t orbits = 0;
};

/** @p st renamed by @p perm: block and budget slots move, and every
 *  node id inside blocks and messages is renamed. */
RefState
renamed(const verif::System &sys, const RefState &st,
        const std::vector<NodeId> &perm)
{
    auto id = [&](NodeId n) {
        return n == kNoNode ? kNoNode : perm[static_cast<size_t>(n)];
    };
    RefState out;
    out.ghost = st.ghost;
    out.blocks.resize(st.blocks.size());
    for (size_t i = 0; i < st.blocks.size(); ++i) {
        BlockState b = st.blocks[i];
        b.owner = id(b.owner);
        b.tbe.savedRequestor = id(b.tbe.savedRequestor);
        b.tbe.savedLower = id(b.tbe.savedLower);
        uint32_t sh = 0;
        for (size_t n = 0; n < 32; ++n) {
            if (b.sharers & (1u << n))
                sh |= 1u << static_cast<uint32_t>(perm[n]);
        }
        b.sharers = sh;
        out.blocks[static_cast<size_t>(perm[i])] = b;
    }
    out.budget.resize(st.budget.size());
    for (size_t li = 0; li < sys.leafCaches.size(); ++li) {
        NodeId to = perm[static_cast<size_t>(sys.leafCaches[li])];
        out.budget[static_cast<size_t>(sys.leafIndex[to])] = st.budget[li];
    }
    for (const auto &[ch, q] : st.channels) {
        std::vector<Msg> &dst = out.channels[{id(ch.first), id(ch.second)}];
        for (Msg m : q) {
            m.src = id(m.src);
            m.dst = id(m.dst);
            m.requestor = id(m.requestor);
            dst.push_back(m);
        }
    }
    return out;
}

/** Every node renaming that permutes each symmetry class within
 *  itself, the identity included. */
std::vector<std::vector<NodeId>>
classPermutations(const verif::System &sys)
{
    std::vector<std::vector<NodeId>> out;
    std::vector<NodeId> identity(sys.nodes.size());
    for (size_t i = 0; i < identity.size(); ++i)
        identity[i] = static_cast<NodeId>(i);
    out.push_back(identity);
    for (const auto &cls : sys.symClasses) {
        std::vector<std::vector<NodeId>> next;
        for (const auto &base : out) {
            std::vector<NodeId> order = cls;
            std::sort(order.begin(), order.end());
            do {
                std::vector<NodeId> p = base;
                for (size_t k = 0; k < cls.size(); ++k)
                    p[static_cast<size_t>(cls[k])] = order[k];
                next.push_back(std::move(p));
            } while (std::next_permutation(order.begin(), order.end()));
        }
        out = std::move(next);
    }
    return out;
}

/** Breadth-first search from the initial state (accessBudget 2 and
 *  interleaved transactions, as the engine's defaults), naming each
 *  reached state's orbit as it goes. */
RefResult
explore(const verif::System &sys)
{
    RefResult res;
    RefState init;
    init.blocks.resize(sys.nodes.size());
    for (size_t i = 0; i < sys.nodes.size(); ++i) {
        init.blocks[i].state = sys.nodes[i].machine->initial();
        if (sys.nodes[i].parent == kNoNode)
            init.blocks[i].hasData = true;
    }
    init.budget.assign(sys.leafCaches.size(), 2);

    // A state's orbit is named by the least key among its renamings.
    const auto perms = classPermutations(sys);
    std::set<std::string> orbits;
    std::deque<RefState> queue;
    auto reach = [&](RefState st) {
        std::string key = keyOf(st);
        if (!res.reachable.insert(key).second)
            return;
        for (size_t pi = 1; pi < perms.size(); ++pi)
            key = std::min(key, keyOf(renamed(sys, st, perms[pi])));
        orbits.insert(std::move(key));
        if (violates(sys, st))
            res.ok = false;
        queue.push_back(std::move(st));
    };
    reach(init);
    while (!queue.empty() && res.ok) {
        RefState cur = std::move(queue.front());
        queue.pop_front();
        bool enabled = false;
        for (const auto &[ch, q] : cur.channels) {
            for (size_t i = 0; i < q.size(); ++i) {
                const Msg m = q[i];
                // Ordered-network messages leave a channel in order.
                bool blocked = false;
                for (size_t j = 0; j < i && onOrderedNet(*sys.msgs, m); ++j)
                    blocked = blocked || onOrderedNet(*sys.msgs, q[j]);
                if (blocked)
                    continue;
                RefState next = cur;
                std::vector<Msg> &nq = next.channels[ch];
                nq.erase(nq.begin() + static_cast<ptrdiff_t>(i));
                if (nq.empty())
                    next.channels.erase(ch);
                RefEnv env(next);
                StepResult r =
                    deliverMsg(sys.nodes[m.dst], *sys.msgs,
                               next.blocks[m.dst], m, env);
                if (r == StepResult::Error || env.failed) {
                    res.ok = false;
                    return res;
                }
                if (r == StepResult::Stalled)
                    continue;
                enabled = true;
                reach(std::move(next));
            }
        }
        for (size_t li = 0; li < sys.leafCaches.size(); ++li) {
            if (cur.budget[li] == 0)
                continue;
            NodeId c = sys.leafCaches[li];
            for (Access a : {Access::Load, Access::Store, Access::Evict}) {
                EventKey ev = EventKey::mkAccess(a);
                if (!sys.nodes[c].machine->hasTransition(
                        cur.blocks[c].state, ev))
                    continue;
                RefState next = cur;
                next.budget[li] -= 1;
                RefEnv env(next);
                StepResult r = deliverEvent(sys.nodes[c], *sys.msgs,
                                            next.blocks[c], ev, nullptr,
                                            env);
                if (r == StepResult::Error || env.failed) {
                    res.ok = false;
                    return res;
                }
                if (r == StepResult::Stalled)
                    continue;
                enabled = true;
                reach(std::move(next));
            }
        }
        bool atRest = cur.channels.empty();
        for (size_t n = 0; n < cur.blocks.size() && atRest; ++n)
            atRest = stableAt(sys, cur, n);
        if (!enabled && !atRest)
            res.ok = false;  // deadlock: nothing enabled, not at rest
    }
    res.orbits = orbits.size();
    return res;
}

/** The engine's count on one worker, symmetry reduction on or off. */
verif::CheckResult
engine(const verif::System &sys, bool symmetry)
{
    verif::CheckOptions o;
    o.numThreads = 1;
    o.symmetryReduction = symmetry;
    return verif::check(sys, o);
}

void
expectAgrees(const HierProtocol &p, int h, int l, const std::string &what)
{
    verif::System sys = verif::buildHierSystem(p, h, l);
    RefResult ref = explore(sys);
    verif::CheckResult plain = engine(sys, false);
    verif::CheckResult canon = engine(sys, true);
    EXPECT_EQ(plain.ok, ref.ok) << what << ": " << plain.summary();
    EXPECT_EQ(canon.ok, ref.ok) << what << ": " << canon.summary();
    if (!ref.ok)
        return;  // counts of a stopped search are partial
    EXPECT_EQ(plain.statesExplored, ref.reachable.size()) << what;
    EXPECT_EQ(canon.statesExplored, ref.orbits) << what;
}

HierProtocol
gen(const std::string &lo, const std::string &hi, ConcurrencyMode mode)
{
    core::HierGenOptions g;
    g.mode = mode;
    return core::generate(protocols::builtinProtocol(lo),
                          protocols::builtinProtocol(hi), g);
}

class RefOneAndOne
    : public ::testing::TestWithParam<
          std::tuple<testnames::Combo, ConcurrencyMode>>
{
};

TEST_P(RefOneAndOne, EngineMatchesReference)
{
    auto [combo, mode] = GetParam();
    expectAgrees(gen(combo.first, combo.second, mode), 1, 1,
                 testnames::comboName(combo));
}

/** Every (lower, higher) pair of the five builtin SSPs. */
std::vector<testnames::Combo>
allCombos()
{
    static const char *const names[] = {"MI", "MSI", "MESI", "MOSI",
                                        "MOESI"};
    std::vector<testnames::Combo> out;
    for (const char *lo : names) {
        for (const char *hi : names)
            out.push_back({lo, hi});
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Builtins, RefOneAndOne,
    ::testing::Combine(::testing::ValuesIn(allCombos()),
                       ::testing::Values(ConcurrencyMode::Stalling,
                                         ConcurrencyMode::NonStalling)),
    testnames::comboMode);

TEST(RefTwoAndOne, MsiMsiNonStalling)
{
    HierProtocol p = gen("MSI", "MSI", ConcurrencyMode::NonStalling);
    verif::System sys = verif::buildHierSystem(p, 2, 1);
    RefResult ref = explore(sys);
    ASSERT_TRUE(ref.ok);
    EXPECT_EQ(ref.orbits, 83023u);
    EXPECT_EQ(engine(sys, true).statesExplored, ref.orbits);
    EXPECT_EQ(engine(sys, false).statesExplored, ref.reachable.size());
}

TEST(RefFailing, SeededBugFailsBoth)
{
    // The oracle is not vacuous: a protocol that keeps a stale copy
    // fails in both searches.
    HierProtocol p = gen("MSI", "MSI", ConcurrencyMode::NonStalling);
    seeded::dropInvalidation(p.cacheL, p.msgs, Level::Lower);
    verif::System sys = verif::buildHierSystem(p, 1, 2);
    RefResult ref = explore(sys);
    EXPECT_FALSE(ref.ok);
    EXPECT_FALSE(engine(sys, true).ok);
    EXPECT_FALSE(engine(sys, false).ok);
}

} // namespace
} // namespace hieragen
