/**
 * @file
 * Parallel-vs-sequential checker parity, plus regression tests for
 * the hot-path rewrites (canonical encoding, one-pass deliverability).
 *
 * The contract under test: verif::check with numThreads > 1 returns
 * the same verdict and — on clean runs — identical statesExplored,
 * statesGenerated and transitionsFired as the sequential algorithm,
 * in both exact and hash-compaction modes. The engine has a single
 * successor relation, full expansion, so the explored space of every
 * builtin configuration is pinned by count, the same at one worker
 * and at several, and seeded bugs are caught at both.
 */

#include <gtest/gtest.h>

#include "core/hiera.hh"
#include "protocols/registry.hh"
#include "seeded_bugs.hh"
#include "verif/checker.hh"
#include "param_names.hh"

namespace hieragen
{
namespace
{

constexpr unsigned kParThreads = 4;

verif::CheckOptions
atomicOpts(int budget = 2)
{
    verif::CheckOptions o;
    o.atomicTransactions = true;
    o.accessBudget = budget;
    return o;
}

void
expectParity(const verif::CheckResult &seq,
             const verif::CheckResult &par, const std::string &what)
{
    EXPECT_EQ(seq.ok, par.ok) << what;
    EXPECT_EQ(seq.errorKind, par.errorKind) << what;
    EXPECT_EQ(seq.statesExplored, par.statesExplored) << what;
    if (seq.ok) {
        EXPECT_EQ(seq.statesGenerated, par.statesGenerated) << what;
        EXPECT_EQ(seq.transitionsFired, par.transitionsFired) << what;
    }
}

class FlatParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FlatParity, ExactAndCompactedAgree)
{
    Protocol p = protocols::builtinProtocol(GetParam());
    for (bool compaction : {false, true}) {
        verif::CheckOptions o = atomicOpts();
        o.hashCompaction = compaction;
        o.numThreads = 1;
        auto seq = verif::checkFlat(p, 3, o);
        o.numThreads = kParThreads;
        auto par = verif::checkFlat(p, 3, o);
        expectParity(seq, par,
                     GetParam() + (compaction ? " compacted" : " exact"));
        EXPECT_TRUE(par.ok) << par.summary();
    }
}

INSTANTIATE_TEST_SUITE_P(All, FlatParity,
                         ::testing::Values("MI", "MSI", "MESI", "MOSI",
                                           "MOESI"));

/** Every builtin hierarchical combo, both concurrency modes, exact
 *  and compacted. accessBudget 1 keeps each space small enough that
 *  the full sweep stays in the fast tier. */
class HierParity
    : public ::testing::TestWithParam<
          std::tuple<std::pair<const char *, const char *>,
                     ConcurrencyMode>>
{
};

const std::pair<const char *, const char *> kCombos[] = {
    {"MSI", "MI"},   {"MI", "MSI"},    {"MSI", "MSI"},
    {"MESI", "MSI"}, {"MESI", "MESI"}, {"MOSI", "MSI"},
    {"MOSI", "MOSI"}, {"MOESI", "MOESI"},
};

TEST_P(HierParity, ExactAndCompactedAgree)
{
    auto [combo, mode] = GetParam();
    Protocol l = protocols::builtinProtocol(combo.first);
    Protocol h = protocols::builtinProtocol(combo.second);
    core::HierGenOptions gopts;
    gopts.mode = mode;
    HierProtocol p = core::generate(l, h, gopts);

    for (bool compaction : {false, true}) {
        verif::CheckOptions o;
        o.accessBudget = 1;
        o.traceOnError = false;
        o.hashCompaction = compaction;
        o.numThreads = 1;
        auto seq = verif::checkHier(p, 2, 2, o);
        o.numThreads = kParThreads;
        auto par = verif::checkHier(p, 2, 2, o);
        expectParity(seq, par,
                     std::string(combo.first) + "/" + combo.second +
                         " " + toString(mode) +
                         (compaction ? " compacted" : " exact"));
        EXPECT_TRUE(par.ok) << par.summary();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, HierParity,
    ::testing::Combine(::testing::ValuesIn(kCombos),
                       ::testing::Values(ConcurrencyMode::Stalling,
                                         ConcurrencyMode::NonStalling)),
    testnames::comboMode);

TEST(ParallelMechanics, StateLimitExact)
{
    Protocol p = protocols::builtinProtocol("MSI");
    verif::CheckOptions o = atomicOpts();
    o.maxStates = 5;
    o.numThreads = kParThreads;
    auto r = verif::checkFlat(p, 2, o);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.hitStateLimit);
    EXPECT_EQ(r.errorKind, hieragen::ErrorKind::StateLimit);
    EXPECT_EQ(r.statesExplored, 5u);
}

TEST(ParallelMechanics, BugStillCaughtWithTrace)
{
    // Same sabotage as the sequential CheckerDetectsBugs suite: S
    // ignores Inv. The parallel checker must find a violation and
    // still produce a counterexample trace.
    Protocol p = protocols::builtinProtocol("MSI");
    seeded::dropInvalidation(p.cache, p.msgs, Level::Lower);

    verif::CheckOptions o = atomicOpts();
    o.numThreads = kParThreads;
    auto r = verif::checkFlat(p, 2, o);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.errorKind == hieragen::ErrorKind::Swmr || r.errorKind == hieragen::ErrorKind::DataValue)
        << r.summary();
    EXPECT_FALSE(r.trace.empty());
}

TEST(ParallelMechanics, DeadlockStillCaught)
{
    Protocol p = protocols::builtinProtocol("MI");
    seeded::dropGetM(p.directory, p.msgs, Level::Lower);

    verif::CheckOptions o = atomicOpts();
    o.numThreads = kParThreads;
    auto r = verif::checkFlat(p, 2, o);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorKind, hieragen::ErrorKind::Deadlock) << r.summary();
}

TEST(ParallelMechanics, CensusMatchesSequential)
{
    // The reachability census (markReached) must see the same set of
    // fired transitions whether exploration is threaded or not.
    Protocol seqP = protocols::builtinProtocol("MSI");
    Protocol parP = protocols::builtinProtocol("MSI");

    verif::System seqSys = verif::buildFlatSystem(seqP, 2);
    verif::CheckOptions o = atomicOpts();
    o.numThreads = 1;
    auto rs = verif::pruneUnreachable(seqSys, o,
                                      {&seqP.cache, &seqP.directory});

    verif::System parSys = verif::buildFlatSystem(parP, 2);
    o.numThreads = kParThreads;
    auto rp = verif::pruneUnreachable(parSys, o,
                                      {&parP.cache, &parP.directory});

    ASSERT_TRUE(rs.ok);
    ASSERT_TRUE(rp.ok);
    EXPECT_EQ(seqP.cache.numReachedTransitions(),
              parP.cache.numReachedTransitions());
    EXPECT_EQ(seqP.directory.numReachedTransitions(),
              parP.directory.numReachedTransitions());
    EXPECT_EQ(seqP.cache.numReachedStates(),
              parP.cache.numReachedStates());
}

// ---------------------------------------------------------------
// The explored space, pinned: each count is the full-expansion space
// of its configuration, and the engine must reach exactly it at one
// worker and at several. A flat case (no `higher`) runs 3 caches
// under atomicOpts(); a hierarchical one runs 2H+2L at budget 1.

struct SpaceCase
{
    const char *lower, *higher;
    ConcurrencyMode mode;
    uint64_t explored, generated, fired;
};

/** Keeps the test's listed name free of the raw bytes (pointers
 *  included) gtest would print for the struct. */
void
PrintTo(const SpaceCase &c, std::ostream *os)
{
    *os << c.lower;
    if (c.higher)
        *os << "/" << c.higher << " " << toString(c.mode);
}

class PinnedSpace : public ::testing::TestWithParam<SpaceCase>
{
};

TEST_P(PinnedSpace, SameAtEveryThreadCount)
{
    const SpaceCase &c = GetParam();
    core::HierGenOptions gopts;
    gopts.mode = c.mode;
    for (unsigned threads : {1u, kParThreads}) {
        verif::CheckOptions o = atomicOpts();
        o.numThreads = threads;
        verif::CheckResult r;
        if (c.higher) {
            o.atomicTransactions = false;
            o.accessBudget = 1;
            o.traceOnError = false;
            r = verif::checkHier(
                core::generate(protocols::builtinProtocol(c.lower),
                               protocols::builtinProtocol(c.higher),
                               gopts),
                2, 2, o);
        } else {
            r = verif::checkFlat(protocols::builtinProtocol(c.lower), 3,
                                 o);
        }
        std::string what = std::string(c.lower) + " x" +
                           std::to_string(threads);
        EXPECT_TRUE(r.ok) << what << ": " << r.summary();
        EXPECT_EQ(r.statesExplored, c.explored) << what;
        EXPECT_EQ(r.statesGenerated, c.generated) << what;
        EXPECT_EQ(r.transitionsFired, c.fired) << what;
    }
}

constexpr ConcurrencyMode kStall = ConcurrencyMode::Stalling;
constexpr ConcurrencyMode kNonStall = ConcurrencyMode::NonStalling;

INSTANTIATE_TEST_SUITE_P(
    Builtins, PinnedSpace,
    ::testing::Values(
        SpaceCase{"MI", nullptr, kStall, 323, 447, 446},
        SpaceCase{"MSI", nullptr, kStall, 897, 1452, 1451},
        SpaceCase{"MESI", nullptr, kStall, 998, 1591, 1590},
        SpaceCase{"MOSI", nullptr, kStall, 1169, 1777, 1776},
        SpaceCase{"MOESI", nullptr, kStall, 1205, 1779, 1778},
        SpaceCase{"MSI_SE", nullptr, kStall, 1026, 1724, 1723},
        SpaceCase{"MSI", "MI", kStall, 2812, 7433, 7432},
        SpaceCase{"MSI", "MI", kNonStall, 5004, 13995, 13994},
        SpaceCase{"MI", "MSI", kStall, 3569, 9323, 9322},
        SpaceCase{"MI", "MSI", kNonStall, 5647, 15675, 15674},
        SpaceCase{"MSI", "MSI", kStall, 4809, 13284, 13283},
        SpaceCase{"MSI", "MSI", kNonStall, 8243, 24824, 24823},
        SpaceCase{"MESI", "MSI", kStall, 4503, 11656, 11655},
        SpaceCase{"MESI", "MSI", kNonStall, 6997, 19417, 19416},
        SpaceCase{"MESI", "MESI", kStall, 4335, 11076, 11075},
        SpaceCase{"MESI", "MESI", kNonStall, 6679, 18221, 18220},
        SpaceCase{"MOSI", "MSI", kStall, 5092, 13906, 13905},
        SpaceCase{"MOSI", "MSI", kNonStall, 8581, 25612, 25611},
        SpaceCase{"MOSI", "MOSI", kStall, 4681, 12497, 12496},
        SpaceCase{"MOSI", "MOSI", kNonStall, 8276, 24300, 24299},
        SpaceCase{"MOESI", "MOESI", kStall, 3948, 9557, 9556},
        SpaceCase{"MOESI", "MOESI", kNonStall, 6456, 16921, 16920}),
    [](const ::testing::TestParamInfo<SpaceCase> &i) {
        const SpaceCase &c = i.param;
        if (!c.higher)
            return std::string(c.lower);
        return std::string(c.lower) + "_" + c.higher +
               (c.mode == kStall ? "_stalling" : "_nonstalling");
    });

HierProtocol
msiUnderMsi()
{
    core::HierGenOptions gopts;
    gopts.mode = ConcurrencyMode::NonStalling;
    return core::generate(protocols::builtinProtocol("MSI"),
                          protocols::builtinProtocol("MSI"), gopts);
}

TEST(ParallelMechanics, FlagshipSpacePinned)
{
    // MSI/MSI non-stalling 2H+1L under library defaults (symmetry and
    // tracing on): the sequential flagship configuration.
    HierProtocol p = msiUnderMsi();
    for (unsigned threads : {1u, kParThreads}) {
        verif::CheckOptions o;
        o.numThreads = threads;
        auto r = verif::checkHier(p, 2, 1, o);
        EXPECT_TRUE(r.ok) << r.summary();
        EXPECT_EQ(r.statesExplored, 83023u) << threads;
        EXPECT_EQ(r.statesGenerated, 264411u) << threads;
        EXPECT_EQ(r.transitionsFired, 264410u) << threads;
    }
}

TEST(ParallelMechanics, HierCensusMatchesSequential)
{
    // The section V-E census of MSI/MSI non-stalling 2H+2L, as
    // (reached transitions, reached states) per machine.
    const size_t want[4][2] = {{24, 11}, {60, 26}, {27, 11}, {7, 4}};
    for (unsigned threads : {1u, kParThreads}) {
        HierProtocol p = msiUnderMsi();
        verif::System sys = verif::buildHierSystem(p, 2, 2);
        verif::CheckOptions o;
        o.accessBudget = 1;
        o.traceOnError = false;
        o.numThreads = threads;
        const std::vector<Machine *> machines = {&p.cacheL, &p.dirCache,
                                                 &p.cacheH, &p.root};
        auto r = verif::pruneUnreachable(sys, o, machines);
        ASSERT_TRUE(r.ok) << r.summary();
        for (size_t i = 0; i < machines.size(); ++i) {
            EXPECT_EQ(machines[i]->numReachedTransitions(), want[i][0])
                << "machine " << i << " x" << threads;
            EXPECT_EQ(machines[i]->numReachedStates(), want[i][1])
                << "machine " << i << " x" << threads;
        }
    }
}

// ---------------------------------------------------------------
// Seeded bugs in each machine of MSI/MSI non-stalling 2H+2L, caught
// with a trace at every thread count.

struct MutationCase
{
    const char *name;
    bool deadlock;  ///< else a SWMR or data-value violation
    void (*sabotage)(HierProtocol &p);
};

void
PrintTo(const MutationCase &c, std::ostream *os)
{
    *os << c.name;
}

class MutationCaught : public ::testing::TestWithParam<MutationCase>
{
};

TEST_P(MutationCaught, AtEveryThreadCount)
{
    const MutationCase &c = GetParam();
    HierProtocol p = msiUnderMsi();
    c.sabotage(p);
    for (unsigned threads : {1u, kParThreads}) {
        verif::CheckOptions o;
        o.accessBudget = 1;
        o.numThreads = threads;
        auto r = verif::checkHier(p, 2, 2, o);
        EXPECT_FALSE(r.ok) << c.name << " x" << threads;
        if (c.deadlock) {
            EXPECT_EQ(r.errorKind, hieragen::ErrorKind::Deadlock)
                << r.summary();
        } else {
            EXPECT_TRUE(r.errorKind == hieragen::ErrorKind::Swmr ||
                        r.errorKind == hieragen::ErrorKind::DataValue)
                << r.summary();
        }
        EXPECT_FALSE(r.trace.empty()) << c.name << " x" << threads;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Hier, MutationCaught,
    ::testing::Values(
        MutationCase{"lower_cache_keeps_s", false,
                     [](HierProtocol &p) {
                         seeded::dropInvalidation(p.cacheL, p.msgs,
                                                  Level::Lower);
                     }},
        MutationCase{"higher_cache_keeps_s", false,
                     [](HierProtocol &p) {
                         seeded::dropInvalidation(p.cacheH, p.msgs,
                                                  Level::Higher);
                     }},
        MutationCase{"dircache_drops_getm", true,
                     [](HierProtocol &p) {
                         seeded::dropGetM(p.dirCache, p.msgs,
                                          Level::Lower, "I_I");
                     }},
        MutationCase{"root_drops_getm", true,
                     [](HierProtocol &p) {
                         seeded::dropGetM(p.root, p.msgs, Level::Higher);
                     }}),
    [](const ::testing::TestParamInfo<MutationCase> &i) {
        return std::string(i.param.name);
    });

// ---------------------------------------------------------------
// Hot-path regression tests.

struct MsgFixture
{
    Protocol p = protocols::builtinProtocol("MSI");
    MsgTypeId gets, inv, putack;

    MsgFixture()
    {
        gets = p.msgs.find("GetS", Level::Lower);
        inv = p.msgs.find("Inv", Level::Lower);
        putack = p.msgs.find("PutAck", Level::Lower);
    }

    Msg
    mk(MsgTypeId t, NodeId src, NodeId dst)
    {
        Msg m;
        m.type = t;
        m.src = src;
        m.dst = dst;
        return m;
    }
};

TEST(EncodeCanonical, IndependentOfSendHistoryOnOrderedChannels)
{
    // Channel [Inv, PutAck] reached via different send histories must
    // encode identically: raw seq values differ (1,2 vs 0,1 here) but
    // the canonical FIFO ranks are what the encoding stores.
    MsgFixture f;
    verif::SysState a;
    a.blocks.resize(3);
    verif::SysState b = a;

    a.insertMsg(f.mk(f.gets, 0, 1));   // seq 0 on (0,1)
    a.insertMsg(f.mk(f.inv, 0, 1));    // seq 1
    a.insertMsg(f.mk(f.putack, 0, 1)); // seq 2
    // Deliver the GetS: channel keeps Inv(seq 1), PutAck(seq 2).
    for (size_t i = 0; i < a.msgs.size(); ++i) {
        if (a.msgs[i].type == f.gets) {
            a.removeMsg(i);
            break;
        }
    }

    b.insertMsg(f.mk(f.inv, 0, 1));    // seq 0
    b.insertMsg(f.mk(f.putack, 0, 1)); // seq 1

    EXPECT_EQ(a.encode(), b.encode())
        << "canonical ranks must erase send history";
}

TEST(EncodeCanonical, OrderedInsertionOrderStillDistinguished)
{
    // Opposite FIFO order on an ordered channel is a different state;
    // the single-pass rank computation must preserve that.
    MsgFixture f;
    verif::SysState a;
    a.blocks.resize(3);
    verif::SysState b = a;
    a.insertMsg(f.mk(f.inv, 0, 1));
    a.insertMsg(f.mk(f.putack, 0, 1));
    b.insertMsg(f.mk(f.putack, 0, 1));
    b.insertMsg(f.mk(f.inv, 0, 1));
    EXPECT_NE(a.encode(), b.encode());
}

TEST(EncodeCanonical, UnorderedInsertionOrderIrrelevant)
{
    MsgFixture f;
    verif::SysState a;
    a.blocks.resize(3);
    verif::SysState b = a;
    Msg m1 = f.mk(f.gets, 1, 0);
    Msg m2 = f.mk(f.gets, 2, 0);
    a.insertMsg(m1);
    a.insertMsg(m2);
    b.insertMsg(m2);
    b.insertMsg(m1);
    EXPECT_EQ(a.encode(), b.encode());
}

TEST(EncodeCanonical, EncodeToMatchesEncodeAndReusesBuffer)
{
    MsgFixture f;
    verif::SysState st;
    st.blocks.resize(3);
    st.budget.assign(2, 2);
    st.insertMsg(f.mk(f.inv, 0, 1));
    st.insertMsg(f.mk(f.gets, 1, 0));
    std::string buf = "stale contents";
    st.encodeTo(buf);
    EXPECT_EQ(buf, st.encode());
    st.encodeTo(buf);  // second fill into the same buffer
    EXPECT_EQ(buf, st.encode());
}

TEST(DeliverableMask, MatchesPerIndexDeliverable)
{
    MsgFixture f;
    verif::SysState st;
    st.blocks.resize(4);
    st.insertMsg(f.mk(f.inv, 0, 1));
    st.insertMsg(f.mk(f.putack, 0, 1));  // blocked behind the Inv
    st.insertMsg(f.mk(f.inv, 0, 2));     // other channel: free
    st.insertMsg(f.mk(f.gets, 1, 0));    // unordered: free
    st.insertMsg(f.mk(f.gets, 2, 0));

    std::vector<char> mask;
    st.deliverableMask(f.p.msgs, mask);
    ASSERT_EQ(mask.size(), st.msgs.size());
    for (size_t i = 0; i < st.msgs.size(); ++i) {
        EXPECT_EQ(static_cast<bool>(mask[i]),
                  st.deliverable(f.p.msgs, i))
            << "index " << i;
    }
}

} // namespace
} // namespace hieragen
