/**
 * @file
 * Symmetry-reduction parity and unit tests.
 *
 * The contract under test: with CheckOptions::symmetryReduction on,
 * the checker stores/expands one canonical representative per orbit
 * of the system's node-symmetry group (cache peers in flat systems,
 * cache-H and cache-L peers in hierarchical ones). Verdicts must be
 * identical with reduction on and off — for every builtin flat
 * protocol and hierarchical combo, for buggy protocols (the
 * counterexample must survive), and for the Section V-E census — and
 * canonical state counts must never exceed the unreduced counts. The
 * parallel engine must agree with the sequential one state-for-state
 * with reduction on (this suite is also a ThreadSanitizer target).
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

// ---------------------------------------------------------------
// Canonicalization unit tests on hand-built states.

struct SymFixture
{
    Protocol p = protocols::builtinProtocol("MSI");
    verif::System sys = verif::buildFlatSystem(p, 3);
    MsgTypeId gets, inv;
    StateId cacheS, cacheI;

    SymFixture()
    {
        gets = p.msgs.find("GetS", Level::Lower);
        inv = p.msgs.find("Inv", Level::Lower);
        cacheS = p.cache.findState("S");
        cacheI = p.cache.findState("I");
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

    /** Initial state with cache @p c holding the line in S, recorded
     *  as a sharer at the directory, with a GetS from @p requester in
     *  flight. All cache peers being interchangeable, the result for
     *  different (c, requester) picks is one symmetry orbit. */
    verif::SysState
    readerState(NodeId c, NodeId requester)
    {
        verif::SysState st = verif::initialState(sys, 2);
        st.blocks[c].state = cacheS;
        st.blocks[c].hasData = true;
        st.blocks[c].data = 0;
        st.blocks[0].sharers = 1u << static_cast<uint32_t>(c);
        st.insertMsg(mk(gets, requester, 0));
        return st;
    }
};

TEST(SymmetryCanonical, SymmetricStatesShareOneRepresentative)
{
    SymFixture f;
    // Same orbit: (reader, requester) = (1, 2), (2, 1), (3, 2), ...
    verif::SysState a = f.readerState(1, 2);
    verif::SysState b = f.readerState(2, 1);
    verif::SysState c = f.readerState(3, 2);
    std::string ea, eb, ec;
    a.encodeCanonicalTo(f.sys, ea);
    b.encodeCanonicalTo(f.sys, eb);
    c.encodeCanonicalTo(f.sys, ec);
    EXPECT_EQ(ea, eb);
    EXPECT_EQ(ea, ec);
}

TEST(SymmetryCanonical, DistinctOrbitsStayDistinct)
{
    SymFixture f;
    // Reader == requester is a different orbit than reader != requester.
    verif::SysState a = f.readerState(1, 2);
    verif::SysState b = f.readerState(1, 1);
    std::string ea, eb;
    a.encodeCanonicalTo(f.sys, ea);
    b.encodeCanonicalTo(f.sys, eb);
    EXPECT_NE(ea, eb);
}

TEST(SymmetryCanonical, Idempotent)
{
    SymFixture f;
    verif::SysState a = f.readerState(2, 3);
    a.canonicalize(f.sys);
    std::string once = a.encode();
    a.canonicalize(f.sys);
    EXPECT_EQ(once, a.encode());
}

TEST(SymmetryCanonical, RepresentativeIsAPermutationImage)
{
    SymFixture f;
    verif::SysState a = f.readerState(3, 1);
    verif::SysState orig = a;
    a.canonicalize(f.sys);
    // Same message count, same ghost, same block-state multiset, and
    // exactly one directory sharer bit / one in-flight GetS.
    EXPECT_EQ(a.msgs.size(), orig.msgs.size());
    EXPECT_EQ(a.ghost, orig.ghost);
    EXPECT_EQ(a.blocks[0].state, orig.blocks[0].state);
    int readers = 0;
    for (NodeId c : f.sys.leafCaches)
        readers += a.blocks[c].state == f.cacheS ? 1 : 0;
    EXPECT_EQ(readers, 1);
    EXPECT_EQ(std::popcount(a.blocks[0].sharers), 1);
    // The directory's sharer bit points at the node that holds S.
    NodeId holder = static_cast<NodeId>(
        std::countr_zero(a.blocks[0].sharers));
    EXPECT_EQ(a.blocks[holder].state, f.cacheS);
}

TEST(SymmetryCanonical, BudgetFollowsItsNode)
{
    SymFixture f;
    verif::SysState a = verif::initialState(f.sys, 2);
    verif::SysState b = a;
    a.budget[0] = 1;  // cache 1 spent an access
    b.budget[2] = 1;  // cache 3 spent an access: same orbit
    std::string ea, eb;
    a.encodeCanonicalTo(f.sys, ea);
    b.encodeCanonicalTo(f.sys, eb);
    EXPECT_EQ(ea, eb);
}

TEST(SymmetryCanonical, FlatSystemsExposeOneClass)
{
    SymFixture f;
    ASSERT_EQ(f.sys.symClasses.size(), 1u);
    EXPECT_EQ(f.sys.symClasses[0],
              (std::vector<NodeId>{1, 2, 3}));
    // Single-cache systems have no nontrivial symmetry.
    verif::System one = verif::buildFlatSystem(f.p, 1);
    EXPECT_TRUE(one.symClasses.empty());
}

TEST(SymmetryCanonical, HierSystemsExposeTwoClasses)
{
    Protocol l = protocols::builtinProtocol("MSI");
    Protocol h = protocols::builtinProtocol("MSI");
    core::HierGenOptions gopts;
    HierProtocol p = core::generate(l, h, gopts);
    verif::System sys = verif::buildHierSystem(p, 2, 3);
    ASSERT_EQ(sys.symClasses.size(), 2u);
    EXPECT_EQ(sys.symClasses[0], (std::vector<NodeId>{1, 2}));
    EXPECT_EQ(sys.symClasses[1], (std::vector<NodeId>{4, 5, 6}));
}

// ---------------------------------------------------------------
// Verdict/count parity: every builtin flat protocol.

class FlatSymmetryParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FlatSymmetryParity, SameVerdictFewerStates)
{
    Protocol p = protocols::builtinProtocol(GetParam());
    verif::CheckOptions o = atomicOpts();
    o.numThreads = 1;
    o.symmetryReduction = false;
    auto off = verif::checkFlat(p, 3, o);
    o.symmetryReduction = true;
    auto on = verif::checkFlat(p, 3, o);

    EXPECT_EQ(off.ok, on.ok) << GetParam();
    EXPECT_EQ(off.errorKind, on.errorKind) << GetParam();
    EXPECT_FALSE(off.symmetryReduction);
    EXPECT_TRUE(on.symmetryReduction);
    // Three interchangeable caches: reduction must shrink the space
    // (up to 3! = 6x), never grow it.
    EXPECT_LT(on.statesExplored, off.statesExplored) << GetParam();
    EXPECT_LE(on.statesGenerated, off.statesGenerated) << GetParam();

    // The parallel engine agrees with the sequential one state-for-
    // state under reduction.
    o.numThreads = kParThreads;
    auto par = verif::checkFlat(p, 3, o);
    EXPECT_EQ(on.ok, par.ok) << GetParam();
    EXPECT_EQ(on.statesExplored, par.statesExplored) << GetParam();
    EXPECT_EQ(on.statesGenerated, par.statesGenerated) << GetParam();
    EXPECT_EQ(on.transitionsFired, par.transitionsFired) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(All, FlatSymmetryParity,
                         ::testing::Values("MI", "MSI", "MESI", "MOSI",
                                           "MOESI", "MSI_SE"));

// ---------------------------------------------------------------
// Verdict/count parity: every builtin hierarchical combo, both
// concurrency modes, exact and hash-compacted storage.

class HierSymmetryParity
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

TEST_P(HierSymmetryParity, SameVerdictFewerStates)
{
    auto [combo, mode] = GetParam();
    Protocol l = protocols::builtinProtocol(combo.first);
    Protocol h = protocols::builtinProtocol(combo.second);
    core::HierGenOptions gopts;
    gopts.mode = mode;
    HierProtocol p = core::generate(l, h, gopts);
    std::string what = std::string(combo.first) + "/" + combo.second +
                       " " + toString(mode);

    verif::CheckOptions o;
    o.accessBudget = 1;
    o.traceOnError = false;
    o.numThreads = 1;
    o.symmetryReduction = false;
    auto off = verif::checkHier(p, 2, 2, o);
    o.symmetryReduction = true;
    auto on = verif::checkHier(p, 2, 2, o);

    EXPECT_EQ(off.ok, on.ok) << what;
    EXPECT_EQ(off.errorKind, on.errorKind) << what;
    EXPECT_TRUE(on.ok) << on.summary();
    // 2 cache-H x 2 cache-L peers: up to 2!*2! = 4x reduction.
    EXPECT_LT(on.statesExplored, off.statesExplored) << what;
    EXPECT_LE(on.statesGenerated, off.statesGenerated) << what;

    // Parallel engine, reduction on: exact state-count parity.
    o.numThreads = kParThreads;
    auto par = verif::checkHier(p, 2, 2, o);
    EXPECT_EQ(on.ok, par.ok) << what;
    EXPECT_EQ(on.statesExplored, par.statesExplored) << what;
    EXPECT_EQ(on.statesGenerated, par.statesGenerated) << what;
    EXPECT_EQ(on.transitionsFired, par.transitionsFired) << what;

    // Hash compaction on canonical signatures: same verdict, same
    // canonical state count (collisions aside at these sizes); and
    // the same for the unreduced space.
    o.numThreads = 1;
    o.hashCompaction = true;
    auto compact = verif::checkHier(p, 2, 2, o);
    EXPECT_EQ(on.ok, compact.ok) << what;
    EXPECT_EQ(on.statesExplored, compact.statesExplored) << what;
    o.symmetryReduction = false;
    auto compactOff = verif::checkHier(p, 2, 2, o);
    EXPECT_EQ(off.ok, compactOff.ok) << what;
    EXPECT_EQ(off.statesExplored, compactOff.statesExplored) << what;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, HierSymmetryParity,
    ::testing::Combine(::testing::ValuesIn(kCombos),
                       ::testing::Values(ConcurrencyMode::Stalling,
                                         ConcurrencyMode::NonStalling)),
    testnames::comboMode);

// ---------------------------------------------------------------
// Buggy protocols: the counterexample must survive reduction.

TEST(SymmetryBugs, MutatedMsiStillProducesTrace)
{
    // Same sabotage as CheckerDetectsBugs: S ignores Inv, leaving a
    // reader alive next to a writer. Reduction must still find the
    // violation and still reconstruct a counterexample trace (over
    // canonical representatives).
    Protocol p = protocols::builtinProtocol("MSI");
    seeded::dropInvalidation(p.cache, p.msgs, Level::Lower);

    for (unsigned threads : {1u, kParThreads}) {
        verif::CheckOptions o = atomicOpts();
        o.numThreads = threads;
        o.symmetryReduction = true;
        auto r = verif::checkFlat(p, 3, o);
        EXPECT_FALSE(r.ok) << threads;
        EXPECT_TRUE(r.errorKind == hieragen::ErrorKind::Swmr ||
                    r.errorKind == hieragen::ErrorKind::DataValue)
            << r.summary();
        EXPECT_FALSE(r.trace.empty()) << threads;
    }
}

TEST(SymmetryBugs, DeadlockStillCaught)
{
    Protocol p = protocols::builtinProtocol("MI");
    seeded::dropGetM(p.directory, p.msgs, Level::Lower);

    for (unsigned threads : {1u, kParThreads}) {
        verif::CheckOptions o = atomicOpts();
        o.numThreads = threads;
        o.symmetryReduction = true;
        auto r = verif::checkFlat(p, 3, o);
        EXPECT_FALSE(r.ok) << threads;
        EXPECT_EQ(r.errorKind, hieragen::ErrorKind::Deadlock)
            << r.summary();
    }
}

// ---------------------------------------------------------------
// Census parity: pruning must drop the same state/event pairs.

TEST(SymmetryCensus, FlatCensusPrunesIdentically)
{
    Protocol offP = protocols::builtinProtocol("MSI");
    Protocol onP = protocols::builtinProtocol("MSI");

    verif::CheckOptions o = atomicOpts();
    o.numThreads = 1;
    o.symmetryReduction = false;
    verif::System offSys = verif::buildFlatSystem(offP, 3);
    auto roff = verif::pruneUnreachable(
        offSys, o, {&offP.cache, &offP.directory});

    o.symmetryReduction = true;
    verif::System onSys = verif::buildFlatSystem(onP, 3);
    auto ron = verif::pruneUnreachable(
        onSys, o, {&onP.cache, &onP.directory});

    ASSERT_TRUE(roff.ok);
    ASSERT_TRUE(ron.ok);
    EXPECT_EQ(offP.cache.numReachedTransitions(),
              onP.cache.numReachedTransitions());
    EXPECT_EQ(offP.directory.numReachedTransitions(),
              onP.directory.numReachedTransitions());
    EXPECT_EQ(offP.cache.numReachedStates(),
              onP.cache.numReachedStates());
    EXPECT_EQ(offP.directory.numReachedStates(),
              onP.directory.numReachedStates());
}

TEST(SymmetryCensus, HierCensusPrunesIdentically)
{
    auto runCensus = [](bool sym, size_t out[4]) {
        Protocol l = protocols::builtinProtocol("MSI");
        Protocol h = protocols::builtinProtocol("MSI");
        core::HierGenOptions gopts;
        gopts.mode = ConcurrencyMode::NonStalling;
        HierProtocol p = core::generate(l, h, gopts);
        verif::System sys = verif::buildHierSystem(p, 2, 2);
        verif::CheckOptions o;
        o.accessBudget = 1;
        o.traceOnError = false;
        o.numThreads = 1;
        o.symmetryReduction = sym;
        auto r = verif::pruneUnreachable(
            sys, o, {&p.cacheL, &p.dirCache, &p.cacheH, &p.root});
        ASSERT_TRUE(r.ok) << r.summary();
        out[0] = p.cacheL.numReachedTransitions();
        out[1] = p.dirCache.numReachedTransitions();
        out[2] = p.cacheH.numReachedTransitions();
        out[3] = p.root.numReachedTransitions();
    };
    size_t off[4], on[4];
    runCensus(false, off);
    runCensus(true, on);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(off[i], on[i]) << "machine " << i;
}

// ---------------------------------------------------------------
// Mechanics.

TEST(SymmetryMechanics, StateLimitCountsCanonicalStates)
{
    Protocol p = protocols::builtinProtocol("MSI");
    verif::CheckOptions o = atomicOpts();
    o.maxStates = 5;
    o.symmetryReduction = true;
    for (unsigned threads : {1u, kParThreads}) {
        o.numThreads = threads;
        auto r = verif::checkFlat(p, 3, o);
        EXPECT_FALSE(r.ok);
        EXPECT_TRUE(r.hitStateLimit);
        EXPECT_EQ(r.statesExplored, 5u) << threads;
    }
}

TEST(SymmetryMechanics, SummaryReportsModes)
{
    Protocol p = protocols::builtinProtocol("MI");
    verif::CheckOptions o = atomicOpts();
    o.numThreads = 1;

    o.symmetryReduction = true;
    auto on = verif::checkFlat(p, 2, o);
    EXPECT_NE(on.summary().find("sym on"), std::string::npos)
        << on.summary();
    EXPECT_NE(on.summary().find("canonical states"), std::string::npos);

    o.symmetryReduction = false;
    o.hashCompaction = true;
    auto off = verif::checkFlat(p, 2, o);
    EXPECT_NE(off.summary().find("sym off"), std::string::npos);
    EXPECT_NE(off.summary().find("compaction on"), std::string::npos);
}

TEST(SymmetryMechanics, ReductionIgnoredWithoutSymmetryClasses)
{
    // A single-cache system has no peers to permute: the option is
    // on, but the result must report reduction inactive and match
    // the off run exactly.
    Protocol p = protocols::builtinProtocol("MSI");
    verif::CheckOptions o = atomicOpts();
    o.numThreads = 1;
    o.symmetryReduction = true;
    auto on = verif::checkFlat(p, 1, o);
    o.symmetryReduction = false;
    auto off = verif::checkFlat(p, 1, o);
    EXPECT_FALSE(on.symmetryReduction);
    EXPECT_EQ(on.statesExplored, off.statesExplored);
    EXPECT_EQ(on.ok, off.ok);
}

} // namespace
} // namespace hieragen
