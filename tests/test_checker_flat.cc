/**
 * @file
 * Model-check the built-in flat protocols in atomic-transaction mode.
 *
 * These tests validate both the protocols (our Table I inputs) and the
 * checker itself before any generation step runs on top of them.
 */

#include <gtest/gtest.h>

#include "protocols/registry.hh"
#include "seeded_bugs.hh"
#include "verif/checker.hh"

namespace hieragen
{
namespace
{

verif::CheckOptions
atomicOpts(int budget = 2)
{
    verif::CheckOptions o;
    o.atomicTransactions = true;
    o.accessBudget = budget;
    return o;
}

std::string
traceOf(const verif::CheckResult &r)
{
    std::string out = r.summary() + "\n";
    for (const auto &line : r.trace)
        out += line + "\n";
    return out;
}

class FlatAtomic : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FlatAtomic, TwoCachesSafeAndDeadlockFree)
{
    Protocol p = protocols::builtinProtocol(GetParam());
    auto r = verif::checkFlat(p, 2, atomicOpts());
    EXPECT_TRUE(r.ok) << traceOf(r);
    EXPECT_GT(r.statesExplored, 10u);
}

TEST_P(FlatAtomic, ThreeCachesSafeAndDeadlockFree)
{
    Protocol p = protocols::builtinProtocol(GetParam());
    auto r = verif::checkFlat(p, 3, atomicOpts());
    EXPECT_TRUE(r.ok) << traceOf(r);
}

INSTANTIATE_TEST_SUITE_P(All, FlatAtomic,
                         ::testing::Values("MI", "MSI", "MESI", "MOSI",
                                           "MOESI"));

TEST(CheckerMechanics, StateLimitReported)
{
    Protocol p = protocols::builtinProtocol("MSI");
    verif::CheckOptions o = atomicOpts();
    o.maxStates = 5;
    auto r = verif::checkFlat(p, 2, o);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.hitStateLimit);
    EXPECT_EQ(r.errorKind, hieragen::ErrorKind::StateLimit);
}

TEST(CheckerMechanics, HashCompactionAgreesWithExact)
{
    Protocol p = protocols::builtinProtocol("MSI");
    auto exact = verif::checkFlat(p, 2, atomicOpts());
    verif::CheckOptions o = atomicOpts();
    o.hashCompaction = true;
    auto compact = verif::checkFlat(p, 2, o);
    EXPECT_TRUE(exact.ok);
    EXPECT_TRUE(compact.ok);
    EXPECT_EQ(exact.statesExplored, compact.statesExplored);
    EXPECT_GT(compact.omissionProbability, 0.0);
    EXPECT_LT(compact.omissionProbability, 1e-6);
}

TEST(CheckerMechanics, DifferentSeedsAgree)
{
    Protocol p = protocols::builtinProtocol("MI");
    verif::CheckOptions a = atomicOpts();
    a.hashCompaction = true;
    a.compactionSeed = 1;
    verif::CheckOptions b = a;
    b.compactionSeed = 2;
    auto ra = verif::checkFlat(p, 2, a);
    auto rb = verif::checkFlat(p, 2, b);
    EXPECT_EQ(ra.statesExplored, rb.statesExplored);
}

TEST(CheckerMechanics, CensusMarksReachableTransitions)
{
    Protocol p = protocols::builtinProtocol("MSI");
    verif::System sys = verif::buildFlatSystem(p, 2);
    auto r = verif::pruneUnreachable(
        sys, atomicOpts(), {&p.cache, &p.directory});
    EXPECT_TRUE(r.ok);
    EXPECT_GT(p.cache.numReachedTransitions(), 0u);
    EXPECT_EQ(p.cache.numTransitions(),
              p.cache.numReachedTransitions());
}

TEST(CheckerDetectsBugs, DroppedInvalidationViolatesSwmr)
{
    // Sabotage MSI: S + Inv acks but stays in S. The checker must
    // catch the resulting reader-while-writer state.
    Protocol p = protocols::builtinProtocol("MSI");
    seeded::dropInvalidation(p.cache, p.msgs, Level::Lower);

    auto r = verif::checkFlat(p, 2, atomicOpts());
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.errorKind == hieragen::ErrorKind::Swmr || r.errorKind == hieragen::ErrorKind::DataValue)
        << r.summary();
    EXPECT_FALSE(r.trace.empty());
}

TEST(CheckerDetectsBugs, LostResponseDeadlocks)
{
    // Sabotage MI: the directory never answers GetM in state I.
    Protocol p = protocols::builtinProtocol("MI");
    seeded::dropGetM(p.directory, p.msgs, Level::Lower);

    auto r = verif::checkFlat(p, 2, atomicOpts());
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorKind, hieragen::ErrorKind::Deadlock) << r.summary();
}

TEST(CheckerDetectsBugs, StaleDataCaught)
{
    // Sabotage MSI: M + FwdGetS responds but keeps state M (two
    // "owners" once the requestor fills in S): data-value or SWMR.
    Protocol p = protocols::builtinProtocol("MSI");
    seeded::keepOwnerOnFwdGetS(p.cache, p.msgs, Level::Lower);

    auto r = verif::checkFlat(p, 2, atomicOpts());
    EXPECT_FALSE(r.ok) << r.summary();
}

} // namespace
} // namespace hieragen

namespace hieragen
{
namespace
{

// Section VII-B: the silent-eviction MSI variant verifies unchanged.
TEST(SilentEvictionVerify, FlatAtomic)
{
    Protocol p = protocols::builtinProtocol("MSI_SE");
    auto r = verif::checkFlat(p, 3, atomicOpts());
    EXPECT_TRUE(r.ok) << traceOf(r);
}

} // namespace
} // namespace hieragen
