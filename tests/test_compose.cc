/**
 * @file
 * Step-1 tests: atomic hierarchical protocols (the paper's Table II
 * configurations), model-checked with atomic transactions.
 */

#include <gtest/gtest.h>

#include "core/hiera.hh"
#include "protocols/registry.hh"
#include "verif/checker.hh"
#include "param_names.hh"

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
    size_t start = r.trace.size() > 50 ? r.trace.size() - 50 : 0;
    for (size_t i = start; i < r.trace.size(); ++i)
        out += r.trace[i] + "\n";
    return out;
}

HierProtocol
compose(const std::string &lo, const std::string &hi)
{
    Protocol l = protocols::builtinProtocol(lo);
    Protocol h = protocols::builtinProtocol(hi);
    return core::generate(l, h);  // atomic mode
}

/** The paper's Table II rows. */
const std::pair<const char *, const char *> kCombos[] = {
    {"MSI", "MI"},   {"MI", "MSI"},    {"MSI", "MSI"},
    {"MESI", "MSI"}, {"MESI", "MESI"}, {"MOSI", "MSI"},
    {"MOSI", "MOSI"}, {"MOESI", "MOESI"},
};

class AtomicHier
    : public ::testing::TestWithParam<std::pair<const char *,
                                                const char *>>
{
};

TEST_P(AtomicHier, ComposesWithSaneStructure)
{
    auto [lo, hi] = GetParam();
    HierProtocol p = compose(lo, hi);
    EXPECT_EQ(p.name, std::string(lo) + "/" + std::string(hi));
    EXPECT_GT(p.dirCache.numStates(),
              p.cacheH.numStableStates());
    // The dir/cache's stable states are (cache-H x dir-L) pairs.
    EXPECT_GT(p.dirCache.numStableStates(), 1u);
    EXPECT_TRUE(p.msgs.hasBothLevels());
}

TEST_P(AtomicHier, VerifiesWithTwoAndTwo)
{
    auto [lo, hi] = GetParam();
    HierProtocol p = compose(lo, hi);
    auto r = verif::checkHier(p, 2, 2, atomicOpts());
    EXPECT_TRUE(r.ok) << lo << "/" << hi << "\n" << traceOf(r);
    EXPECT_GT(r.statesExplored, 100u);
}

INSTANTIATE_TEST_SUITE_P(Table2, AtomicHier,
                         ::testing::ValuesIn(kCombos), testnames::combo);

TEST(ComposeStructure, DirCacheStatesArePairs)
{
    HierProtocol p = compose("MSI", "MSI");
    StateId ii = p.dirCache.findState("I_I");
    StateId mm = p.dirCache.findState("M_M");
    ASSERT_NE(ii, kNoState);
    ASSERT_NE(mm, kNoState);
    EXPECT_EQ(p.dirCache.initial(), ii);
    EXPECT_TRUE(p.dirCache.state(mm).stable);
}

TEST(ComposeStructure, InclusionHoldsOnStablePairs)
{
    // The lower level never holds more permission than the cache-H
    // part: composed stable pairs respect inclusion.
    HierProtocol p = compose("MSI", "MSI");
    EXPECT_EQ(p.dirCache.findState("I_M"), kNoState);
    EXPECT_EQ(p.dirCache.findState("I_S"), kNoState);
    EXPECT_EQ(p.dirCache.findState("S_M"), kNoState);
}

TEST(ComposeStructure, EncapsulationChainsExist)
{
    HierProtocol p = compose("MSI", "MSI");
    // A GetS-L at I_I must trigger a GetS-H encapsulation: some
    // transient carries the pending lower request.
    bool found = false;
    for (StateId s = 0;
         s < static_cast<StateId>(p.dirCache.numStates()); ++s) {
        const State &st = p.dirCache.state(s);
        if (!st.stable && st.hasChain && st.chainReqMsg != kNoMsgType)
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(ComposeCompat, MesiUnderMsiConservativeIssuesStore)
{
    // Section V-D: MESI-L under MSI-H. Conservatively, a GetS-L from
    // I_I must fetch *write* permission at the higher level because
    // the lower grant (E) is silently upgradeable.
    Protocol l = protocols::builtinProtocol("MESI");
    Protocol h = protocols::builtinProtocol("MSI");
    HierProtocol p = core::generate(l, h);

    MsgTypeId gets_l = p.msgs.find("GetS", Level::Lower);
    MsgTypeId getm_h = p.msgs.find("GetM", Level::Higher);
    StateId ii = p.dirCache.initial();
    const auto *alts =
        p.dirCache.transitionsFor(ii, EventKey::mkMsg(gets_l));
    ASSERT_NE(alts, nullptr);
    bool sends_getm_h = false;
    for (const Op &op : alts->front().ops) {
        if (op.code == OpCode::Send && op.send.type == getm_h)
            sends_getm_h = true;
    }
    EXPECT_TRUE(sends_getm_h);
}

TEST(ComposeCompat, MsiUnderMsiIssuesLoadForGetS)
{
    // No silent upgrade in MSI-L: a GetS-L maps to a GetS-H.
    HierProtocol p = compose("MSI", "MSI");
    MsgTypeId gets_l = p.msgs.find("GetS", Level::Lower);
    MsgTypeId gets_h = p.msgs.find("GetS", Level::Higher);
    const auto *alts = p.dirCache.transitionsFor(
        p.dirCache.initial(), EventKey::mkMsg(gets_l));
    ASSERT_NE(alts, nullptr);
    bool sends_gets_h = false;
    for (const Op &op : alts->front().ops) {
        if (op.code == OpCode::Send && op.send.type == gets_h)
            sends_gets_h = true;
    }
    EXPECT_TRUE(sends_gets_h);
}

TEST(ComposeCompat, OptimizedModeLimitsGrant)
{
    // Optimized solution: MESI-L under MSI-H issues GetS-H and limits
    // the lower grant to Shared on mismatch.
    Protocol l = protocols::builtinProtocol("MESI");
    Protocol h = protocols::builtinProtocol("MSI");
    core::HierGenOptions opts;
    opts.compose.conservativeCompat = false;
    HierProtocol p = core::generate(l, h, opts);

    MsgTypeId gets_l = p.msgs.find("GetS", Level::Lower);
    MsgTypeId gets_h = p.msgs.find("GetS", Level::Higher);
    const auto *alts = p.dirCache.transitionsFor(
        p.dirCache.initial(), EventKey::mkMsg(gets_l));
    ASSERT_NE(alts, nullptr);
    bool sends_gets_h = false;
    for (const Op &op : alts->front().ops) {
        if (op.code == OpCode::Send && op.send.type == gets_h)
            sends_gets_h = true;
    }
    EXPECT_TRUE(sends_gets_h);
}

TEST(ComposeCompat, OptimizedModeStillVerifies)
{
    Protocol l = protocols::builtinProtocol("MESI");
    Protocol h = protocols::builtinProtocol("MSI");
    core::HierGenOptions opts;
    opts.compose.conservativeCompat = false;
    HierProtocol p = core::generate(l, h, opts);
    auto r = verif::checkHier(p, 2, 2, atomicOpts());
    EXPECT_TRUE(r.ok) << traceOf(r);
}

} // namespace
} // namespace hieragen

namespace hieragen
{
namespace
{

// Section VII-B: incomplete directory knowledge (silent eviction) in
// the lower SSP composes and verifies unchanged.
TEST(SilentEvictionVerify, HierAtomicUnderMsi)
{
    Protocol l = protocols::builtinProtocol("MSI_SE");
    Protocol h = protocols::builtinProtocol("MSI");
    HierProtocol p = core::generate(l, h);
    auto r = verif::checkHier(p, 2, 2, atomicOpts());
    EXPECT_TRUE(r.ok) << traceOf(r);
}

} // namespace
} // namespace hieragen
