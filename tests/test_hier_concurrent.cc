/**
 * @file
 * Step-2 tests on hierarchical protocols: the paper's Table III
 * configurations, model-checked under full interleaving.
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
concOpts(int budget = 2)
{
    verif::CheckOptions o;
    o.atomicTransactions = false;
    o.accessBudget = budget;
    return o;
}

std::string
traceOf(const verif::CheckResult &r)
{
    std::string out = r.summary() + "\n";
    size_t start = r.trace.size() > 60 ? r.trace.size() - 60 : 0;
    for (size_t i = start; i < r.trace.size(); ++i)
        out += r.trace[i] + "\n";
    return out;
}

HierProtocol
gen(const std::string &lo, const std::string &hi, ConcurrencyMode mode)
{
    Protocol l = protocols::builtinProtocol(lo);
    Protocol h = protocols::builtinProtocol(hi);
    core::HierGenOptions opts;
    opts.mode = mode;
    return core::generate(l, h, opts);
}

const std::pair<const char *, const char *> kCombos[] = {
    {"MSI", "MI"},   {"MI", "MSI"},    {"MSI", "MSI"},
    {"MESI", "MSI"}, {"MESI", "MESI"}, {"MOSI", "MSI"},
    {"MOSI", "MOSI"}, {"MOESI", "MOESI"},
};

class HierConcurrent
    : public ::testing::TestWithParam<
          std::tuple<std::pair<const char *, const char *>,
                     ConcurrencyMode>>
{
};

TEST_P(HierConcurrent, VerifiesTwoAndTwo)
{
    auto [combo, mode] = GetParam();
    HierProtocol p = gen(combo.first, combo.second, mode);
    auto r = verif::checkHier(p, 2, 2, concOpts());
    EXPECT_TRUE(r.ok) << p.name << "/" << toString(mode) << "\n"
                      << traceOf(r);
}

INSTANTIATE_TEST_SUITE_P(
    Table3, HierConcurrent,
    ::testing::Combine(::testing::ValuesIn(kCombos),
                       ::testing::Values(ConcurrencyMode::Stalling,
                                         ConcurrencyMode::NonStalling)),
    testnames::comboMode);

TEST(HierConcurrentShape, MoreStatesThanAtomicDirCache)
{
    HierProtocol atomic = gen("MSI", "MSI", ConcurrencyMode::Atomic);
    HierProtocol stall = gen("MSI", "MSI", ConcurrencyMode::Stalling);
    HierProtocol nonstall =
        gen("MSI", "MSI", ConcurrencyMode::NonStalling);
    EXPECT_GE(nonstall.dirCache.numStates(),
              stall.dirCache.numStates());
    EXPECT_GT(nonstall.dirCache.numTransitions(),
              atomic.dirCache.numTransitions());
}

TEST(HierConcurrentShape, ConcurrentExploresMoreStates)
{
    HierProtocol p = gen("MSI", "MSI", ConcurrencyMode::NonStalling);
    verif::CheckOptions at;
    at.atomicTransactions = true;
    at.accessBudget = 2;
    auto r_atomic = verif::checkHier(p, 2, 2, at);
    auto r_conc = verif::checkHier(p, 2, 2, concOpts());
    ASSERT_TRUE(r_atomic.ok) << traceOf(r_atomic);
    ASSERT_TRUE(r_conc.ok) << traceOf(r_conc);
    EXPECT_GT(r_conc.statesExplored, r_atomic.statesExplored);
}

} // namespace
} // namespace hieragen
