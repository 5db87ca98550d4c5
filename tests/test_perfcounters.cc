/**
 * @file
 * Hardware-counter coverage (src/obs/perfcounters): PerfCounts
 * arithmetic, graceful no-op fallback where perf_event_open is
 * unavailable (containers, perf_event_paranoid, non-Linux),
 * monotonic reads where it works, and the checker integration — a
 * phaseTiming run fills CheckResult::phases.*Perf if and only if the
 * PMU was usable, without disturbing the wall-clock attribution, and
 * its wall-clock buckets fit inside the run they divide up.
 */

#include <gtest/gtest.h>

#include <fstream>

#include "core/hiera.hh"
#include "obs/perfcounters.hh"
#include "protocols/registry.hh"
#include "util/stopwatch.hh"
#include "verif/checker.hh"

namespace hieragen
{
namespace
{

TEST(PerfCounts, DeltaRequiresBothValid)
{
    obs::PerfCounts a, b;
    a.valid = true;
    a.cycles = 100;
    a.instructions = 50;
    b.valid = true;
    b.cycles = 175;
    b.instructions = 80;
    b.cacheMisses = 4;

    obs::PerfCounts d = b - a;
    EXPECT_TRUE(d.valid);
    EXPECT_EQ(d.cycles, 75u);
    EXPECT_EQ(d.instructions, 30u);
    EXPECT_EQ(d.cacheMisses, 4u);

    obs::PerfCounts invalid;
    obs::PerfCounts d2 = b - invalid;
    EXPECT_FALSE(d2.valid);
}

TEST(PerfCounts, AccumulateSkipsInvalid)
{
    obs::PerfCounts acc;
    obs::PerfCounts d;
    d.valid = true;
    d.cycles = 10;
    acc += d;
    acc += d;
    EXPECT_TRUE(acc.valid);
    EXPECT_EQ(acc.cycles, 20u);

    obs::PerfCounts invalid;
    acc += invalid;  // no-op, not a poison
    EXPECT_TRUE(acc.valid);
    EXPECT_EQ(acc.cycles, 20u);
}

TEST(PerfCounterSet, UnavailableIsGracefulNoop)
{
    obs::PerfCounterSet pc;
    if (pc.available()) {
        GTEST_SKIP() << "PMU usable here; fallback not exercised";
    }
    EXPECT_FALSE(pc.error().empty());
    obs::PerfCounts c = pc.read();
    EXPECT_FALSE(c.valid);
}

TEST(PerfCounterSet, ReadsAreMonotonicWhenAvailable)
{
    obs::PerfCounterSet pc;
    if (!pc.available()) {
        GTEST_SKIP() << "perf_event_open unavailable: " << pc.error();
    }
    obs::PerfCounts a = pc.read();
    ASSERT_TRUE(a.valid);
    // Burn some cycles so the deltas are visibly non-zero.
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < 2'000'000; ++i)
        sink = sink + i * i;
    obs::PerfCounts b = pc.read();
    ASSERT_TRUE(b.valid);
    EXPECT_GE(b.cycles, a.cycles);
    EXPECT_GT(b.cycles, 0u);
    obs::PerfCounts d = b - a;
    EXPECT_TRUE(d.valid);
    EXPECT_GT(d.cycles, 0u);
}

// --- Checker integration --------------------------------------------

// Phase attribution is per worker and summed, so it fills at any
// thread count.
class PhaseProfile : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PhaseProfile, PerfFieldsMatchAvailability)
{
    Protocol p = protocols::builtinProtocol("MSI");
    verif::CheckOptions o;
    o.atomicTransactions = true;
    o.accessBudget = 3;
    o.numThreads = GetParam();
    o.phaseTiming = true;
    auto r = verif::checkFlat(p, 4, o);
    ASSERT_TRUE(r.ok) << r.summary();
    ASSERT_TRUE(r.phases.enabled);
    EXPECT_GT(r.phases.sampledExpansions, 0u);

    if (r.phases.perfEnabled) {
        EXPECT_GT(r.phases.expandPerf.cycles, 0u);
        EXPECT_GT(r.phases.expandPerf.instructions, 0u);
        // Encode and insert are sections of the sampled expansion,
        // so their cycle attribution cannot exceed expand's.
        EXPECT_LE(r.phases.encodePerf.cycles + r.phases.insertPerf.cycles,
                  r.phases.expandPerf.cycles);
    } else {
        EXPECT_EQ(r.phases.expandPerf.cycles, 0u);
        EXPECT_EQ(r.phases.encodePerf.cycles, 0u);
        EXPECT_EQ(r.phases.insertPerf.cycles, 0u);
    }
}

TEST_P(PhaseProfile, PerfCountersOffWithoutPhaseTiming)
{
    Protocol p = protocols::builtinProtocol("MSI");
    verif::CheckOptions o;
    o.atomicTransactions = true;
    o.accessBudget = 2;
    o.numThreads = GetParam();
    auto r = verif::checkFlat(p, 2, o);
    ASSERT_TRUE(r.ok);
    EXPECT_FALSE(r.phases.enabled);
    EXPECT_FALSE(r.phases.perfEnabled);
    EXPECT_EQ(r.phases.expandPerf.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, PhaseProfile, ::testing::Values(1u, 2u));

/** Nanoseconds this thread has waited on a run queue (Linux
 *  schedstat); 0 where the kernel does not report it. */
uint64_t
runQueueWaitNs()
{
    std::ifstream f("/proc/thread-self/schedstat");
    uint64_t onCpu = 0, waited = 0;
    f >> onCpu >> waited;
    return waited;
}

// The phase breakdown is a partition of one worker's time: whole
// expansions fit inside the run, and encode + canonicalize + insert,
// sections of an expansion, fit inside the expansions. MSI/MSI
// non-stalling 1H+2L (~49k states) reads expand ~90% of the run and
// the sections ~75% of expand; an attribution that times the sections
// inside the sampled spans reads expand ~113% of the run, and one that
// samples table growth with the rest reads the sections over 100% of
// expand whenever a late rehash lands in a sampled insert. A sampled
// span the scheduler preempts is scaled up 8x with it, so the check
// only counts a run that waited on a run queue for under 1% of its
// wall time, and skips when the host is too busy to give one.
TEST(PhaseSums, FitInsideTheRun)
{
    Protocol l = protocols::builtinProtocol("MSI");
    Protocol h = protocols::builtinProtocol("MSI");
    core::HierGenOptions g;
    g.mode = ConcurrencyMode::NonStalling;
    HierProtocol p = core::generate(l, h, g);
    verif::CheckOptions o;
    o.numThreads = 1;
    o.phaseTiming = true;
    for (int attempt = 0; attempt < 5; ++attempt) {
        uint64_t wait0 = runQueueWaitNs();
        util::Stopwatch sw;
        auto r = verif::checkHier(p, 1, 2, o);
        double wallMs = sw.ms();
        double waitMs = static_cast<double>(runQueueWaitNs() - wait0) / 1e6;
        ASSERT_TRUE(r.ok) << r.summary();
        ASSERT_TRUE(r.phases.enabled);
        if (waitMs > wallMs / 100)
            continue;
        const auto &ph = r.phases;
        double inner = ph.encodeMs + ph.canonicalizeMs + ph.insertMs;
        EXPECT_GT(inner, 0.0);
        EXPECT_LE(ph.expandMs, wallMs);
        EXPECT_LE(inner, ph.expandMs);
        return;
    }
    GTEST_SKIP() << "every run waited over 1% of its time for a CPU";
}

} // namespace
} // namespace hieragen
