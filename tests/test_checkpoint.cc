/**
 * @file
 * Checkpoint/resume coverage: on-disk format round-trips, corruption
 * and fingerprint-mismatch refusal, and the core contract — a run
 * killed at any point and resumed at any thread count reproduces the
 * verdict, canonical state count and Section V-E census of an
 * uninterrupted run. Also pins the api::VerifySession facade to the
 * classic verif::check* entry points.
 *
 * "Kill" here is simulated with maxStates (a resumable abort through
 * the same final-checkpoint path as a signal); the CI kill-and-resume
 * job covers the real SIGTERM delivery.
 *
 * Two configurations: flat MSI, 3 caches, atomic, budget 2 (897
 * states — milliseconds) for the determinism sweep, and 4 caches /
 * budget 3 (~12k states, hundreds of milliseconds) where the engine's
 * control points (before the first expansion, then every 256
 * expansions) fire many times mid-run.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <sstream>

#include "api/hieragen.hh"
#include "core/hiera.hh"
#include "protocols/registry.hh"
#include "util/fileio.hh"
#include "verif/checker.hh"
#include "verif/checkpoint.hh"

namespace hieragen
{
namespace
{

constexpr int kCaches = 3;

std::string
tmpPath(const std::string &name)
{
    // Per-process prefix: ctest -j runs each parametrized instance in
    // its own process, and AtomicFileWriter stages at `path + ".tmp"`
    // — a shared name would let one instance rename away another's
    // staged checkpoint mid-commit.
    return testing::TempDir() + std::to_string(::getpid()) + "." +
           name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spew(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** The small reference configuration most tests explore: flat MSI,
 *  kCaches caches, atomic, budget 2 — 897 states. */
verif::CheckOptions
smallOpts()
{
    verif::CheckOptions o;
    o.atomicTransactions = true;
    o.accessBudget = 2;
    o.numThreads = 1;
    return o;
}

/** A run long enough (~12k states) that the engine's control points
 *  fire many times mid-exploration. */
verif::CheckOptions
longOpts()
{
    verif::CheckOptions o = smallOpts();
    o.accessBudget = 3;
    return o;
}
constexpr int kLongCaches = 4;

struct CensusCounts
{
    size_t cacheTrans, cacheStates, dirTrans, dirStates;
};

CensusCounts
censusOf(const Protocol &p)
{
    return {p.cache.numReachedTransitions(),
            p.cache.numReachedStates(),
            p.directory.numReachedTransitions(),
            p.directory.numReachedStates()};
}

/** Uninterrupted reference run on a fresh protocol instance. */
struct CleanRun
{
    Protocol p;
    verif::CheckResult r;
    CensusCounts census;

    explicit CleanRun(const verif::CheckOptions &o,
                      int caches = kCaches)
        : p(protocols::builtinProtocol("MSI"))
    {
        r = verif::checkFlat(p, caches, o);
        census = censusOf(p);
    }
};

/** Run to maxStates = @p limit with a checkpoint path, returning the
 *  aborted result (which must have flushed a resume artifact). */
verif::CheckResult
partialRun(Protocol &p, verif::CheckOptions o, uint64_t limit,
           const std::string &ckpt, int caches = kCaches)
{
    o.maxStates = limit;
    o.checkpointPath = ckpt;
    auto r = verif::checkFlat(p, caches, o);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorKind, hieragen::ErrorKind::StateLimit);
    EXPECT_TRUE(r.resumable);
    EXPECT_GE(r.checkpointsWritten, 1u);
    EXPECT_EQ(r.checkpointFile, ckpt);
    return r;
}

// ---------------------------------------------------------------
// Format round-trip and rejection.

TEST(CheckpointFormat, RewriteIsByteIdentical)
{
    // Harvest a real mid-run snapshot, parse it, re-serialize the
    // parsed data, and require the bytes to match: every field the
    // reader recovers is exactly what the writer stored.
    Protocol p = protocols::builtinProtocol("MSI");
    std::string path = tmpPath("roundtrip.ckpt");
    partialRun(p, smallOpts(), 500, path);

    verif::CheckpointData data;
    auto io = verif::CheckpointReader().read(path, data);
    ASSERT_TRUE(io.ok) << io.error;
    ASSERT_FALSE(data.header.storedAsHashes);
    EXPECT_EQ(data.header.statesExplored, 500u);
    EXPECT_GE(data.visitedExact.size(), 500u);
    EXPECT_FALSE(data.frontier.empty());

    // Rebuild a system whose census marks match the snapshot, then
    // re-emit.
    Protocol p2 = protocols::builtinProtocol("MSI");
    verif::System sys = verif::buildFlatSystem(p2, kCaches);
    ASSERT_TRUE(verif::restoreCensus(sys, data));

    std::string path2 = tmpPath("roundtrip2.ckpt");
    verif::CheckpointWriter w(path2);
    w.begin(data.header);
    w.beginVisited(data.visitedExact.size(), false);
    for (const auto &enc : data.visitedExact)
        w.addVisitedExact(enc);
    w.beginFrontier(data.frontier.size());
    for (const auto &st : data.frontier)
        w.addFrontierState(st);
    w.addCensus(sys);
    auto wio = w.commit();
    ASSERT_TRUE(wio.ok) << wio.error;

    EXPECT_EQ(slurp(path), slurp(path2));
}

TEST(CheckpointFormat, CorruptAndTruncatedRejected)
{
    Protocol p = protocols::builtinProtocol("MSI");
    std::string path = tmpPath("corrupt.ckpt");
    partialRun(p, smallOpts(), 300, path);
    std::string good = slurp(path);
    ASSERT_GT(good.size(), 64u);

    verif::CheckpointData data;
    auto check_rejected = [&](const std::string &bytes,
                              const char *what) {
        std::string bad = tmpPath("bad.ckpt");
        spew(bad, bytes);
        auto io = verif::CheckpointReader().read(bad, data);
        EXPECT_FALSE(io.ok) << what;
        EXPECT_FALSE(io.error.empty()) << what;
    };

    std::string flipped = good;
    flipped[good.size() / 2] ^= 0x5a;  // body corruption
    check_rejected(flipped, "flipped body byte");

    flipped = good;
    flipped[3] ^= 0xff;  // magic corruption
    check_rejected(flipped, "bad magic");

    flipped = good;
    flipped[good.size() - 1] ^= 0x01;  // checksum trailer corruption
    check_rejected(flipped, "bad checksum");

    check_rejected(good.substr(0, good.size() / 2), "truncated half");
    check_rejected(good.substr(0, 10), "truncated header");
    check_rejected("", "empty file");

    auto io = verif::CheckpointReader().read(tmpPath("missing.ckpt"),
                                             data);
    EXPECT_FALSE(io.ok);

    // The original file still reads fine.
    io = verif::CheckpointReader().read(path, data);
    EXPECT_TRUE(io.ok) << io.error;
}

TEST(CheckpointFormat, VersionThreeRefusedByName)
{
    // A v3 checkpoint as the previous format sealed it (FNV-1a over
    // everything before the trailer): its fingerprints and stored
    // representatives are not this build's, so the reader refuses it
    // by version before it looks at the seal.
    Protocol p = protocols::builtinProtocol("MSI");
    std::string path = tmpPath("v3.ckpt");
    partialRun(p, smallOpts(), 300, path);
    std::string raw = slurp(path);
    ASSERT_GT(raw.size(), 20u);
    raw[8] = 3;  // u32 version, little-endian, after the 8-byte magic
    raw[9] = raw[10] = raw[11] = 0;
    uint64_t sum = util::fnv1a64(raw.data(), raw.size() - 8);
    for (size_t i = 0; i < 8; ++i)
        raw[raw.size() - 8 + i] = static_cast<char>(sum >> (8 * i));
    spew(path, raw);

    verif::CheckpointData data;
    auto io = verif::CheckpointReader().read(path, data);
    EXPECT_FALSE(io.ok);
    EXPECT_NE(io.error.find("format version 3; this build reads 4"),
              std::string::npos)
        << io.error;
}

TEST(CheckpointFormat, StoredStatesKeepSeqAsRank)
{
    // Every visited record the engine stores decodes to a state whose
    // seqs are channel ranks: the packer writes seq as is, so a seq
    // that was not its rank would decode unchanged and fail here.
    core::HierGenOptions g;
    g.mode = ConcurrencyMode::NonStalling;
    HierProtocol p = core::generate(protocols::builtinProtocol("MSI"),
                                    protocols::builtinProtocol("MSI"), g);
    verif::CheckOptions o;
    o.numThreads = 1;
    o.maxStates = 20000;
    std::string path = tmpPath("ranks.ckpt");
    o.checkpointPath = path;
    auto r = verif::checkHier(p, 2, 1, o);
    ASSERT_EQ(r.errorKind, hieragen::ErrorKind::StateLimit)
        << r.summary();
    verif::CheckpointData data;
    ASSERT_TRUE(verif::CheckpointReader().read(path, data).ok);
    verif::System sys = verif::buildHierSystem(p, 2, 1);
    size_t withMsgs = 0;
    for (const std::string &enc : data.visitedExact) {
        verif::SysState st;
        ASSERT_TRUE(st.decodeFrom(sys, enc.data(), enc.size()));
        withMsgs += !st.msgs.empty();
        for (const Msg &m : st.msgs) {
            int32_t rank = 0, same = 0;
            for (const Msg &o2 : st.msgs) {
                bool chan = o2.src == m.src && o2.dst == m.dst;
                rank += chan && o2.seq < m.seq;
                same += chan && o2.seq == m.seq;
            }
            ASSERT_EQ(m.seq, rank);
            ASSERT_EQ(same, 1);
        }
    }
    EXPECT_GT(withMsgs, 1000u);
    std::remove(path.c_str());
}

TEST(CheckpointFormat, OptionAndSystemMismatchRefused)
{
    Protocol p = protocols::builtinProtocol("MSI");
    std::string path = tmpPath("mismatch.ckpt");
    verif::CheckOptions o = smallOpts();
    partialRun(p, o, 300, path);

    verif::CheckpointData data;
    ASSERT_TRUE(verif::CheckpointReader().read(path, data).ok);
    verif::System sys = verif::buildFlatSystem(p, kCaches);

    EXPECT_EQ(verif::resumeCompatibilityError(data, sys, o), "");

    verif::CheckOptions budget = o;
    budget.accessBudget = 3;
    EXPECT_NE(verif::resumeCompatibilityError(data, sys, budget), "");

    verif::CheckOptions sym = o;
    sym.symmetryReduction = !o.symmetryReduction;
    EXPECT_NE(verif::resumeCompatibilityError(data, sys, sym), "");

    verif::CheckOptions atomic = o;
    atomic.atomicTransactions = false;
    EXPECT_NE(verif::resumeCompatibilityError(data, sys, atomic), "");

    // Different system shape: one cache fewer.
    Protocol p2 = protocols::builtinProtocol("MSI");
    verif::System sys2 = verif::buildFlatSystem(p2, kCaches - 1);
    EXPECT_NE(verif::resumeCompatibilityError(data, sys2, o), "");

    // Different tables entirely.
    Protocol mesi = protocols::builtinProtocol("MESI");
    verif::System sysM = verif::buildFlatSystem(mesi, kCaches);
    EXPECT_NE(verif::resumeCompatibilityError(data, sysM, o), "");

    // Thread count and state limit are deliberately NOT fingerprinted.
    verif::CheckOptions threads = o;
    threads.numThreads = 4;
    threads.maxStates = 123;
    EXPECT_EQ(verif::resumeCompatibilityError(data, sys, threads), "");

    // check() itself re-validates and refuses instead of diverging.
    verif::CheckOptions viaCheck = budget;
    viaCheck.resume = &data;
    auto r = verif::checkFlat(p, kCaches, viaCheck);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorKind, hieragen::ErrorKind::ResumeMismatch);
}

TEST(CheckpointFormat, UnreducedCheckpointsFromBeforePorRemovalResume)
{
    // Default options fingerprint exactly as they did while the
    // partial-order-reduction bit existed and was off (journals keep
    // the value as the run identity). A checkpoint written with
    // reduction on (the old default) holds a reduced visited set and
    // must be refused.
    constexpr uint64_t kPorOff = 0xb0e1f54a5683c255ull;
    constexpr uint64_t kPorOn = 0xc1ea7d0053ba4654ull;
    verif::CheckOptions o;
    EXPECT_EQ(verif::optionsFingerprint(o), kPorOff);

    // Default options need a concurrent protocol: MSI/MSI 2H+1L.
    core::HierGenOptions g;
    g.mode = ConcurrencyMode::NonStalling;
    HierProtocol p = core::generate(protocols::builtinProtocol("MSI"),
                                    protocols::builtinProtocol("MSI"), g);
    std::string path = tmpPath("por-off.ckpt");
    verif::CheckOptions cut = o;
    cut.numThreads = 1;  // neither is fingerprinted
    cut.maxStates = 300;
    cut.checkpointPath = path;
    auto cr = verif::checkHier(p, 2, 1, cut);
    ASSERT_EQ(cr.errorKind, hieragen::ErrorKind::StateLimit)
        << cr.summary();
    verif::CheckpointData data;
    ASSERT_TRUE(verif::CheckpointReader().read(path, data).ok);
    EXPECT_EQ(data.header.optionsFingerprint, kPorOff);
    verif::System sys = verif::buildHierSystem(p, 2, 1);
    EXPECT_EQ(verif::resumeCompatibilityError(data, sys, o), "");

    // The same snapshot under the POR-on fingerprint.
    ASSERT_TRUE(verif::restoreCensus(sys, data));
    verif::CheckpointHeader header = data.header;
    header.optionsFingerprint = kPorOn;
    std::string porOn = tmpPath("por-on.ckpt");
    verif::CheckpointWriter w(porOn);
    w.begin(header);
    w.beginVisited(data.visitedExact.size(), false);
    for (const auto &enc : data.visitedExact)
        w.addVisitedExact(enc);
    w.beginFrontier(data.frontier.size());
    for (const auto &st : data.frontier)
        w.addFrontierState(st);
    w.addCensus(sys);
    ASSERT_TRUE(w.commit().ok);

    verif::CheckpointData reduced;
    ASSERT_TRUE(verif::CheckpointReader().read(porOn, reduced).ok);
    verif::CheckOptions resume = o;
    resume.resume = &reduced;
    auto r = verif::checkHier(p, 2, 1, resume);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorKind, hieragen::ErrorKind::ResumeMismatch)
        << r.summary();
    std::remove(path.c_str());
    std::remove(porOn.c_str());
}

// ---------------------------------------------------------------
// Resume determinism.

class ResumeParity
    : public ::testing::TestWithParam<std::tuple<int, unsigned>>
{
};

TEST_P(ResumeParity, KilledRunResumesToCleanVerdict)
{
    auto [quarter, resumeThreads] = GetParam();
    verif::CheckOptions o = smallOpts();
    CleanRun clean(o);
    ASSERT_TRUE(clean.r.ok) << clean.r.summary();
    uint64_t total = clean.r.statesExplored;
    ASSERT_GT(total, 100u);

    uint64_t limit = total * static_cast<uint64_t>(quarter) / 4;
    std::string path = tmpPath("parity.ckpt");
    Protocol killed = protocols::builtinProtocol("MSI");
    partialRun(killed, o, limit, path);

    // Resume on a fresh protocol: census marks must come from the
    // checkpoint, not from leftover in-memory state.
    Protocol resumed = protocols::builtinProtocol("MSI");
    verif::CheckpointData data;
    ASSERT_TRUE(verif::CheckpointReader().read(path, data).ok);

    verif::CheckOptions ro = o;
    ro.numThreads = resumeThreads;
    ro.resume = &data;
    auto r = verif::checkFlat(resumed, kCaches, ro);

    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_TRUE(r.resumedFromCheckpoint);
    EXPECT_EQ(r.statesExplored, clean.r.statesExplored);
    EXPECT_EQ(r.statesGenerated, clean.r.statesGenerated);
    EXPECT_EQ(r.transitionsFired, clean.r.transitionsFired);

    CensusCounts c = censusOf(resumed);
    EXPECT_EQ(c.cacheTrans, clean.census.cacheTrans);
    EXPECT_EQ(c.cacheStates, clean.census.cacheStates);
    EXPECT_EQ(c.dirTrans, clean.census.dirTrans);
    EXPECT_EQ(c.dirStates, clean.census.dirStates);
}

INSTANTIATE_TEST_SUITE_P(
    KillPointsAndThreads, ResumeParity,
    ::testing::Combine(::testing::Values(1, 2, 3),   // kill at 25/50/75%
                       ::testing::Values(1u, 2u, 4u)));

TEST(Resume, ParallelCheckpointResumesSequentially)
{
    // The reverse direction of the parametrized sweep: a snapshot
    // taken by the 4-thread engine restores on the sequential one.
    verif::CheckOptions o = smallOpts();
    CleanRun clean(o);
    uint64_t limit = clean.r.statesExplored / 2;

    Protocol killed = protocols::builtinProtocol("MSI");
    verif::CheckOptions po = o;
    po.numThreads = 4;
    partialRun(killed, po, limit, tmpPath("par.ckpt"));

    verif::CheckpointData data;
    ASSERT_TRUE(
        verif::CheckpointReader().read(tmpPath("par.ckpt"), data).ok);

    Protocol resumed = protocols::builtinProtocol("MSI");
    verif::CheckOptions ro = o;
    ro.resume = &data;
    auto r = verif::checkFlat(resumed, kCaches, ro);
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_EQ(r.statesExplored, clean.r.statesExplored);
    EXPECT_EQ(r.transitionsFired, clean.r.transitionsFired);
    EXPECT_EQ(censusOf(resumed).cacheTrans, clean.census.cacheTrans);
}

TEST(Resume, SymmetryOffParityToo)
{
    verif::CheckOptions o = smallOpts();
    o.symmetryReduction = false;
    CleanRun clean(o);
    ASSERT_TRUE(clean.r.ok);

    Protocol killed = protocols::builtinProtocol("MSI");
    partialRun(killed, o, clean.r.statesExplored / 2,
               tmpPath("nosym.ckpt"));

    verif::CheckpointData data;
    ASSERT_TRUE(
        verif::CheckpointReader().read(tmpPath("nosym.ckpt"), data).ok);
    Protocol resumed = protocols::builtinProtocol("MSI");
    verif::CheckOptions ro = o;
    ro.numThreads = 2;
    ro.resume = &data;
    auto r = verif::checkFlat(resumed, kCaches, ro);
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_EQ(r.statesExplored, clean.r.statesExplored);
    EXPECT_EQ(censusOf(resumed).cacheTrans, clean.census.cacheTrans);
}

TEST(Resume, CompactedRunRoundTrips)
{
    // Hash-compaction checkpoints store 64-bit signatures; resume
    // must restore them (storedAsHashes) and finish with the same
    // count as an uninterrupted compacted run.
    verif::CheckOptions o = smallOpts();
    o.hashCompaction = true;
    CleanRun clean(o);
    ASSERT_TRUE(clean.r.ok);

    Protocol killed = protocols::builtinProtocol("MSI");
    partialRun(killed, o, clean.r.statesExplored / 2,
               tmpPath("compact.ckpt"));

    verif::CheckpointData data;
    ASSERT_TRUE(
        verif::CheckpointReader().read(tmpPath("compact.ckpt"), data)
            .ok);
    EXPECT_TRUE(data.header.storedAsHashes);
    EXPECT_TRUE(data.visitedExact.empty());
    EXPECT_FALSE(data.visitedHashes.empty());

    Protocol resumed = protocols::builtinProtocol("MSI");
    verif::CheckOptions ro = o;
    ro.resume = &data;
    auto r = verif::checkFlat(resumed, kCaches, ro);
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_TRUE(r.hashCompaction);
    EXPECT_EQ(r.statesExplored, clean.r.statesExplored);
}

// ---------------------------------------------------------------
// Interrupt and memory watermark.

// Controls are count-based: checked before the first expansion and
// then every 256 expansions, not on a timer, so a stop flag that is
// already set, or a watermark already crossed, stops even an
// 897-state run at every thread count.
class Interrupt : public ::testing::TestWithParam<unsigned>
{
};

class MemoryLimitThreads : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(Interrupt, PreSetFlagStopsWithArtifact)
{
    std::atomic<bool> stop{true};
    verif::CheckOptions o = smallOpts();
    o.numThreads = GetParam();
    o.stopRequested = &stop;
    o.checkpointPath = tmpPath("intr.ckpt");
    Protocol p = protocols::builtinProtocol("MSI");
    auto r = verif::checkFlat(p, kCaches, o);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorKind, hieragen::ErrorKind::Interrupted);
    EXPECT_TRUE(r.resumable);
    EXPECT_GE(r.checkpointsWritten, 1u);

    // The artifact left behind resumes to the clean verdict.
    CleanRun clean(smallOpts());
    verif::CheckpointData data;
    ASSERT_TRUE(
        verif::CheckpointReader().read(tmpPath("intr.ckpt"), data).ok);
    Protocol resumed = protocols::builtinProtocol("MSI");
    verif::CheckOptions ro = smallOpts();
    ro.resume = &data;
    auto rr = verif::checkFlat(resumed, kCaches, ro);
    EXPECT_TRUE(rr.ok) << rr.summary();
    EXPECT_EQ(rr.statesExplored, clean.r.statesExplored);
}

TEST_P(MemoryLimitThreads, StopResumableLeavesArtifact)
{
    verif::CheckOptions o = smallOpts();
    o.numThreads = GetParam();
    o.maxResidentBytes = 1;  // trip at the first control point
    o.checkpointPath = tmpPath("mem.ckpt");
    Protocol p = protocols::builtinProtocol("MSI");
    auto r = verif::checkFlat(p, kCaches, o);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorKind, hieragen::ErrorKind::MemoryLimit);
    EXPECT_TRUE(r.resumable);
    EXPECT_GE(r.checkpointsWritten, 1u);

    // maxResidentBytes is not fingerprinted: resume without a limit
    // and finish clean.
    CleanRun clean(smallOpts());
    verif::CheckpointData data;
    ASSERT_TRUE(
        verif::CheckpointReader().read(tmpPath("mem.ckpt"), data).ok);
    Protocol resumed = protocols::builtinProtocol("MSI");
    verif::CheckOptions ro = smallOpts();
    ro.resume = &data;
    auto rr = verif::checkFlat(resumed, kCaches, ro);
    EXPECT_TRUE(rr.ok) << rr.summary();
    EXPECT_EQ(rr.statesExplored, clean.r.statesExplored);
    EXPECT_EQ(censusOf(resumed).cacheTrans, clean.census.cacheTrans);
}

INSTANTIATE_TEST_SUITE_P(Threads, Interrupt, ::testing::Values(1u, 4u));
INSTANTIATE_TEST_SUITE_P(Threads, MemoryLimitThreads,
                         ::testing::Values(1u, 4u));

TEST(MemoryLimit, DegradeToCompactionFinishes)
{
    verif::CheckOptions compacted = smallOpts();
    compacted.hashCompaction = true;
    CleanRun reference(compacted);
    ASSERT_TRUE(reference.r.ok);

    verif::CheckOptions o = smallOpts();
    o.maxResidentBytes = 1;
    o.memoryLimitPolicy = verif::MemoryLimitPolicy::DegradeToCompaction;
    Protocol p = protocols::builtinProtocol("MSI");
    auto r = verif::checkFlat(p, kCaches, o);
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_TRUE(r.degradedToCompaction);
    EXPECT_TRUE(r.hashCompaction);
    EXPECT_GT(r.omissionProbability, 0.0);
    // The exact-prefix-then-signatures set equals a compacted run's.
    EXPECT_EQ(r.statesExplored, reference.r.statesExplored);
}

TEST(MemoryLimit, ParallelDegradeFinishes)
{
    verif::CheckOptions compacted = longOpts();
    compacted.hashCompaction = true;
    CleanRun reference(compacted, kLongCaches);
    ASSERT_TRUE(reference.r.ok);

    verif::CheckOptions o = longOpts();
    o.numThreads = 4;
    o.maxResidentBytes = 1;
    o.memoryLimitPolicy = verif::MemoryLimitPolicy::DegradeToCompaction;
    Protocol p = protocols::builtinProtocol("MSI");
    auto r = verif::checkFlat(p, kLongCaches, o);
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_TRUE(r.degradedToCompaction);
    EXPECT_EQ(r.statesExplored, reference.r.statesExplored);
}

// ---------------------------------------------------------------
// The api::VerifySession facade.

TEST(VerifySessionApi, MatchesClassicEntryPoint)
{
    Protocol p = protocols::builtinProtocol("MSI");
    verif::CheckOptions o = smallOpts();
    auto classic = verif::checkFlat(p, kCaches, o);

    Protocol p2 = protocols::builtinProtocol("MSI");
    auto session = api::VerifySession::flat(p2, kCaches, o);
    const auto &r = session.run();
    EXPECT_EQ(r.ok, classic.ok);
    EXPECT_EQ(r.statesExplored, classic.statesExplored);
    EXPECT_EQ(r.statesGenerated, classic.statesGenerated);
    EXPECT_EQ(r.transitionsFired, classic.transitionsFired);
    EXPECT_TRUE(session.hasRun());
    // run() is idempotent: the cached result comes back.
    EXPECT_EQ(&session.run(), &session.result());
}

TEST(VerifySessionApi, ResumeFromRejectsBadFiles)
{
    Protocol p = protocols::builtinProtocol("MSI");
    auto session = api::VerifySession::flat(p, kCaches, smallOpts());
    EXPECT_FALSE(session.resumeFrom(tmpPath("does-not-exist.ckpt")));
    EXPECT_FALSE(session.error().empty());
    EXPECT_FALSE(session.hasRun());

    // The session stays usable and runs from the initial state.
    const auto &r = session.run();
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_FALSE(r.resumedFromCheckpoint);
}

TEST(VerifySessionApi, KillAndResumeThroughFacade)
{
    verif::CheckOptions o = smallOpts();
    CleanRun clean(o);

    std::string path = tmpPath("facade.ckpt");
    Protocol killed = protocols::builtinProtocol("MSI");
    verif::CheckOptions ko = o;
    ko.maxStates = clean.r.statesExplored / 2;
    auto kill_session = api::VerifySession::flat(killed, kCaches, ko);
    kill_session.checkpointTo(path, 3600.0);
    const auto &kr = kill_session.run();
    EXPECT_FALSE(kr.ok);
    EXPECT_TRUE(kr.resumable);
    ASSERT_GE(kr.checkpointsWritten, 1u);

    Protocol resumed = protocols::builtinProtocol("MSI");
    auto session = api::VerifySession::flat(resumed, kCaches, o);
    ASSERT_TRUE(session.resumeFrom(path)) << session.error();
    const auto &r = session.run();
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_TRUE(r.resumedFromCheckpoint);
    EXPECT_EQ(r.statesExplored, clean.r.statesExplored);
    EXPECT_EQ(censusOf(resumed).cacheTrans, clean.census.cacheTrans);
}

TEST(VerifySessionApi, ResumeFromRefusesMismatchedOptions)
{
    std::string path = tmpPath("facade-mismatch.ckpt");
    Protocol p = protocols::builtinProtocol("MSI");
    partialRun(p, smallOpts(), 300, path);

    Protocol q = protocols::builtinProtocol("MSI");
    verif::CheckOptions other = smallOpts();
    other.accessBudget = 3;
    auto session = api::VerifySession::flat(q, kCaches, other);
    EXPECT_FALSE(session.resumeFrom(path));
    EXPECT_FALSE(session.error().empty());
}

TEST(GenerateApi, MatchesClassicPipeline)
{
    Protocol l = protocols::builtinProtocol("MSI");
    Protocol h = protocols::builtinProtocol("MSI");
    core::HierGenOptions gopts;
    gopts.mode = ConcurrencyMode::NonStalling;
    HierProtocol classic = core::generate(l, h, gopts);

    api::GenerateRequest req;
    req.lower = &l;
    req.higher = &h;
    req.mode = ConcurrencyMode::NonStalling;
    api::GenerateResult got = api::generate(req);
    ASSERT_TRUE(got.ok) << got.lintReport;
    ASSERT_EQ(got.protocol.machines().size(),
              classic.machines().size());
    for (size_t i = 0; i < classic.machines().size(); ++i) {
        EXPECT_EQ(got.protocol.machines()[i]->numStates(),
                  classic.machines()[i]->numStates());
        EXPECT_EQ(got.protocol.machines()[i]->numTransitions(),
                  classic.machines()[i]->numTransitions());
    }
    EXPECT_GT(got.passesRun, 0u);
    EXPECT_FALSE(got.statsJson.empty());
}

} // namespace
} // namespace hieragen
