/**
 * @file
 * Out-of-core (SpillToDisk) coverage. The contract under test:
 * spilling is a storage decision, never a semantic one — a run capped
 * well below its in-memory peak with a spill directory set must
 * reproduce the verdict, canonical state count and Section V-E census
 * of an unlimited run exactly, at any thread count; a checkpoint
 * taken mid-spill references its live segment files and a resume
 * re-adopts them (refusing on checksum mismatch like any other
 * tampered artifact); and a clean finish leaves no segment files
 * behind. The 4-worker tests double as ThreadSanitizer targets via
 * the TSan CI job.
 *
 * The cap used throughout is maxResidentBytes = 1: the watermark
 * fires at every control point (before the first expansion, then
 * every 256 expansions), so the hot tier flushes whenever it holds a
 * segment's worth (64 KiB) of encodings and the frontier overflow
 * window is as small as the engine allows — the most spill-hostile
 * schedule available without patching thresholds.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/hieragen.hh"
#include "core/hiera.hh"
#include "protocols/registry.hh"
#include "seeded_bugs.hh"
#include "util/fileio.hh"
#include "verif/checker.hh"
#include "verif/checkpoint.hh"
#include "verif/statestore.hh"

namespace hieragen
{
namespace
{

constexpr unsigned kParThreads = 4;

/** Per-process temp path: ctest -j runs parametrized instances in
 *  separate processes that must not share spill/checkpoint files. */
std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + std::to_string(::getpid()) + "." +
           name;
}

/** Flat MSI, 4 caches, budget 3: ~12k states — enough expansions
 *  that the engine's control points (and with them the watermark)
 *  fire many times mid-run, and large enough that the visited arena
 *  crosses the 64 KiB segment threshold. */
verif::CheckOptions
bigOpts()
{
    verif::CheckOptions o;
    o.atomicTransactions = true;
    o.accessBudget = 3;
    o.numThreads = 1;
    return o;
}
constexpr int kBigCaches = 4;

verif::CheckOptions
spillOpts(verif::CheckOptions o, const std::string &dir)
{
    o.maxResidentBytes = 1;  // trip the watermark at every control point
    o.memoryLimitPolicy = verif::MemoryLimitPolicy::SpillToDisk;
    o.spillDir = dir;
    return o;
}

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

void
expectSameCensus(const Protocol &a, const Protocol &b,
                 const std::string &what)
{
    CensusCounts ca = censusOf(a), cb = censusOf(b);
    EXPECT_EQ(ca.cacheTrans, cb.cacheTrans) << what;
    EXPECT_EQ(ca.cacheStates, cb.cacheStates) << what;
    EXPECT_EQ(ca.dirTrans, cb.dirTrans) << what;
    EXPECT_EQ(ca.dirStates, cb.dirStates) << what;
}

/** Leftover spill segments under @p dir with our shard prefixes. A
 *  clean (non-resumable) finish must remove every one. */
std::vector<std::string>
segmentFilesIn(const std::string &dir)
{
    std::vector<std::string> out;
    for (const char *prefix : {"visited", "frontier"}) {
        for (unsigned i = 0; i < 10000; ++i) {
            char name[32];
            std::snprintf(name, sizeof(name), "-%06u.seg", i);
            std::string p = dir + "/" + prefix + name;
            std::ifstream in(p, std::ios::binary);
            if (in)
                out.push_back(p);
        }
    }
    return out;
}

// ---------------------------------------------------------------
// Parity across the builtin matrix: capped + spill == unlimited,
// sequential == parallel.

class SpillParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SpillParity, CappedRunMatchesUnlimited)
{
    const std::string name = GetParam();
    std::string dir = tmpPath("parity-" + name);

    Protocol clean = protocols::builtinProtocol(name);
    verif::CheckOptions o = bigOpts();
    auto ref = verif::checkFlat(clean, kBigCaches, o);

    Protocol seqP = protocols::builtinProtocol(name);
    auto seq =
        verif::checkFlat(seqP, kBigCaches, spillOpts(o, dir));
    EXPECT_EQ(ref.ok, seq.ok) << name;
    EXPECT_EQ(ref.errorKind, seq.errorKind) << name;
    EXPECT_EQ(ref.statesExplored, seq.statesExplored) << name;
    EXPECT_EQ(ref.statesGenerated, seq.statesGenerated) << name;
    EXPECT_EQ(ref.transitionsFired, seq.transitionsFired) << name;
    expectSameCensus(clean, seqP, name + " seq");
    EXPECT_FALSE(ref.spilledToDisk);
    EXPECT_FALSE(seq.degradedToCompaction) << name;
    EXPECT_FALSE(seq.hashCompaction) << name;

    verif::CheckOptions po = spillOpts(o, dir);
    po.numThreads = kParThreads;
    Protocol parP = protocols::builtinProtocol(name);
    auto par = verif::checkFlat(parP, kBigCaches, po);
    EXPECT_EQ(ref.ok, par.ok) << name;
    EXPECT_EQ(ref.statesExplored, par.statesExplored) << name;
    EXPECT_EQ(ref.statesGenerated, par.statesGenerated) << name;
    EXPECT_EQ(ref.transitionsFired, par.transitionsFired) << name;
    expectSameCensus(clean, parP, name + " par");
    EXPECT_FALSE(par.degradedToCompaction) << name;

    // No stray segment files after two clean finishes.
    EXPECT_TRUE(segmentFilesIn(dir).empty()) << name;
}

INSTANTIATE_TEST_SUITE_P(All, SpillParity,
                         ::testing::Values("MI", "MSI", "MESI", "MOSI",
                                           "MOESI", "MSI_SE"));

// ---------------------------------------------------------------
// The spill path demonstrably runs (segments written, disk probed)
// and stays exact. MSI at this size crosses the 64 KiB hot-tier
// threshold many times over.

TEST(SpillMechanics, SequentialWritesAndProbesSegments)
{
    std::string dir = tmpPath("seq-mech");
    Protocol clean = protocols::builtinProtocol("MSI");
    auto ref = verif::checkFlat(clean, kBigCaches, bigOpts());
    ASSERT_TRUE(ref.ok) << ref.summary();

    Protocol p = protocols::builtinProtocol("MSI");
    auto r =
        verif::checkFlat(p, kBigCaches, spillOpts(bigOpts(), dir));
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_TRUE(r.spilledToDisk);
    EXPECT_GE(r.spillSegmentsWritten, 1u);
    EXPECT_GT(r.spilledBytes, 0u);
    // Revisits of spilled states must fall through to the on-disk
    // index — and most disk probes are revisits, so they hit.
    EXPECT_GT(r.diskProbes, 0u);
    EXPECT_GT(r.diskProbeHits, 0u);
    EXPECT_LE(r.diskProbeHits, r.diskProbes);
    EXPECT_GT(r.peakRssBytes, 0u);

    EXPECT_EQ(ref.statesExplored, r.statesExplored);
    expectSameCensus(clean, p, "seq mechanics");

    // A clean finish owes the filesystem nothing.
    EXPECT_TRUE(segmentFilesIn(dir).empty());
}

TEST(SpillMechanics, ParallelWritesSegmentsTSan)
{
    // The TSan job re-runs this: 4 workers inserting while the
    // coordinator spills at rendezvous and samples telemetry.
    std::string dir = tmpPath("par-mech");
    Protocol clean = protocols::builtinProtocol("MSI");
    auto ref = verif::checkFlat(clean, kBigCaches, bigOpts());

    verif::CheckOptions o = spillOpts(bigOpts(), dir);
    o.numThreads = kParThreads;
    Protocol p = protocols::builtinProtocol("MSI");
    auto r = verif::checkFlat(p, kBigCaches, o);
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_TRUE(r.spilledToDisk);
    EXPECT_GE(r.spillSegmentsWritten, 1u);
    EXPECT_EQ(ref.statesExplored, r.statesExplored);
    expectSameCensus(clean, p, "par mechanics");
    EXPECT_TRUE(segmentFilesIn(dir).empty());
}

// ---------------------------------------------------------------
// Checkpoint v3: a kill during active spilling leaves a checkpoint
// referencing live segments; resume re-adopts them and finishes to
// the clean verdict — including across engines (seq ckpt, par
// resume and vice versa).

class SpillResume : public ::testing::TestWithParam<
                        std::tuple<unsigned, unsigned, int>>
{
};

TEST_P(SpillResume, KillDuringSpillResumesToCleanVerdict)
{
    // The 4-thread kill leg runs the 5-cache configuration, so many
    // control points (and spills) land before the state cap at 75%
    // does.
    auto [killThreads, resumeThreads, caches] = GetParam();
    std::string tag = std::to_string(killThreads) + "-" +
                      std::to_string(resumeThreads);
    std::string dir = tmpPath("resume-" + tag);
    std::string ckpt = tmpPath("resume-" + tag + ".ckpt");

    Protocol clean = protocols::builtinProtocol("MSI");
    auto ref = verif::checkFlat(clean, caches, bigOpts());
    ASSERT_TRUE(ref.ok);

    verif::CheckOptions ko = spillOpts(bigOpts(), dir);
    ko.numThreads = killThreads;
    ko.maxStates = ref.statesExplored * 3 / 4;
    ko.checkpointPath = ckpt;
    Protocol killed = protocols::builtinProtocol("MSI");
    auto kr = verif::checkFlat(killed, caches, ko);
    ASSERT_FALSE(kr.ok);
    ASSERT_EQ(kr.errorKind, hieragen::ErrorKind::StateLimit);
    ASSERT_TRUE(kr.resumable);
    ASSERT_GE(kr.checkpointsWritten, 1u);
    ASSERT_TRUE(kr.spilledToDisk) << kr.summary();

    // The artifact references the live segments instead of
    // re-serializing them, and they survived the abort.
    verif::CheckpointData data;
    auto io = verif::CheckpointReader().read(ckpt, data);
    ASSERT_TRUE(io.ok) << io.error;
    ASSERT_FALSE(data.visitedSegments.empty());
    for (const auto &ref_ : data.visitedSegments) {
        std::ifstream in(ref_.path, std::ios::binary);
        EXPECT_TRUE(in.good()) << ref_.path;
    }

    Protocol resumed = protocols::builtinProtocol("MSI");
    verif::CheckOptions ro = spillOpts(bigOpts(), dir);
    ro.numThreads = resumeThreads;
    ro.resume = &data;
    auto rr = verif::checkFlat(resumed, caches, ro);
    EXPECT_TRUE(rr.ok) << rr.summary();
    EXPECT_TRUE(rr.resumedFromCheckpoint);
    EXPECT_TRUE(rr.spilledToDisk);
    EXPECT_EQ(ref.statesExplored, rr.statesExplored) << tag;
    EXPECT_EQ(ref.transitionsFired, rr.transitionsFired) << tag;
    expectSameCensus(clean, resumed, tag);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesBothWays, SpillResume,
    ::testing::Values(
        std::tuple<unsigned, unsigned, int>{1u, 1u, kBigCaches},
        std::tuple<unsigned, unsigned, int>{1u, kParThreads,
                                            kBigCaches},
        std::tuple<unsigned, unsigned, int>{kParThreads, 1u,
                                            kBigCaches + 1}));

TEST(SpillResume2, SpillDirUnsetOnResumeReusesSegmentDir)
{
    // A resume without spillDir set keeps spilling next to the
    // checkpointed segments instead of losing the out-of-core mode.
    std::string dir = tmpPath("resume-nodir");
    std::string ckpt = tmpPath("resume-nodir.ckpt");

    Protocol clean = protocols::builtinProtocol("MSI");
    auto ref = verif::checkFlat(clean, kBigCaches, bigOpts());

    verif::CheckOptions ko = spillOpts(bigOpts(), dir);
    ko.maxStates = ref.statesExplored / 2;
    ko.checkpointPath = ckpt;
    Protocol killed = protocols::builtinProtocol("MSI");
    auto kr = verif::checkFlat(killed, kBigCaches, ko);
    ASSERT_TRUE(kr.spilledToDisk);

    verif::CheckpointData data;
    ASSERT_TRUE(verif::CheckpointReader().read(ckpt, data).ok);
    Protocol resumed = protocols::builtinProtocol("MSI");
    verif::CheckOptions ro = bigOpts();  // no spillDir, no limit
    ro.resume = &data;
    auto rr = verif::checkFlat(resumed, kBigCaches, ro);
    EXPECT_TRUE(rr.ok) << rr.summary();
    EXPECT_TRUE(rr.spilledToDisk);  // adopted segments count
    EXPECT_EQ(ref.statesExplored, rr.statesExplored);
    expectSameCensus(clean, resumed, "nodir resume");
}

// ---------------------------------------------------------------
// Refusal paths.

TEST(SpillRefusal, CorruptedSegmentRefusedOnResume)
{
    std::string dir = tmpPath("corrupt");
    std::string ckpt = tmpPath("corrupt.ckpt");

    Protocol clean = protocols::builtinProtocol("MSI");
    auto ref = verif::checkFlat(clean, kBigCaches, bigOpts());

    verif::CheckOptions ko = spillOpts(bigOpts(), dir);
    ko.maxStates = ref.statesExplored / 2;
    ko.checkpointPath = ckpt;
    Protocol killed = protocols::builtinProtocol("MSI");
    auto kr = verif::checkFlat(killed, kBigCaches, ko);
    ASSERT_TRUE(kr.spilledToDisk);

    verif::CheckpointData data;
    ASSERT_TRUE(verif::CheckpointReader().read(ckpt, data).ok);
    ASSERT_FALSE(data.visitedSegments.empty());

    // Flip one payload byte in the first referenced segment; the
    // seal no longer matches and adoption must refuse.
    const std::string &victim = data.visitedSegments.front().path;
    std::fstream f(victim,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good()) << victim;
    f.seekg(0, std::ios::end);
    auto sz = static_cast<long>(f.tellg());
    ASSERT_GT(sz, 64);
    f.seekp(sz / 2);
    char b = 0;
    f.seekg(sz / 2);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(sz / 2);
    f.write(&b, 1);
    f.close();

    for (unsigned threads : {1u, kParThreads}) {
        Protocol resumed = protocols::builtinProtocol("MSI");
        verif::CheckOptions ro = spillOpts(bigOpts(), dir);
        ro.numThreads = threads;
        ro.resume = &data;
        auto rr = verif::checkFlat(resumed, kBigCaches, ro);
        EXPECT_FALSE(rr.ok) << threads;
        EXPECT_EQ(rr.errorKind, hieragen::ErrorKind::ResumeMismatch) << rr.summary();
    }
}

TEST(SpillRefusal, RefusedResumeKeepsAdoptedSegments)
{
    // The segments belong to the checkpoint, not to the refused run:
    // a resume that adopts some segments and then refuses on a later
    // one must leave every file in place.
    std::string dir = tmpPath("refused");
    std::string ckpt = tmpPath("refused.ckpt");
    Protocol clean = protocols::builtinProtocol("MSI");
    auto ref = verif::checkFlat(clean, kBigCaches, bigOpts());

    verif::CheckOptions ko = spillOpts(bigOpts(), dir);
    ko.maxStates = ref.statesExplored * 3 / 4;
    ko.checkpointPath = ckpt;
    Protocol killed = protocols::builtinProtocol("MSI");
    ASSERT_TRUE(verif::checkFlat(killed, kBigCaches, ko).spilledToDisk);
    verif::CheckpointData data;
    ASSERT_TRUE(verif::CheckpointReader().read(ckpt, data).ok);
    ASSERT_GE(data.visitedSegments.size(), 2u);

    // Truncate the last visited segment; its size no longer matches.
    ASSERT_EQ(::truncate(data.visitedSegments.back().path.c_str(), 8), 0);
    for (unsigned threads : {1u, kParThreads}) {
        Protocol resumed = protocols::builtinProtocol("MSI");
        verif::CheckOptions ro = spillOpts(bigOpts(), dir);
        ro.numThreads = threads;
        ro.resume = &data;
        auto rr = verif::checkFlat(resumed, kBigCaches, ro);
        EXPECT_EQ(rr.errorKind, hieragen::ErrorKind::ResumeMismatch)
            << rr.summary();
        for (const auto &seg : data.visitedSegments)
            EXPECT_TRUE(std::ifstream(seg.path).good())
                << threads << " " << seg.path;
    }
}

TEST(SpillRefusal, PolicyWithoutDirectoryRefused)
{
    Protocol p = protocols::builtinProtocol("MSI");
    verif::CheckOptions o = bigOpts();
    o.maxResidentBytes = 1;
    o.memoryLimitPolicy = verif::MemoryLimitPolicy::SpillToDisk;
    auto r = verif::checkFlat(p, kBigCaches, o);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorKind, hieragen::ErrorKind::SpillIo);
}

TEST(SpillRefusal, UnusableDirectoryFailsSpillIo)
{
    Protocol p = protocols::builtinProtocol("MSI");
    auto r = verif::checkFlat(
        p, kBigCaches,
        spillOpts(bigOpts(), "/dev/null/not-a-directory"));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorKind, hieragen::ErrorKind::SpillIo);
}

// ---------------------------------------------------------------
// Facade plumbing: VerifySession::spillTo selects the policy and the
// result carries the spill counters.

TEST(SpillFacade, SpillToMatchesClassicEntryPoint)
{
    Protocol clean = protocols::builtinProtocol("MSI");
    auto ref = verif::checkFlat(clean, kBigCaches, bigOpts());

    Protocol p = protocols::builtinProtocol("MSI");
    auto session =
        api::VerifySession::flat(p, kBigCaches, bigOpts());
    session.memoryLimit(1).spillTo(tmpPath("facade"));
    EXPECT_EQ(session.options().memoryLimitPolicy,
              verif::MemoryLimitPolicy::SpillToDisk);
    const auto &r = session.run();
    EXPECT_TRUE(r.ok) << r.summary();
    EXPECT_TRUE(r.spilledToDisk);
    EXPECT_EQ(ref.statesExplored, r.statesExplored);
    expectSameCensus(clean, p, "facade");
}

// ---------------------------------------------------------------
// traceJson parity (observability satellite): a violation found
// under spill — or after a v3 resume — reports the same verdict and
// error_kind as an in-memory run, and the structured document stays
// well-formed with pinned-empty steps where tracing was forced off.

/** Sabotage MSI exactly as test_obs does: S + Inv stays in S keeping
 *  data, so SWMR/data-value trips with a reachable violation. */
Protocol
sabotagedMsi()
{
    Protocol p = protocols::builtinProtocol("MSI");
    seeded::dropInvalidation(p.cache, p.msgs, Level::Lower);
    return p;
}

TEST(SpillTrace, ViolationUnderSpillKeepsVerdictDropsSteps)
{
    Protocol base = sabotagedMsi();
    auto ref = verif::checkFlat(base, kBigCaches, bigOpts());
    ASSERT_FALSE(ref.ok);
    ASSERT_FALSE(ref.trace.empty());

    for (unsigned threads : {1u, kParThreads}) {
        Protocol p = sabotagedMsi();
        verif::CheckOptions o = spillOpts(
            bigOpts(), tmpPath("trace-" + std::to_string(threads)));
        o.numThreads = threads;
        auto r = verif::checkFlat(p, kBigCaches, o);
        ASSERT_FALSE(r.ok) << threads;
        EXPECT_EQ(r.errorKind, ref.errorKind) << threads;

        // SpillToDisk forces traceOnError off (tracing pins every
        // visited state in memory), so the structured document must
        // carry the verdict with pinned-empty steps — not a trace
        // rebuilt from evicted states, and not malformed JSON.
        EXPECT_TRUE(r.trace.empty()) << threads;
        std::string json = r.traceJson();
        EXPECT_NE(json.find("\"ok\": false"), std::string::npos)
            << json;
        EXPECT_NE(json.find("\"error_kind\""), std::string::npos);
        EXPECT_NE(json.find("\"steps\": []"), std::string::npos)
            << json;
    }
}

TEST(SpillTrace, ViolationAfterV3ResumeMatchesBaselineVerdict)
{
    Protocol base = sabotagedMsi();
    auto ref = verif::checkFlat(base, kBigCaches, bigOpts());
    ASSERT_FALSE(ref.ok);

    // A finished resume deletes the segments it adopted, so each
    // engine gets its own kill + resume pair.
    for (unsigned threads : {1u, kParThreads}) {
        std::string tag = "trace-resume-" + std::to_string(threads);
        std::string dir = tmpPath(tag);
        std::string ckpt = tmpPath(tag + ".ckpt");

        // Leg 1: spill + checkpoint, capped below the 66 states the
        // sequential BFS explores before reaching the violation (the
        // sabotaged prefix is symmetry-invariant, so the count holds
        // at any width). maxStates is deliberately not part of the
        // options fingerprint, so the uncapped resume is legal.
        verif::CheckOptions ko = spillOpts(bigOpts(), dir);
        ko.maxStates = 40;
        ko.checkpointPath = ckpt;
        Protocol killed = sabotagedMsi();
        auto kr = verif::checkFlat(killed, kBigCaches, ko);
        ASSERT_FALSE(kr.ok) << threads;
        if (kr.errorKind != hieragen::ErrorKind::StateLimit) {
            // BFS reached the violation before the cap — still a
            // valid parity check, just without the resume leg.
            EXPECT_EQ(kr.errorKind, ref.errorKind) << threads;
            continue;
        }
        ASSERT_TRUE(kr.resumable) << threads;
        ASSERT_GE(kr.checkpointsWritten, 1u) << threads;

        verif::CheckpointData data;
        ASSERT_TRUE(verif::CheckpointReader().read(ckpt, data).ok)
            << threads;

        Protocol resumed = sabotagedMsi();
        verif::CheckOptions ro = spillOpts(bigOpts(), dir);
        ro.numThreads = threads;
        ro.resume = &data;
        auto rr = verif::checkFlat(resumed, kBigCaches, ro);
        ASSERT_FALSE(rr.ok) << threads;
        EXPECT_TRUE(rr.resumedFromCheckpoint) << threads;
        EXPECT_EQ(rr.errorKind, ref.errorKind) << threads;
        std::string json = rr.traceJson();
        EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
        EXPECT_NE(json.find("\"error_kind\""), std::string::npos);
        EXPECT_NE(json.find("\"steps\": []"), std::string::npos)
            << json;
    }
}

// ---------------------------------------------------------------
// SpillableFrontier on its own: records are plain bytes, so FIFO
// order across head, segments and tail is checked with numbered
// records and no System.

constexpr uint32_t kRecLen = 12;  ///< 8-byte id + 4 filler bytes

/** Stored bytes of @p n records: the frontier's window unit. */
uint64_t
recordBytes(uint64_t n)
{
    return n * (verif::RecordFifo::kLenBytes + kRecLen);
}

void
pushId(verif::SpillableFrontier &q, uint64_t id)
{
    char rec[kRecLen] = {};
    for (int i = 0; i < 8; ++i)
        rec[i] = static_cast<char>(id >> (8 * i));
    q.push(rec, kRecLen);
}

/** A record's id, or ~0 for a malformed one. */
uint64_t
idOf(const std::string &rec)
{
    if (rec.size() != kRecLen)
        return ~uint64_t{0};
    uint64_t id = 0;
    for (int i = 7; i >= 0; --i)
        id = (id << 8) | static_cast<uint8_t>(rec[i]);
    return id;
}

/** Pop everything, in order. */
std::vector<uint64_t>
drainIds(verif::SpillableFrontier &q)
{
    std::vector<uint64_t> ids;
    std::string rec;
    while (q.pop(rec))
        ids.push_back(idOf(rec));
    return ids;
}

std::vector<uint64_t>
iota(uint64_t n)
{
    std::vector<uint64_t> v(n);
    for (uint64_t i = 0; i < n; ++i)
        v[i] = i;
    return v;
}

TEST(SpillFrontier, RecordFifoKeepsOrderAcrossChunkSizes)
{
    // Records larger than a chunk get a chunk of their own; a drained
    // FIFO must not leave an empty chunk ahead of the next record.
    verif::RecordFifo f;
    std::vector<std::string> want;
    auto push = [&](size_t len, char fill) {
        want.emplace_back(len, fill);
        f.push(want.back().data(), static_cast<uint32_t>(len));
    };
    auto drain = [&]() {
        for (const std::string &w : want) {
            ASSERT_FALSE(f.empty());
            EXPECT_EQ(f.front(), w);
            f.pop();
        }
        EXPECT_TRUE(f.empty());
        EXPECT_EQ(f.bytes(), 0u);
        want.clear();
    };
    push(10, 'a');
    drain();
    push(100000, 'b');  // needs its own chunk
    push(0, 'c');
    push(30000, 'd');
    push(40000, 'e');  // spills into the next chunk
    EXPECT_EQ(f.size(), 4u);
    EXPECT_GE(f.allocatedBytes(), f.bytes());
    drain();
    push(200000, 'f');
    drain();
}

TEST(SpillFrontier, FifoOrderAcrossHeadSegmentsAndTail)
{
    std::string dir = tmpPath("fifo");
    ASSERT_TRUE(util::ensureDirectory(dir));
    verif::SpillableFrontier q;
    q.configure(dir, "frontier");
    for (uint64_t i = 0; i < 1000; ++i)
        pushId(q, i);
    q.enableSpill(recordBytes(300));
    EXPECT_EQ(q.headStates(), 300u);
    for (uint64_t i = 1000; i < 5000; ++i)
        pushId(q, i);
    EXPECT_GT(q.diskStates(), 0u);
    EXPECT_GT(q.tailStates(), 0u);
    EXPECT_EQ(q.size(), 5000u);
    EXPECT_EQ(q.stats().spilledStates, q.diskStates());

    // Pops interleaved with pushes still come out in push order.
    std::vector<uint64_t> got;
    std::string rec;
    for (uint64_t i = 5000; i < 6000; ++i) {
        ASSERT_TRUE(q.pop(rec));
        got.push_back(idOf(rec));
        pushId(q, i);
    }
    for (uint64_t id : drainIds(q))
        got.push_back(id);
    EXPECT_EQ(got, iota(6000));
    EXPECT_TRUE(q.error().empty()) << q.error();
    EXPECT_TRUE(q.empty());
    // Consumed segments go at once when none are retained.
    EXPECT_TRUE(segmentFilesIn(dir).empty());
}

TEST(SpillFrontier, ShrinkingWindowKeepsFifoOrder)
{
    // A smaller window arriving while segments already sit behind
    // the head must let the head drain, not write its overflow after
    // the newer segments.
    std::string dir = tmpPath("shrink");
    ASSERT_TRUE(util::ensureDirectory(dir));
    verif::SpillableFrontier q;
    q.configure(dir, "frontier");
    for (uint64_t i = 0; i < 3000; ++i)
        pushId(q, i);
    q.enableSpill(recordBytes(2000));
    for (uint64_t i = 3000; i < 6000; ++i)
        pushId(q, i);
    q.enableSpill(recordBytes(500));
    for (uint64_t i = 6000; i < 7000; ++i)
        pushId(q, i);
    std::vector<uint64_t> got = drainIds(q);
    ASSERT_EQ(got.size(), 7000u);
    EXPECT_EQ(got[500], 500u);
    EXPECT_EQ(got, iota(7000));
    EXPECT_TRUE(segmentFilesIn(dir).empty());
}

TEST(SpillFrontier, RetainedSegmentsStayUntilPurged)
{
    std::string dir = tmpPath("retain");
    ASSERT_TRUE(util::ensureDirectory(dir));
    verif::SpillableFrontier q;
    q.configure(dir, "frontier");
    q.retainConsumed(true);
    q.enableSpill(recordBytes(100));
    for (uint64_t i = 0; i < 3000; ++i)
        pushId(q, i);
    ASSERT_GT(q.stats().segmentsWritten, 1u);
    EXPECT_EQ(drainIds(q), iota(3000));
    EXPECT_EQ(segmentFilesIn(dir).size(), q.stats().segmentsWritten);
    q.purgeConsumed();
    EXPECT_TRUE(segmentFilesIn(dir).empty());
}

TEST(SpillFrontier, AdoptedSegmentsReplayTheirRecords)
{
    // The resume path: a second frontier adopts the first one's live
    // segments by reference and pops their records in order.
    std::string dir = tmpPath("adopt");
    ASSERT_TRUE(util::ensureDirectory(dir));
    verif::SpillableFrontier a;
    a.configure(dir, "frontier");
    a.enableSpill(recordBytes(100));
    for (uint64_t i = 0; i < 2000; ++i)
        pushId(a, i);
    std::vector<verif::SpillSegmentRef> refs = a.segmentRefs();
    ASSERT_FALSE(refs.empty());

    verif::SpillableFrontier b;
    b.configure(dir, "frontier");
    uint64_t adopted = 0;
    for (const auto &ref : refs) {
        std::string err;
        ASSERT_TRUE(b.adoptSegment(ref, &err)) << err;
        adopted += ref.states;
    }
    std::vector<uint64_t> got = drainIds(b);
    std::vector<uint64_t> want(iota(100 + adopted));
    want.erase(want.begin(), want.begin() + 100);  // a's head
    EXPECT_EQ(got, want);
    a.removeSegmentFiles();
    EXPECT_TRUE(segmentFilesIn(dir).empty());
}

TEST(SpillFrontier, VersionOneSegmentRefused)
{
    // A v1 frontier segment (serialized states) and a v2 one (the
    // FNV-1a seal), each sealed as its format was: both are refused
    // by version.
    for (uint32_t version : {1u, 2u}) {
        std::string path = tmpPath("old-frontier.seg");
        std::string img = "HGSPILLQ";
        auto put = [&](uint64_t v, int bytes) {
            for (int i = 0; i < bytes; ++i)
                img.push_back(static_cast<char>(v >> (8 * i)));
        };
        put(version, 4);
        put(0, 8);  // states
        put(0, 8);  // payload bytes
        uint64_t sum = util::fnv1a64(img.data(), img.size());
        put(sum, 8);
        std::ofstream(path, std::ios::binary) << img;

        verif::SpillSegmentRef ref;
        ref.path = path;
        ref.bytes = img.size();
        ref.checksum = sum;
        verif::SpillableFrontier q;
        std::string err;
        EXPECT_FALSE(q.adoptSegment(ref, &err));
        EXPECT_NE(err.find("format version " + std::to_string(version)),
                  std::string::npos)
            << err;
        std::remove(path.c_str());
    }
}

TEST(SpillTierFormat, VersionOneVisitedSegmentRefused)
{
    // A v1 visited segment holds FNV-1a fingerprints under an FNV-1a
    // seal; adopting it would probe with the wrong fingerprints, so
    // it is refused by version.
    std::string path = tmpPath("v1-visited.seg");
    std::string img = "HGSPILL1";
    auto put = [&](uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i)
            img.push_back(static_cast<char>(v >> (8 * i)));
    };
    put(1, 4);  // version
    put(0, 8);  // states
    put(0, 8);  // payload bytes
    uint64_t sum = util::fnv1a64(img.data(), img.size());
    put(sum, 8);
    std::ofstream(path, std::ios::binary) << img;

    verif::SpillSegmentRef ref;
    ref.path = path;
    ref.bytes = img.size();
    ref.checksum = sum;
    verif::SpillTier tier;
    tier.configure(testing::TempDir(), "v1");
    std::string err;
    EXPECT_FALSE(tier.adoptSegment(ref, &err));
    EXPECT_NE(err.find("format version 1; this build reads 2"),
              std::string::npos)
        << err;
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Frontier segments on a hierarchical system: MSI/MSI non-stalling
// 2H+1L, symmetry on. Capped runs and a resume from a checkpoint
// that references frontier segments must match the unlimited run.

HierProtocol
hierMsi()
{
    Protocol l = protocols::builtinProtocol("MSI");
    Protocol h = protocols::builtinProtocol("MSI");
    core::HierGenOptions gopts;
    gopts.mode = ConcurrencyMode::NonStalling;
    return core::generate(l, h, gopts);
}

std::vector<size_t>
hierCensus(const HierProtocol &p)
{
    std::vector<size_t> out;
    for (const Machine *m : p.machines()) {
        out.push_back(m->numReachedTransitions());
        out.push_back(m->numReachedStates());
    }
    return out;
}

verif::CheckOptions
hierOpts()
{
    verif::CheckOptions o;
    o.traceOnError = false;
    o.numThreads = 1;
    return o;
}

TEST(SpillHier, CappedRunMatchesUnlimited)
{
    HierProtocol clean = hierMsi();
    auto ref = verif::checkHier(clean, 2, 1, hierOpts());
    ASSERT_TRUE(ref.ok) << ref.summary();
    ASSERT_TRUE(ref.symmetryReduction);

    for (unsigned threads : {1u, kParThreads}) {
        std::string dir = tmpPath("hier-" + std::to_string(threads));
        verif::CheckOptions o = spillOpts(hierOpts(), dir);
        o.numThreads = threads;
        HierProtocol p = hierMsi();
        auto r = verif::checkHier(p, 2, 1, o);
        EXPECT_TRUE(r.ok) << r.summary();
        EXPECT_TRUE(r.spilledToDisk) << threads;
        EXPECT_EQ(ref.statesExplored, r.statesExplored) << threads;
        EXPECT_EQ(ref.statesGenerated, r.statesGenerated) << threads;
        EXPECT_EQ(ref.transitionsFired, r.transitionsFired) << threads;
        EXPECT_EQ(hierCensus(clean), hierCensus(p)) << threads;
        EXPECT_TRUE(segmentFilesIn(dir).empty()) << threads;
    }
}

TEST(SpillHier, OneWorkerSpilledQueueKeepsBfsOrder)
{
    // One worker pops a spilled queue in unlimited BFS order, so a
    // run capped at N expansions expands the same N states: the same
    // successors, transitions and census.
    verif::CheckOptions o = hierOpts();
    o.maxStates = 60000;
    HierProtocol clean = hierMsi();
    auto ref = verif::checkHier(clean, 2, 1, o);
    ASSERT_EQ(ref.errorKind, hieragen::ErrorKind::StateLimit);

    HierProtocol p = hierMsi();
    auto r = verif::checkHier(p, 2, 1, spillOpts(o, tmpPath("hier-bfs")));
    ASSERT_EQ(r.errorKind, hieragen::ErrorKind::StateLimit)
        << r.summary();
    EXPECT_TRUE(r.spilledToDisk);
    EXPECT_EQ(ref.statesGenerated, r.statesGenerated);
    EXPECT_EQ(ref.transitionsFired, r.transitionsFired);
    EXPECT_EQ(hierCensus(clean), hierCensus(p));
}

TEST(SpillHier, ResumeThroughFrontierSegments)
{
    HierProtocol clean = hierMsi();
    auto ref = verif::checkHier(clean, 2, 1, hierOpts());
    ASSERT_TRUE(ref.ok) << ref.summary();

    // A finished resume deletes the segments it adopted, so each
    // resume width gets its own kill.
    for (unsigned threads : {1u, kParThreads}) {
        std::string tag = "hier-resume-" + std::to_string(threads);
        std::string dir = tmpPath(tag);
        std::string ckpt = tmpPath(tag + ".ckpt");

        verif::CheckOptions ko = spillOpts(hierOpts(), dir);
        ko.maxStates = ref.statesExplored * 3 / 4;
        ko.checkpointPath = ckpt;
        HierProtocol killed = hierMsi();
        auto kr = verif::checkHier(killed, 2, 1, ko);
        ASSERT_EQ(kr.errorKind, hieragen::ErrorKind::StateLimit)
            << kr.summary();
        ASSERT_GE(kr.checkpointsWritten, 1u);

        verif::CheckpointData data;
        auto io = verif::CheckpointReader().read(ckpt, data);
        ASSERT_TRUE(io.ok) << io.error;
        ASSERT_FALSE(data.frontierSegments.empty()) << threads;

        HierProtocol resumed = hierMsi();
        verif::CheckOptions ro = spillOpts(hierOpts(), dir);
        ro.numThreads = threads;
        ro.resume = &data;
        auto rr = verif::checkHier(resumed, 2, 1, ro);
        EXPECT_TRUE(rr.ok) << rr.summary();
        EXPECT_TRUE(rr.resumedFromCheckpoint);
        EXPECT_EQ(ref.statesExplored, rr.statesExplored) << threads;
        EXPECT_EQ(ref.statesGenerated, rr.statesGenerated) << threads;
        EXPECT_EQ(ref.transitionsFired, rr.transitionsFired) << threads;
        EXPECT_EQ(hierCensus(clean), hierCensus(resumed)) << threads;
        EXPECT_TRUE(segmentFilesIn(dir).empty()) << threads;
    }
}

} // namespace
} // namespace hieragen
