/**
 * @file
 * Flat visited-table coverage: arena offset stability, growth and
 * rehash accounting, fingerprint aliasing (same fp, different bytes),
 * the zero-fingerprint/zero-signature sentinels, pre-sizing, the
 * checkpoint round-trip of the v2 (bit-packed) snapshot format plus
 * refusal of v1 snapshots, and a 4-worker parallel run that drives
 * the sharded tables under ThreadSanitizer in the sanitizer build.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "protocols/registry.hh"
#include "util/fileio.hh"
#include "verif/checker.hh"
#include "verif/checkpoint.hh"
#include "verif/statetable.hh"

namespace hieragen::verif
{
namespace
{

/** Deterministic non-cryptographic fingerprint for test payloads. */
uint64_t
fpOf(const std::string &s)
{
    return util::fnv1a64(s.data(), s.size(),
                         0x9e3779b97f4a7c15ull);
}

std::string
payload(int i)
{
    return "state-" + std::to_string(i) + "-" +
           std::string(static_cast<size_t>(i % 37), 'x');
}

TEST(StateArena, OffsetsStableAcrossChunks)
{
    StateArena arena;
    // Entries big enough that several chunks are needed; none may
    // straddle a boundary, and earlier offsets must stay valid.
    std::vector<std::pair<uint64_t, std::string>> entries;
    for (int i = 0; i < 64; ++i) {
        std::string data(4000 + i, static_cast<char>('a' + i % 26));
        entries.emplace_back(
            arena.append(data.data(),
                         static_cast<uint32_t>(data.size())),
            data);
    }
    EXPECT_GT(arena.allocatedBytes(), StateArena::kChunkSize);
    for (const auto &[off, data] : entries)
        EXPECT_EQ(0, std::memcmp(arena.at(off), data.data(),
                                 data.size()));
}

TEST(StateTable, InsertDedupAndGrowth)
{
    StateTable t(StateTable::Mode::Exact);
    constexpr int kN = 5000;
    for (int i = 0; i < kN; ++i) {
        std::string s = payload(i);
        EXPECT_TRUE(t.insert(fpOf(s), s.data(),
                             static_cast<uint32_t>(s.size())))
            << "entry " << i << " should be fresh";
    }
    EXPECT_EQ(t.size(), static_cast<uint64_t>(kN));
    EXPECT_GT(t.rehashes(), 0u) << "growth from empty must rehash";
    EXPECT_GT(t.loadFactor(), 0.0);
    EXPECT_LE(t.loadFactor(), 0.7 + 1e-9);
    // Every entry deduplicates on re-insert.
    for (int i = 0; i < kN; ++i) {
        std::string s = payload(i);
        EXPECT_FALSE(t.insert(fpOf(s), s.data(),
                              static_cast<uint32_t>(s.size())));
    }
    EXPECT_EQ(t.size(), static_cast<uint64_t>(kN));
}

TEST(StateTable, ForEachExactRoundTripsEveryPayload)
{
    StateTable t(StateTable::Mode::Exact);
    std::set<std::string> expect;
    for (int i = 0; i < 1000; ++i) {
        std::string s = payload(i);
        expect.insert(s);
        t.insert(fpOf(s), s.data(),
                 static_cast<uint32_t>(s.size()));
    }
    std::set<std::string> got;
    t.forEachExact([&](const char *data, uint32_t len) {
        got.emplace(data, len);
    });
    EXPECT_EQ(got, expect);
}

TEST(StateTable, FingerprintAliasesAreKeptDistinct)
{
    StateTable t(StateTable::Mode::Exact);
    // Same fingerprint, different bytes: the bytes decide equality,
    // so both must be stored and each must dedup independently.
    const uint64_t fp = 0xDEADBEEFCAFEF00Dull;
    std::string a = "alias-one";
    std::string b = "alias-two-longer";
    EXPECT_TRUE(t.insert(fp, a.data(),
                         static_cast<uint32_t>(a.size())));
    EXPECT_TRUE(t.insert(fp, b.data(),
                         static_cast<uint32_t>(b.size())));
    EXPECT_EQ(t.size(), 2u);
    EXPECT_FALSE(t.insert(fp, a.data(),
                          static_cast<uint32_t>(a.size())));
    EXPECT_FALSE(t.insert(fp, b.data(),
                          static_cast<uint32_t>(b.size())));
    // Same fp and length, different content — memcmp must decide.
    std::string c = "alias-two-LONGER";
    EXPECT_TRUE(t.insert(fp, c.data(),
                         static_cast<uint32_t>(c.size())));
    EXPECT_EQ(t.size(), 3u);
}

TEST(StateTable, ZeroFingerprintCannotAliasEmptySlots)
{
    StateTable t(StateTable::Mode::Exact);
    std::string s = "zero-fp-state";
    EXPECT_TRUE(t.insert(0, s.data(),
                         static_cast<uint32_t>(s.size())));
    EXPECT_FALSE(t.insert(0, s.data(),
                          static_cast<uint32_t>(s.size())));
    EXPECT_EQ(t.size(), 1u);
    // Force growth; the remapped entry must survive the rehash.
    for (int i = 0; i < 200; ++i) {
        std::string p = payload(i);
        t.insert(fpOf(p), p.data(),
                 static_cast<uint32_t>(p.size()));
    }
    EXPECT_FALSE(t.insert(0, s.data(),
                          static_cast<uint32_t>(s.size())));
}

TEST(StateTable, HashModeStoresZeroSignature)
{
    StateTable t(StateTable::Mode::Hashes);
    EXPECT_TRUE(t.insertHash(0));
    EXPECT_FALSE(t.insertHash(0));
    EXPECT_TRUE(t.insertHash(42));
    EXPECT_FALSE(t.insertHash(42));
    EXPECT_EQ(t.size(), 2u);
    std::multiset<uint64_t> got;
    t.forEachHash([&](uint64_t h) { got.insert(h); });
    EXPECT_EQ(got, (std::multiset<uint64_t>{0, 42}));
}

TEST(StateTable, HashModeDedupAtScale)
{
    StateTable t(StateTable::Mode::Hashes);
    for (uint64_t i = 0; i < 4096; ++i)
        EXPECT_TRUE(t.insertHash(i * 0x9E3779B97F4A7C15ull + 1));
    for (uint64_t i = 0; i < 4096; ++i)
        EXPECT_FALSE(t.insertHash(i * 0x9E3779B97F4A7C15ull + 1));
    EXPECT_EQ(t.size(), 4096u);
}

TEST(StateTable, ReserveAvoidsRehash)
{
    StateTable t(StateTable::Mode::Exact);
    t.reserve(3000);
    EXPECT_EQ(t.rehashes(), 0u);
    for (int i = 0; i < 3000; ++i) {
        std::string s = payload(i);
        t.insert(fpOf(s), s.data(),
                 static_cast<uint32_t>(s.size()));
    }
    EXPECT_EQ(t.size(), 3000u);
    EXPECT_EQ(t.rehashes(), 0u)
        << "a reserved table must absorb the reserved count";
    EXPECT_GT(t.memoryBytes(), t.payloadBytes());
}

TEST(StateTable, GrowthTimeAdvancesOnlyWhenSlotsGrow)
{
    // The checker's phase breakdown reads growNs() around each insert
    // to time growth exactly, so it must move on growth and only then.
    StateTable t(StateTable::Mode::Hashes);
    EXPECT_EQ(t.growNs(), 0u);
    uint64_t lastNs = 0, lastCap = 0;
    for (uint64_t i = 1; i <= 100000; ++i) {
        t.insertHash(i * 0x9E3779B97F4A7C15ull);
        if (t.capacity() == lastCap) {
            EXPECT_EQ(t.growNs(), lastNs) << i;
        }
        lastNs = t.growNs();
        lastCap = t.capacity();
    }
    EXPECT_GT(t.rehashes(), 0u);
    EXPECT_GT(t.growNs(), 0u);
}

// ---------------------------------------------------------------
// Checkpoint format: v2 round-trip and v1 refusal.

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + name;
}

TEST(StateTableCheckpoint, PackedSnapshotRoundTrips)
{
    Protocol p = protocols::builtinProtocol("MSI");
    CheckOptions o;
    o.atomicTransactions = true;
    o.accessBudget = 2;
    o.numThreads = 1;
    o.maxStates = 300;
    o.checkpointPath = tmpPath("statetable_v2.ckpt");
    auto r = checkFlat(p, 3, o);
    ASSERT_EQ(r.errorKind, hieragen::ErrorKind::StateLimit);
    ASSERT_GE(r.checkpointsWritten, 1u);

    CheckpointData data;
    CheckpointReader reader;
    auto io = reader.read(o.checkpointPath, data);
    ASSERT_TRUE(io.ok) << io.error;
    EXPECT_FALSE(data.header.storedAsHashes);
    // Visited holds every accepted state, expanded or still queued.
    EXPECT_GE(data.visitedExact.size(), r.statesExplored);

    // Resuming reproduces the uninterrupted run exactly.
    Protocol p2 = protocols::builtinProtocol("MSI");
    CheckOptions full = o;
    full.maxStates = 20'000'000;
    full.checkpointPath.clear();
    full.resume = &data;
    auto resumed = checkFlat(p2, 3, full);
    Protocol p3 = protocols::builtinProtocol("MSI");
    CheckOptions clean = full;
    clean.resume = nullptr;
    auto reference = checkFlat(p3, 3, clean);
    EXPECT_TRUE(resumed.ok);
    EXPECT_EQ(resumed.statesExplored, reference.statesExplored);
}

TEST(StateTableCheckpoint, OldFormatVersionRefusedWithReason)
{
    Protocol p = protocols::builtinProtocol("MSI");
    CheckOptions o;
    o.atomicTransactions = true;
    o.accessBudget = 2;
    o.numThreads = 1;
    o.maxStates = 300;
    o.checkpointPath = tmpPath("statetable_v1.ckpt");
    auto r = checkFlat(p, 3, o);
    ASSERT_GE(r.checkpointsWritten, 1u);

    std::string raw;
    {
        std::ifstream in(o.checkpointPath, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        raw = ss.str();
    }
    ASSERT_GT(raw.size(), 20u);
    // Rewrite the u32 version (little-endian, after the 8-byte
    // magic) to 1 and re-seal the trailing FNV-1a checksum so only
    // the version check can fire.
    raw[8] = 1;
    raw[9] = raw[10] = raw[11] = 0;
    uint64_t sum = util::fnv1a64(raw.data(), raw.size() - 8);
    for (size_t i = 0; i < 8; ++i)
        raw[raw.size() - 8 + i] =
            static_cast<char>((sum >> (8 * i)) & 0xff);
    {
        std::ofstream out(o.checkpointPath,
                          std::ios::binary | std::ios::trunc);
        out.write(raw.data(),
                  static_cast<std::streamsize>(raw.size()));
    }

    CheckpointData data;
    CheckpointReader reader;
    auto io = reader.read(o.checkpointPath, data);
    EXPECT_FALSE(io.ok);
    EXPECT_NE(io.error.find("format version 1"), std::string::npos)
        << io.error;
    EXPECT_NE(io.error.find("this build reads"), std::string::npos)
        << io.error;
}

// ---------------------------------------------------------------
// Sharded tables under 4 workers (TSan hunts races in the sanitizer
// build; the assertions pin parity with the sequential engine).

TEST(StateTableParallel, FourWorkersMatchSequential)
{
    Protocol p = protocols::builtinProtocol("MSI");
    CheckOptions seq;
    seq.atomicTransactions = true;
    seq.accessBudget = 3;
    seq.numThreads = 1;
    auto rs = checkFlat(p, 4, seq);
    ASSERT_TRUE(rs.ok) << rs.detail;

    Protocol p2 = protocols::builtinProtocol("MSI");
    CheckOptions par = seq;
    par.numThreads = 4;
    auto rp = checkFlat(p2, 4, par);
    ASSERT_TRUE(rp.ok) << rp.detail;
    EXPECT_EQ(rp.statesExplored, rs.statesExplored);
    EXPECT_EQ(rp.statesGenerated, rs.statesGenerated);
    EXPECT_EQ(rp.transitionsFired, rs.transitionsFired);
}

TEST(StateTableParallel, FourWorkersHashCompactionMatches)
{
    Protocol p = protocols::builtinProtocol("MSI");
    CheckOptions seq;
    seq.atomicTransactions = true;
    seq.accessBudget = 3;
    seq.hashCompaction = true;
    seq.numThreads = 1;
    auto rs = checkFlat(p, 4, seq);
    ASSERT_TRUE(rs.ok) << rs.detail;

    Protocol p2 = protocols::builtinProtocol("MSI");
    CheckOptions par = seq;
    par.numThreads = 4;
    auto rp = checkFlat(p2, 4, par);
    ASSERT_TRUE(rp.ok) << rp.detail;
    EXPECT_EQ(rp.statesExplored, rs.statesExplored);
}

} // namespace
} // namespace hieragen::verif
