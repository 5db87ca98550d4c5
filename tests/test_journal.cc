/**
 * @file
 * Run-journal coverage (src/obs/journal): atomic line appends,
 * checksum-verified replay, torn-tail and corrupt-line rejection,
 * the VerifySession::journalTo facade, and the acceptance property —
 * a run killed mid-way and resumed leaves a journal whose replay
 * reports the exact final verdict and state count.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>

#include "api/hieragen.hh"
#include "obs/journal.hh"
#include "obs/trace.hh"
#include "protocols/registry.hh"
#include "util/fileio.hh"
#include "verif/checker.hh"

namespace hieragen
{
namespace
{

/** Per-process temp path: ctest -j runs test processes that must not
 *  share journal/checkpoint files. */
std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + std::to_string(::getpid()) +
           ".jnl." + name;
}

/** Flat MSI, 4 caches, budget 3: ~12k states — enough expansions
 *  that the engine's control points (before the first expansion,
 *  then every 256 expansions) fire many times, so a pre-set stop flag
 *  interrupts well before the end. */
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

// --- util::LineAppender ---------------------------------------------

TEST(LineAppender, AppendsWholeLines)
{
    std::string path = tmpPath("lines.txt");
    std::remove(path.c_str());
    util::LineAppender out;
    ASSERT_TRUE(out.open(path)) << out.error();
    ASSERT_TRUE(out.isOpen());
    EXPECT_TRUE(out.appendLine("alpha"));
    EXPECT_TRUE(out.appendLine("beta"));
    EXPECT_TRUE(out.sync());
    EXPECT_EQ(out.bytesWritten(), 11u);  // 2 lines + 2 newlines
    out.close();
    EXPECT_FALSE(out.isOpen());

    std::ifstream in(path);
    std::string a, b;
    ASSERT_TRUE(std::getline(in, a) && std::getline(in, b));
    EXPECT_EQ(a, "alpha");
    EXPECT_EQ(b, "beta");
    std::remove(path.c_str());
}

TEST(LineAppender, OpenFailureReportsError)
{
    util::LineAppender out;
    EXPECT_FALSE(out.open("/dev/null/not-a-dir/x.txt"));
    EXPECT_FALSE(out.isOpen());
    EXPECT_FALSE(out.error().empty());
    EXPECT_FALSE(out.appendLine("dropped"));
}

// --- Journal write/replay -------------------------------------------

TEST(Journal, WriteReplayRoundtrip)
{
    std::string path = tmpPath("roundtrip");
    std::remove(path.c_str());
    obs::Journal j;
    ASSERT_TRUE(j.open(path)) << j.error();
    ASSERT_TRUE(j.ok());
    j.event("run_start",
            {{"version", obs::jsonQuote("v1.2-test")},
             {"argv", obs::jsonQuote("hieragen --verify")}},
            /*durable=*/true);
    j.event("heartbeat", {{"states_explored", "42"},
                          {"queue_depth", "7"}});
    j.event("verdict", {{"ok", "true"},
                        {"error_kind", obs::jsonQuote("")},
                        {"states_explored", "42"}},
            /*durable=*/true);
    EXPECT_EQ(j.recordsWritten(), 3u);

    obs::JournalReplay rp = obs::Journal::replay(path);
    ASSERT_EQ(rp.records.size(), 3u);
    EXPECT_EQ(rp.droppedLines, 0u);
    EXPECT_EQ(rp.runStarts, 1u);
    EXPECT_EQ(rp.records[0].seq, 0u);
    EXPECT_EQ(rp.records[1].seq, 1u);
    EXPECT_EQ(rp.records[0].kind, "run_start");
    EXPECT_EQ(rp.records[0].fieldString("version"), "v1.2-test");
    EXPECT_EQ(rp.records[1].fieldU64("states_explored"), 42u);
    EXPECT_EQ(rp.records[1].fieldU64("queue_depth"), 7u);
    EXPECT_EQ(rp.records[1].fieldU64("missing", 99), 99u);
    ASSERT_TRUE(rp.hasVerdict);
    EXPECT_TRUE(rp.verdictOk);
    EXPECT_EQ(rp.statesExplored, 42u);
    ASSERT_NE(rp.last("heartbeat"), nullptr);
    EXPECT_EQ(rp.count("heartbeat"), 1u);
    EXPECT_EQ(rp.count("no-such-kind"), 0u);
    std::remove(path.c_str());
}

TEST(Journal, EscapedDetailRoundTrips)
{
    // jsonQuote writes control bytes as \u00XX; replay must decode
    // them (and every other JSON escape) back to the original bytes.
    std::string path = tmpPath("escapes");
    std::remove(path.c_str());
    const std::string detail =
        std::string("ctl\x01 bell\x07 tab\t quote\" back\\ nl\n end") +
        '\x1f';
    obs::Journal j;
    ASSERT_TRUE(j.open(path)) << j.error();
    j.event("verdict", {{"ok", "false"},
                        {"detail", obs::jsonQuote(detail)}},
            /*durable=*/true);
    obs::JournalReplay rp = obs::Journal::replay(path);
    ASSERT_EQ(rp.records.size(), 1u);
    EXPECT_EQ(rp.records[0].fieldString("detail"), detail);
    std::remove(path.c_str());

    // Escapes jsonQuote never writes, but a JSON writer may.
    obs::JournalRecord rec;
    rec.line = R"({"s":"a\/b\bc\fd\u00e9"})";
    EXPECT_EQ(rec.fieldString("s"), "a/b\bc\fd\xc3\xa9");
}

TEST(Journal, TornTailLineIsDropped)
{
    std::string path = tmpPath("torn");
    std::remove(path.c_str());
    {
        obs::Journal j;
        ASSERT_TRUE(j.open(path));
        j.event("run_start", {});
        j.event("heartbeat", {{"states_explored", "10"}});
    }
    // Simulate a crash mid-write: a final line without its checksum
    // tail or newline.
    {
        std::ofstream f(path, std::ios::app | std::ios::binary);
        f << "{\"seq\":2,\"t_ms\":5,\"kind\":\"verdict\",\"ok\":tr";
    }
    obs::JournalReplay rp = obs::Journal::replay(path);
    EXPECT_EQ(rp.records.size(), 2u);
    EXPECT_EQ(rp.droppedLines, 1u);
    EXPECT_FALSE(rp.hasVerdict);
    std::remove(path.c_str());
}

TEST(Journal, CorruptedLineIsDropped)
{
    std::string path = tmpPath("corrupt");
    std::remove(path.c_str());
    {
        obs::Journal j;
        ASSERT_TRUE(j.open(path));
        j.event("run_start", {});
        j.event("heartbeat", {{"states_explored", "1234"}});
        j.event("verdict", {{"ok", "true"},
                            {"states_explored", "1234"}});
    }
    // Flip one digit inside the middle record; its checksum no
    // longer verifies, the neighbours stay intact.
    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    size_t pos = text.find("1234");
    ASSERT_NE(pos, std::string::npos);
    text[pos] = '9';
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text;
    }
    obs::JournalReplay rp = obs::Journal::replay(path);
    EXPECT_EQ(rp.records.size(), 2u);
    EXPECT_EQ(rp.droppedLines, 1u);
    EXPECT_EQ(rp.count("heartbeat"), 0u);  // the tampered record
    EXPECT_TRUE(rp.hasVerdict);
    std::remove(path.c_str());
}

TEST(Journal, UnopenedJournalIsNoop)
{
    obs::Journal j;
    EXPECT_FALSE(j.ok());
    j.event("verdict", {{"ok", "true"}});  // must not crash
    EXPECT_EQ(j.recordsWritten(), 0u);

    obs::JournalReplay rp =
        obs::Journal::replay(tmpPath("never-written"));
    EXPECT_TRUE(rp.records.empty());
    EXPECT_FALSE(rp.hasVerdict);
}

// --- Facade end-to-end ----------------------------------------------

TEST(JournalFacade, JournalToRecordsVerdictAndIdentity)
{
    std::string path = tmpPath("facade");
    std::remove(path.c_str());
    Protocol p = protocols::builtinProtocol("MSI");
    auto session = api::VerifySession::flat(p, 2, bigOpts());
    ASSERT_TRUE(session.journalTo(path)) << session.error();
    ASSERT_NE(session.journal(), nullptr);
    const auto &r = session.run();
    ASSERT_TRUE(r.ok) << r.summary();

    obs::JournalReplay rp = obs::Journal::replay(path);
    EXPECT_EQ(rp.droppedLines, 0u);
    EXPECT_EQ(rp.count("engine_start"), 1u);
    const obs::JournalRecord *vs = rp.last("verify_start");
    ASSERT_NE(vs, nullptr);
    EXPECT_EQ(vs->fieldString("options_fingerprint").size(), 16u);
    EXPECT_EQ(vs->fieldString("system_hash").size(), 16u);
    ASSERT_TRUE(rp.hasVerdict);
    EXPECT_TRUE(rp.verdictOk);
    EXPECT_EQ(rp.statesExplored, r.statesExplored);
    const obs::JournalRecord *v = rp.last("verdict");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->fieldU64("states_generated"), r.statesGenerated);
    EXPECT_EQ(v->fieldU64("transitions_fired"), r.transitionsFired);
    std::remove(path.c_str());
}

TEST(JournalFacade, JournalToBadPathFails)
{
    Protocol p = protocols::builtinProtocol("MSI");
    auto session = api::VerifySession::flat(p, 2, bigOpts());
    EXPECT_FALSE(session.journalTo("/dev/null/nope/x.jnl"));
    EXPECT_FALSE(session.error().empty());
    EXPECT_EQ(session.journal(), nullptr);
}

// --- Acceptance: kill mid-way, resume, replay matches the final
// verdict and state count. Both runs append to one journal file.

TEST(JournalAcceptance, InterruptedResumeReplaysToFinalVerdict)
{
    std::string jpath = tmpPath("accept");
    std::string ckpt = tmpPath("accept.ckpt");
    std::remove(jpath.c_str());
    std::remove(ckpt.c_str());

    Protocol clean = protocols::builtinProtocol("MSI");
    auto ref = verif::checkFlat(clean, kBigCaches, bigOpts());
    ASSERT_TRUE(ref.ok);

    // Run 1: the stop flag is already set, so the first control
    // point (before any expansion) interrupts the run and flushes a
    // resumable checkpoint.
    std::atomic<bool> stop{true};
    {
        Protocol p = protocols::builtinProtocol("MSI");
        auto s = api::VerifySession::flat(p, kBigCaches, bigOpts());
        s.checkpointTo(ckpt).onStop(&stop);
        ASSERT_TRUE(s.journalTo(jpath)) << s.error();
        const auto &r1 = s.run();
        ASSERT_FALSE(r1.ok);
        ASSERT_EQ(r1.errorKind, hieragen::ErrorKind::Interrupted) << r1.summary();
        ASSERT_TRUE(r1.resumable);
        ASSERT_LT(r1.statesExplored, ref.statesExplored);
    }

    // Run 2: resume from the checkpoint, appending to the same
    // journal, and run to completion.
    Protocol p2 = protocols::builtinProtocol("MSI");
    auto s2 = api::VerifySession::flat(p2, kBigCaches, bigOpts());
    ASSERT_TRUE(s2.resumeFrom(ckpt)) << s2.error();
    ASSERT_TRUE(s2.journalTo(jpath)) << s2.error();
    const auto &r2 = s2.run();
    ASSERT_TRUE(r2.ok) << r2.summary();
    EXPECT_EQ(r2.statesExplored, ref.statesExplored);

    obs::JournalReplay rp = obs::Journal::replay(jpath);
    EXPECT_EQ(rp.droppedLines, 0u);
    EXPECT_EQ(rp.count("engine_start"), 2u);
    EXPECT_EQ(rp.count("verdict"), 2u);
    EXPECT_GE(rp.count("checkpoint"), 1u);
    EXPECT_EQ(rp.count("restore"), 1u);

    // The mid-file verdict is the interrupt; the replay's summary
    // fields come from the last one and match the final result.
    bool sawInterrupt = false;
    for (const obs::JournalRecord &r : rp.records) {
        if (r.kind == "verdict" &&
            r.fieldString("error_kind") == "interrupted")
            sawInterrupt = true;
    }
    EXPECT_TRUE(sawInterrupt);
    ASSERT_TRUE(rp.hasVerdict);
    EXPECT_TRUE(rp.verdictOk);
    EXPECT_EQ(rp.verdictKind, "");
    EXPECT_EQ(rp.statesExplored, r2.statesExplored);
    const obs::JournalRecord *v = rp.last("verdict");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->field("resumed"), "true");

    std::remove(jpath.c_str());
    std::remove(ckpt.c_str());
}

} // namespace
} // namespace hieragen
