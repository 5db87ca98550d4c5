/**
 * @file
 * Run journal: an append-only, crash-tolerant JSONL event log.
 *
 * Every record is one JSON object on one line, written with a single
 * write(2) through util::LineAppender (O_APPEND), and carries an
 * FNV-1a checksum of its own bytes in a trailing "ck" field. A crash
 * can tear at most the final line; replay() drops any line whose
 * checksum does not verify or that util::parseJson rejects, so
 * readers always see a prefix of intact records. Resumed runs
 * append to the same file — the journal is the durable, ordered
 * history of everything a verification did: run identity (options
 * fingerprint, system config hash, build version), phase
 * transitions, checkpoint/spill/degrade events, heartbeat samples,
 * and the final verdict.
 *
 * Writers sit on cold paths only (checkpoint cadence, watermark
 * handling, the progress heartbeat, pass boundaries, run start/end);
 * the checker hot loop never touches the journal.
 */

#ifndef HIERAGEN_OBS_JOURNAL_HH
#define HIERAGEN_OBS_JOURNAL_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/fileio.hh"

namespace hieragen::obs
{

/** One decoded, checksum-verified journal record. */
struct JournalRecord
{
    uint64_t seq = 0;  ///< per-process sequence number
    uint64_t tMs = 0;  ///< ms since the writing process opened the journal
    std::string kind;  ///< event kind ("run_start", "heartbeat", ...)
    std::string line;  ///< the full JSON line as written

    // Field reads parse @ref line with util::parseJson.

    /** A top-level field re-rendered as compact JSON; "" when
     *  absent. */
    std::string field(const std::string &key) const;
    /** Field parsed as an unsigned integer; @p def when absent. */
    uint64_t fieldU64(const std::string &key, uint64_t def = 0) const;
    /** Field parsed as a JSON string (quotes stripped, escapes
     *  undone); "" when absent or not a string. */
    std::string fieldString(const std::string &key) const;
};

/** Result of replaying a journal file. */
struct JournalReplay
{
    std::vector<JournalRecord> records;
    uint64_t droppedLines = 0;  ///< checksum/parse rejects (torn tail)
    uint64_t runStarts = 0;     ///< run_start records (1 + resumes)

    bool hasVerdict = false;    ///< a verdict record survived
    bool verdictOk = false;
    std::string verdictKind;    ///< error_kind; "" on PASS
    uint64_t statesExplored = 0;  ///< from the last verdict record

    /** Last surviving record of @p kind, or nullptr. */
    const JournalRecord *last(const std::string &kind) const;
    uint64_t count(const std::string &kind) const;
};

/**
 * Append-only journal writer. All methods are thread-safe; event()
 * serializes record composition under a mutex and issues one atomic
 * line append. A journal that failed to open degrades to a no-op
 * (ok() == false, error() says why) rather than failing the run.
 */
class Journal
{
  public:
    Journal() = default;

    /** Open @p path for appending (created if absent). */
    bool open(const std::string &path);

    bool ok() const { return out_.isOpen(); }
    const std::string &path() const { return path_; }
    const std::string &error() const { return out_.error(); }
    uint64_t recordsWritten() const;

    /**
     * Append one record of @p kind. @p fields are (key, value) pairs
     * where the value is pre-rendered JSON — numbers as digits,
     * strings through obs::jsonQuote(). @p durable adds an fsync
     * after the write (use for run identity and verdicts).
     */
    void event(const std::string &kind,
               const std::vector<std::pair<std::string, std::string>>
                   &fields = {},
               bool durable = false);

    /** Decode @p path, dropping torn/corrupt lines. */
    static JournalReplay replay(const std::string &path);

  private:
    mutable std::mutex mu_;
    util::LineAppender out_;
    std::string path_;
    uint64_t seq_ = 0;
    std::chrono::steady_clock::time_point epoch_{};
};

} // namespace hieragen::obs

#endif // HIERAGEN_OBS_JOURNAL_HH
