/**
 * @file
 * The stable HieraGen facade.
 *
 * Everything a tool or an embedding needs lives behind two entry
 * points:
 *
 *   - GenerateRequest / generate(): SSPs in, a concurrent
 *     hierarchical protocol out (the paper's Figure 2 tool flow),
 *     with the pass pipeline's instrumentation (per-pass stats, lint
 *     gates, stage dumps) surfaced as plain strings instead of
 *     pipeline internals.
 *
 *   - VerifySession: one verification run as an object. Construct it
 *     from a System (or the flat()/hier() conveniences), configure
 *     checkpointing, resume, interrupt and memory limits with
 *     chainable setters, then run() once and read result().
 *
 * The pre-facade entry points — core::generate()/generateDeep() and
 * verif::check()/checkFlat()/checkHier() — remain supported and are
 * what this facade calls; their behavior is pinned by the golden
 * tests. New code and the CLI should prefer this header: it is the
 * surface we keep stable while the layers underneath move. See
 * docs/API.md for the migration guide.
 */

#ifndef HIERAGEN_API_HIERAGEN_HH
#define HIERAGEN_API_HIERAGEN_HH

#include <atomic>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/passes.hh"
#include "obs/journal.hh"
#include "obs/telemetry.hh"
#include "verif/checker.hh"
#include "verif/checkpoint.hh"
#include "verif/system.hh"

namespace hieragen::api
{

// ---------------------------------------------------------------
// Generation

/**
 * One generation job: the two SSPs plus every knob the classic entry
 * points and the CLI expose.
 *
 * SSP lifetime: the raw `lower`/`higher` pointers are non-owning —
 * the classic borrow, fine when the protocols live on the caller's
 * stack across the generate() call. A request that must outlive its
 * builder (queued in a job table, copied into a worker thread)
 * should instead be populated with ownLower()/ownHigher(), which
 * share ownership; copying the request copies the shared_ptrs, so
 * every copy keeps its inputs alive. generate() treats both forms
 * identically. See docs/API.md ("Request lifetime").
 */
struct GenerateRequest
{
    const Protocol *lower = nullptr;
    const Protocol *higher = nullptr;

    /** Shared owners backing lower/higher when the request owns its
     *  inputs (see ownLower()/ownHigher()); null under borrowing. */
    std::shared_ptr<const Protocol> lowerOwned;
    std::shared_ptr<const Protocol> higherOwned;

    /** Take (shared) ownership of an SSP and point lower/higher at
     *  it. Chainable; passing by value moves a freshly compiled
     *  Protocol in without an extra copy. */
    GenerateRequest &ownLower(Protocol p);
    GenerateRequest &ownHigher(Protocol p);
    GenerateRequest &ownLower(std::shared_ptr<const Protocol> p);
    GenerateRequest &ownHigher(std::shared_ptr<const Protocol> p);

    /** Atomic = Step 1 only; Stalling/NonStalling also run Step 2. */
    ConcurrencyMode mode = ConcurrencyMode::NonStalling;

    /** Section V-D optimized solution (default: conservative). */
    bool optimizedCompat = false;

    /** Merge equivalent transient states (paper V-E). */
    bool mergeEquivalentStates = true;

    /** Generate dir/cache eviction logic (paper V-B-3). */
    bool dirCacheEvictions = true;

    /** Run the structural lints after every pass; generation stops
     *  at the first pass that emits a malformed machine. */
    bool checkPasses = false;

    /** Dump all machine tables to @p dumpStream after this pass. */
    std::string dumpAfterPass;
    std::ostream *dumpStream = nullptr;

    /** Observability sinks (non-owning; see obs/telemetry.hh). */
    obs::Telemetry *telemetry = nullptr;
};

/** Outcome of generate(): the protocol plus the pipeline's report. */
struct GenerateResult
{
    bool ok = false;

    /**
     * The generated protocol (valid when ok). VerifySession::hier()
     * and murphi::emitHier() take it by reference; keep this result
     * alive (and un-moved) while they use it.
     */
    HierProtocol protocol;

    /** When !ok: the pass whose lint gate fired, and its findings. */
    std::string failedPass;
    std::string lintReport;

    size_t passesRun = 0;
    std::string statsTable;  ///< human-readable per-pass stats
    std::string statsJson;   ///< machine-readable per-pass report
};

/** Run the standard generation pipeline for @p req. Table- and
 *  stats-identical to core::generate() with equivalent options. */
GenerateResult generate(const GenerateRequest &req);

/**
 * N-level generation (paper Section VII-A): one HierProtocol per
 * adjacent level pair, innermost first. Mode/compat/merge knobs are
 * taken from @p req; its lower/higher pointers are ignored.
 */
std::vector<HierProtocol>
generateDeep(const std::vector<const Protocol *> &levels,
             const GenerateRequest &req);

/** Registered pipeline passes, in canonical order. */
std::vector<core::PassInfo> listPasses();

// ---------------------------------------------------------------
// Jobs
//
// The unit of work the service daemon schedules: generate a
// hierarchical protocol from two SSPs, then verify it. The types are
// plain aggregates — self-contained (SSPs by name or source text,
// never by pointer) so a spec can be serialized over the RPC socket,
// persisted in the daemon's state directory, and replayed after a
// restart. The wire encoding lives in src/svc (the api layer defines
// what a job *is*, the service layer defines how it travels).

/** Lifecycle of a job inside the daemon. Terminal states are Done,
 *  Failed and Cancelled; Preempted jobs hold a checkpoint and
 *  re-enter Running when a worker slot frees up. */
enum class JobState : uint8_t {
    Queued,      ///< accepted, waiting for a worker
    Generating,  ///< SSP compile + pass pipeline (or cache probe)
    Running,     ///< a VerifySession is exploring
    Preempted,   ///< slice expired; checkpointed, back in the queue
    Done,        ///< verification finished (see JobStatus::verifyOk)
    Failed,      ///< spec/generation/engine error (JobStatus::error)
    Cancelled,   ///< cancel() won the race
};

/** Stable lowercase name ("queued", "running", ...). */
const char *jobStateName(JobState s);

/** Inverse of jobStateName(); Failed for an unknown name. */
JobState jobStateFromName(std::string_view name);

/** True for Done/Failed/Cancelled — the job will never change
 *  again and its slot in the daemon is reclaimable. */
bool jobStateTerminal(JobState s);

/**
 * A complete, serializable description of one generate-and-verify
 * job. SSPs are given per side either as a builtin name (see
 * protocols::builtinNames()) or as inline DSL source; when both are
 * set the name wins. Everything else mirrors GenerateRequest /
 * CheckOptions knobs that make sense across a socket.
 */
struct JobSpec
{
    std::string lowerName;   ///< builtin SSP name ("MSI", ...)
    std::string higherName;
    std::string lowerDsl;    ///< inline DSL source (when no name)
    std::string higherDsl;

    ConcurrencyMode mode = ConcurrencyMode::NonStalling;
    bool optimizedCompat = false;
    bool mergeEquivalentStates = true;
    bool dirCacheEvictions = true;

    int numCacheH = 1;       ///< hier verification layout
    int numCacheL = 1;
    uint64_t maxStates = 0;  ///< 0 = unbounded
    unsigned threads = 1;    ///< checker workers (1 = deterministic BFS order)

    std::string label;       ///< free-form client tag, echoed back
};

/** An accepted job's identity. Ids are dense, start at 1, and are
 *  never reused within one daemon state directory. */
struct JobHandle
{
    uint64_t id = 0;
    bool valid() const { return id != 0; }
};

/** Point-in-time view of a job, streamed in heartbeats and returned
 *  by the jobs/result verbs. */
struct JobStatus
{
    JobHandle handle;
    JobState state = JobState::Queued;
    Error error;          ///< terminal detail for Failed/Cancelled
    std::string label;    ///< echoed from the spec

    bool cacheHit = false;   ///< generation served from the cache
    bool verifyOk = false;   ///< final verdict (valid when Done)
    uint64_t statesExplored = 0;
    uint64_t statesGenerated = 0;
    double elapsedSec = 0.0;
    unsigned preemptions = 0;  ///< checkpoint+requeue cycles so far
};

// ---------------------------------------------------------------
// Verification

/**
 * One verification run as an object.
 *
 *   auto s = VerifySession::hier(p, 2, 2, opts);
 *   s.checkpointTo("run.ckpt", 30.0).onStop(&g_stop);
 *   const verif::CheckResult &r = s.run();
 *
 * Resume:
 *
 *   auto s = VerifySession::hier(p, 2, 2, opts);
 *   if (!s.resumeFrom("run.ckpt"))
 *       fail(s.error());
 *   s.checkpointTo("run.ckpt").run();
 *
 * A resumed run reproduces the verdict, canonical state count and
 * Section V-E census of an uninterrupted run, at any thread count.
 * The underlying System references the protocol's machines, so the
 * protocol must outlive the session.
 */
class VerifySession
{
  public:
    explicit VerifySession(verif::System sys,
                           verif::CheckOptions opts = {});

    /** Flat layout: one directory, @p num_caches core/caches. */
    static VerifySession flat(const Protocol &p, int num_caches,
                              verif::CheckOptions opts = {});

    /** Hierarchical layout (Figure 1b): root, @p num_cache_h cache-H,
     *  one dir/cache, @p num_cache_l cache-L. */
    static VerifySession hier(const HierProtocol &p, int num_cache_h,
                              int num_cache_l,
                              verif::CheckOptions opts = {});

    VerifySession(VerifySession &&) = default;
    VerifySession &operator=(VerifySession &&) = default;

    /** Periodically snapshot exploration to @p path (atomic
     *  replace); also flushed on every resumable abort. */
    VerifySession &checkpointTo(std::string path,
                                double interval_sec = 30.0);

    /**
     * Load and validate @p path; the next run() continues from it.
     * False (with error() set) on a missing/corrupt/truncated file
     * or an options/system fingerprint mismatch — the session stays
     * usable and would run from the initial state.
     */
    bool resumeFrom(const std::string &path);

    /** Cooperative interrupt flag (non-owning): when set, run()
     *  stops, flushes a final checkpoint and reports
     *  ErrorKind::Interrupted (resumable). */
    VerifySession &onStop(const std::atomic<bool> *flag);

    /** Cooperative cancellation (non-owning): when the token fires,
     *  run() stops with ErrorKind::Cancelled — no checkpoint, not
     *  resumable. Distinct from onStop() on purpose; see
     *  util/cancel.hh for the interrupt-vs-cancel contract. */
    VerifySession &cancelWith(const util::CancelToken *token);

    /** Bounded-memory watermark (estimated resident bytes). */
    VerifySession &
    memoryLimit(uint64_t max_resident_bytes,
                verif::MemoryLimitPolicy policy =
                    verif::MemoryLimitPolicy::StopResumable);

    /**
     * Out-of-core storage: when the memory watermark fires, spill
     * the visited set and frontier overflow to segment files under
     * @p dir (created if missing) instead of degrading or aborting.
     * Sets the effective policy to SpillToDisk; combine with
     * memoryLimit() to place the watermark. The run stays exact —
     * verdict, canonical state count and census match an unlimited
     * run bit for bit.
     */
    VerifySession &spillTo(std::string dir);

    /** Observability sinks for the run (non-owning). */
    VerifySession &telemetry(obs::Telemetry *t);

    /**
     * Append a crash-tolerant run journal (JSONL, one checksummed
     * record per line; see obs::Journal) to @p path for the run. The
     * journal object is owned by the session and composes with
     * telemetry(): sinks the caller wired stay active. False (with
     * error() set) when the file cannot be opened for append.
     */
    bool journalTo(const std::string &path);

    /** The session-owned journal, null unless journalTo() succeeded.
     *  Valid until the session is destroyed. */
    obs::Journal *journal() const { return journal_.get(); }

    /** Direct access to the options the run will use. */
    verif::CheckOptions &options() { return opts_; }
    const verif::CheckOptions &options() const { return opts_; }

    /** Execute the run (once; subsequent calls return the cached
     *  result). */
    const verif::CheckResult &run();

    /** Result of run(); default-constructed before it. */
    const verif::CheckResult &result() const { return result_; }
    bool hasRun() const { return ran_; }

    /** Last resumeFrom() failure, "" if none. */
    const std::string &error() const { return error_; }

    const verif::System &system() const { return sys_; }

  private:
    verif::System sys_;
    verif::CheckOptions opts_;
    std::unique_ptr<verif::CheckpointData> resume_;
    std::unique_ptr<obs::Journal> journal_;
    /** Holds the caller's sinks + the owned journal when both are in
     *  play (opts_.telemetry then points here). */
    obs::Telemetry ownedTelemetry_;
    verif::CheckResult result_;
    bool ran_ = false;
    std::string error_;
};

} // namespace hieragen::api

#endif // HIERAGEN_API_HIERAGEN_HH
