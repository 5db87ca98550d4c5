/**
 * @file
 * Explicit-state model checker for generated protocols.
 *
 * Performs the paper's three verification duties:
 *   1. safety — global SWMR and the data-value invariant,
 *   2. deadlock freedom,
 *   3. the reachable state/event census used to prune machines
 *      (Section V-E).
 *
 * Two storage modes: a full state table (exact, supports traces) and
 * Stern–Dill hash compaction (Section VIII-C), which stores 64-bit
 * state signatures and reports the omission probability.
 */

#ifndef HIERAGEN_VERIF_CHECKER_HH
#define HIERAGEN_VERIF_CHECKER_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/cancel.hh"
#include "util/errors.hh"
#include "verif/system.hh"

namespace hieragen::obs
{
struct Telemetry;
}

namespace hieragen::verif
{

struct CheckpointData;

/** What to do when estimated resident memory crosses
 *  CheckOptions::maxResidentBytes. */
enum class MemoryLimitPolicy : uint8_t {
    /**
     * Flush an emergency checkpoint (when a checkpoint path is set)
     * and stop with errorKind "memory-limit". The run is resumable,
     * so a preempted or memory-capped job exits with an artifact
     * instead of being OOM-killed.
     */
    StopResumable,
    /**
     * Flush an emergency checkpoint, then degrade in place to
     * Stern–Dill hash compaction: stored encodings collapse to 64-bit
     * signatures (freeing most visited-set memory) and exploration
     * continues. The verdict gains an omission probability and
     * counterexample traces are no longer reconstructible, exactly as
     * if hashCompaction had been requested up front. The watermark is
     * disarmed once the degrade has happened (it has done its job);
     * a run that was already compacted stops resumable instead, since
     * there is nothing left to degrade.
     */
    DegradeToCompaction,
    /**
     * Out-of-core exploration: flush the visited set's hot tables to
     * sealed on-disk segments (probed through bloom-filtered sparse
     * indexes) and overflow the frontier queue to bounded segment
     * files, then keep exploring with full exactness — verdict,
     * canonical state count and census match the unlimited run
     * bit-for-bit. Requires CheckOptions::spillDir (setting spillDir
     * makes this the effective policy). The watermark stays armed and
     * keeps spilling; the run never degrades or aborts on memory.
     * Forces traceOnError off: tracing keeps a 16-byte trace-log
     * entry (parent + step) in memory for every visited state, which
     * no spill would shed.
     */
    SpillToDisk,
};

struct CheckOptions
{
    /** Abort exploration after this many states (0 = unlimited). */
    uint64_t maxStates = 20'000'000;

    /** Serialize transactions (verify the Step-1 atomic protocol). */
    bool atomicTransactions = false;

    /** Accesses each core may issue; -1 explores the cyclic space. */
    int accessBudget = 2;

    /** Store 64-bit signatures instead of full states (Stern–Dill). */
    bool hashCompaction = false;
    uint64_t compactionSeed = 0x9e3779b97f4a7c15ull;

    /**
     * Scalarset symmetry reduction: canonicalize every state over the
     * permutations of System::symClasses before dedup, so the checker
     * stores and expands one representative per orbit (up to
     * |H|!·|L|! fewer states). Verdicts, traces and the Section V-E
     * census are unaffected — symmetric nodes share one Machine, so
     * every checked property is permutation-invariant. Off switch
     * exists for parity testing and for measuring the reduction.
     */
    bool symmetryReduction = true;

    /** Ignored; stays only until the benchmark driver drops `--por`. */
    bool partialOrderReduction = false;

    /** Record parent links so violations come with a trace. */
    bool traceOnError = true;

    /** Drive the Section V-E reachability census. */
    bool markReached = true;

    /**
     * Worker threads for state exploration. 0 = one per hardware
     * thread. One engine serves every count: one worker explores in
     * deterministic BFS order (the same first violation, partial
     * counts and shortest trace on every run); any thread count
     * returns the same verdict and, on clean runs, the same
     * statesExplored / statesGenerated / transitionsFired (each
     * unique state is expanded exactly once).
     */
    unsigned numThreads = 0;

    /**
     * Observability sinks (non-owning; see obs/telemetry.hh). When
     * set, the engine feeds live counters a progress heartbeat can
     * sample, emits per-worker expansion spans to the trace writer,
     * and publishes final totals (checker.states_explored == the
     * returned statesExplored, dedup hits, symmetry time share, ...)
     * to the metrics registry. Null (the default) disables every
     * instrumentation hook — the hot loop pays one predictable
     * branch; with telemetry on the cost is a relaxed sharded-counter
     * add per event (< 2% on the flagship run; docs/OBSERVABILITY.md
     * has the measurement).
     */
    obs::Telemetry *telemetry = nullptr;

    /**
     * Periodic checkpointing: when non-empty, the engine snapshots
     * the exploration (visited set, frontier queue, counters, census
     * marks) to this path on the first control point (see
     * stopRequested) after each checkpointIntervalSec seconds, and on
     * every resumable abort (state limit, interrupt, memory limit).
     * Writes are atomic — the file is replaced via temp + fsync +
     * rename, so a crash mid-write leaves the previous checkpoint
     * intact. See verif/checkpoint.hh for the format.
     */
    std::string checkpointPath;
    double checkpointIntervalSec = 30.0;

    /**
     * Resume from a previously loaded checkpoint (non-owning; must
     * outlive the run). The caller is expected to have validated the
     * fingerprints (api::VerifySession does); check() re-validates and
     * refuses with errorKind "resume-mismatch" on any disagreement.
     * A resumed run reproduces the verdict, canonical state count and
     * census of an uninterrupted run, at any thread count.
     */
    const CheckpointData *resume = nullptr;

    /**
     * Cooperative interrupt: when non-null and set, the engine stops
     * at its next control point, flushes a final checkpoint (when a
     * path is configured) and returns errorKind "interrupted". The
     * CLI points this at its SIGINT/SIGTERM flag. Control points are
     * count-based: before the first expansion, then every 256
     * expansions — so a flag that is already set always stops the
     * run, however small.
     */
    const std::atomic<bool> *stopRequested = nullptr;

    /**
     * Cooperative cancellation (non-owning): checked next to
     * stopRequested at every control point. Cancellation is
     * the stronger verb — the run stops with ErrorKind::Cancelled,
     * writes no checkpoint and is not resumable, because the work is
     * no longer wanted (a cancelled service job, an abandoned
     * request). Use stopRequested for preemption that should leave a
     * resume artifact behind.
     */
    const util::CancelToken *cancel = nullptr;

    /**
     * Bounded-memory watermark: estimated resident bytes (visited-set
     * encodings + container overhead + frontier), checked at every
     * control point, above which memoryLimitPolicy fires. 0 disables
     * the watermark.
     */
    uint64_t maxResidentBytes = 0;
    MemoryLimitPolicy memoryLimitPolicy =
        MemoryLimitPolicy::StopResumable;

    /**
     * Directory for out-of-core spill segments. Non-empty makes
     * MemoryLimitPolicy::SpillToDisk the effective policy (created if
     * missing). Not part of the checkpoint options fingerprint — like
     * numThreads, storage placement cannot change the explored space,
     * and a resumed run may spill to a different directory. A resume
     * whose checkpoint references spill segments re-adopts them from
     * their recorded paths; with spillDir unset it keeps spilling
     * next to them.
     */
    std::string spillDir;

    /**
     * Pre-size hint for the visited tables: expected number of
     * unique (canonical) states. 0 = start small and grow; growth is
     * amortized-cheap (the arena never moves, only the fingerprint
     * slots are re-probed), so the hint mainly avoids the last one
     * or two large rehash pauses on runs whose size is known — the
     * bench and resume paths set it. Not part of the checkpoint
     * options fingerprint (it cannot change the explored space).
     */
    uint64_t expectedStates = 0;

    /**
     * Sampled per-phase wall-time attribution: each worker times
     * whole expansions on 1 in 8 of them and their encode/
     * canonicalize and visited-table insert sections on a disjoint
     * 1 in 8 (so the sections' stopwatches never inflate the whole-
     * expansion span); the workers' samples are summed and scaled
     * back to run totals in CheckResult::phases. Off by default; the
     * hot loop then pays only a predictable branch.
     */
    bool phaseTiming = false;
};

struct CheckResult
{
    bool ok = false;
    /** What stopped the run (ErrorKind::None on a clean PASS). The
     *  journal, summary() and traceJson() render it through
     *  errorKindName(), so the on-disk strings ("state-limit",
     *  "spill-io", ...) are unchanged from the stringly era. */
    ErrorKind errorKind = ErrorKind::None;
    std::string detail;

    /**
     * Unique states expanded. With symmetry reduction active these
     * are *canonical* states — one representative per orbit of the
     * system's node-symmetry group — so the count can be up to
     * |H|!·|L|! (resp. |caches|! for flat systems) smaller than an
     * unreduced run of the same configuration. statesGenerated counts
     * successor states produced before dedup (also canonical under
     * reduction); transitionsFired counts interpreter steps taken
     * while expanding representatives.
     */
    uint64_t statesExplored = 0;
    uint64_t statesGenerated = 0;
    uint64_t transitionsFired = 0;
    bool hitStateLimit = false;
    double omissionProbability = 0.0;

    /** Whether symmetry reduction actually ran (option on AND the
     *  system has at least one nontrivial symmetry class). */
    bool symmetryReduction = false;
    /** Always false; stays only until the benchmark driver drops `--por`. */
    bool partialOrderReduction = false;
    /** Always 0; stays only until the benchmark driver drops `--por`. */
    uint64_t ampleExpansions = 0;
    /** Whether states were stored as 64-bit signatures. */
    bool hashCompaction = false;

    /** The run stopped on a resumable abort (state limit, interrupt
     *  or memory limit) and, when checkpointsWritten > 0, a resume
     *  artifact exists at checkpointFile. */
    bool resumable = false;
    /** This run was restored from a checkpoint. */
    bool resumedFromCheckpoint = false;
    /** The memory watermark degraded the run to hash compaction. */
    bool degradedToCompaction = false;
    /** The run used the out-of-core spill tier (wrote segments, or
     *  resumed with adopted ones). Exactness is unaffected. */
    bool spilledToDisk = false;
    /** Segment bytes written (visited + frontier tiers). */
    uint64_t spilledBytes = 0;
    /** Segment files written (visited + frontier tiers). */
    uint64_t spillSegmentsWritten = 0;
    /** Visited probes that reached disk (passed a segment's bloom
     *  filter) / how many of those confirmed a duplicate. */
    uint64_t diskProbes = 0;
    uint64_t diskProbeHits = 0;
    /** Wall time blocked on spill I/O (writes, reloads, disk probes). */
    double spillStallMs = 0.0;
    /** Process peak resident set (VmHWM) at the end of the run; 0
     *  when the platform cannot report it. */
    uint64_t peakRssBytes = 0;
    /** Checkpoints written during this run (periodic + final). */
    uint64_t checkpointsWritten = 0;
    /** Total checkpoint bytes written during this run. */
    uint64_t checkpointBytes = 0;
    /** Path of the last checkpoint written ("" if none). */
    std::string checkpointFile;

    std::vector<std::string> trace;

    /**
     * Structured twin of `trace`: one JSON object per step (the
     * fired event plus the full resulting state — controllers,
     * network, ghost, budgets; see describeStateJson). Filled
     * whenever `trace` is, i.e. when traceOnError fires on a
     * violation and hash compaction is off.
     */
    std::vector<std::string> traceStepsJson;

    /**
     * Sampled wall-time attribution (filled when
     * CheckOptions::phaseTiming is set). Times are summed over
     * workers, so with several they add up to worker time, not wall
     * time. Semantics: `expandMs` covers whole state expansions
     * including successor generation, encoding and dedup;
     * `encodeMs` covers bit-packing each successor's stored image
     * (nonzero in every mode); `canonicalizeMs` covers the search
     * for its orbit representative (zero with reduction off);
     * `insertMs` covers the visited-table probe/insert. All values
     * are scaled up from a 1-in-8 sample, so they are estimates good
     * to a few percent, not exact sums; the one exception is
     * visited-table growth, timed on every rehash and added unscaled
     * to `expandMs` and `insertMs`.
     */
    struct PhaseBreakdown
    {
        bool enabled = false;
        double expandMs = 0.0;
        double encodeMs = 0.0;
        double canonicalizeMs = 0.0;
        double insertMs = 0.0;
        uint64_t sampledExpansions = 0;

        /**
         * Hardware-counter attribution for the same samples,
         * present when `--phases` ran where perf_event_open is
         * usable (perfEnabled). `expand` covers whole sampled
         * expansions; `encode` the per-successor encode +
         * canonicalize section and `insert` the visited-table
         * probe/insert, both on the disjoint section sample. Scaled
         * up from the samples like the wall times. All-zero
         * (perfEnabled == false) under restrictive
         * perf_event_paranoid, in containers without PMU access, or
         * on non-Linux builds — wall-clock attribution still fills.
         */
        struct PerfSample
        {
            uint64_t cycles = 0;
            uint64_t instructions = 0;
            uint64_t cacheMisses = 0;
            uint64_t branchMisses = 0;
        };
        bool perfEnabled = false;
        PerfSample expandPerf;
        PerfSample encodePerf;
        PerfSample insertPerf;
    };
    PhaseBreakdown phases;

    std::string summary() const;

    /**
     * The violation as one machine-readable JSON document:
     * {"ok", "error_kind", "detail", "states_explored", "steps":
     * [{"event", "state": {...}}, ...]}. Steps are empty when no
     * trace was recorded (clean run, traceOnError off, or hash
     * compaction on).
     */
    std::string traceJson() const;
};

/** Model-check one system from its initial state. */
CheckResult check(const System &sys, const CheckOptions &opts);

/** Convenience wrappers matching the paper's configurations. */
CheckResult checkFlat(const Protocol &p, int num_caches,
                      const CheckOptions &opts);
CheckResult checkHier(const HierProtocol &p, int num_cache_h,
                      int num_cache_l, const CheckOptions &opts);

/**
 * Run the reachability census and prune unreachable state/event pairs
 * from every machine (paper Section V-E). Returns the census run's
 * result; pruning only happens when the run is clean.
 */
CheckResult pruneUnreachable(const System &sys, CheckOptions opts,
                             std::vector<Machine *> machines);

} // namespace hieragen::verif

#endif // HIERAGEN_VERIF_CHECKER_HH
