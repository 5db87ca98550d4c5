/**
 * @file
 * Live progress heartbeat for long-running exploration.
 *
 * A ProgressReporter owns one sampler thread that wakes on a
 * configurable interval, pulls a ProgressSample from the instrumented
 * engine (a callback reading that engine's live atomics — the engine
 * itself never blocks on the sampler), derives rates/shares/ETA with
 * computeProgress(), and fans the heartbeat out to three sinks: a
 * human-readable status line through the thread-safe log sink,
 * counter events on the trace writer's progress track, and gauges in
 * the metrics registry. stop() joins the thread after one final
 * sample, so short runs still report at least once.
 */

#ifndef HIERAGEN_OBS_PROGRESS_HH
#define HIERAGEN_OBS_PROGRESS_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hieragen::obs
{

class Journal;

/** Point-in-time reading of an engine's live instrumentation. */
struct ProgressSample
{
    uint64_t statesExplored = 0;
    uint64_t statesGenerated = 0;
    uint64_t transitionsFired = 0;
    uint64_t queueDepth = 0;       ///< frontier awaiting expansion
    uint64_t visitedEntries = 0;   ///< states accepted into the set
    uint64_t shardsOccupied = 0;   ///< visited shards holding >= 1
    uint64_t shardCount = 0;       ///< 0 for the unsharded engine
    /** Modelled working-set bytes: the visited tables and the
     *  frontier below, plus the spill tier's in-memory indexes and
     *  the trace log. Compare against rssBytes (the ground truth) —
     *  the heartbeat prints both as `est X, rss Y`. */
    uint64_t estMemoryBytes = 0;
    uint64_t tableBytes = 0;       ///< measured visited-table bytes
    /** In-memory frontier states at the mean decoded state size. */
    uint64_t frontierBytes = 0;
    double tableLoadFactor = 0.0;  ///< entries / slots, 0 when unknown
    /**
     * Orbit-walk nanoseconds on sampled canonicalize calls. This is
     * the time symmetry *adds* on top of the baseline bit-pack encode
     * (which every mode pays): with early-exit canonicalization most
     * orbit images abort after a few words, and counting the shared
     * encode here would overstate the symmetry cost several-fold.
     */
    uint64_t symSampledNs = 0;
    uint64_t symSampledCalls = 0;  ///< how many calls were timed
    uint64_t symCalls = 0;         ///< total canonicalizations
    uint64_t maxStates = 0;        ///< exploration cap (0 = none)
    unsigned workers = 1;
    uint64_t checkpointsWritten = 0;  ///< snapshots flushed so far
    uint64_t checkpointBytes = 0;     ///< cumulative snapshot bytes
    /** Measured resident set (/proc/self/statm; 0 where unsupported)
     *  — the ground truth estMemoryBytes approximates. */
    uint64_t rssBytes = 0;
    // Out-of-core (SpillToDisk) counters; all zero until a spill.
    uint64_t spilledBytes = 0;    ///< segment bytes written so far
    uint64_t spillSegments = 0;   ///< segments written so far
    uint64_t diskProbes = 0;      ///< probes that reached the disk
    uint64_t diskProbeHits = 0;   ///< probes confirmed on disk
    double spillStallMs = 0.0;    ///< wall time blocked on spill I/O
};

/** Derived rates — pure math over two samples, unit-testable. */
struct ProgressStats
{
    double statesPerSec = 0.0;  ///< over the sampling interval
    double dedupHitRate = 0.0;  ///< cumulative, of generated states
    /** Estimated share of total worker time spent searching for
     *  symmetry representatives (excludes packing; see
     *  ProgressSample::symSampledNs). */
    double symTimeShare = 0.0;
    double etaSec = -1.0;       ///< to maxStates at current rate
};

/**
 * Derive interval rates and cumulative shares. @p dt_sec is the time
 * between @p prev and @p cur; @p wall_sec the time since exploration
 * began (the denominator of symTimeShare, scaled by cur.workers).
 */
ProgressStats computeProgress(const ProgressSample &prev,
                              const ProgressSample &cur, double dt_sec,
                              double wall_sec);

/** Render one heartbeat line ("1.2M states (40.1k/s), ..."). */
std::string formatHeartbeat(const ProgressSample &s,
                            const ProgressStats &d);

/** Human-scale count: 1234567 -> "1.2M". */
std::string formatCount(uint64_t n);

class ProgressReporter
{
  public:
    using SampleFn = std::function<ProgressSample()>;

    ProgressReporter() = default;
    ~ProgressReporter() { stop(); }

    ProgressReporter(const ProgressReporter &) = delete;
    ProgressReporter &operator=(const ProgressReporter &) = delete;

    /**
     * Launch the sampler thread. @p interval_sec must be > 0;
     * @p metrics and @p trace may be null (that sink is skipped).
     * @p quiet suppresses the status line (metrics/trace still fed).
     */
    void start(double interval_sec, SampleFn fn,
               MetricsRegistry *metrics = nullptr,
               TraceWriter *trace = nullptr, bool quiet = false,
               Journal *journal = nullptr);

    /** Final sample, then join. Safe to call twice or without start. */
    void stop();

    bool running() const { return thread_.joinable(); }

    /** Heartbeats emitted so far (including the final one). */
    uint64_t beats() const { return beats_.load(); }

  private:
    void loop();
    void beat();

    double intervalSec_ = 1.0;
    SampleFn fn_;
    MetricsRegistry *metrics_ = nullptr;
    TraceWriter *trace_ = nullptr;
    Journal *journal_ = nullptr;
    bool quiet_ = false;

    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;
    std::thread thread_;

    std::atomic<uint64_t> beats_{0};
    ProgressSample prev_;
    std::chrono::steady_clock::time_point startTime_;
    std::chrono::steady_clock::time_point prevTime_;
};

} // namespace hieragen::obs

#endif // HIERAGEN_OBS_PROGRESS_HH
