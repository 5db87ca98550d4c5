/**
 * @file
 * Hardware performance counters for phase profiling.
 *
 * PerfCounterSet wraps one perf_event_open() group — cycles (leader),
 * instructions, cache-misses, branch-misses — read with a single
 * syscall per sample (PERF_FORMAT_GROUP). Each checker worker opens
 * its own set and samples it around the same expansions `--phases`
 * already wall-clocks (whole expansions on one 1-in-8 sample, the
 * encode and insert sections on a disjoint one), attributing
 * cycles/misses to the expand, encode and insert buckets; the
 * workers' counts are summed.
 *
 * Construction degrades gracefully: on non-Linux builds, in
 * containers without perf_event access (EACCES under
 * perf_event_paranoid), or on kernels without PMU support, the set
 * reports available() == false and every read returns invalid
 * counts — callers skip attribution and the run proceeds untouched.
 */

#ifndef HIERAGEN_OBS_PERFCOUNTERS_HH
#define HIERAGEN_OBS_PERFCOUNTERS_HH

#include <cstdint>
#include <string>

namespace hieragen::obs
{

/** One sample of the counter group. */
struct PerfCounts
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t cacheMisses = 0;
    uint64_t branchMisses = 0;
    bool valid = false;

    PerfCounts
    operator-(const PerfCounts &o) const
    {
        PerfCounts d;
        d.valid = valid && o.valid;
        if (d.valid) {
            d.cycles = cycles - o.cycles;
            d.instructions = instructions - o.instructions;
            d.cacheMisses = cacheMisses - o.cacheMisses;
            d.branchMisses = branchMisses - o.branchMisses;
        }
        return d;
    }

    PerfCounts &
    operator+=(const PerfCounts &o)
    {
        if (o.valid) {
            cycles += o.cycles;
            instructions += o.instructions;
            cacheMisses += o.cacheMisses;
            branchMisses += o.branchMisses;
            valid = true;
        }
        return *this;
    }
};

/**
 * A per-thread counter group. Counters are opened for the calling
 * thread only (pid=0, cpu=-1) and start enabled; read() snapshots
 * all four with one syscall. Not thread-safe: each sampling thread
 * owns its own set.
 */
class PerfCounterSet
{
  public:
    PerfCounterSet();
    ~PerfCounterSet();

    PerfCounterSet(const PerfCounterSet &) = delete;
    PerfCounterSet &operator=(const PerfCounterSet &) = delete;

    /** True when the group opened and reads will deliver counts. */
    bool available() const { return fd_ >= 0; }
    /** Why available() is false ("" when it is true). */
    const std::string &error() const { return error_; }

    /** Snapshot the group; valid == false when unavailable. */
    PerfCounts read() const;

  private:
    int fd_ = -1;       ///< group leader (cycles)
    int nEvents_ = 0;   ///< events that actually opened
    std::string error_;

    void closeAll();
    int fds_[4] = {-1, -1, -1, -1};
};

} // namespace hieragen::obs

#endif // HIERAGEN_OBS_PERFCOUNTERS_HH
