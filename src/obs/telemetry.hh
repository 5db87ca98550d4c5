/**
 * @file
 * The wiring bundle instrumented subsystems accept.
 *
 * A Telemetry is a non-owning view of the sinks a caller wants fed:
 * a metrics registry, a trace writer, and/or a progress heartbeat
 * interval. Subsystems (verif::CheckOptions, pipeline::PassManager,
 * sim::SimConfig) take a `Telemetry *`; null means observability is
 * fully disabled and every instrumented hot path reduces to one
 * predictable branch. The CLI assembles one Telemetry for
 * --progress / --trace-out / --metrics-json and shares it across the
 * whole run so all spans land on a single timeline.
 */

#ifndef HIERAGEN_OBS_TELEMETRY_HH
#define HIERAGEN_OBS_TELEMETRY_HH

#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"

namespace hieragen::obs
{

class Journal;
class StatusHub;

struct Telemetry
{
    MetricsRegistry *metrics = nullptr;
    TraceWriter *trace = nullptr;

    /** Run journal (append-only JSONL event log); null = disabled.
     *  Written from cold paths only (see obs/journal.hh). */
    Journal *journal = nullptr;

    /** Live-status rendezvous: the checker registers its progress
     *  sampler here so an external status socket can snapshot a run
     *  without touching the hot loop; null = disabled. */
    StatusHub *status = nullptr;

    /** Heartbeat interval in seconds; 0 disables the sampler. */
    double progressIntervalSec = 0.0;

    /** Suppress heartbeat status lines (sinks still fed). */
    bool quietProgress = false;

    bool
    wantsProgress() const
    {
        return progressIntervalSec > 0.0;
    }
};

} // namespace hieragen::obs

#endif // HIERAGEN_OBS_TELEMETRY_HH
