/**
 * @file
 * Chrome trace-event emitter (Perfetto / chrome://tracing loadable).
 *
 * Collects duration ("X"), counter ("C"), instant ("i") and metadata
 * ("M") events and serializes them as the JSON Object Format
 * ({"traceEvents": [...]}) that ui.perfetto.dev and chrome://tracing
 * open directly. Timestamps are microseconds on a steady clock whose
 * epoch is the writer's construction, so spans from the checker, the
 * pass pipeline and the simulator all share one timeline.
 *
 * One writer is shared by every instrumented thread; emission takes a
 * mutex, so call sites batch work into chunky spans (the checker
 * emits one span per expansion chunk, not per state). Track layout
 * convention (see docs/OBSERVABILITY.md): everything runs under
 * pid 1; tid 1..N are checker workers, kSimTid the simulator,
 * kPipelineTid the pass pipeline, kProgressTid the progress
 * sampler's counter series.
 */

#ifndef HIERAGEN_OBS_TRACE_HH
#define HIERAGEN_OBS_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hh"

namespace hieragen::obs
{

using util::jsonQuote;

/** Reserved track ids (tids) under the single hieragen pid. */
inline constexpr uint32_t kSimTid = 80;
inline constexpr uint32_t kPipelineTid = 90;
inline constexpr uint32_t kProgressTid = 99;

class TraceWriter
{
  public:
    /** One "key": <json-value> pair; the value must already be valid
     *  JSON (a number via std::to_string, a string via jsonQuote). */
    using Args = std::vector<std::pair<std::string, std::string>>;

    TraceWriter();

    /** Microseconds since this writer's epoch (steady clock). */
    uint64_t nowUs() const;

    /** Name a track (emits a thread_name metadata event). */
    void setThreadName(uint32_t tid, const std::string &name);

    /** Completed span: [ts_us, ts_us + dur_us] on track @p tid. */
    void completeEvent(const std::string &name, uint32_t tid,
                       uint64_t ts_us, uint64_t dur_us,
                       Args args = {});

    /** Counter sample: each series becomes a graph in the viewer. */
    void counterEvent(const std::string &name, uint32_t tid,
                      uint64_t ts_us,
                      const std::vector<std::pair<std::string, double>>
                          &series);

    /** Zero-duration marker. */
    void instantEvent(const std::string &name, uint32_t tid,
                      uint64_t ts_us, Args args = {});

    size_t eventCount() const;

    /** Serialize every event collected so far. */
    void writeJson(std::ostream &os) const;
    std::string json() const;

  private:
    struct Event
    {
        char ph;
        std::string name;
        uint32_t tid;
        uint64_t ts;
        uint64_t dur;          ///< "X" events only
        std::string argsJson;  ///< pre-rendered {...}, may be empty
    };

    void push(Event &&e);

    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Event> events_;
};

/**
 * RAII span: records its start on construction and emits a complete
 * event on destruction (or at close()). A null writer disables it, so
 * call sites don't need their own telemetry-off branch.
 */
class ScopedSpan
{
  public:
    ScopedSpan(TraceWriter *w, std::string name, uint32_t tid)
        : w_(w), name_(std::move(name)), tid_(tid),
          start_(w ? w->nowUs() : 0)
    {}

    ~ScopedSpan() { close(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Emit now (idempotent), optionally with args. */
    void
    close(TraceWriter::Args args = {})
    {
        if (!w_)
            return;
        w_->completeEvent(name_, tid_, start_, w_->nowUs() - start_,
                          std::move(args));
        w_ = nullptr;
    }

  private:
    TraceWriter *w_;
    std::string name_;
    uint32_t tid_;
    uint64_t start_;
};

} // namespace hieragen::obs

#endif // HIERAGEN_OBS_TRACE_HH
