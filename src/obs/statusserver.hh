/**
 * @file
 * Live introspection socket for running verifications.
 *
 * StatusHub is the rendezvous between an engine and external
 * observers: the engine registers the same ProgressSample callback
 * the progress reporter uses (reads of its own relaxed atomics — the
 * hot loop never knows it is being watched) plus pre-rendered JSON
 * fields updated at cold control points (run identity, phase
 * accumulators). StatusServer listens on a unix-domain socket
 * (`--status-socket PATH`) and answers one-line requests:
 *
 *   status\n   -> one JSON object: run fields + the latest progress
 *                 sample + rates derived against the previous query
 *   metrics\n  -> the metrics registry's toJson() snapshot
 *   prom\n     -> Prometheus text exposition of the same registry,
 *                 plus hieragen_live_* gauges from the engine's
 *                 sample while a run is in flight (the registry's
 *                 run-total families only land at finalize)
 *
 * A verb ends at LF or at EOF; the response is the full payload
 * followed by EOF. Connections are served concurrently (one
 * util::LineServer thread each). `hieragen status PATH` is the
 * bundled client; anything that can speak AF_UNIX (curl
 * --unix-socket, a scheduler, a dashboard) works the same.
 */

#ifndef HIERAGEN_OBS_STATUSSERVER_HH
#define HIERAGEN_OBS_STATUSSERVER_HH

#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "obs/progress.hh"
#include "util/unixsock.hh"

namespace hieragen::obs
{

class MetricsRegistry;

/**
 * Thread-safe exchange point between one engine and any number of
 * status readers. All members may be called from any thread.
 */
class StatusHub
{
  public:
    using SampleFn = std::function<ProgressSample()>;

    /** Engine registers its sampler at run start... */
    void setSampler(SampleFn fn);
    /** ...and clears it before returning (the callback's captures
     *  die with the engine). */
    void clearSampler();

    /** Pull a sample; false when no engine is registered. */
    bool sample(ProgressSample &out) const;

    /** Publish a pre-rendered JSON value under @p key (top-level in
     *  the status payload). Call from cold paths only. */
    void setField(const std::string &key, const std::string &json);

    /** Snapshot of the published fields, sorted by key. */
    std::map<std::string, std::string> fields() const;

  private:
    mutable std::mutex mu_;
    SampleFn fn_;
    std::map<std::string, std::string> fields_;
};

/**
 * The socket server: a util::LineServer answering the verbs above.
 * start() binds the path (replacing a stale socket file, refusing one
 * a live server answers on); stop() (or destruction) shuts it down
 * and unlinks the path. Failure to bind reports through error() and
 * leaves the run unaffected.
 */
class StatusServer
{
  public:
    StatusServer() = default;
    ~StatusServer();

    StatusServer(const StatusServer &) = delete;
    StatusServer &operator=(const StatusServer &) = delete;

    bool start(const std::string &socketPath, const StatusHub *hub,
               const MetricsRegistry *metrics);
    void stop();

    bool running() const { return server_.running(); }
    const std::string &path() const { return server_.path(); }
    const std::string &error() const { return server_.error(); }

    /**
     * Client side: connect to @p socketPath, send @p verb, return
     * the full response in @p out. False (with @p err) on connect /
     * IO failure.
     */
    static bool query(const std::string &socketPath,
                      const std::string &verb, std::string &out,
                      std::string *err = nullptr);

    /** The `metrics` and `prom` payloads (the service daemon answers
     *  them too); "" for any other verb. */
    static std::string scrape(const std::string &verb,
                              const StatusHub *hub,
                              const MetricsRegistry *metrics);

  private:
    bool handle(const std::string &verb, int fd);
    std::string statusJson();

    const StatusHub *hub_ = nullptr;
    const MetricsRegistry *metrics_ = nullptr;
    std::chrono::steady_clock::time_point started_{};

    // Rate derivation across successive `status` queries, which
    // may arrive concurrently.
    std::mutex rateMu_;
    bool havePrev_ = false;
    ProgressSample prev_{};
    std::chrono::steady_clock::time_point prevTime_{};

    util::LineServer server_;
};

} // namespace hieragen::obs

#endif // HIERAGEN_OBS_STATUSSERVER_HH
