/**
 * @file
 * The `hieragen serve` daemon: a job queue over the hg_api facade.
 *
 * One Daemon owns a unix-domain listening socket speaking
 * line-delimited JSON-RPC (docs/SERVICE.md), a bounded worker pool
 * running VerifySessions, a generation cache (svc/cache.hh) and a
 * state directory that makes the whole job table crash-tolerant:
 *
 *   <state-dir>/job-<id>.json         spec + latest status (atomic)
 *   <state-dir>/job-<id>.ckpt         checker checkpoint (v3 format)
 *   <state-dir>/job-<id>.result.json  final status + verdict
 *
 * Scheduling: FIFO over `workers` slots. With a time slice
 * configured, a running job whose slice expires while others wait is
 * preempted — its engine stops on the per-job interrupt flag,
 * flushes a checkpoint, and the job re-enters the queue as
 * Preempted; the next worker to pick it up resumes from the
 * checkpoint (verdict and state counts match an uninterrupted run —
 * the checker's resume guarantee). Cancellation uses the per-job
 * CancelToken instead: the engine stops without a checkpoint and the
 * job is terminal.
 *
 * Shutdown (stop() or a SIGTERM routed through requestStop()) is an
 * orderly preemption of everything: running jobs checkpoint and
 * persist as Preempted, queued jobs stay Queued, and a daemon
 * restarted on the same state directory re-enqueues and resumes
 * them.
 *
 * The socket (a util::LineServer) also answers the bare
 * status/metrics/prom verbs; metrics and prom are rendered by
 * obs::StatusServer::scrape, so existing scrape tooling (`hieragen
 * status SOCK metrics`) works unchanged against a daemon.
 */

#ifndef HIERAGEN_SVC_DAEMON_HH
#define HIERAGEN_SVC_DAEMON_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/hieragen.hh"
#include "obs/metrics.hh"
#include "obs/statusserver.hh"
#include "svc/cache.hh"
#include "svc/json.hh"
#include "util/cancel.hh"
#include "util/errors.hh"
#include "util/unixsock.hh"

namespace hieragen::svc
{

struct ServeOptions
{
    std::string socketPath;
    std::string stateDir;         ///< job persistence root (required)
    unsigned workers = 2;         ///< concurrent VerifySessions
    double sliceSec = 0.0;        ///< 0 = run to completion
    double checkpointIntervalSec = 30.0;
    double heartbeatSec = 0.3;    ///< result --follow frame cadence
};

class Daemon
{
  public:
    explicit Daemon(ServeOptions opts);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Recover the state directory, bind the socket, spawn the
     *  listener / worker / scheduler threads. False with error(). */
    bool start();

    /** Orderly shutdown (see file comment). Idempotent. */
    void stop();

    /** Ask the serve loop to exit; safe from any thread. The actual
     *  teardown happens in waitUntilStopped()/stop(). */
    void requestStop();

    /** Block until requestStop() (an RPC shutdown) or until
     *  @p externalStop goes true (the CLI's async-signal-safe
     *  SIGINT/SIGTERM flag), then tear down. Returns the process
     *  exit code. */
    int waitUntilStopped(
        const std::atomic<bool> *externalStop = nullptr);

    bool running() const { return running_.load(); }
    const std::string &error() const { return error_; }

    obs::MetricsRegistry &metrics() { return metrics_; }
    GenCache &cache() { return cache_; }

  private:
    /** One job's full lifetime. Immutable after creation: spec,
     *  handle. Guarded by Daemon::mu_: state, error, counters,
     *  result. Internally synchronized: cancel, preempt, hub. */
    struct Job
    {
        api::JobSpec spec;
        api::JobHandle handle;
        api::JobState state = api::JobState::Queued;
        Error error;
        bool cacheHit = false;
        bool verifyOk = false;
        unsigned preemptions = 0;
        bool resumePending = false;  ///< checkpoint file adopted
        uint64_t statesExplored = 0;   ///< last published
        uint64_t statesGenerated = 0;
        double elapsedSec = 0.0;       ///< completed slices
        std::chrono::steady_clock::time_point sliceStart{};
        bool workerActive = false;
        verif::CheckResult result;
        bool haveResult = false;

        util::CancelToken cancel;
        std::atomic<bool> preempt{false};
        obs::StatusHub hub;  ///< engine progress sampler rendezvous
    };
    using JobPtr = std::shared_ptr<Job>;

    // Threads.
    void workerLoop();
    void schedulerLoop();

    // RPC dispatch (server_'s connection threads).
    bool serveLine(const std::string &line, int fd);
    std::string handleFrame(const std::string &line, int fd,
                            bool &keepOpen);
    std::string handleSubmit(const JsonValue &req);
    std::string handleJobs();
    std::string handleStatus(const JsonValue &req);
    std::string handleCancel(const JsonValue &req);
    std::string handleResult(const JsonValue &req, int fd,
                             bool &keepOpen);
    std::string bareVerb(const std::string &verb);
    std::string daemonStatusJson();

    // Job machinery.
    JobPtr findJob(uint64_t id);
    void runJob(const JobPtr &job);
    void publish(const JobPtr &job);  ///< persist job record (mu_ held)
    void persistResult(const JobPtr &job);
    bool recoverStateDir();
    api::JobStatus statusOf(const JobPtr &job);  ///< mu_ held
    std::string jobPath(uint64_t id, const char *suffix) const;

    ServeOptions opts_;
    std::string error_;
    obs::MetricsRegistry metrics_;
    GenCache cache_;

    mutable std::mutex mu_;
    std::condition_variable cv_;       ///< worker queue wakeups
    std::condition_variable doneCv_;   ///< job state transitions
    std::condition_variable stopCv_;   ///< waitUntilStopped() only
    std::map<uint64_t, JobPtr> jobs_;
    std::deque<uint64_t> queue_;
    uint64_t nextId_ = 1;
    unsigned runningJobs_ = 0;

    std::thread schedulerThread_;
    std::vector<std::thread> workers_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> stopRequested_{false};
    std::chrono::steady_clock::time_point started_{};
    util::LineServer server_;  ///< its threads use everything above
};

} // namespace hieragen::svc

#endif // HIERAGEN_SVC_DAEMON_HH
