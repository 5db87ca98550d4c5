#include "svc/daemon.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include <dirent.h>
#include <unistd.h>

#include "obs/trace.hh"
#include "svc/proto.hh"
#include "util/fileio.hh"
#include "util/logging.hh"

namespace hieragen::svc
{

namespace
{

bool
fileExists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

double
secondsSince(std::chrono::steady_clock::time_point t)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t)
        .count();
}

} // namespace

Daemon::Daemon(ServeOptions opts) : opts_(std::move(opts)) {}

Daemon::~Daemon()
{
    stop();
}

std::string
Daemon::jobPath(uint64_t id, const char *suffix) const
{
    return opts_.stateDir + "/job-" + std::to_string(id) + suffix;
}

bool
Daemon::start()
{
    error_.clear();
    if (opts_.stateDir.empty()) {
        error_ = "serve requires a state directory (--state-dir)";
        return false;
    }
    if (!util::ensureDirectory(opts_.stateDir)) {
        error_ = "cannot create state dir '" + opts_.stateDir + "'";
        return false;
    }
    if (!recoverStateDir())
        return false;

    stopping_.store(false);
    stopRequested_.store(false);
    started_ = std::chrono::steady_clock::now();
    if (opts_.workers == 0)
        opts_.workers = 1;
    if (!server_.start(
            opts_.socketPath,
            [this](const std::string &line, int fd) {
                return serveLine(line, fd);
            },
            errorFrame(Error(ErrorKind::BadRequest,
                             "frame exceeds 1 MiB without a newline")))) {
        error_ = server_.error();
        return false;
    }
    workers_.reserve(opts_.workers);
    for (unsigned i = 0; i < opts_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    schedulerThread_ = std::thread([this] { schedulerLoop(); });
    running_.store(true);
    return true;
}

void
Daemon::requestStop()
{
    stopRequested_.store(true);
    stopCv_.notify_all();
    cv_.notify_all();
    doneCv_.notify_all();
}

int
Daemon::waitUntilStopped(const std::atomic<bool> *externalStop)
{
    // Waits on its own condition variable: sharing the workers' cv_
    // here would let this loop swallow a submit's queue wakeup.
    // Timed waits so a signal-handler store (which cannot notify a
    // condition variable) is noticed promptly.
    std::unique_lock<std::mutex> lk(mu_);
    while (!stopRequested_.load() &&
           !(externalStop && externalStop->load()))
        stopCv_.wait_for(lk, std::chrono::milliseconds(100));
    lk.unlock();
    stop();
    return 0;
}

void
Daemon::stop()
{
    if (!running_.load())
        return;
    stopping_.store(true);
    stopRequested_.store(true);
    {
        // Preempt every active engine: each stops on its interrupt
        // flag, flushes a checkpoint and persists as Preempted.
        std::lock_guard<std::mutex> lk(mu_);
        for (auto &kv : jobs_)
            if (kv.second->workerActive)
                kv.second->preempt.store(true);
    }
    cv_.notify_all();
    doneCv_.notify_all();
    // Follow-mode result streams end on stopping_; idle connections
    // notice the server's stop within one poll.
    server_.stop();
    for (auto &w : workers_)
        if (w.joinable())
            w.join();
    workers_.clear();
    if (schedulerThread_.joinable())
        schedulerThread_.join();
    running_.store(false);
}

// ---------------------------------------------------------------
// Persistence

void
Daemon::publish(const JobPtr &job)
{
    api::JobStatus st = statusOf(job);
    std::ostringstream os;
    os << "{\"id\":" << job->handle.id
       << ",\"spec\":" << jobSpecToJson(job->spec)
       << ",\"status\":" << jobStatusToJson(st) << "}\n";
    util::AtomicFileWriter w;
    if (!w.open(jobPath(job->handle.id, ".json")) ||
        !w.append(os.str()) || !w.commit()) {
        warn("cannot persist job ", job->handle.id, ": ", w.error());
    }
}

void
Daemon::persistResult(const JobPtr &job)
{
    util::AtomicFileWriter w;
    if (!w.open(jobPath(job->handle.id, ".result.json")) ||
        !w.append(checkResultToJson(job->result)) ||
        !w.append("\n") || !w.commit()) {
        warn("cannot persist result for job ", job->handle.id, ": ",
             w.error());
    }
}

bool
Daemon::recoverStateDir()
{
    DIR *d = ::opendir(opts_.stateDir.c_str());
    if (!d) {
        error_ = "cannot open state dir '" + opts_.stateDir + "'";
        return false;
    }
    std::vector<uint64_t> requeue;
    while (dirent *e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name.rfind("job-", 0) != 0 ||
            name.size() <= 9 /* job-N.json */ ||
            name.substr(name.size() - 5) != ".json" ||
            name.find(".result.") != std::string::npos)
            continue;
        std::string text;
        if (!util::readFileToString(opts_.stateDir + "/" + name,
                                    text))
            continue;
        JsonValue rec;
        if (!parseJson(text, rec) || !rec.isObject())
            continue;
        uint64_t id = rec.uint("id");
        const JsonValue *spec = rec.find("spec");
        const JsonValue *status = rec.find("status");
        if (id == 0 || !spec || !status)
            continue;
        auto job = std::make_shared<Job>();
        job->handle.id = id;
        Error err;
        if (!jobSpecFromJson(*spec, job->spec, &err))
            continue;
        api::JobStatus st;
        if (!jobStatusFromJson(*status, st))
            continue;
        job->state = st.state;
        job->error = st.error;
        job->cacheHit = st.cacheHit;
        job->verifyOk = st.verifyOk;
        job->preemptions = st.preemptions;
        job->statesExplored = st.statesExplored;
        job->statesGenerated = st.statesGenerated;
        job->elapsedSec = st.elapsedSec;
        if (!api::jobStateTerminal(job->state)) {
            // Interrupted mid-flight (crash or SIGTERM): back into
            // the queue; a surviving checkpoint makes it a resume.
            job->state = api::JobState::Queued;
            job->resumePending = fileExists(jobPath(id, ".ckpt"));
            requeue.push_back(id);
        }
        jobs_[id] = std::move(job);
        if (id >= nextId_)
            nextId_ = id + 1;
    }
    ::closedir(d);
    // Requeue in id order (readdir order is arbitrary).
    std::sort(requeue.begin(), requeue.end());
    for (uint64_t id : requeue) {
        queue_.push_back(id);
        metrics_.counter("svc.jobs_recovered").add();
    }
    return true;
}

// ---------------------------------------------------------------
// Status

api::JobStatus
Daemon::statusOf(const JobPtr &job)
{
    api::JobStatus st;
    st.handle = job->handle;
    st.state = job->state;
    st.error = job->error;
    st.label = job->spec.label;
    st.cacheHit = job->cacheHit;
    st.verifyOk = job->verifyOk;
    st.statesExplored = job->statesExplored;
    st.statesGenerated = job->statesGenerated;
    st.elapsedSec = job->elapsedSec;
    st.preemptions = job->preemptions;
    if (job->workerActive) {
        st.elapsedSec += secondsSince(job->sliceStart);
        obs::ProgressSample s{};
        if (job->hub.sample(s)) {
            st.statesExplored = s.statesExplored;
            st.statesGenerated = s.statesGenerated;
        }
    }
    return st;
}

std::string
Daemon::daemonStatusJson()
{
    std::lock_guard<std::mutex> lk(mu_);
    std::ostringstream os;
    os << "{\"daemon\":true,\"uptime_sec\":" << secondsSince(started_)
       << ",\"workers\":" << opts_.workers
       << ",\"jobs\":" << jobs_.size()
       << ",\"queue_depth\":" << queue_.size()
       << ",\"running\":" << runningJobs_
       << ",\"cache_entries\":" << cache_.entries()
       << ",\"cache_hits\":" << cache_.hits()
       << ",\"cache_misses\":" << cache_.misses()
       << ",\"stopping\":"
       << (stopping_.load() ? "true" : "false") << "}\n";
    return os.str();
}

// ---------------------------------------------------------------
// Scheduling

void
Daemon::schedulerLoop()
{
    while (!stopping_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (opts_.sliceSec <= 0.0)
            continue;
        std::lock_guard<std::mutex> lk(mu_);
        if (queue_.empty())
            continue;  // nothing to switch to; let it run
        for (auto &kv : jobs_) {
            const JobPtr &job = kv.second;
            if (job->workerActive &&
                job->state == api::JobState::Running &&
                !job->preempt.load() &&
                secondsSince(job->sliceStart) > opts_.sliceSec) {
                job->preempt.store(true);
                metrics_.counter("svc.preemptions_requested").add();
            }
        }
    }
}

Daemon::JobPtr
Daemon::findJob(uint64_t id)
{
    auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second;
}

void
Daemon::workerLoop()
{
    for (;;) {
        JobPtr job;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this] {
                return stopping_.load() || !queue_.empty();
            });
            if (stopping_.load())
                return;
            uint64_t id = queue_.front();
            queue_.pop_front();
            job = findJob(id);
            if (!job || (job->state != api::JobState::Queued &&
                         job->state != api::JobState::Preempted))
                continue;  // cancelled (or vanished) while queued
            if (job->cancel.cancelled()) {
                job->state = api::JobState::Cancelled;
                job->error = Error(ErrorKind::Cancelled,
                                   job->cancel.reason());
                metrics_.counter("svc.jobs_cancelled").add();
                publish(job);
                doneCv_.notify_all();
                continue;
            }
            job->state = api::JobState::Generating;
            job->workerActive = true;
            job->preempt.store(false);
            job->sliceStart = std::chrono::steady_clock::now();
            ++runningJobs_;
            publish(job);
        }
        runJob(job);
        {
            std::lock_guard<std::mutex> lk(mu_);
            job->workerActive = false;
            --runningJobs_;
            publish(job);
        }
        doneCv_.notify_all();
    }
}

void
Daemon::runJob(const JobPtr &job)
{
    uint64_t id = job->handle.id;

    // 1. Generation, through the cache. Waiting on an in-flight
    //    twin counts as a hit (see svc/cache.hh).
    Error genErr;
    bool hit = false;
    std::shared_ptr<const GenBundle> bundle =
        cache_.getOrGenerate(job->spec, genErr, hit);
    if (hit)
        metrics_.counter("svc.cache_hits").add();
    else
        metrics_.counter("svc.cache_misses").add();
    {
        std::lock_guard<std::mutex> lk(mu_);
        job->cacheHit = hit;
        if (!bundle) {
            job->state = api::JobState::Failed;
            job->error = genErr;
            job->elapsedSec += secondsSince(job->sliceStart);
            metrics_.counter("svc.jobs_failed").add();
            return;
        }
        if (job->cancel.cancelled()) {
            job->state = api::JobState::Cancelled;
            job->error =
                Error(ErrorKind::Cancelled, job->cancel.reason());
            job->elapsedSec += secondsSince(job->sliceStart);
            metrics_.counter("svc.jobs_cancelled").add();
            return;
        }
    }

    // 2. Verification. The bundle's protocol is self-contained and
    //    kept alive by our shared_ptr for the session's lifetime.
    verif::CheckOptions copts;
    copts.numThreads = job->spec.threads ? job->spec.threads : 1;
    if (job->spec.maxStates)
        copts.maxStates = job->spec.maxStates;
    api::VerifySession session = api::VerifySession::hier(
        bundle->protocol, job->spec.numCacheH, job->spec.numCacheL,
        copts);
    std::string ckpt = jobPath(id, ".ckpt");
    session.checkpointTo(ckpt, opts_.checkpointIntervalSec);
    if (fileExists(ckpt)) {
        if (session.resumeFrom(ckpt)) {
            metrics_.counter("svc.jobs_resumed").add();
        } else {
            // Stale or incompatible artifact: discard, run fresh.
            warn("job ", id, ": dropping checkpoint (",
                 session.error(), ")");
            ::unlink(ckpt.c_str());
        }
    }
    session.onStop(&job->preempt);
    session.cancelWith(&job->cancel);
    obs::Telemetry tel;
    tel.metrics = &metrics_;
    tel.status = &job->hub;
    session.telemetry(&tel);

    {
        std::lock_guard<std::mutex> lk(mu_);
        job->state = api::JobState::Running;
        publish(job);
    }
    const verif::CheckResult &r = session.run();

    std::lock_guard<std::mutex> lk(mu_);
    job->statesExplored = r.statesExplored;
    job->statesGenerated = r.statesGenerated;
    job->elapsedSec += secondsSince(job->sliceStart);
    switch (r.errorKind) {
    case ErrorKind::Cancelled:
        job->state = api::JobState::Cancelled;
        job->error = Error(ErrorKind::Cancelled, r.detail);
        ::unlink(ckpt.c_str());
        metrics_.counter("svc.jobs_cancelled").add();
        break;
    case ErrorKind::Interrupted:
        // Preemption (slice expiry or shutdown): the engine flushed
        // a checkpoint; back into the queue for a later resume.
        job->state = api::JobState::Preempted;
        job->resumePending = true;
        ++job->preemptions;
        metrics_.counter("svc.jobs_preempted").add();
        if (!stopping_.load()) {
            queue_.push_back(id);
            cv_.notify_one();
        }
        break;
    case ErrorKind::SpillIo:
    case ErrorKind::ResumeMismatch:
    case ErrorKind::Internal:
        job->state = api::JobState::Failed;
        job->error = Error(r.errorKind, r.detail);
        metrics_.counter("svc.jobs_failed").add();
        break;
    default:
        // A verdict: clean pass, a violation, or a bounded run that
        // hit its configured cap. The job did what was asked.
        job->state = api::JobState::Done;
        job->verifyOk = r.ok;
        job->error = r.ok ? Error() : Error(r.errorKind, r.detail);
        job->result = r;
        job->haveResult = true;
        persistResult(job);
        if (!r.resumable)
            ::unlink(ckpt.c_str());
        metrics_.counter("svc.jobs_done").add();
        break;
    }
}

// ---------------------------------------------------------------
// Socket I/O

bool
Daemon::serveLine(const std::string &line, int fd)
{
    metrics_.counter("svc.frames_rx").add();
    bool keepOpen = true;
    std::string resp = handleFrame(line, fd, keepOpen);
    return (resp.empty() || util::sendAll(fd, resp)) && keepOpen;
}

std::string
Daemon::handleFrame(const std::string &line, int fd, bool &keepOpen)
{
    if (line[0] != '{') {
        // Bare status/metrics/prom verbs: one-shot, statusserver
        // contract (payload then EOF).
        keepOpen = false;
        return bareVerb(line);
    }
    JsonValue req;
    std::string perr;
    if (!parseJson(line, req, &perr) || !req.isObject()) {
        metrics_.counter("svc.frames_bad").add();
        return errorFrame(Error(ErrorKind::BadRequest,
                                "malformed frame: " + perr));
    }
    std::string op = req.str("op");
    if (op == "ping")
        return okFrame(",\"pong\":true");
    if (op == "submit")
        return handleSubmit(req);
    if (op == "jobs")
        return handleJobs();
    if (op == "status")
        return handleStatus(req);
    if (op == "cancel")
        return handleCancel(req);
    if (op == "result")
        return handleResult(req, fd, keepOpen);
    if (op == "shutdown") {
        requestStop();
        return okFrame(",\"stopping\":true");
    }
    metrics_.counter("svc.frames_bad").add();
    return errorFrame(
        Error(ErrorKind::BadRequest,
              "unknown op '" + op +
                  "' (ping|submit|jobs|status|cancel|result|"
                  "shutdown)"));
}

std::string
Daemon::bareVerb(const std::string &verb)
{
    if (verb == "status")
        return daemonStatusJson();
    std::string out = obs::StatusServer::scrape(verb, nullptr, &metrics_);
    if (!out.empty())
        return out;
    return "{\"error\":\"unknown verb '" + verb +
           "' (try status|metrics|prom or a JSON frame)\"}\n";
}

std::string
Daemon::handleSubmit(const JsonValue &req)
{
    if (stopRequested_.load())
        return errorFrame(
            Error(ErrorKind::Unavailable, "daemon is shutting down"));
    const JsonValue *specJson = req.find("spec");
    if (!specJson)
        return errorFrame(
            Error(ErrorKind::BadRequest, "submit needs a 'spec'"));
    api::JobSpec spec;
    Error err;
    if (!jobSpecFromJson(*specJson, spec, &err)) {
        metrics_.counter("svc.frames_bad").add();
        return errorFrame(err);
    }
    // Resolve the cache key now so an unresolvable spec fails the
    // submit, not the job.
    if (GenCache::specFingerprint(spec, &err) == 0)
        return errorFrame(err);

    JobPtr job = std::make_shared<Job>();
    job->spec = std::move(spec);
    uint64_t id;
    {
        std::lock_guard<std::mutex> lk(mu_);
        id = nextId_++;
        job->handle.id = id;
        jobs_[id] = job;
        queue_.push_back(id);
        publish(job);
    }
    metrics_.counter("svc.jobs_submitted").add();
    cv_.notify_one();
    return okFrame(",\"id\":" + std::to_string(id) +
                   ",\"state\":\"queued\"");
}

std::string
Daemon::handleJobs()
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out = ",\"jobs\":[";
    bool first = true;
    for (auto &kv : jobs_) {
        if (!first)
            out += ",";
        first = false;
        out += jobStatusToJson(statusOf(kv.second));
    }
    out += "]";
    return okFrame(out);
}

std::string
Daemon::handleStatus(const JsonValue &req)
{
    uint64_t id = req.uint("id");
    std::lock_guard<std::mutex> lk(mu_);
    JobPtr job = findJob(id);
    if (!job)
        return errorFrame(Error(ErrorKind::NotFound,
                                "no job " + std::to_string(id)),
                          api::JobHandle{id});
    return okFrame(",\"status\":" + jobStatusToJson(statusOf(job)));
}

std::string
Daemon::handleCancel(const JsonValue &req)
{
    uint64_t id = req.uint("id");
    JobPtr job;
    {
        std::lock_guard<std::mutex> lk(mu_);
        job = findJob(id);
        if (!job)
            return errorFrame(Error(ErrorKind::NotFound,
                                    "no job " + std::to_string(id)),
                              api::JobHandle{id});
        if (api::jobStateTerminal(job->state))
            return okFrame(",\"status\":" +
                           jobStatusToJson(statusOf(job)));
        job->cancel.cancel("cancelled via rpc");
        if (!job->workerActive) {
            // Queued/Preempted: terminal right now; the queue entry
            // becomes a no-op when a worker reaches it.
            job->state = api::JobState::Cancelled;
            job->error =
                Error(ErrorKind::Cancelled, job->cancel.reason());
            metrics_.counter("svc.jobs_cancelled").add();
            publish(job);
        }
    }
    doneCv_.notify_all();
    std::lock_guard<std::mutex> lk(mu_);
    return okFrame(",\"status\":" + jobStatusToJson(statusOf(job)));
}

std::string
Daemon::handleResult(const JsonValue &req, int fd, bool &keepOpen)
{
    uint64_t id = req.uint("id");
    bool follow = req.boolean("follow");
    std::unique_lock<std::mutex> lk(mu_);
    JobPtr job = findJob(id);
    if (!job)
        return errorFrame(Error(ErrorKind::NotFound,
                                "no job " + std::to_string(id)),
                          api::JobHandle{id});

    auto heartbeatMs = std::chrono::milliseconds(
        static_cast<long>(opts_.heartbeatSec * 1000));
    while (follow && !api::jobStateTerminal(job->state) &&
           !stopping_.load()) {
        std::string frame =
            okFrame(",\"event\":\"progress\",\"status\":" +
                    jobStatusToJson(statusOf(job)));
        lk.unlock();
        if (!util::sendAll(fd, frame)) {
            keepOpen = false;
            return "";
        }
        lk.lock();
        doneCv_.wait_for(lk, heartbeatMs);
    }

    if (!api::jobStateTerminal(job->state))
        return errorFrame(
            Error(ErrorKind::Unavailable,
                  "job " + std::to_string(id) + " is " +
                      api::jobStateName(job->state) +
                      "; pass \"follow\":true to stream"),
            api::JobHandle{id});

    std::string resultJson;
    if (job->haveResult) {
        resultJson = checkResultToJson(job->result);
    } else {
        // Recovered terminal job: replay the persisted verdict.
        std::string text;
        if (util::readFileToString(jobPath(id, ".result.json"),
                                   text)) {
            while (!text.empty() &&
                   (text.back() == '\n' || text.back() == '\r'))
                text.pop_back();
            resultJson = text;
        }
    }
    std::string out = ",\"event\":\"done\",\"status\":" +
                      jobStatusToJson(statusOf(job));
    if (!resultJson.empty())
        out += ",\"result\":" + resultJson;
    return okFrame(out);
}

} // namespace hieragen::svc
