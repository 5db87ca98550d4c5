#include "obs/statusserver.hh"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.hh"

namespace hieragen::obs
{

void
StatusHub::setSampler(SampleFn fn)
{
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = std::move(fn);
}

void
StatusHub::clearSampler()
{
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = nullptr;
}

bool
StatusHub::sample(ProgressSample &out) const
{
    SampleFn fn;
    {
        std::lock_guard<std::mutex> lock(mu_);
        fn = fn_;
    }
    if (!fn)
        return false;
    out = fn();
    return true;
}

void
StatusHub::setField(const std::string &key, const std::string &json)
{
    std::lock_guard<std::mutex> lock(mu_);
    fields_[key] = json;
}

std::map<std::string, std::string>
StatusHub::fields() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return fields_;
}

StatusServer::~StatusServer()
{
    stop();
}

bool
StatusServer::start(const std::string &socketPath,
                    const StatusHub *hub,
                    const MetricsRegistry *metrics)
{
    stop();
    hub_ = hub;
    metrics_ = metrics;
    started_ = std::chrono::steady_clock::now();
    havePrev_ = false;
    return server_.start(
        socketPath,
        [this](const std::string &verb, int fd) {
            return handle(verb, fd);
        },
        "{\"error\":\"request exceeds 1 MiB without a newline\"}\n");
}

void
StatusServer::stop()
{
    server_.stop();
}

bool
StatusServer::handle(const std::string &verb, int fd)
{
    std::string resp = verb == "status" ? statusJson()
                                        : scrape(verb, hub_, metrics_);
    if (resp.empty())
        resp = "{\"error\":\"unknown verb '" + verb +
               "' (try status|metrics|prom)\"}\n";
    util::sendAll(fd, resp);
    return false;  // one verb per connection: payload, then EOF
}

std::string
StatusServer::scrape(const std::string &verb, const StatusHub *hub,
                     const MetricsRegistry *metrics)
{
    if (verb == "metrics")
        return metrics ? metrics->toJson()
                       : std::string("{\"error\":\"no metrics "
                                     "registry\"}\n");
    if (verb != "prom")
        return "";
    std::string out = metrics ? metrics->toPrometheus()
                              : std::string("# no metrics registry\n");
    // The registry's run-total counters (checker.states_explored,
    // …) only land at finalize; a scraper watching a live run wants
    // the engine's relaxed-atomic sample too. Exported under
    // hieragen_live_* so the finalize-time families keep their
    // names, and only while an engine is registered.
    ProgressSample s{};
    if (hub != nullptr && hub->sample(s)) {
        std::ostringstream os;
        auto g = [&os](const char *name, uint64_t v) {
            os << "# TYPE hieragen_live_" << name << " gauge\n"
               << "hieragen_live_" << name << " " << v << "\n";
        };
        g("states_explored", s.statesExplored);
        g("states_generated", s.statesGenerated);
        g("transitions_fired", s.transitionsFired);
        g("queue_depth", s.queueDepth);
        g("est_memory_bytes", s.estMemoryBytes);
        g("rss_bytes", s.rssBytes);
        g("spilled_bytes", s.spilledBytes);
        out += os.str();
    }
    return out;
}

std::string
StatusServer::statusJson()
{
    // Connections are served concurrently; the rate state is shared.
    std::lock_guard<std::mutex> lock(rateMu_);
    auto now = std::chrono::steady_clock::now();
    double uptime =
        std::chrono::duration<double>(now - started_).count();
    std::ostringstream os;
    os << "{\"uptime_sec\":" << uptime;

    ProgressSample s{};
    bool live = hub_ && hub_->sample(s);
    os << ",\"running\":" << (live ? "true" : "false");
    if (live) {
        double dt =
            havePrev_
                ? std::chrono::duration<double>(now - prevTime_)
                      .count()
                : 0.0;
        ProgressStats st =
            computeProgress(havePrev_ ? prev_ : s, s,
                            dt > 0 ? dt : 1.0, uptime);
        os << ",\"sample\":{"
           << "\"states_explored\":" << s.statesExplored
           << ",\"states_generated\":" << s.statesGenerated
           << ",\"transitions_fired\":" << s.transitionsFired
           << ",\"queue_depth\":" << s.queueDepth
           << ",\"visited_entries\":" << s.visitedEntries
           << ",\"shards_occupied\":" << s.shardsOccupied
           << ",\"shard_count\":" << s.shardCount
           << ",\"est_memory_bytes\":" << s.estMemoryBytes
           << ",\"table_bytes\":" << s.tableBytes
           << ",\"rss_bytes\":" << s.rssBytes
           << ",\"workers\":" << s.workers
           << ",\"max_states\":" << s.maxStates
           << ",\"checkpoints_written\":" << s.checkpointsWritten
           << ",\"checkpoint_bytes\":" << s.checkpointBytes
           << ",\"spilled_bytes\":" << s.spilledBytes
           << ",\"spill_segments\":" << s.spillSegments
           << ",\"disk_probes\":" << s.diskProbes
           << ",\"disk_probe_hits\":" << s.diskProbeHits
           << ",\"spill_stall_ms\":" << s.spillStallMs << "}";
        os << ",\"derived\":{"
           << "\"states_per_sec\":"
           << (havePrev_ ? st.statesPerSec : 0.0)
           << ",\"dedup_hit_rate\":" << st.dedupHitRate
           << ",\"sym_time_share\":" << st.symTimeShare
           << ",\"eta_sec\":" << st.etaSec << "}";
        prev_ = s;
        prevTime_ = now;
        havePrev_ = true;
    }
    if (hub_) {
        for (const auto &kv : hub_->fields())
            os << ",\"" << kv.first << "\":" << kv.second;
    }
    os << "}\n";
    return os.str();
}

bool
StatusServer::query(const std::string &socketPath,
                    const std::string &verb, std::string &out,
                    std::string *err)
{
    out.clear();
    int fd = util::unixConnect(socketPath, err);
    if (fd < 0)
        return false;
    if (!util::sendAll(fd, verb + "\n")) {
        if (err)
            *err = std::string("send: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }
    char buf[4096];
    for (;;) {
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, 5000) <= 0)
            break;
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        out.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    if (out.empty() && err)
        *err = "empty response";
    return !out.empty();
}

} // namespace hieragen::obs
