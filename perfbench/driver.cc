/**
 * @file
 * The verdict benchmark's driver: its only view of the program.
 *
 * Every call into HieraGen goes through a public entry point
 * (dsl::compileProtocol, api::generate, verif::buildHierSystem,
 * api::VerifySession,
 * verif::CheckpointReader, svc::Client), so the benchmark measures
 * what an embedding or a `hieragen serve` client sees. run.py starts
 * one driver process per leg of a workload and reads the peak RSS of
 * each from wait4(); the driver itself prints one JSON object on
 * stdout.
 *
 * Subcommands:
 *
 *   verify        the flagship protocol (MSI/MSI non-stalling) at
 *                 --h x --l caches: SSP compile + generate + System
 *                 build, repeated --setup-reps times, then (unless
 *                 --verdict 0) one verification of the last rep's
 *                 System (optionally bounded, spilling,
 *                 checkpointing or resuming), or with
 *                 --verdict-seconds S, set-up + verification over
 *                 and over for S seconds.
 *   serve-setup   `hieragen serve` start -> first answered ping,
 *                 repeated; plus the ping round trip on a warm
 *                 connection.
 *   serve-client  closed-loop clients replaying a job stream file
 *                 against a running daemon until --seconds elapse
 *                 and --min-jobs are done.
 *   persist-probe cost of one atomic job-record write in a directory.
 *   pins          canonical state count of every serve_mix
 *                 configuration (recording the known answers).
 *
 * With --spans 1, the driver keeps a span (name, start, end, parent,
 * job id) around each call into a layer and writes them all out with
 * the result; timestamps are CLOCK_MONOTONIC nanoseconds, comparable
 * across the processes of one run.
 */

#include <fcntl.h>
#include <sched.h>
#include <poll.h>
#include <spawn.h>
#include <sys/inotify.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/hieragen.hh"
#include "dsl/lower.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "protocols/registry.hh"
#include "svc/client.hh"
#include "svc/json.hh"
#include "util/errors.hh"
#include "util/fileio.hh"
#include "verif/checkpoint.hh"
#include "verif/system.hh"

extern char **environ;

namespace
{

using namespace hieragen;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
msSince(int64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e6;
}

// ---------------------------------------------------------------
// Minimal JSON writer (the driver only emits JSON; run.py parses it).

std::string
jstr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jnum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string
jarr(const std::vector<double> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i)
        out += (i ? "," : "") + jnum(v[i]);
    return out + "]";
}

/** Accumulates "key":value members of one JSON object. */
class JObj
{
  public:
    JObj &raw(const std::string &k, const std::string &v)
    {
        body_ += (body_.empty() ? "" : ",") + jstr(k) + ":" + v;
        return *this;
    }
    JObj &num(const std::string &k, double v) { return raw(k, jnum(v)); }
    JObj &integer(const std::string &k, int64_t v)
    {
        return raw(k, std::to_string(v));
    }
    JObj &str(const std::string &k, const std::string &v)
    {
        return raw(k, jstr(v));
    }
    JObj &flag(const std::string &k, bool v)
    {
        return raw(k, v ? "true" : "false");
    }
    std::string done() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

// ---------------------------------------------------------------
// Spans, kept in memory and written once at the end.

struct Span
{
    std::string name;
    int64_t start = 0;
    int64_t end = 0;
    int parent = -1;
    uint64_t job = 0;
};

class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on) {}

    int
    begin(const std::string &name, int parent = -1, uint64_t job = 0)
    {
        if (!on_)
            return -1;
        std::lock_guard<std::mutex> lk(mu_);
        spans_.push_back({name, nowNs(), 0, parent, job});
        return static_cast<int>(spans_.size() - 1);
    }

    void
    end(int id, uint64_t job = 0)
    {
        if (id < 0)
            return;
        std::lock_guard<std::mutex> lk(mu_);
        spans_[id].end = nowNs();
        if (job)
            spans_[id].job = job;
    }

    std::string
    json() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        std::string out = "[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out += (i ? "," : "") + JObj()
                                        .num("id", static_cast<double>(i))
                                        .str("name", s.name)
                                        .integer("start", s.start)
                                        .integer("end", s.end)
                                        .num("parent", s.parent)
                                        .num("job", s.job)
                                        .done();
        }
        return out + "]";
    }

  private:
    bool on_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------
// Arguments: "--key value" pairs after the subcommand.

class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i < argc; ++i) {
            std::string k = argv[i];
            if (k.rfind("--", 0) != 0 || i + 1 >= argc)
                throw std::runtime_error("bad argument '" + k + "'");
            kv_[k.substr(2)] = argv[++i];
        }
    }

    std::string
    str(const std::string &k, const std::string &dflt = "") const
    {
        auto it = kv_.find(k);
        return it == kv_.end() ? dflt : it->second;
    }

    long long
    num(const std::string &k, long long dflt = 0) const
    {
        auto it = kv_.find(k);
        return it == kv_.end() ? dflt : std::stoll(it->second);
    }

    /** A numeric argument without a default. */
    long long
    need(const std::string &k) const
    {
        auto it = kv_.find(k);
        if (it == kv_.end())
            throw std::runtime_error("missing --" + k);
        return std::stoll(it->second);
    }

  private:
    std::map<std::string, std::string> kv_;
};

ConcurrencyMode
parseMode(const std::string &m)
{
    if (m == "atomic")
        return ConcurrencyMode::Atomic;
    if (m == "stalling")
        return ConcurrencyMode::Stalling;
    if (m == "nonstalling")
        return ConcurrencyMode::NonStalling;
    throw std::runtime_error("unknown mode '" + m + "'");
}

/** The engine verif::check() runs for a requested thread count. */
unsigned
resolvedThreads(unsigned requested)
{
    if (requested)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

// ---------------------------------------------------------------
// verify

// The flagship protocol every `verify` leg runs: MSI/MSI
// non-stalling. The cache counts (--h, --l) are the leg's.
const char *const kFlagshipLower = "MSI";
const char *const kFlagshipHigher = "MSI";
constexpr ConcurrencyMode kFlagshipMode = ConcurrencyMode::NonStalling;
// A --verdict-seconds leg runs at least this many verdicts.
constexpr size_t kMinVerdicts = 10;

/** One generated protocol and its System. Heap-held: the System
 *  points into the protocol, which must not move. */
struct Generated
{
    HierProtocol protocol;
    std::optional<verif::System> system;
    double rowsOut = 0;
};

struct SetupTimes
{
    std::vector<double> totalMs, dslMs, generateMs, systemMs;
    std::vector<std::string> passReports; ///< statsJson per rep (traced)
};

/**
 * One set-up rep on the user's path: compile both SSPs, api::generate,
 * buildHierSystem. Traced runs put a span around each of the three
 * layer calls and keep the pipeline's own per-pass report.
 */
std::unique_ptr<Generated>
setupRep(const std::string &lowerSrc, const std::string &higherSrc,
         ConcurrencyMode mode, int h, int l, SetupTimes &t,
         SpanLog &spans, bool traced)
{
    const int64_t t0 = nowNs();
    const int root = spans.begin("setup");

    int sp = spans.begin("dsl.compile", root);
    api::GenerateRequest req;
    req.ownLower(dsl::compileProtocol(lowerSrc));
    req.ownHigher(dsl::compileProtocol(higherSrc));
    req.mode = mode;
    spans.end(sp);
    const int64_t t1 = nowNs();

    sp = spans.begin("pipeline.generate", root);
    api::GenerateResult res = api::generate(req);
    spans.end(sp);
    const int64_t t2 = nowNs();
    if (!res.ok)
        throw std::runtime_error("generation failed in pass " +
                                 res.failedPass);
    auto g = std::make_unique<Generated>();
    g->protocol = std::move(res.protocol);
    for (const Machine *m : g->protocol.machines())
        g->rowsOut += static_cast<double>(m->numTransitions());

    sp = spans.begin("verif.system_build", root);
    g->system.emplace(verif::buildHierSystem(g->protocol, h, l));
    spans.end(sp);
    spans.end(root);
    const int64_t t3 = nowNs();

    t.totalMs.push_back(static_cast<double>(t3 - t0) / 1e6);
    t.dslMs.push_back(static_cast<double>(t1 - t0) / 1e6);
    t.generateMs.push_back(static_cast<double>(t2 - t1) / 1e6);
    t.systemMs.push_back(static_cast<double>(t3 - t2) / 1e6);
    if (traced) {
        // One line: run.py reads the last line of the output.
        std::replace(res.statsJson.begin(), res.statsJson.end(), '\n', ' ');
        t.passReports.push_back(std::move(res.statsJson));
    }
    return g;
}

std::string
sspSource(const std::string &name, long long seed)
{
    // The seed reaches the program as input text: a comment line
    // ahead of the builtin source, which compiles to the same SSP.
    return "// perfbench seed " + std::to_string(seed) + "\n" +
           protocols::builtinSource(name);
}

std::string
resultJson(const verif::CheckResult &r)
{
    const auto &ph = r.phases;
    return JObj()
        .flag("ok", r.ok)
        .str("error_kind", errorKindName(r.errorKind))
        .str("detail", r.detail)
        .num("states", static_cast<double>(r.statesExplored))
        .num("states_generated", static_cast<double>(r.statesGenerated))
        .num("transitions", static_cast<double>(r.transitionsFired))
        .num("ample_expansions", static_cast<double>(r.ampleExpansions))
        .flag("por", r.partialOrderReduction)
        .flag("symmetry", r.symmetryReduction)
        .flag("resumable", r.resumable)
        .flag("resumed", r.resumedFromCheckpoint)
        .flag("spilled", r.spilledToDisk)
        .num("spilled_bytes", static_cast<double>(r.spilledBytes))
        .num("spill_segments", static_cast<double>(r.spillSegmentsWritten))
        .num("disk_probes", static_cast<double>(r.diskProbes))
        .num("disk_probe_hits", static_cast<double>(r.diskProbeHits))
        .num("spill_stall_ms", r.spillStallMs)
        .num("checkpoints_written", static_cast<double>(r.checkpointsWritten))
        .num("checkpoint_bytes", static_cast<double>(r.checkpointBytes))
        .flag("phases", ph.enabled)
        .num("expand_ms", ph.expandMs)
        .num("encode_ms", ph.encodeMs)
        .num("canonicalize_ms", ph.canonicalizeMs)
        .num("insert_ms", ph.insertMs)
        .done();
}

/** Pin the calling thread to the single CPU @p cpu. */
void
pinTo(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0)
        throw std::runtime_error("sched_setaffinity failed");
}

/**
 * Set-up + verdict, again and again until @p seconds have passed (at
 * least kMinVerdicts times). Each rep runs on the next CPU the process
 * may use, so that no one CPU's spell of slowness holds every rep.
 * Prints each verdict's time and canonical state count.
 */
int
repeatedVerdicts(const std::string &lowerSrc, const std::string &higherSrc,
                 int h, int l, const verif::CheckOptions &co,
                 const JObj &setup, long long seconds)
{
    cpu_set_t allowed;
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);

    const int64_t deadline = nowNs() + seconds * 1'000'000'000LL;
    std::vector<double> verdictS, states;
    bool ok = true;
    SpanLog none(false);
    SetupTimes st;
    for (size_t i = 0; i < kMinVerdicts || nowNs() < deadline; ++i) {
        pinTo(cpus[i % cpus.size()]);
        std::unique_ptr<Generated> g = setupRep(
            lowerSrc, higherSrc, kFlagshipMode, h, l, st, none, false);
        const int64_t v0 = nowNs();
        api::VerifySession session(std::move(*g->system), co);
        const verif::CheckResult &r = session.run();
        verdictS.push_back(msSince(v0) / 1e3);
        states.push_back(static_cast<double>(r.statesExplored));
        ok = ok && r.ok;
    }
    std::cout << JObj()
                     .raw("setup", setup.done())
                     .raw("verdicts_s", jarr(verdictS))
                     .raw("states", jarr(states))
                     .flag("ok", ok)
                     .num("threads_resolved", resolvedThreads(co.numThreads))
                     .done()
              << std::endl;
    return 0;
}

int
cmdVerify(const Args &a)
{
    const long long seed = a.num("seed");
    const int reps = static_cast<int>(std::max(1LL, a.num("setup-reps", 1)));
    const bool traced = a.num("spans") != 0;
    const unsigned threads = static_cast<unsigned>(a.num("threads", 1));
    const int h = static_cast<int>(a.need("h"));
    const int l = static_cast<int>(a.need("l"));
    SpanLog spans(traced);

    const std::string lowerSrc = sspSource(kFlagshipLower, seed);
    const std::string higherSrc = sspSource(kFlagshipHigher, seed);

    SetupTimes st;
    std::unique_ptr<Generated> g;
    for (int i = 0; i < reps; ++i) {
        g = setupRep(lowerSrc, higherSrc, kFlagshipMode, h, l, st, spans,
                     traced);
    }

    JObj setup;
    setup.raw("total_ms", jarr(st.totalMs));
    if (traced) {
        std::string reports = "[";
        for (size_t i = 0; i < st.passReports.size(); ++i)
            reports += (i ? "," : "") + st.passReports[i];
        setup.raw("dsl_ms", jarr(st.dslMs))
            .raw("generate_ms", jarr(st.generateMs))
            .raw("system_ms", jarr(st.systemMs))
            .num("rows_out", g->rowsOut)
            .raw("pass_reports", reports + "]");
    }
    if (a.num("verdict", 1) == 0) {
        std::cout << JObj().raw("setup", setup.done()).done() << std::endl;
        return 0;
    }

    verif::CheckOptions co;
    co.numThreads = threads;
    co.traceOnError = a.num("trace-store", 1) != 0;
    co.partialOrderReduction = a.num("por", 1) != 0;
    if (a.num("verdict-seconds"))
        return repeatedVerdicts(lowerSrc, higherSrc, h, l, co, setup,
                                a.num("verdict-seconds"));
    co.phaseTiming = a.num("phases") != 0;
    if (a.num("max-states"))
        co.maxStates = static_cast<uint64_t>(a.num("max-states"));

    // The checkpoint file is read once on its own (the reader's
    // cost), before the session loads it again to resume.
    double readMs = 0.0;
    const std::string resume = a.str("resume");
    if (!resume.empty() && a.num("read-ckpt")) {
        int64_t s = nowNs();
        int sp = spans.begin("checkpoint.read");
        verif::CheckpointData data;
        verif::CheckpointIo io =
            verif::CheckpointReader().read(resume, data);
        spans.end(sp);
        readMs = msSince(s);
        if (!io.ok)
            throw std::runtime_error("checkpoint read: " + io.error);
    }

    int64_t v0 = nowNs();
    int vsp = spans.begin("verdict");
    api::VerifySession session(std::move(*g->system), co);
    if (!a.str("checkpoint").empty())
        session.checkpointTo(a.str("checkpoint"), 30.0);
    if (a.num("mem-mb"))
        session.memoryLimit(static_cast<uint64_t>(a.num("mem-mb")) << 20);
    if (!a.str("spill").empty())
        session.spillTo(a.str("spill"));
    obs::MetricsRegistry reg;
    obs::Telemetry tel;
    tel.metrics = &reg;
    if (a.num("metrics"))
        session.telemetry(&tel);
    if (!resume.empty()) {
        int sp = spans.begin("checkpoint.resume", vsp);
        bool ok = session.resumeFrom(resume);
        spans.end(sp);
        if (!ok)
            throw std::runtime_error("resume: " + session.error());
    }
    int csp = spans.begin("checker.run", vsp);
    const verif::CheckResult &r = session.run();
    spans.end(csp);
    spans.end(vsp);
    double verdictS = msSince(v0) / 1e3;

    JObj out;
    out.raw("setup", setup.done())
        .num("verdict_s", verdictS)
        .num("checkpoint_read_ms", readMs)
        .num("threads_requested", threads)
        .num("threads_resolved", resolvedThreads(threads))
        .flag("trace_store", co.traceOnError)
        .raw("result", resultJson(r));
    if (a.num("metrics")) {
        out.num("workers_gauge", reg.gauge("checker.workers").value())
            .num("checkpoint_last_write_ms",
                 reg.gauge("checkpoint.last_write_ms").value());
    }
    if (traced)
        out.raw("spans", spans.json());
    std::cout << out.done() << std::endl;
    return 0;
}

// ---------------------------------------------------------------
// serve-setup

pid_t
spawnDaemon(const std::string &hieragen, const std::string &sock,
            const std::string &stateDir, const std::string &workers)
{
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
    std::vector<std::string> argv = {hieragen, "serve", sock,
                                     "--state-dir", stateDir,
                                     "--workers", workers};
    std::vector<char *> cargv;
    for (auto &s : argv)
        cargv.push_back(s.data());
    cargv.push_back(nullptr);
    pid_t pid = -1;
    int rc = posix_spawn(&pid, hieragen.c_str(), &fa, nullptr,
                         cargv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
        throw std::runtime_error("cannot spawn '" + hieragen + "'");
    return pid;
}

bool
ping(svc::Client &c)
{
    svc::JsonValue reply;
    return c.call("{\"op\":\"ping\"}", reply) && reply.boolean("ok");
}

/**
 * Block until a file named @p name appears in the directory @p fd
 * watches (inotify IN_CREATE), or @p deadline passes. The daemon
 * binds its socket just before it listens, so the wait costs the
 * starting daemon no CPU, unlike polling connect().
 */
bool
awaitCreate(int fd, const std::string &name, int64_t deadline)
{
    alignas(inotify_event) char buf[4096];
    for (;;) {
        const int64_t left = deadline - nowNs();
        if (left <= 0)
            return false;
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, static_cast<int>(left / 1'000'000) + 1) <= 0)
            continue;
        ssize_t n = ::read(fd, buf, sizeof buf);
        for (ssize_t off = 0; off < n;) {
            const auto *ev = reinterpret_cast<const inotify_event *>(buf + off);
            if (ev->len && name == ev->name)
                return true;
            off += static_cast<ssize_t>(sizeof(inotify_event) + ev->len);
        }
    }
}

int
cmdServeSetup(const Args &a)
{
    const std::string hieragen = a.str("hieragen");
    const std::string dir = a.str("dir");
    const std::string workers = std::to_string(a.need("workers"));
    const int reps = static_cast<int>(a.need("reps"));
    SpanLog spans(a.num("spans") != 0);
    std::vector<double> startMs, pingMs;
    // One watch for every rep: closing an inotify instance waits for
    // an RCU grace period, milliseconds the reps must not include.
    const int ino = ::inotify_init1(IN_CLOEXEC);
    if (ino < 0 || ::inotify_add_watch(ino, dir.c_str(), IN_CREATE) < 0)
        throw std::runtime_error("inotify on '" + dir + "' failed");
    for (int i = 0; i < reps; ++i) {
        const std::string name = "s" + std::to_string(i) + ".sock";
        const std::string sock = dir + "/" + name;
        const std::string state = dir + "/st" + std::to_string(i);
        ::unlink(sock.c_str());
        const int64_t t0 = nowNs();
        const int64_t deadline = t0 + 20'000'000'000LL;
        int sp = spans.begin("svc.start");
        pid_t pid = spawnDaemon(hieragen, sock, state, workers);
        svc::Client c;
        bool up = awaitCreate(ino, name, deadline);
        // Between bind() and listen() a connect is refused; retry.
        while (up && !(c.connect(sock) && ping(c))) {
            c.close();
            up = nowNs() < deadline;
            ::usleep(100);
        }
        spans.end(sp);
        startMs.push_back(msSince(t0));
        bool ok = up;
        if (up) {
            for (int k = 0; k < 5; ++k) {
                int64_t p0 = nowNs();
                int ps = spans.begin("svc.ping");
                ok = ok && ping(c);
                spans.end(ps);
                pingMs.push_back(msSince(p0));
            }
            ok = c.shutdown() && ok;
        }
        if (!ok)
            ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
        if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("daemon rep " + std::to_string(i) +
                                     " did not start or stop cleanly");
    }
    ::close(ino);
    JObj out;
    out.raw("start_ms", jarr(startMs)).raw("ping_ms", jarr(pingMs));
    if (a.num("spans"))
        out.raw("spans", spans.json());
    std::cout << out.done() << std::endl;
    return 0;
}

// ---------------------------------------------------------------
// serve-client

struct StreamJob
{
    std::string lower, higher, mode;
    int h = 1, l = 1;
};

struct JobRecord
{
    size_t index = 0;
    int64_t submitStart = 0, submitEnd = 0, done = 0;
    api::JobStatus status;
    bool transportOk = false;
    std::string error;
};

int
cmdServeClient(const Args &a)
{
    std::vector<StreamJob> stream;
    {
        std::istringstream in(readFile(a.str("stream")));
        StreamJob j;
        while (in >> j.lower >> j.higher >> j.mode >> j.h >> j.l)
            stream.push_back(j);
    }
    if (stream.empty())
        throw std::runtime_error("empty job stream");
    const std::string sock = a.str("socket");
    const int clients = static_cast<int>(a.need("clients"));
    const int64_t deadline =
        nowNs() + static_cast<int64_t>(a.num("seconds", 10)) * 1'000'000'000LL;
    // On a slow host the clients go on past the deadline until this
    // many jobs are done, so that the run still has enough to measure.
    const size_t minJobs = static_cast<size_t>(a.need("min-jobs"));
    SpanLog spans(a.num("spans") != 0);

    std::atomic<size_t> next{0}, done{0};
    std::vector<std::vector<JobRecord>> perClient(clients);
    std::vector<std::string> clientErr(clients);
    auto worker = [&](int ci) {
        // The daemon may still be binding its socket.
        svc::Client c;
        while (!c.connect(sock)) {
            if (nowNs() >= deadline) {
                clientErr[ci] = c.error().str();
                return;
            }
            ::usleep(1000);
        }
        for (;;) {
            if (nowNs() >= deadline && done.load() >= minJobs)
                return;
            size_t i = next.fetch_add(1);
            if (i >= stream.size())
                return;
            const StreamJob &sj = stream[i];
            api::JobSpec spec;
            spec.lowerName = sj.lower;
            spec.higherName = sj.higher;
            spec.mode = parseMode(sj.mode);
            spec.numCacheH = sj.h;
            spec.numCacheL = sj.l;
            JobRecord rec;
            rec.index = i;
            rec.submitStart = nowNs();
            int root = spans.begin("svc.job");
            int sp = spans.begin("svc.submit", root);
            api::JobHandle id;
            bool ok = c.submit(spec, id);
            rec.submitEnd = nowNs();
            spans.end(sp, id.id);
            if (ok) {
                sp = spans.begin("svc.wait", root, id.id);
                std::string verdict;
                ok = c.result(id, /*follow=*/true, rec.status, verdict);
                spans.end(sp);
            }
            rec.done = nowNs();
            spans.end(root, id.id);
            rec.transportOk = ok;
            if (!ok)
                rec.error = c.error().str();
            perClient[ci].push_back(rec);
            if (!ok)
                return;
            done.fetch_add(1);
        }
    };
    std::vector<std::thread> threads;
    for (int ci = 0; ci < clients; ++ci)
        threads.emplace_back(worker, ci);
    for (auto &t : threads)
        t.join();

    std::string jobs = "[";
    bool first = true;
    for (const auto &recs : perClient) {
        for (const JobRecord &r : recs) {
            const StreamJob &sj = stream[r.index];
            jobs += (first ? "" : ",") +
                    JObj()
                        .num("index", static_cast<double>(r.index))
                        .num("id", static_cast<double>(r.status.handle.id))
                        .str("lower", sj.lower)
                        .str("higher", sj.higher)
                        .str("mode", sj.mode)
                        .num("h", sj.h)
                        .num("l", sj.l)
                        .integer("submit_start", r.submitStart)
                        .integer("submit_end", r.submitEnd)
                        .integer("done", r.done)
                        .flag("transport_ok", r.transportOk)
                        .str("error", r.error)
                        .str("state", api::jobStateName(r.status.state))
                        .flag("cache_hit", r.status.cacheHit)
                        .flag("verify_ok", r.status.verifyOk)
                        .num("states",
                             static_cast<double>(r.status.statesExplored))
                        .num("states_generated",
                             static_cast<double>(r.status.statesGenerated))
                        .num("elapsed_s", r.status.elapsedSec)
                        .done();
            first = false;
        }
    }
    jobs += "]";
    std::string errs = "[";
    for (int ci = 0; ci < clients; ++ci)
        errs += (ci ? "," : "") + jstr(clientErr[ci]);
    errs += "]";

    bool stopped = true;
    if (a.num("shutdown")) {
        svc::Client c;
        stopped = c.connect(sock) && c.shutdown();
    }
    JObj out;
    out.raw("jobs", jobs).raw("client_errors", errs).flag("shutdown_ok", stopped);
    if (a.num("spans"))
        out.raw("spans", spans.json());
    std::cout << out.done() << std::endl;
    return 0;
}

// ---------------------------------------------------------------
// persist-probe: one atomic record write (temp + fsync + rename),
// the primitive the daemon persists every job transition with.

int
cmdPersistProbe(const Args &a)
{
    // About the size of one job record.
    constexpr size_t kRecordBytes = 600;
    constexpr int kWrites = 50;
    const std::string path = a.str("dir") + "/probe.json";
    const std::string record(kRecordBytes, 'x');
    std::vector<double> ms;
    for (int i = 0; i < kWrites; ++i) {
        int64_t t0 = nowNs();
        util::AtomicFileWriter w;
        if (!w.open(path) || !w.append(record.data(), record.size()) ||
            !w.commit())
            throw std::runtime_error("persist probe: " + w.error());
        ms.push_back(msSince(t0));
    }
    ::unlink(path.c_str());
    std::cout << JObj().raw("write_ms", jarr(ms)).done() << std::endl;
    return 0;
}

// ---------------------------------------------------------------
// pins: canonical state counts for every serve_mix configuration,
// with the daemon's engine settings (library defaults, 1 thread).

int
cmdPins(const Args &a)
{
    const bool por = a.num("por", 1) != 0;
    std::string out = "[";
    bool first = true;
    for (const std::string &lo : protocols::builtinNames()) {
        for (const std::string &hi : protocols::builtinNames()) {
            for (const char *mode : {"stalling", "nonstalling"}) {
                for (auto [h, l] : {std::pair{1, 1}, {2, 1}, {1, 2}}) {
                    SetupTimes t;
                    SpanLog none(false);
                    auto g = setupRep(protocols::builtinSource(lo),
                                      protocols::builtinSource(hi),
                                      parseMode(mode), h, l, t, none,
                                      false);
                    verif::CheckOptions co;
                    co.numThreads = 1;
                    co.partialOrderReduction = por;
                    int64_t t0 = nowNs();
                    api::VerifySession s(std::move(*g->system), co);
                    const verif::CheckResult &r = s.run();
                    out += (first ? "" : ",") +
                           JObj()
                               .str("key", lo + "/" + hi + "/" + mode +
                                               "/" + std::to_string(h) +
                                               "h" + std::to_string(l) +
                                               "l")
                               .flag("ok", r.ok)
                               .num("states",
                                    static_cast<double>(r.statesExplored))
                               .num("ms", msSince(t0))
                               .done();
                    first = false;
                }
            }
        }
    }
    std::cout << out << "]" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: perfbench_driver "
                     "verify|serve-setup|serve-client|persist-probe|pins "
                     "[--key value]...\n";
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        Args a(argc, argv);
        if (cmd == "verify")
            return cmdVerify(a);
        if (cmd == "serve-setup")
            return cmdServeSetup(a);
        if (cmd == "serve-client")
            return cmdServeClient(a);
        if (cmd == "persist-probe")
            return cmdPersistProbe(a);
        if (cmd == "pins")
            return cmdPins(a);
        std::cerr << "unknown subcommand '" << cmd << "'\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver " << cmd << ": " << e.what() << "\n";
        return 1;
    }
}
