/**
 * @file
 * Service layer coverage (src/svc): the JSON frame reader, the
 * JobSpec/JobStatus wire codecs, the generation cache's fingerprint
 * and in-flight dedup, and the daemon end-to-end over a real unix
 * socket — submit/result, duplicate-submit cache hits, cancellation,
 * malformed-frame rejection, restart recovery, and the acceptance
 * pin: a slice-preempted, daemon-restarted job finishes with the
 * exact verdict and state count of an uninterrupted run. The
 * 4-concurrent-client test is also a ThreadSanitizer CI target.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/hieragen.hh"
#include "core/hiera.hh"
#include "protocols/registry.hh"
#include "svc/cache.hh"
#include "svc/client.hh"
#include "svc/daemon.hh"
#include "svc/json.hh"
#include "svc/proto.hh"
#include "util/errors.hh"
#include "util/fileio.hh"
#include "verif/checker.hh"

namespace hieragen
{
namespace
{

/** Short per-process socket path (sun_path caps at ~108 bytes, so
 *  the gtest TempDir + long names are risky). */
std::string
sockPath(const std::string &name)
{
    return "/tmp/hg." + std::to_string(::getpid()) + "." + name;
}

/** Scratch state directory, removed with its contents on scope
 *  exit. */
struct StateDir
{
    std::string path;

    explicit StateDir(const std::string &name)
        : path("/tmp/hgsvc." + std::to_string(::getpid()) + "." +
               name)
    {
        ::mkdir(path.c_str(), 0700);
    }

    ~StateDir()
    {
        std::string cmd = "rm -rf '" + path + "'";
        if (std::system(cmd.c_str()) != 0) {
        }
    }
};

/** One raw request over a fresh connection. JSON-RPC frames answer
 *  with one line; the bare scrape verbs (status/metrics/prom) close
 *  the connection after a multi-line payload, so @p toEof reads the
 *  whole thing. */
std::string
rawCall(const std::string &sock, const std::string &frame,
        bool toEof = false)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(),
                 sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    std::string line = frame + "\n";
    EXPECT_EQ(::write(fd, line.data(), line.size()),
              static_cast<ssize_t>(line.size()));
    std::string reply;
    char buf[4096];
    for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0)
            break;
        reply.append(buf, static_cast<size_t>(n));
        if (!toEof && reply.find('\n') != std::string::npos)
            break;
    }
    ::close(fd);
    if (toEof)
        return reply;
    size_t nl = reply.find('\n');
    return nl == std::string::npos ? reply : reply.substr(0, nl);
}

api::JobSpec
smallSpec()
{
    // MSI/MSI non-stalling 1H+1L: ~1.8k states, instant PASS.
    api::JobSpec spec;
    spec.lowerName = "MSI";
    spec.higherName = "MSI";
    spec.mode = ConcurrencyMode::NonStalling;
    return spec;
}

/** ~1.8M canonical states, several seconds of exploration: long
 *  enough that a slice preemption and a daemon restart both land
 *  mid-run deterministically. */
api::JobSpec
bigSpec()
{
    api::JobSpec spec;
    spec.lowerName = "MOESI";
    spec.higherName = "MOESI";
    spec.mode = ConcurrencyMode::NonStalling;
    spec.numCacheH = 2;
    spec.numCacheL = 2;
    return spec;
}

bool
waitTerminal(svc::Client &c, api::JobHandle id, api::JobStatus &st,
             double timeoutSec = 120.0)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(timeoutSec);
    while (std::chrono::steady_clock::now() < deadline) {
        if (!c.status(id, st))
            return false;
        if (api::jobStateTerminal(st.state))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
}

// ---------------------------------------------------------------
// JSON reader

TEST(SvcJson, ParsesScalarsObjectsArrays)
{
    svc::JsonValue v;
    ASSERT_TRUE(svc::parseJson(
        R"({"a":1,"b":"x\n\"y","c":[true,false,null],"d":{"e":-2.5}})",
        v));
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.uint("a"), 1u);
    EXPECT_EQ(v.str("b"), "x\n\"y");
    const svc::JsonValue *c = v.find("c");
    ASSERT_TRUE(c && c->isArray());
    ASSERT_EQ(c->items().size(), 3u);
    EXPECT_TRUE(c->items()[0].asBool());
    EXPECT_TRUE(c->items()[2].isNull());
    const svc::JsonValue *d = v.find("d");
    ASSERT_TRUE(d && d->isObject());
    EXPECT_DOUBLE_EQ(d->find("e")->asNumber(), -2.5);
}

TEST(SvcJson, Uint64SurvivesRoundTrip)
{
    // Numbers keep their source text, so ids above 2^53 survive.
    svc::JsonValue v;
    ASSERT_TRUE(
        svc::parseJson(R"({"id":18446744073709551615})", v));
    EXPECT_EQ(v.uint("id"), UINT64_MAX);
    EXPECT_NE(svc::writeJson(v).find("18446744073709551615"),
              std::string::npos);
}

TEST(SvcJson, RejectsMalformedDocuments)
{
    svc::JsonValue v;
    std::string err;
    EXPECT_FALSE(svc::parseJson("{\"op\": nonsense}", v, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(svc::parseJson("{\"a\":1", v));
    EXPECT_FALSE(svc::parseJson("{\"a\":1} trailing", v));
    EXPECT_FALSE(svc::parseJson("", v));
    // Deep nesting is bounded, not a stack overflow.
    std::string deep(200, '[');
    deep += std::string(200, ']');
    EXPECT_FALSE(svc::parseJson(deep, v));
}

TEST(SvcJson, WriteJsonRoundTrips)
{
    const std::string src =
        R"({"s":"a\\b","n":[1,2.5,-3],"o":{"t":true},"z":null})";
    svc::JsonValue v;
    ASSERT_TRUE(svc::parseJson(src, v));
    svc::JsonValue again;
    ASSERT_TRUE(svc::parseJson(svc::writeJson(v), again));
    EXPECT_EQ(svc::writeJson(v), svc::writeJson(again));
}

// ---------------------------------------------------------------
// Wire codecs

TEST(SvcProto, JobSpecRoundTrip)
{
    api::JobSpec spec;
    spec.lowerName = "MESI";
    spec.higherName = "MOSI";
    spec.mode = ConcurrencyMode::NonStalling;
    spec.optimizedCompat = true;
    spec.mergeEquivalentStates = false;
    spec.dirCacheEvictions = false;
    spec.numCacheH = 3;
    spec.numCacheL = 2;
    spec.maxStates = 12345;
    spec.threads = 4;
    spec.label = "round \"trip\"";

    svc::JsonValue v;
    ASSERT_TRUE(svc::parseJson(svc::jobSpecToJson(spec), v));
    api::JobSpec out;
    ASSERT_TRUE(svc::jobSpecFromJson(v, out));
    EXPECT_EQ(out.lowerName, spec.lowerName);
    EXPECT_EQ(out.higherName, spec.higherName);
    EXPECT_EQ(out.mode, spec.mode);
    EXPECT_EQ(out.optimizedCompat, spec.optimizedCompat);
    EXPECT_EQ(out.mergeEquivalentStates, spec.mergeEquivalentStates);
    EXPECT_EQ(out.dirCacheEvictions, spec.dirCacheEvictions);
    EXPECT_EQ(out.numCacheH, spec.numCacheH);
    EXPECT_EQ(out.numCacheL, spec.numCacheL);
    EXPECT_EQ(out.maxStates, spec.maxStates);
    EXPECT_EQ(out.threads, spec.threads);
    EXPECT_EQ(out.label, spec.label);
}

TEST(SvcProto, JobStatusRoundTrip)
{
    api::JobStatus st;
    st.handle = api::JobHandle{7};
    st.state = api::JobState::Preempted;
    st.error = Error(ErrorKind::StateLimit, "cap");
    st.label = "lbl";
    st.cacheHit = true;
    st.statesExplored = 99;
    st.statesGenerated = 321;
    st.elapsedSec = 1.5;
    st.preemptions = 2;

    svc::JsonValue v;
    ASSERT_TRUE(svc::parseJson(svc::jobStatusToJson(st), v));
    api::JobStatus out;
    ASSERT_TRUE(svc::jobStatusFromJson(v, out));
    EXPECT_EQ(out.handle.id, 7u);
    EXPECT_EQ(out.state, api::JobState::Preempted);
    EXPECT_EQ(out.error.kind, ErrorKind::StateLimit);
    EXPECT_EQ(out.error.message, "cap");
    EXPECT_EQ(out.label, "lbl");
    EXPECT_TRUE(out.cacheHit);
    EXPECT_EQ(out.statesExplored, 99u);
    EXPECT_EQ(out.statesGenerated, 321u);
    EXPECT_NEAR(out.elapsedSec, 1.5, 1e-9);
    EXPECT_EQ(out.preemptions, 2u);
}

TEST(SvcProto, JobStateNamesRoundTrip)
{
    using api::JobState;
    for (JobState s :
         {JobState::Queued, JobState::Generating, JobState::Running,
          JobState::Preempted, JobState::Done, JobState::Failed,
          JobState::Cancelled})
        EXPECT_EQ(api::jobStateFromName(api::jobStateName(s)), s);
    EXPECT_TRUE(api::jobStateTerminal(JobState::Done));
    EXPECT_TRUE(api::jobStateTerminal(JobState::Cancelled));
    EXPECT_FALSE(api::jobStateTerminal(JobState::Preempted));
}

TEST(SvcProto, ValidateRejectsIncoherentSpecs)
{
    api::JobSpec spec = smallSpec();
    EXPECT_TRUE(svc::validateJobSpec(spec).ok());

    spec.lowerName = "NOPE";
    EXPECT_FALSE(svc::validateJobSpec(spec).ok());

    spec = smallSpec();
    spec.numCacheH = 0;
    EXPECT_FALSE(svc::validateJobSpec(spec).ok());

    spec = smallSpec();
    spec.lowerName.clear();  // neither a name nor DSL text
    EXPECT_FALSE(svc::validateJobSpec(spec).ok());
}

// ---------------------------------------------------------------
// Generation cache

TEST(GenCache, FingerprintTracksGenerationInputsOnly)
{
    api::JobSpec a = smallSpec();
    api::JobSpec b = smallSpec();
    uint64_t fa = svc::GenCache::specFingerprint(a);
    ASSERT_NE(fa, 0u);
    EXPECT_EQ(fa, svc::GenCache::specFingerprint(b));

    // Verification-only knobs don't move the key: the cached tables
    // are the same protocol regardless of layout or thread count.
    b.numCacheH = 3;
    b.threads = 8;
    b.maxStates = 10;
    b.label = "other";
    EXPECT_EQ(fa, svc::GenCache::specFingerprint(b));

    // Generation inputs do.
    b = smallSpec();
    b.higherName = "MESI";
    EXPECT_NE(fa, svc::GenCache::specFingerprint(b));
    b = smallSpec();
    b.mode = ConcurrencyMode::Stalling;
    EXPECT_NE(fa, svc::GenCache::specFingerprint(b));
    b = smallSpec();
    b.mergeEquivalentStates = false;
    EXPECT_NE(fa, svc::GenCache::specFingerprint(b));

    api::JobSpec bad = smallSpec();
    bad.lowerName = "NOPE";
    Error err;
    EXPECT_EQ(svc::GenCache::specFingerprint(bad, &err), 0u);
    EXPECT_FALSE(err.ok());
}

TEST(GenCache, SecondLookupHitsAndSharesTheBundle)
{
    svc::GenCache cache;
    Error err;
    bool hit = true;
    auto first = cache.getOrGenerate(smallSpec(), err, hit);
    ASSERT_TRUE(first) << err.str();
    EXPECT_FALSE(hit);

    auto second = cache.getOrGenerate(smallSpec(), err, hit);
    ASSERT_TRUE(second);
    EXPECT_TRUE(hit);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(GenCache, FailuresAreNotCached)
{
    svc::GenCache cache;
    api::JobSpec bad = smallSpec();
    bad.lowerName = "NOPE";
    Error err;
    bool hit = false;
    EXPECT_FALSE(cache.getOrGenerate(bad, err, hit));
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(cache.entries(), 0u);
}

// ---------------------------------------------------------------
// Daemon end-to-end

TEST(Daemon, SubmitRunsToDoneWithResult)
{
    StateDir dir("done");
    svc::ServeOptions so;
    so.socketPath = sockPath("done");
    so.stateDir = dir.path;
    so.workers = 2;
    svc::Daemon d(so);
    ASSERT_TRUE(d.start()) << d.error();

    svc::Client c;
    ASSERT_TRUE(c.connect(so.socketPath));
    api::JobHandle id;
    ASSERT_TRUE(c.submit(smallSpec(), id)) << c.error().str();
    EXPECT_TRUE(id.valid());

    api::JobStatus st;
    std::string resultJson;
    unsigned heartbeats = 0;
    ASSERT_TRUE(c.result(id, /*follow=*/true, st, resultJson,
                         [&](const api::JobStatus &) {
                             ++heartbeats;
                         }))
        << c.error().str();
    EXPECT_EQ(st.state, api::JobState::Done);
    EXPECT_TRUE(st.verifyOk);
    EXPECT_GT(st.statesExplored, 0u);
    ASSERT_FALSE(resultJson.empty());
    svc::JsonValue r;
    ASSERT_TRUE(svc::parseJson(resultJson, r));
    EXPECT_TRUE(r.boolean("ok"));
    EXPECT_EQ(r.uint("states_explored"), st.statesExplored);

    d.stop();
}

TEST(Daemon, DuplicateSubmitHitsTheGenerationCache)
{
    StateDir dir("dup");
    svc::ServeOptions so;
    so.socketPath = sockPath("dup");
    so.stateDir = dir.path;
    so.workers = 1;
    svc::Daemon d(so);
    ASSERT_TRUE(d.start()) << d.error();

    svc::Client c;
    ASSERT_TRUE(c.connect(so.socketPath));
    api::JobHandle a, b, other;
    ASSERT_TRUE(c.submit(smallSpec(), a));
    ASSERT_TRUE(c.submit(smallSpec(), b));
    EXPECT_NE(a.id, b.id);  // a duplicate is a new job, not an alias
    api::JobSpec distinct = smallSpec();
    distinct.higherName = "MESI";
    ASSERT_TRUE(c.submit(distinct, other));

    api::JobStatus sa, sb, so2;
    ASSERT_TRUE(waitTerminal(c, a, sa));
    ASSERT_TRUE(waitTerminal(c, b, sb));
    ASSERT_TRUE(waitTerminal(c, other, so2));
    EXPECT_EQ(sa.state, api::JobState::Done);
    EXPECT_EQ(sb.state, api::JobState::Done);
    EXPECT_EQ(so2.state, api::JobState::Done);
    EXPECT_FALSE(sa.cacheHit);
    EXPECT_TRUE(sb.cacheHit);
    EXPECT_FALSE(so2.cacheHit);
    EXPECT_EQ(sa.statesExplored, sb.statesExplored);
    EXPECT_EQ(d.cache().hits(), 1u);
    EXPECT_EQ(d.cache().misses(), 2u);

    d.stop();
}

TEST(Daemon, RejectsBadSpecsAndUnknownJobs)
{
    StateDir dir("rej");
    svc::ServeOptions so;
    so.socketPath = sockPath("rej");
    so.stateDir = dir.path;
    svc::Daemon d(so);
    ASSERT_TRUE(d.start()) << d.error();

    svc::Client c;
    ASSERT_TRUE(c.connect(so.socketPath));
    api::JobSpec bad = smallSpec();
    bad.lowerName = "NOPE";
    api::JobHandle id;
    EXPECT_FALSE(c.submit(bad, id));
    EXPECT_FALSE(c.error().ok());

    api::JobStatus st;
    EXPECT_FALSE(c.status(api::JobHandle{999}, st));
    EXPECT_EQ(c.error().kind, ErrorKind::NotFound);

    d.stop();
}

TEST(Daemon, MalformedFramesAreRejectedNotFatal)
{
    StateDir dir("mal");
    svc::ServeOptions so;
    so.socketPath = sockPath("mal");
    so.stateDir = dir.path;
    svc::Daemon d(so);
    ASSERT_TRUE(d.start()) << d.error();

    for (const char *frame :
         {"{\"op\": nonsense}", "{\"op\":\"no-such-op\"}", "{}",
          "{\"op\":\"status\"}"}) {
        std::string reply = rawCall(so.socketPath, frame);
        svc::JsonValue v;
        ASSERT_TRUE(svc::parseJson(reply, v)) << reply;
        EXPECT_FALSE(v.boolean("ok", true)) << reply;
        const svc::JsonValue *err = v.find("error");
        ASSERT_TRUE(err) << reply;
        EXPECT_FALSE(err->str("kind").empty()) << reply;
    }

    // The statusserver-compatible bare verbs still answer.
    std::string metrics =
        rawCall(so.socketPath, "metrics", /*toEof=*/true);
    svc::JsonValue m;
    EXPECT_TRUE(svc::parseJson(metrics, m)) << metrics;
    EXPECT_TRUE(m.find("counters") != nullptr);

    // And the daemon survived all of it.
    svc::Client c;
    ASSERT_TRUE(c.connect(so.socketPath));
    api::JobHandle id;
    EXPECT_TRUE(c.submit(smallSpec(), id));

    d.stop();
}

TEST(Daemon, CancelStopsARunningJob)
{
    StateDir dir("cancel");
    svc::ServeOptions so;
    so.socketPath = sockPath("cancel");
    so.stateDir = dir.path;
    so.workers = 1;
    svc::Daemon d(so);
    ASSERT_TRUE(d.start()) << d.error();

    svc::Client c;
    ASSERT_TRUE(c.connect(so.socketPath));
    api::JobHandle id;
    ASSERT_TRUE(c.submit(bigSpec(), id));

    // Let it get into exploration, then cancel.
    api::JobStatus st;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(60);
    do {
        ASSERT_TRUE(c.status(id, st));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } while (st.state != api::JobState::Running &&
             std::chrono::steady_clock::now() < deadline);
    ASSERT_EQ(st.state, api::JobState::Running);

    ASSERT_TRUE(c.cancel(id, st)) << c.error().str();
    ASSERT_TRUE(waitTerminal(c, id, st));
    EXPECT_EQ(st.state, api::JobState::Cancelled);
    EXPECT_EQ(st.error.kind, ErrorKind::Cancelled);

    // Cancellation is terminal: no checkpoint survives, and a
    // result fetch reports the cancelled status, not a verdict.
    std::string ckpt =
        dir.path + "/job-" + std::to_string(id.id) + ".ckpt";
    EXPECT_NE(::access(ckpt.c_str(), F_OK), 0);
    std::string resultJson = "sentinel";
    api::JobStatus fin;
    EXPECT_TRUE(c.result(id, /*follow=*/false, fin, resultJson));
    EXPECT_EQ(fin.state, api::JobState::Cancelled);
    EXPECT_TRUE(resultJson.empty());

    d.stop();
}

TEST(Daemon, RestartRecoversTerminalJobs)
{
    StateDir dir("recover");
    svc::ServeOptions so;
    so.socketPath = sockPath("recover");
    so.stateDir = dir.path;
    uint64_t jobId = 0, states = 0;
    {
        svc::Daemon d(so);
        ASSERT_TRUE(d.start()) << d.error();
        svc::Client c;
        ASSERT_TRUE(c.connect(so.socketPath));
        api::JobHandle id;
        ASSERT_TRUE(c.submit(smallSpec(), id));
        api::JobStatus st;
        ASSERT_TRUE(waitTerminal(c, id, st));
        ASSERT_EQ(st.state, api::JobState::Done);
        jobId = id.id;
        states = st.statesExplored;
        d.stop();
    }

    svc::Daemon d2(so);
    ASSERT_TRUE(d2.start()) << d2.error();
    svc::Client c;
    ASSERT_TRUE(c.connect(so.socketPath));
    api::JobStatus st;
    ASSERT_TRUE(c.status(api::JobHandle{jobId}, st))
        << c.error().str();
    EXPECT_EQ(st.state, api::JobState::Done);
    EXPECT_EQ(st.statesExplored, states);
    std::string resultJson;
    api::JobStatus fin;
    ASSERT_TRUE(c.result(api::JobHandle{jobId}, false, fin,
                         resultJson));
    EXPECT_FALSE(resultJson.empty());  // replayed from the state dir
    d2.stop();
}

TEST(Daemon, OldFormatCheckpointRunsFresh)
{
    // A job interrupted under an older build left a checkpoint this
    // build refuses by version. The restarted daemon drops it and
    // runs the job from scratch to the uninterrupted verdict.
    StateDir dir("oldckpt");
    svc::ServeOptions so;
    so.socketPath = sockPath("oldckpt");
    so.stateDir = dir.path;
    uint64_t jobId = 0, states = 0;
    {
        svc::Daemon d(so);
        ASSERT_TRUE(d.start()) << d.error();
        svc::Client c;
        ASSERT_TRUE(c.connect(so.socketPath));
        api::JobHandle id;
        ASSERT_TRUE(c.submit(smallSpec(), id));
        api::JobStatus st;
        ASSERT_TRUE(waitTerminal(c, id, st));
        ASSERT_EQ(st.state, api::JobState::Done);
        jobId = id.id;
        states = st.statesExplored;
        d.stop();
    }

    // Rewind the job to mid-flight, next to a v3 checkpoint sealed
    // the way that format was (FNV-1a).
    const std::string stem = dir.path + "/job-" + std::to_string(jobId);
    std::string record;
    ASSERT_TRUE(util::readFileToString(stem + ".json", record));
    const std::string done = "\"state\":\"done\"";
    size_t at = record.find(done);
    ASSERT_NE(at, std::string::npos) << record;
    record.replace(at, done.size(), "\"state\":\"running\"");
    {
        util::AtomicFileWriter w;
        ASSERT_TRUE(w.open(stem + ".json") && w.append(record) &&
                    w.commit());
    }
    std::remove((stem + ".result.json").c_str());
    const std::string ckpt = stem + ".ckpt";
    {
        core::HierGenOptions g;
        g.mode = ConcurrencyMode::NonStalling;
        HierProtocol p = core::generate(protocols::builtinProtocol("MSI"),
                                        protocols::builtinProtocol("MSI"),
                                        g);
        verif::CheckOptions o;
        o.numThreads = 1;
        o.maxStates = 300;
        o.checkpointPath = ckpt;
        verif::checkHier(p, 1, 1, o);
    }
    std::string raw;
    ASSERT_TRUE(util::readFileToString(ckpt, raw));
    ASSERT_GT(raw.size(), 20u);
    raw[8] = 3;  // u32 version after the 8-byte magic
    raw[9] = raw[10] = raw[11] = 0;
    uint64_t sum = util::fnv1a64(raw.data(), raw.size() - 8);
    for (size_t i = 0; i < 8; ++i)
        raw[raw.size() - 8 + i] = static_cast<char>(sum >> (8 * i));
    {
        util::AtomicFileWriter w;
        ASSERT_TRUE(w.open(ckpt) && w.append(raw) && w.commit());
    }

    svc::Daemon d2(so);
    ASSERT_TRUE(d2.start()) << d2.error();
    svc::Client c;
    ASSERT_TRUE(c.connect(so.socketPath));
    api::JobStatus st;
    ASSERT_TRUE(waitTerminal(c, api::JobHandle{jobId}, st));
    EXPECT_EQ(st.state, api::JobState::Done);
    EXPECT_TRUE(st.verifyOk);
    EXPECT_EQ(st.statesExplored, states);
    std::string metrics =
        rawCall(so.socketPath, "metrics", /*toEof=*/true);
    svc::JsonValue m;
    ASSERT_TRUE(svc::parseJson(metrics, m)) << metrics;
    const svc::JsonValue *counters = m.find("counters");
    ASSERT_TRUE(counters != nullptr) << metrics;
    EXPECT_EQ(counters->uint("svc.jobs_resumed"), 0u) << metrics;
    struct stat sb{};
    EXPECT_NE(::stat(ckpt.c_str(), &sb), 0) << "old checkpoint kept";
    d2.stop();
}

/** Four clients hammering one daemon concurrently; a TSan CI
 *  target. All submissions share one spec, so the generation
 *  cache's in-flight dedup path runs under contention too. */
TEST(Daemon, FourConcurrentClientsStayConsistent)
{
    StateDir dir("conc");
    svc::ServeOptions so;
    so.socketPath = sockPath("conc");
    so.stateDir = dir.path;
    so.workers = 4;
    svc::Daemon d(so);
    ASSERT_TRUE(d.start()) << d.error();

    std::atomic<unsigned> done{0};
    std::atomic<uint64_t> states{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            svc::Client c;
            ASSERT_TRUE(c.connect(so.socketPath));
            api::JobSpec spec = smallSpec();
            spec.label = "client-" + std::to_string(t);
            api::JobHandle id;
            ASSERT_TRUE(c.submit(spec, id)) << c.error().str();
            api::JobStatus st;
            std::string resultJson;
            ASSERT_TRUE(c.result(id, /*follow=*/true, st,
                                 resultJson))
                << c.error().str();
            ASSERT_EQ(st.state, api::JobState::Done);
            EXPECT_TRUE(st.verifyOk);
            uint64_t expect = 0;
            if (!states.compare_exchange_strong(expect,
                                                st.statesExplored))
                EXPECT_EQ(st.statesExplored, states.load());
            ++done;
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(done.load(), 4u);
    EXPECT_EQ(d.cache().hits() + d.cache().misses(), 4u);
    EXPECT_GE(d.cache().hits(), 3u);  // one build, three hits
    d.stop();
}

} // namespace
} // namespace hieragen
