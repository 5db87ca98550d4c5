/**
 * @file
 * The `hieragen` command-line tool — the shape of the artifact the
 * paper describes: SSPs in, a concurrent hierarchical protocol out in
 * the Murφ language, with optional built-in verification. Built
 * entirely on the stable facade (api/hieragen.hh).
 *
 * Usage:
 *   hieragen --lower MSI --higher MESI [options]
 *   hieragen --lower-file my.ssp --higher-file other.ssp [options]
 *
 * Options:
 *   --lower NAME / --higher NAME       built-in SSPs
 *   --lower-file F / --higher-file F   SSPs in the DSL
 *   --mode atomic|stalling|nonstalling (default nonstalling; the
 *                                       ProtoGen-style stall flag)
 *   --optimized-compat                 Section V-D optimized solution
 *   --no-merge                         skip equivalent-state merging
 *   --verify                           model-check the result (2H+2L)
 *   --threads N                        checker worker threads
 *                                      (0 = one per hardware thread)
 *   --dump                             print all four FSM tables
 *   -o FILE                            write the Murphi model
 *
 * Checkpoint/resume (see docs/VERIFIER.md):
 *   --checkpoint[=SECS] FILE           snapshot verification to FILE
 *                                      every SECS seconds (default 30)
 *                                      and on any resumable abort;
 *                                      SIGINT/SIGTERM flush a final
 *                                      checkpoint before exiting
 *   --resume FILE                      continue a verification run
 *                                      from a checkpoint
 *   --max-memory BYTES                 act when the estimated
 *                                      resident set crosses BYTES.
 *                                      What happens is explicit: with
 *                                      --spill-dir the run spills to
 *                                      disk and stays exact; with
 *                                      --degrade-on-limit it switches
 *                                      to hash compaction; with
 *                                      --checkpoint it emergency-
 *                                      checkpoints and stops
 *                                      ("memory-limit"). Given none
 *                                      of the three, the tool errors
 *                                      out up front instead of
 *                                      silently discarding the run.
 *   --spill-dir DIR                    out-of-core storage: spill the
 *                                      visited set and frontier
 *                                      overflow to segment files in
 *                                      DIR (created if missing) when
 *                                      the --max-memory watermark
 *                                      fires. The run stays exact —
 *                                      same verdict, state count and
 *                                      census as an unlimited run
 *
 * Pipeline introspection (see docs/PIPELINE.md):
 *   --list-passes                      list registered passes, exit
 *   --dump-after=PASS                  print tables after PASS runs
 *   --check-passes                     lint-gate after every pass;
 *                                      exit 1 naming the first pass
 *                                      that emits a malformed machine
 *   --pass-stats                       print the per-pass stats table
 *   --stats-json FILE                  machine-readable per-pass
 *                                      report (timing + size deltas)
 *
 * Telemetry (see docs/OBSERVABILITY.md):
 *   --progress[=SECS]                  heartbeat checker progress
 *                                      (states, rate, ETA) every SECS
 *                                      seconds (default 2)
 *   --trace-out FILE                   Chrome trace-event JSON of the
 *                                      run (open in ui.perfetto.dev)
 *   --metrics-json FILE                final metrics registry snapshot
 *   --journal FILE                     append a crash-tolerant JSONL
 *                                      run journal (identity, phase
 *                                      transitions, checkpoints,
 *                                      spills, heartbeats, verdict) to
 *                                      FILE; replay with
 *                                      `hieragen report FILE`
 *   --status-socket PATH               serve live JSON/Prometheus
 *                                      snapshots of the running
 *                                      verification on a unix socket;
 *                                      query with `hieragen status`
 *   --phases                           sampled per-phase wall-clock
 *                                      (and, where perf_event_open is
 *                                      usable, hardware-counter)
 *                                      breakdown of the exploration
 *
 * Verbs (first argument, no leading dashes; each verb owns its own
 * flag set — a flag given to the wrong verb is a usage error, never
 * silently ignored; see the kVerbs dispatch table):
 *   hieragen status SOCKET [status|metrics|prom]
 *                                      query a --status-socket server
 *                                      (or a serve daemon) and print
 *                                      the payload
 *   hieragen report JOURNAL [--metrics FILE] [-o FILE]
 *                                      replay a --journal file (plus
 *                                      an optional --metrics-json
 *                                      artifact) into a markdown run
 *                                      report
 *   hieragen serve SOCKET --state-dir DIR [--workers N]
 *                  [--slice SECS] [--checkpoint-interval SECS]
 *                                      run the job-service daemon
 *                                      (docs/SERVICE.md)
 *   hieragen submit SOCKET [spec flags] [--wait]
 *                                      submit a generate-and-verify
 *                                      job; --wait streams progress
 *                                      and exits with the job's code
 *   hieragen jobs SOCKET               list the daemon's job table
 *   hieragen cancel SOCKET ID          cancel a job
 *   hieragen result SOCKET ID [--follow]
 *                                      fetch (or follow) a result
 *
 * Exit codes (errorKindExitCode contract): 0 success, 1 failure
 * (verification or generation), 2 usage/bad request, 3 interrupted
 * or cancelled (resume artifact flushed when --checkpoint is set).
 * Every exit path — success, violation, state limit, interrupt —
 * flows through one artifact flush point, so --trace-out,
 * --metrics-json and --stats-json are written regardless of outcome.
 */

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "api/hieragen.hh"
#include "dsl/lower.hh"
#include "fsm/printer.hh"
#include "murphi/emit.hh"
#include "obs/journal.hh"
#include "obs/metrics.hh"
#include "obs/statusserver.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "protocols/registry.hh"
#include "svc/client.hh"
#include "svc/daemon.hh"
#include "svc/proto.hh"
#include "util/errors.hh"
#include "util/logging.hh"

#ifndef HG_VERSION
#define HG_VERSION "unknown"
#endif

using namespace hieragen;

namespace
{

/** Set by the SIGINT/SIGTERM handler; polled by the checker. A
 *  lock-free atomic store is async-signal-safe. */
std::atomic<bool> g_stopRequested{false};

extern "C" void
onSignal(int)
{
    g_stopRequested.store(true, std::memory_order_relaxed);
}

struct Args
{
    std::string lower = "MSI";
    std::string higher = "MSI";
    std::string lowerFile;
    std::string higherFile;
    std::string output;
    ConcurrencyMode mode = ConcurrencyMode::NonStalling;
    bool optimizedCompat = false;
    bool noMerge = false;
    bool verify = false;
    unsigned threads = 0;
    bool dump = false;
    bool listPasses = false;
    bool checkPasses = false;
    bool passStats = false;
    std::string dumpAfter;
    std::string statsJson;
    double progressSec = 0.0;  ///< 0 = no heartbeat
    std::string traceOut;
    std::string metricsJson;
    std::string journalFile;
    std::string statusSocket;
    bool phases = false;
    std::string checkpointFile;
    double checkpointSec = 30.0;
    std::string resumeFile;
    uint64_t maxMemory = 0;
    bool degradeOnLimit = false;
    std::string spillDir;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--lower NAME|--lower-file F] [--higher NAME|"
           "--higher-file F]\n"
           "       [--mode atomic|stalling|nonstalling] "
           "[--optimized-compat]\n"
           "       [--no-merge] [--verify] [--threads N] "
           "[--dump] [-o FILE]\n"
           "       [--checkpoint[=SECS] FILE] [--resume FILE]\n"
           "       [--max-memory BYTES] [--degrade-on-limit] "
           "[--spill-dir DIR]\n"
           "       [--list-passes] [--dump-after=PASS] "
           "[--check-passes]\n"
           "       [--pass-stats] [--stats-json FILE]\n"
           "       [--progress[=SECS]] [--trace-out FILE] "
           "[--metrics-json FILE]\n"
           "       [--journal FILE] [--status-socket PATH] "
           "[--phases]\n"
           "   or: " << argv0 << " status SOCKET [status|metrics|prom]\n"
           "   or: " << argv0
        << " report JOURNAL [--metrics FILE] [-o FILE]\n"
           "   or: " << argv0
        << " serve SOCKET --state-dir DIR [--workers N] "
           "[--slice SECS]\n"
           "   or: " << argv0
        << " submit SOCKET [spec flags] [--wait]\n"
           "   or: " << argv0 << " jobs SOCKET\n"
           "   or: " << argv0 << " cancel SOCKET ID\n"
           "   or: " << argv0 << " result SOCKET ID [--follow]\n"
           "built-in SSPs: MI MSI MESI MOSI MOESI MSI_SE\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--lower")
            a.lower = need(i);
        else if (arg == "--higher")
            a.higher = need(i);
        else if (arg == "--lower-file")
            a.lowerFile = need(i);
        else if (arg == "--higher-file")
            a.higherFile = need(i);
        else if (arg == "-o")
            a.output = need(i);
        else if (arg == "--mode") {
            std::string m = need(i);
            if (m == "atomic")
                a.mode = ConcurrencyMode::Atomic;
            else if (m == "stalling")
                a.mode = ConcurrencyMode::Stalling;
            else if (m == "nonstalling")
                a.mode = ConcurrencyMode::NonStalling;
            else
                usage(argv[0]);
        } else if (arg == "--optimized-compat") {
            a.optimizedCompat = true;
        } else if (arg == "--no-merge") {
            a.noMerge = true;
        } else if (arg == "--verify") {
            a.verify = true;
        } else if (arg == "--threads") {
            a.threads = static_cast<unsigned>(
                std::strtoul(need(i).c_str(), nullptr, 10));
        } else if (arg == "--dump") {
            a.dump = true;
        } else if (arg == "--list-passes") {
            a.listPasses = true;
        } else if (arg == "--check-passes") {
            a.checkPasses = true;
        } else if (arg == "--pass-stats") {
            a.passStats = true;
        } else if (arg == "--dump-after") {
            a.dumpAfter = need(i);
        } else if (arg.rfind("--dump-after=", 0) == 0) {
            a.dumpAfter = arg.substr(std::string("--dump-after=").size());
        } else if (arg == "--stats-json") {
            a.statsJson = need(i);
        } else if (arg == "--progress") {
            a.progressSec = 2.0;
        } else if (arg.rfind("--progress=", 0) == 0) {
            std::string v =
                arg.substr(std::string("--progress=").size());
            a.progressSec = std::atof(v.c_str());
            if (a.progressSec <= 0.0)
                usage(argv[0]);
        } else if (arg == "--trace-out") {
            a.traceOut = need(i);
        } else if (arg == "--metrics-json") {
            a.metricsJson = need(i);
        } else if (arg == "--journal") {
            a.journalFile = need(i);
        } else if (arg == "--status-socket") {
            a.statusSocket = need(i);
        } else if (arg == "--phases") {
            a.phases = true;
        } else if (arg == "--checkpoint") {
            a.checkpointFile = need(i);
        } else if (arg.rfind("--checkpoint=", 0) == 0) {
            std::string v =
                arg.substr(std::string("--checkpoint=").size());
            a.checkpointSec = std::atof(v.c_str());
            if (a.checkpointSec <= 0.0)
                usage(argv[0]);
            a.checkpointFile = need(i);
        } else if (arg == "--resume") {
            a.resumeFile = need(i);
        } else if (arg == "--max-memory") {
            a.maxMemory = std::strtoull(need(i).c_str(), nullptr, 10);
        } else if (arg == "--degrade-on-limit") {
            a.degradeOnLimit = true;
        } else if (arg == "--spill-dir") {
            a.spillDir = need(i);
        } else {
            usage(argv[0]);
        }
    }
    if (!a.resumeFile.empty() && !a.verify)
        a.verify = true;  // a resume is always a verification run
    if (a.degradeOnLimit && !a.spillDir.empty()) {
        std::cerr << argv[0]
                  << ": --degrade-on-limit and --spill-dir are "
                     "mutually exclusive (lossy compaction vs exact "
                     "out-of-core storage)\n";
        std::exit(2);
    }
    if (a.maxMemory > 0 && !a.degradeOnLimit && a.spillDir.empty() &&
        a.checkpointFile.empty()) {
        std::cerr
            << argv[0]
            << ": --max-memory would silently discard the run when "
               "the watermark fires; pick a policy: --spill-dir DIR "
               "(exact, out-of-core), --degrade-on-limit (lossy hash "
               "compaction), or --checkpoint FILE (stop resumable)\n";
        std::exit(2);
    }
    return a;
}

Protocol
loadSsp(const std::string &name, const std::string &file)
{
    if (file.empty())
        return protocols::builtinProtocol(name);
    std::ifstream in(file);
    if (!in)
        fatal("cannot open SSP file '", file, "'");
    std::ostringstream text;
    text << in.rdbuf();
    return dsl::compileProtocol(text.str());
}

/**
 * The single artifact flush point: every exit path (success,
 * violation, state limit, interrupt, memory limit) routes through
 * here exactly once, so telemetry artifacts are written regardless
 * of how the run ended.
 */
class ArtifactSink
{
  public:
    ArtifactSink(const Args &args, obs::TraceWriter &trace,
                 obs::MetricsRegistry &metrics)
        : args_(args), trace_(trace), metrics_(metrics)
    {}

    /** Last-resort flush: exit paths that bypass the explicit
     *  flush() calls (a throw below the catch clauses, an early
     *  return added later) still write their artifacts. flush() is
     *  idempotent, so the normal paths are unaffected. */
    ~ArtifactSink() { flush(); }

    void
    setStatsJson(std::string json)
    {
        statsJson_ = std::move(json);
    }

    void
    flush()
    {
        if (flushed_)
            return;
        flushed_ = true;
        if (!args_.statsJson.empty() && !statsJson_.empty()) {
            std::ofstream out(args_.statsJson);
            if (!out) {
                warn("cannot write '", args_.statsJson, "'");
            } else {
                out << statsJson_;
                std::cout << "per-pass report written to "
                          << args_.statsJson << "\n";
            }
        }
        if (!args_.traceOut.empty()) {
            std::ofstream out(args_.traceOut);
            if (!out) {
                warn("cannot write '", args_.traceOut, "'");
            } else {
                trace_.writeJson(out);
                std::cout << "trace written to " << args_.traceOut
                          << " (" << trace_.eventCount()
                          << " events; open in ui.perfetto.dev)\n";
            }
        }
        if (!args_.metricsJson.empty()) {
            std::ofstream out(args_.metricsJson);
            if (!out) {
                warn("cannot write '", args_.metricsJson, "'");
            } else {
                out << metrics_.toJson();
                std::cout << "metrics written to "
                          << args_.metricsJson << "\n";
            }
        }
    }

  private:
    const Args &args_;
    obs::TraceWriter &trace_;
    obs::MetricsRegistry &metrics_;
    std::string statsJson_;
    bool flushed_ = false;
};

// ---------------------------------------------------------------
// Verbs

/** `hieragen status SOCKET [status|metrics|prom]` */
int
runStatusVerb(int argc, char **argv)
{
    if (argc < 3)
        usage(argv[0]);
    std::string verb = argc > 3 ? argv[3] : "status";
    if (verb != "status" && verb != "metrics" && verb != "prom")
        usage(argv[0]);
    std::string out, err;
    if (!obs::StatusServer::query(argv[2], verb, out, &err)) {
        std::cerr << "cannot query '" << argv[2] << "': " << err
                  << "\n";
        return 1;
    }
    std::cout << out;
    if (out.empty() || out.back() != '\n')
        std::cout << "\n";
    return 0;
}

/** `hieragen report JOURNAL [--metrics FILE] [-o FILE]`: replay a
 *  journal (and optionally a --metrics-json artifact) into one
 *  markdown run report. */
int
runReportVerb(int argc, char **argv)
{
    if (argc < 3)
        usage(argv[0]);
    std::string journalPath = argv[2];
    std::string metricsPath, outPath;
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--metrics" && i + 1 < argc)
            metricsPath = argv[++i];
        else if (arg == "-o" && i + 1 < argc)
            outPath = argv[++i];
        else
            usage(argv[0]);
    }

    obs::JournalReplay rp = obs::Journal::replay(journalPath);
    if (rp.records.empty()) {
        std::cerr << "no intact journal records in '" << journalPath
                  << "'\n";
        return 1;
    }

    std::ostringstream md;
    md << "# HieraGen run report\n\n";
    md << "Journal: `" << journalPath << "` — " << rp.records.size()
       << " records";
    if (rp.droppedLines > 0)
        md << " (" << rp.droppedLines
           << " torn/corrupt line(s) dropped)";
    md << ", " << rp.runStarts << " run start(s).\n\n";

    if (const obs::JournalRecord *r = rp.last("run_start")) {
        md << "## Identity\n\n";
        md << "- version: `" << r->fieldString("version") << "`\n";
        md << "- command: `" << r->fieldString("argv") << "`\n";
    }
    if (const obs::JournalRecord *r = rp.last("verify_start")) {
        md << "- options fingerprint: `"
           << r->fieldString("options_fingerprint") << "`\n";
        md << "- system hash: `" << r->fieldString("system_hash")
           << "`\n";
    }
    if (const obs::JournalRecord *r = rp.last("engine_start")) {
        md << "- engine: " << r->fieldString("engine") << ", workers "
           << r->fieldU64("workers") << ", symmetry "
           << r->field("symmetry")
           << ", hash compaction " << r->field("hash_compaction")
           << "\n";
    }
    md << "\n";

    if (uint64_t n = rp.count("pass")) {
        md << "## Generation\n\n" << n << " pipeline passes";
        uint64_t gated = 0;
        for (const obs::JournalRecord &r : rp.records)
            if (r.kind == "pass" && r.field("gated") == "true")
                ++gated;
        if (gated)
            md << " (" << gated << " lint-gated)";
        md << ".\n\n";
    }

    md << "## Exploration\n\n";
    if (const obs::JournalRecord *r = rp.last("heartbeat")) {
        md << "- last heartbeat: " << r->fieldU64("states_explored")
           << " states explored, " << r->fieldU64("states_per_sec")
           << "/s, est " << r->fieldU64("est_memory_bytes")
           << " bytes, rss " << r->fieldU64("rss_bytes")
           << " bytes\n";
    }
    md << "- heartbeats: " << rp.count("heartbeat") << "\n";
    if (uint64_t n = rp.count("checkpoint")) {
        uint64_t bytes = 0;
        for (const obs::JournalRecord &r : rp.records)
            if (r.kind == "checkpoint")
                bytes += r.fieldU64("bytes");
        md << "- checkpoints: " << n << " (" << bytes
           << " bytes total)\n";
    }
    if (uint64_t n = rp.count("restore"))
        md << "- checkpoint restores: " << n << "\n";
    if (const obs::JournalRecord *r = rp.last("spill")) {
        md << "- spilled to disk: " << r->fieldU64("spilled_bytes")
           << " bytes in " << r->fieldU64("segments")
           << " segments (" << rp.count("spill")
           << " spill event(s))\n";
    }
    if (const obs::JournalRecord *r = rp.last("degrade")) {
        md << "- degraded to hash compaction at "
           << r->fieldU64("states_explored") << " states\n";
    }
    md << "\n";

    if (const obs::JournalRecord *r = rp.last("perf")) {
        md << "## Hardware counters (sampled expansions, scaled)\n\n";
        md << "- expand: " << r->fieldU64("expand_cycles")
           << " cycles, " << r->fieldU64("expand_instructions")
           << " instructions, " << r->fieldU64("expand_cache_misses")
           << " cache misses\n";
        md << "- encode+canonicalize: " << r->fieldU64("encode_cycles")
           << " cycles\n";
        md << "- table insert: " << r->fieldU64("insert_cycles")
           << " cycles\n\n";
    }

    md << "## Verdict\n\n";
    if (rp.hasVerdict) {
        const obs::JournalRecord *v = rp.last("verdict");
        if (rp.verdictOk)
            md << "**PASS** — " << rp.statesExplored
               << " states explored";
        else
            md << "**FAIL** (`" << rp.verdictKind << "`) — "
               << rp.statesExplored << " states explored";
        if (v) {
            md << ", " << v->fieldU64("transitions_fired")
               << " transitions, wall " << v->fieldU64("wall_ms")
               << " ms";
        }
        md << ".\n";
    } else {
        md << "No verdict record — the run is still in flight or "
              "was killed before finalize.\n";
    }

    if (!metricsPath.empty()) {
        std::ifstream in(metricsPath);
        if (!in) {
            std::cerr << "cannot read metrics file '" << metricsPath
                      << "'\n";
            return 1;
        }
        md << "\n## Metrics snapshot\n\n```json\n" << in.rdbuf()
           << "\n```\n";
    }

    if (outPath.empty()) {
        std::cout << md.str();
    } else {
        std::ofstream out(outPath);
        if (!out) {
            std::cerr << "cannot write '" << outPath << "'\n";
            return 1;
        }
        out << md.str();
        std::cout << "report written to " << outPath << "\n";
    }
    return 0;
}

// ---------------------------------------------------------------
// Service verbs (docs/SERVICE.md)

/** Exit code for a terminal job, on the same errorKindExitCode
 *  contract as a local run. */
int
jobExitCode(const api::JobStatus &st)
{
    switch (st.state) {
    case api::JobState::Done:
        return st.verifyOk ? 0 : errorKindExitCode(st.error.kind);
    case api::JobState::Cancelled:
        return 3;
    default:
        return st.error ? errorKindExitCode(st.error.kind) : 1;
    }
}

void
printJobStatus(const api::JobStatus &st)
{
    std::cout << "job " << st.handle.id << ": "
              << api::jobStateName(st.state);
    if (st.state == api::JobState::Done)
        std::cout << (st.verifyOk ? " PASS" : " FAIL");
    if (st.error)
        std::cout << " [" << st.error.str() << "]";
    std::cout << " — " << st.statesExplored << " states, "
              << std::fixed << std::setprecision(1) << st.elapsedSec
              << "s";
    if (st.cacheHit)
        std::cout << ", gen cache hit";
    if (st.preemptions)
        std::cout << ", " << st.preemptions << " preemption(s)";
    if (!st.label.empty())
        std::cout << "  (" << st.label << ")";
    std::cout << "\n";
}

/** `hieragen serve SOCKET --state-dir DIR [--workers N]
 *  [--slice SECS] [--checkpoint-interval SECS]` */
int
runServeVerb(int argc, char **argv)
{
    if (argc < 3)
        usage(argv[0]);
    svc::ServeOptions so;
    so.socketPath = argv[2];
    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--state-dir")
            so.stateDir = need(i);
        else if (arg == "--workers")
            so.workers = static_cast<unsigned>(
                std::strtoul(need(i).c_str(), nullptr, 10));
        else if (arg == "--slice")
            so.sliceSec = std::atof(need(i).c_str());
        else if (arg == "--checkpoint-interval")
            so.checkpointIntervalSec = std::atof(need(i).c_str());
        else
            usage(argv[0]);
    }
    if (so.stateDir.empty()) {
        std::cerr << "serve requires --state-dir DIR\n";
        return 2;
    }
    svc::Daemon daemon(so);
    if (!daemon.start()) {
        std::cerr << "cannot start daemon: " << daemon.error()
                  << "\n";
        return 1;
    }
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::cout << "hieragen daemon on " << so.socketPath << " ("
              << so.workers << " workers, state in " << so.stateDir
              << ")\n";
    return daemon.waitUntilStopped(&g_stopRequested);
}

/** Spec flags shared by `submit`. Returns false on a usage error. */
bool
parseSpecFlags(int argc, char **argv, int start, api::JobSpec &spec,
               bool &wait)
{
    auto need = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    auto fileText = [](const std::string &path) {
        std::ifstream in(path);
        if (!in)
            fatal("cannot open SSP file '", path, "'");
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    };
    spec.lowerName = "MSI";
    spec.higherName = "MSI";
    for (int i = start; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--lower")
            spec.lowerName = need(i);
        else if (arg == "--higher")
            spec.higherName = need(i);
        else if (arg == "--lower-file") {
            spec.lowerDsl = fileText(need(i));
            spec.lowerName.clear();
        } else if (arg == "--higher-file") {
            spec.higherDsl = fileText(need(i));
            spec.higherName.clear();
        } else if (arg == "--mode") {
            std::string m = need(i);
            if (m == "atomic")
                spec.mode = ConcurrencyMode::Atomic;
            else if (m == "stalling")
                spec.mode = ConcurrencyMode::Stalling;
            else if (m == "nonstalling")
                spec.mode = ConcurrencyMode::NonStalling;
            else
                return false;
        } else if (arg == "--optimized-compat") {
            spec.optimizedCompat = true;
        } else if (arg == "--no-merge") {
            spec.mergeEquivalentStates = false;
        } else if (arg == "--hier") {
            spec.numCacheH = std::atoi(need(i).c_str());
            spec.numCacheL = std::atoi(need(i).c_str());
        } else if (arg == "--max-states") {
            spec.maxStates =
                std::strtoull(need(i).c_str(), nullptr, 10);
        } else if (arg == "--threads") {
            spec.threads = static_cast<unsigned>(
                std::strtoul(need(i).c_str(), nullptr, 10));
        } else if (arg == "--label") {
            spec.label = need(i);
        } else if (arg == "--wait") {
            wait = true;
        } else {
            return false;
        }
    }
    return true;
}

/** `hieragen submit SOCKET [spec flags] [--wait]` */
int
runSubmitVerb(int argc, char **argv)
{
    if (argc < 3)
        usage(argv[0]);
    api::JobSpec spec;
    bool wait = false;
    if (!parseSpecFlags(argc, argv, 3, spec, wait))
        usage(argv[0]);
    svc::Client client;
    if (!client.connect(argv[2])) {
        std::cerr << "error: " << client.error().str() << "\n";
        return 1;
    }
    api::JobHandle id;
    if (!client.submit(spec, id)) {
        std::cerr << "submit rejected: " << client.error().str()
                  << "\n";
        return errorKindExitCode(client.error().kind);
    }
    std::cout << "job " << id.id << " queued\n";
    if (!wait)
        return 0;
    api::JobStatus st;
    std::string resultJson;
    if (!client.result(id, /*follow=*/true, st, resultJson,
                       [](const api::JobStatus &p) {
                           std::cout << "  " << p.statesExplored
                                     << " states ("
                                     << api::jobStateName(p.state)
                                     << ")\n";
                       })) {
        std::cerr << "error: " << client.error().str() << "\n";
        return 1;
    }
    printJobStatus(st);
    if (!resultJson.empty())
        std::cout << resultJson << "\n";
    return jobExitCode(st);
}

/** `hieragen jobs SOCKET` */
int
runJobsVerb(int argc, char **argv)
{
    if (argc != 3)
        usage(argv[0]);
    svc::Client client;
    std::vector<api::JobStatus> all;
    if (!client.connect(argv[2]) || !client.jobs(all)) {
        std::cerr << "error: " << client.error().str() << "\n";
        return 1;
    }
    if (all.empty()) {
        std::cout << "no jobs\n";
        return 0;
    }
    for (const api::JobStatus &st : all)
        printJobStatus(st);
    return 0;
}

/** `hieragen cancel SOCKET ID` */
int
runCancelVerb(int argc, char **argv)
{
    if (argc != 4)
        usage(argv[0]);
    svc::Client client;
    api::JobStatus st;
    api::JobHandle id{std::strtoull(argv[3], nullptr, 10)};
    if (!client.connect(argv[2]) || !client.cancel(id, st)) {
        std::cerr << "error: " << client.error().str() << "\n";
        return errorKindExitCode(client.error().kind);
    }
    printJobStatus(st);
    return 0;
}

/** `hieragen result SOCKET ID [--follow]` */
int
runResultVerb(int argc, char **argv)
{
    if (argc < 4)
        usage(argv[0]);
    bool follow = false;
    for (int i = 4; i < argc; ++i) {
        if (std::string(argv[i]) == "--follow")
            follow = true;
        else
            usage(argv[0]);
    }
    svc::Client client;
    api::JobHandle id{std::strtoull(argv[3], nullptr, 10)};
    api::JobStatus st;
    std::string resultJson;
    if (!client.connect(argv[2]) ||
        !client.result(id, follow, st, resultJson,
                       follow ? [](const api::JobStatus &p) {
                           std::cout << "  " << p.statesExplored
                                     << " states ("
                                     << api::jobStateName(p.state)
                                     << ")\n";
                       } : std::function<void(
                               const api::JobStatus &)>())) {
        std::cerr << "error: " << client.error().str() << "\n";
        return errorKindExitCode(client.error().kind);
    }
    printJobStatus(st);
    if (!resultJson.empty())
        std::cout << resultJson << "\n";
    return jobExitCode(st);
}

// ---------------------------------------------------------------
// The classic flagged flow: generate, optionally verify.

int
runGenerateVerb(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);

    if (args.listPasses) {
        for (const auto &info : api::listPasses()) {
            std::cout << "  " << info.name << "\n      "
                      << info.description << "\n";
        }
        return 0;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    // One telemetry bundle shared by the pass pipeline and the
    // checker, so all spans land on a single timeline.
    bool wantTelemetry =
        args.progressSec > 0.0 || !args.traceOut.empty() ||
        !args.metricsJson.empty() || !args.journalFile.empty() ||
        !args.statusSocket.empty();
    obs::MetricsRegistry metrics;
    obs::TraceWriter trace;
    obs::Journal journal;
    obs::StatusHub statusHub;
    obs::StatusServer statusServer;
    obs::Telemetry telem;
    if (wantTelemetry) {
        telem.metrics = &metrics;
        if (!args.traceOut.empty())
            telem.trace = &trace;
        telem.progressIntervalSec = args.progressSec;
    }
    if (!args.journalFile.empty()) {
        if (!journal.open(args.journalFile)) {
            std::cerr << "cannot open journal '" << args.journalFile
                      << "': " << journal.error() << "\n";
            return 2;
        }
        telem.journal = &journal;
        std::string cmd;
        for (int i = 0; i < argc; ++i) {
            if (i)
                cmd += ' ';
            cmd += argv[i];
        }
        journal.event("run_start",
                      {{"version", obs::jsonQuote(HG_VERSION)},
                       {"argv", obs::jsonQuote(cmd)}},
                      /*durable=*/true);
    }
    if (!args.statusSocket.empty()) {
        if (!statusServer.start(args.statusSocket, &statusHub,
                                &metrics)) {
            std::cerr << "cannot serve status socket '"
                      << args.statusSocket
                      << "': " << statusServer.error() << "\n";
            return 2;
        }
        telem.status = &statusHub;
        statusHub.setField("version",
                           obs::jsonQuote(HG_VERSION));
    }
    ArtifactSink artifacts(args, trace, metrics);

    try {
        Protocol lower = loadSsp(args.lower, args.lowerFile);
        Protocol higher = loadSsp(args.higher, args.higherFile);

        api::GenerateRequest req;
        req.lower = &lower;
        req.higher = &higher;
        req.mode = args.mode;
        req.optimizedCompat = args.optimizedCompat;
        req.mergeEquivalentStates = !args.noMerge;
        req.checkPasses = args.checkPasses;
        if (!args.dumpAfter.empty()) {
            req.dumpAfterPass = args.dumpAfter;
            req.dumpStream = &std::cout;
        }
        if (wantTelemetry)
            req.telemetry = &telem;

        api::GenerateResult gen = api::generate(req);
        artifacts.setStatsJson(gen.statsJson);

        if (!gen.ok) {
            std::cerr << "pass gate failed after '" << gen.failedPass
                      << "':\n"
                      << gen.lintReport;
            artifacts.flush();
            return 1;
        }
        if (args.checkPasses) {
            std::cout << "pass gates: clean (" << gen.passesRun
                      << " passes)\n";
        }

        const HierProtocol &p = gen.protocol;
        std::cout << "generated " << p.name << " ("
                  << toString(p.mode) << ")\n";
        for (const Machine *m : p.machines()) {
            std::cout << "  " << m->name() << ": " << m->numStates()
                      << " states, " << m->numTransitions()
                      << " transitions\n";
        }

        if (args.passStats)
            std::cout << gen.statsTable;

        if (args.dump) {
            for (const Machine *m : p.machines())
                printMachine(std::cout, p.msgs, *m);
        }

        int exit_code = 0;
        if (args.verify) {
            verif::CheckOptions vo;
            vo.accessBudget = 2;
            vo.numThreads = args.threads;
            vo.phaseTiming = args.phases;
            if (wantTelemetry)
                vo.telemetry = &telem;

            api::VerifySession session =
                api::VerifySession::hier(p, 2, 2, vo);
            session.onStop(&g_stopRequested);
            if (!args.checkpointFile.empty()) {
                session.checkpointTo(args.checkpointFile,
                                     args.checkpointSec);
            }
            if (args.maxMemory > 0) {
                session.memoryLimit(
                    args.maxMemory,
                    args.degradeOnLimit
                        ? verif::MemoryLimitPolicy::
                              DegradeToCompaction
                        : verif::MemoryLimitPolicy::StopResumable);
            }
            if (!args.spillDir.empty())
                session.spillTo(args.spillDir);
            if (!args.resumeFile.empty()) {
                if (!session.resumeFrom(args.resumeFile)) {
                    std::cerr << "cannot resume: " << session.error()
                              << "\n";
                    artifacts.flush();
                    return 1;
                }
                std::cout << "resuming verification from "
                          << args.resumeFile << "\n";
            }

            const verif::CheckResult &r = session.run();
            std::cout << "verification: " << r.summary() << "\n";
            if (r.spilledToDisk) {
                std::ostringstream sp;
                sp << "spill: " << r.spilledBytes << " bytes in "
                   << r.spillSegmentsWritten << " segments";
                if (r.diskProbes > 0) {
                    sp << ", disk-probe hit "
                       << std::fixed << std::setprecision(1)
                       << (static_cast<double>(r.diskProbeHits) /
                           static_cast<double>(r.diskProbes)) *
                              100
                       << "%";
                }
                sp << ", stall " << std::fixed
                   << std::setprecision(0) << r.spillStallMs << " ms";
                if (r.peakRssBytes > 0)
                    sp << ", peak rss " << r.peakRssBytes << " bytes";
                std::cout << sp.str() << "\n";
            }
            if (args.phases && r.phases.enabled) {
                std::ostringstream ph;
                ph << "phases: expand " << std::fixed
                   << std::setprecision(1) << r.phases.expandMs
                   << " ms, encode " << r.phases.encodeMs
                   << " ms, canonicalize " << r.phases.canonicalizeMs
                   << " ms, insert " << r.phases.insertMs << " ms ("
                   << r.phases.sampledExpansions << " sampled)";
                std::cout << ph.str() << "\n";
                if (r.phases.perfEnabled) {
                    std::cout << "perf: expand "
                              << r.phases.expandPerf.cycles
                              << " cycles / "
                              << r.phases.expandPerf.instructions
                              << " insns / "
                              << r.phases.expandPerf.cacheMisses
                              << " cache-miss, encode "
                              << r.phases.encodePerf.cycles
                              << " cycles, insert "
                              << r.phases.insertPerf.cycles
                              << " cycles\n";
                } else {
                    std::cout << "perf: hardware counters "
                                 "unavailable (perf_event_open)\n";
                }
            }
            if (r.resumable && !r.checkpointFile.empty()) {
                std::cout << "resume artifact: " << r.checkpointFile
                          << " (rerun with --resume "
                          << r.checkpointFile << ")\n";
            }
            if (!r.ok) {
                // One exit-code contract for every surface (CLI,
                // daemon jobs, RPC): see util/errors.hh.
                exit_code = errorKindExitCode(r.errorKind);
                if (exit_code == 1)
                    for (const auto &line : r.trace)
                        std::cout << "  " << line << "\n";
            }
        }

        artifacts.flush();
        if (exit_code != 0)
            return exit_code;

        if (!args.output.empty()) {
            std::ofstream out(args.output);
            if (!out)
                fatal("cannot write '", args.output, "'");
            out << murphi::emitHier(p);
            std::cout << "Murphi model written to " << args.output
                      << "\n";
        }
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        artifacts.flush();
        return 1;
    }
    return 0;
}

// ---------------------------------------------------------------
// Subcommand dispatch.
//
// Every verb owns its own argv parse, so a flag that only means
// something to `submit` can never silently leak into `serve` (or
// vice versa) — unknown flags are a usage error in the verb that
// saw them, not an ignored no-op.

struct Verb
{
    const char *name;
    int (*fn)(int argc, char **argv);
};

const Verb kVerbs[] = {
    {"status", runStatusVerb},   {"report", runReportVerb},
    {"serve", runServeVerb},     {"submit", runSubmitVerb},
    {"jobs", runJobsVerb},       {"cancel", runCancelVerb},
    {"result", runResultVerb},
};

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && argv[1][0] != '-') {
        for (const Verb &v : kVerbs)
            if (std::string(argv[1]) == v.name)
                return v.fn(argc, argv);
        usage(argv[0]);
    }
    return runGenerateVerb(argc, argv);
}
