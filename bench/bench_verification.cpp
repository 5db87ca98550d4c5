/**
 * @file
 * Regenerates the Section VIII-C verification experiment: every
 * generated protocol is checked for safety and deadlock freedom in
 * the paper's configurations, including hash compaction with
 * multiplied omission probabilities for the larger configuration.
 *
 * Also the perf harness for the checker itself: each configuration is
 * timed and reported in states/sec, the thread count is selectable
 * with --threads N, and a machine-readable BENCH_verification.json is
 * written so the perf trajectory can be tracked across PRs. Every
 * configuration is run with symmetry reduction on AND off, so the
 * JSON records the state-space shrink (symmetry_reduction_factor) and
 * the wall-time effect explicitly; --no-symmetry forces every run
 * unreduced, and --micro runs the delivery/canonicalization
 * microbenchmarks instead of the sweep. The MSI/MSI non-stalling
 * 2H+2L check is additionally run single- and multi-threaded to
 * record the parallel speedup (thread_scaling_valid marks whether the
 * host had more than one hardware thread to scale onto).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_common.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "util/json.hh"
#include "util/stopwatch.hh"

using namespace hieragen;

namespace
{

struct Measurement
{
    std::string protocol;
    std::string variant;
    std::string config;
    unsigned threads = 1;
    bool ok = false;
    uint64_t states = 0;  ///< canonical states when symmetry is on
    double ms = 0.0;
    double statesPerSec = 0.0;
    double omission = 0.0;
    bool symmetry = true;
    // The paired unreduced run of the same configuration (absent in
    // --no-symmetry mode, where the primary run is already unreduced).
    uint64_t statesUnreduced = 0;
    double msUnreduced = 0.0;
    double reductionFactor = 1.0;
    // Sampled per-phase attribution (--phases), summed over workers.
    verif::CheckResult::PhaseBreakdown phases;
    // Memory footprint: process VmHWM after the run (monotone across
    // configs — read it as "peak so far") and, when the run used the
    // out-of-core tier, the spill counters.
    uint64_t peakRssBytes = 0;
    bool spilled = false;
    uint64_t spilledBytes = 0;
    double diskProbeHitRate = 0.0;
    double spillStallMs = 0.0;
};

Measurement
runConfig(const HierProtocol &p, const std::string &proto,
          const std::string &variant, const std::string &config,
          int nh, int nl, const verif::CheckOptions &opts,
          unsigned threads)
{
    verif::CheckOptions o = opts;
    o.numThreads = threads;
    util::Stopwatch sw;
    auto r = verif::checkHier(p, nh, nl, o);
    Measurement m;
    m.protocol = proto;
    m.variant = variant;
    m.config = config;
    m.threads = threads;
    m.ok = r.ok;
    m.states = r.statesExplored;
    m.ms = sw.ms();
    m.statesPerSec =
        m.ms > 0 ? static_cast<double>(r.statesExplored) * 1e3 / m.ms
                 : 0.0;
    m.omission = r.omissionProbability;
    m.symmetry = r.symmetryReduction;
    m.phases = r.phases;
    m.peakRssBytes = r.peakRssBytes;
    m.spilled = r.spilledToDisk;
    m.spilledBytes = r.spilledBytes;
    m.diskProbeHitRate =
        r.diskProbes > 0 ? static_cast<double>(r.diskProbeHits) /
                               static_cast<double>(r.diskProbes)
                         : 0.0;
    m.spillStallMs = r.spillStallMs;
    return m;
}

/** Append the hardware-counter attribution (`"perf": {...}` inside
 *  a phases object) when the run captured it; no-op where
 *  perf_event_open was unusable. */
void
appendPerfJson(std::ostream &out,
               const verif::CheckResult::PhaseBreakdown &p)
{
    if (!p.perfEnabled)
        return;
    out << ", \"perf\": {\"expand_cycles\": " << p.expandPerf.cycles
        << ", \"expand_instructions\": " << p.expandPerf.instructions
        << ", \"expand_cache_misses\": " << p.expandPerf.cacheMisses
        << ", \"expand_branch_misses\": " << p.expandPerf.branchMisses
        << ", \"encode_cycles\": " << p.encodePerf.cycles
        << ", \"encode_cache_misses\": " << p.encodePerf.cacheMisses
        << ", \"insert_cycles\": " << p.insertPerf.cycles
        << ", \"insert_cache_misses\": " << p.insertPerf.cacheMisses
        << "}";
}

/** Attach the unreduced twin run to a symmetry-on measurement. */
void
attachUnreduced(Measurement &m, const Measurement &off)
{
    m.statesUnreduced = off.states;
    m.msUnreduced = off.ms;
    m.reductionFactor =
        m.states > 0 ? static_cast<double>(off.states) /
                           static_cast<double>(m.states)
                     : 1.0;
    m.ok = m.ok && off.ok;
}

/** Flagship run with periodic checkpointing at the default cadence,
 *  relative to the plain run — the number the ≤5% overhead criterion
 *  in docs/VERIFIER.md tracks. */
struct CheckpointOverhead
{
    double pct = 0.0;
    uint64_t writes = 0;
    uint64_t bytes = 0;
};

void
writeJson(const std::vector<Measurement> &rows, unsigned threads,
          double speedup, const CheckpointOverhead &ckpt,
          const obs::MetricsRegistry &telemetry,
          const std::string &path)
{
    std::ofstream out(path);
    out << "{\n  \"bench\": \"verification\",\n";
    out << "  \"threads\": " << threads << ",\n";
    out << "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n";
    // On a 1-hardware-thread host the parallel "speedup" only
    // measures the sharded engine's overhead, not scaling; consumers
    // must gate on this flag before reading the speedup as a trend.
    out << "  \"thread_scaling_valid\": "
        << (std::thread::hardware_concurrency() > 1 ? "true" : "false")
        << ",\n";
    out << "  \"msi_msi_nonstalling_2h2l_speedup\": " << std::fixed
        << std::setprecision(3) << speedup << ",\n";
    out << "  \"checkpoint_overhead_pct\": " << std::fixed
        << std::setprecision(2) << ckpt.pct
        << ", \"checkpoint_writes\": " << ckpt.writes
        << ", \"checkpoint_bytes\": " << ckpt.bytes << ",\n";
    // Telemetry snapshot of the flagship parallel run (see
    // docs/OBSERVABILITY.md for the metric definitions).
    out << "  \"flagship_telemetry\": {\"states_per_sec\": "
        << std::fixed << std::setprecision(0)
        << telemetry.gaugeValue("checker.states_per_sec")
        << ", \"dedup_hit_rate\": " << std::setprecision(4)
        << telemetry.gaugeValue("checker.dedup_hit_rate")
        << ", \"sym_time_share\": "
        << telemetry.gaugeValue("checker.sym_time_share")
        << ", \"states_explored\": "
        << telemetry.counterValue("checker.states_explored") << "},\n";
    out << "  \"configs\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        const Measurement &m = rows[i];
        out << "    {\"protocol\": \"" << m.protocol
            << "\", \"variant\": \"" << m.variant
            << "\", \"config\": \"" << m.config
            << "\", \"threads\": " << m.threads << ", \"ok\": "
            << (m.ok ? "true" : "false")
            << ", \"symmetry\": " << (m.symmetry ? "true" : "false")
            << ", \"states\": " << m.states << ", \"ms\": "
            << std::fixed << std::setprecision(2) << m.ms
            << ", \"states_per_sec\": " << std::setprecision(0)
            << m.statesPerSec;
        if (m.statesUnreduced > 0) {
            out << ", \"states_unreduced\": " << m.statesUnreduced
                << ", \"ms_unreduced\": " << std::setprecision(2)
                << m.msUnreduced << ", \"symmetry_reduction_factor\": "
                << std::setprecision(3) << m.reductionFactor;
        }
        if (m.phases.enabled) {
            out << ", \"phases\": {\"expand_ms\": " << std::fixed
                << std::setprecision(1) << m.phases.expandMs
                << ", \"encode_ms\": " << m.phases.encodeMs
                << ", \"canonicalize_ms\": " << m.phases.canonicalizeMs
                << ", \"insert_ms\": " << m.phases.insertMs
                << ", \"sampled_expansions\": "
                << m.phases.sampledExpansions;
            appendPerfJson(out, m.phases);
            out << "}";
        }
        out << ", \"peak_rss_bytes\": " << m.peakRssBytes;
        if (m.spilled) {
            out << ", \"spilled_bytes\": " << m.spilledBytes
                << ", \"disk_probe_hit_rate\": " << std::fixed
                << std::setprecision(4) << m.diskProbeHitRate
                << ", \"spill_stall_ms\": " << std::setprecision(1)
                << m.spillStallMs;
        }
        out << ", \"omission\": " << std::scientific
            << std::setprecision(3) << m.omission << "}";
        out << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
}

// ---------------------------------------------------------------
// --micro: hot-path microbenchmarks for the state substrate.

double
nsPerOp(uint64_t iters, const util::Stopwatch &sw)
{
    return sw.ns() / static_cast<double>(iters);
}

int
runMicro()
{
    std::cout << "checker micro-benchmarks\n\n";

    // A hierarchical MSI/MSI system mid-flight: several messages in
    // the multiset, sharer masks set — representative of the states
    // the delivery loop copies millions of times.
    Protocol l = protocols::builtinProtocol("MSI");
    Protocol h = protocols::builtinProtocol("MSI");
    core::HierGenOptions gopts;
    gopts.mode = ConcurrencyMode::NonStalling;
    HierProtocol p = core::generate(l, h, gopts);
    verif::System sys = verif::buildHierSystem(p, 2, 2);

    verif::SysState st = verif::initialState(sys, 2);
    MsgTypeId getsL = p.msgs.find("GetS", Level::Lower);
    MsgTypeId getsH = p.msgs.find("GetS", Level::Higher);
    for (int i = 0; i < 4; ++i) {
        Msg m;
        m.type = i % 2 ? getsL : getsH;
        m.src = static_cast<NodeId>(1 + i);
        m.dst = i % 2 ? 3 : 0;
        st.insertMsg(m);
    }
    st.blocks[0].sharers = 0b0110;

    constexpr uint64_t kIters = 2'000'000;
    verif::SysState scratch;

    // Old delivery path: full copy, then erase from the middle.
    {
        util::Stopwatch t0;
        for (uint64_t i = 0; i < kIters; ++i) {
            scratch = st;
            scratch.removeMsg(i % st.msgs.size());
        }
        std::cout << "  copy + removeMsg(mid):   " << std::fixed
                  << std::setprecision(1) << nsPerOp(kIters, t0)
                  << " ns/op\n";
    }
    // New delivery path: single-pass copy-minus-one.
    {
        util::Stopwatch t0;
        for (uint64_t i = 0; i < kIters; ++i)
            scratch.assignWithoutMsg(st, i % st.msgs.size());
        std::cout << "  assignWithoutMsg:        " << std::fixed
                  << std::setprecision(1) << nsPerOp(kIters, t0)
                  << " ns/op\n";
    }

    // Encoding vs canonical encoding (the symmetry-reduction tax per
    // generated state: |H|!*|L|! = 4 candidate images here). The
    // legacy fixed-width encoding is kept for diagnostics; the
    // bit-packed one is what the checker stores.
    std::string enc;
    std::string packed;
    verif::EncodeScratch esc;
    constexpr uint64_t kEncIters = 500'000;
    {
        util::Stopwatch t0;
        for (uint64_t i = 0; i < kEncIters; ++i)
            st.encodeTo(enc);
        std::cout << "  encodeTo (legacy):       " << std::fixed
                  << std::setprecision(1) << nsPerOp(kEncIters, t0)
                  << " ns/op, " << enc.size() << " bytes\n";
    }
    {
        util::Stopwatch t0;
        for (uint64_t i = 0; i < kEncIters; ++i)
            st.encodeTo(sys, packed);
        std::cout << "  encodeTo (packed):       " << std::fixed
                  << std::setprecision(1) << nsPerOp(kEncIters, t0)
                  << " ns/op, " << packed.size() << " bytes ("
                  << std::setprecision(2)
                  << static_cast<double>(enc.size()) /
                         static_cast<double>(packed.size())
                  << "x smaller)\n";
    }
    {
        util::Stopwatch t0;
        for (uint64_t i = 0; i < kEncIters; ++i) {
            scratch = st;
            scratch.encodeCanonicalTo(sys, enc, esc);
        }
        std::cout << "  copy + encodeCanonical:  " << std::fixed
                  << std::setprecision(1) << nsPerOp(kEncIters, t0)
                  << " ns/op  (2H+2L: 4 orbit images)\n";
    }
    return 0;
}

// ---------------------------------------------------------------
// --smoke: CI perf guard over one pinned configuration.

/**
 * Perf smoke: best-of-3 sequential runs of MSI/MSI stalling 2H+2L
 * exact, compared against scripts/perf_baseline.json. Fails (exit 1)
 * below 0.7x the baseline states/sec — wide enough to absorb
 * shared-runner noise, tight enough to catch a real regression in the
 * state substrate. It also re-checks the canonical state count, so a
 * perf win that changes the explored space (a canonicalization bug)
 * can't slip through as "faster". Writes the sampled per-phase
 * breakdown of the best run to perf_smoke_phases.json for the CI
 * artifact.
 */
int
runSmoke(const std::string &baseline_path)
{
    std::ifstream in(baseline_path);
    if (!in) {
        std::cerr << "perf-smoke: cannot read baseline "
                  << baseline_path << "\n";
        return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    util::JsonValue baseline;
    std::string perr;
    if (!util::parseJson(ss.str(), baseline, &perr)) {
        std::cerr << "perf-smoke: bad baseline " << baseline_path
                  << ": " << perr << "\n";
        return 2;
    }
    auto baseNumber = [&baseline](const char *key) {
        const util::JsonValue *v = baseline.find(key);
        return v ? v->asNumber(-1.0) : -1.0;
    };
    const double baseRate = baseNumber("states_per_sec");
    const double baseStates = baseNumber("states");
    if (baseRate <= 0) {
        std::cerr << "perf-smoke: baseline lacks states_per_sec\n";
        return 2;
    }

    Protocol l = protocols::builtinProtocol("MSI");
    Protocol h = protocols::builtinProtocol("MSI");
    core::HierGenOptions gopts;
    gopts.mode = ConcurrencyMode::Stalling;
    HierProtocol p = core::generate(l, h, gopts);

    verif::CheckOptions o;
    o.accessBudget = 2;
    o.traceOnError = false;
    o.numThreads = 1;
    o.phaseTiming = true;
    double best = 0.0;
    uint64_t states = 0;
    bool ok = true;
    verif::CheckResult::PhaseBreakdown phases;
    for (int run = 0; run < 3; ++run) {
        util::Stopwatch sw;
        auto r = verif::checkHier(p, 2, 2, o);
        double ms = sw.ms();
        double rate =
            ms > 0 ? static_cast<double>(r.statesExplored) * 1e3 / ms
                   : 0.0;
        if (rate > best) {
            best = rate;
            phases = r.phases;
        }
        states = r.statesExplored;
        ok = ok && r.ok;
    }

    std::cout << "perf-smoke MSI/MSI stalling 2H+2L exact (seq): "
              << std::fixed << std::setprecision(0) << best
              << " states/sec, baseline " << baseRate << " ("
              << std::setprecision(2) << best / baseRate << "x), "
              << states << " states\n";
    std::ofstream phasesOut("perf_smoke_phases.json");
    phasesOut << "{\"states\": " << states
              << ", \"states_per_sec\": " << std::fixed
              << std::setprecision(0) << best
              << ", \"expand_ms\": " << std::setprecision(1)
              << phases.expandMs << ", \"encode_ms\": " << phases.encodeMs
              << ", \"canonicalize_ms\": " << phases.canonicalizeMs
              << ", \"insert_ms\": " << phases.insertMs
              << ", \"sampled_expansions\": " << phases.sampledExpansions;
    appendPerfJson(phasesOut, phases);
    phasesOut << "}\n";

    bool pass = true;
    if (!ok) {
        std::cout << "perf-smoke FAIL: verification did not pass\n";
        pass = false;
    } else if (baseStates > 0 &&
               states != static_cast<uint64_t>(baseStates)) {
        std::cout << "perf-smoke FAIL: canonical state count " << states
                  << " != baseline " << static_cast<uint64_t>(baseStates)
                  << "\n";
        pass = false;
    } else if (best < 0.7 * baseRate) {
        std::cout << "perf-smoke FAIL: below 0.7x baseline\n";
        pass = false;
    }
    std::cout << (pass ? "perf-smoke PASS\n" : "perf-smoke FAIL\n");
    return pass ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Full sweep is slow; default to the stalling variants plus the
    // MSI/MSI non-stalling flagship unless --full is given.
    bool full = false;
    bool symmetry = true;
    bool phases = false;
    unsigned threads = 0;  // 0 = hardware concurrency
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--full") {
            full = true;
        } else if (arg == "--no-symmetry") {
            symmetry = false;
        } else if (arg == "--micro") {
            return runMicro();
        } else if (arg == "--smoke") {
            std::string baseline = i + 1 < argc
                                       ? argv[++i]
                                       : "scripts/perf_baseline.json";
            return runSmoke(baseline);
        } else if (arg == "--phases") {
            phases = true;
        } else if (arg == "--threads" && i + 1 < argc) {
            threads = static_cast<unsigned>(std::stoul(argv[++i]));
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--full] [--threads N] [--no-symmetry]"
                         " [--micro] [--phases]"
                         " [--smoke [baseline.json]]\n";
            return 2;
        }
    }
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }

    std::cout << "Section VIII-C: verification of generated protocols ("
              << threads << " thread" << (threads == 1 ? "" : "s")
              << ", symmetry reduction "
              << (symmetry ? "on vs off" : "off") << ")\n\n";
    std::cout << std::left << std::setw(14) << "protocol"
              << std::setw(14) << "variant" << std::setw(40)
              << "config A (2H+2L exact)" << std::setw(40)
              << "config B (2H+3L compacted)" << "\n";

    std::vector<Measurement> rows;
    bool all_ok = true;
    for (const auto &[lo, hi] : bench::tableCombos()) {
        std::vector<ConcurrencyMode> modes{ConcurrencyMode::Stalling};
        if (full || (lo == "MSI" && hi == "MSI"))
            modes.push_back(ConcurrencyMode::NonStalling);
        for (ConcurrencyMode mode : modes) {
            Protocol l = protocols::builtinProtocol(lo);
            Protocol h = protocols::builtinProtocol(hi);
            core::HierGenOptions opts;
            opts.mode = mode;
            HierProtocol p = core::generate(l, h, opts);
            std::string proto = lo + "/" + hi;

            verif::CheckOptions a;
            a.accessBudget = 2;
            a.traceOnError = false;
            a.symmetryReduction = symmetry;
            a.phaseTiming = phases;
            Measurement ma = runConfig(p, proto, toString(mode),
                                       "2H+2L exact", 2, 2, a, threads);
            if (symmetry) {
                verif::CheckOptions aOff = a;
                aOff.symmetryReduction = false;
                attachUnreduced(
                    ma, runConfig(p, proto, toString(mode),
                                  "2H+2L exact", 2, 2, aOff, threads));
            }
            rows.push_back(ma);
            all_ok = all_ok && ma.ok;

            // Config B: one more cache-L with hash compaction;
            // two runs with independent hash functions multiply the
            // omission probability (Stern-Dill, paper VIII-C).
            verif::CheckOptions b;
            b.accessBudget = 1;
            b.hashCompaction = true;
            b.traceOnError = false;
            b.symmetryReduction = symmetry;
            b.phaseTiming = phases;
            auto seedSweep = [&](const verif::CheckOptions &base,
                                 double &omission_out) {
                verif::CheckOptions o = base;
                double omission = 1.0;
                Measurement acc;
                bool ok = true;
                for (uint64_t seed : {0xAB12ull, 0xCD34ull}) {
                    o.compactionSeed = seed;
                    Measurement run =
                        runConfig(p, proto, toString(mode),
                                  "2H+3L compacted", 2, 3, o, threads);
                    ok = ok && run.ok;
                    omission *= run.omission;
                    run.ms += acc.ms;  // accumulate the seed passes
                    acc = run;
                }
                acc.ok = ok;
                omission_out = omission;
                return acc;
            };
            double omission = 1.0;
            Measurement mb = seedSweep(b, omission);
            mb.omission = omission;
            if (symmetry) {
                verif::CheckOptions bOff = b;
                bOff.symmetryReduction = false;
                double omissionOff = 1.0;
                attachUnreduced(mb, seedSweep(bOff, omissionOff));
            }
            mb.statesPerSec = mb.ms > 0
                                  ? static_cast<double>(mb.states) *
                                        2e3 / mb.ms
                                  : 0.0;
            rows.push_back(mb);
            all_ok = all_ok && mb.ok;

            std::ostringstream cell_a;
            cell_a << (ma.ok ? "PASS " : "FAIL ") << ma.states
                   << " st, " << std::fixed << std::setprecision(0)
                   << ma.statesPerSec << "/s";
            if (symmetry)
                cell_a << ", x" << std::setprecision(2)
                       << ma.reductionFactor;
            std::ostringstream cell_b;
            cell_b << (mb.ok ? "PASS " : "FAIL ") << mb.states
                   << " st, " << std::fixed << std::setprecision(0)
                   << mb.statesPerSec << "/s, p<" << std::scientific
                   << std::setprecision(1) << omission;
            if (symmetry)
                cell_b << ", x" << std::fixed << std::setprecision(2)
                       << mb.reductionFactor;
            std::cout << std::left << std::setw(14) << proto
                      << std::setw(14) << toString(mode)
                      << std::setw(40) << cell_a.str() << std::setw(40)
                      << cell_b.str() << "\n";
        }
    }

    // Parallel speedup on the flagship check: MSI/MSI non-stalling,
    // 2H+2L exact, 1 thread vs the configured thread count (both with
    // the session's symmetry setting).
    Protocol l = protocols::builtinProtocol("MSI");
    Protocol h = protocols::builtinProtocol("MSI");
    core::HierGenOptions gopts;
    gopts.mode = ConcurrencyMode::NonStalling;
    HierProtocol flagship = core::generate(l, h, gopts);
    verif::CheckOptions fo;
    fo.accessBudget = 2;
    fo.traceOnError = false;
    fo.symmetryReduction = symmetry;
    fo.phaseTiming = phases;
    // The flagship's canonical state count is known; pre-sizing the
    // table skips the growth rehashes (CheckOptions::expectedStates).
    fo.expectedStates = 2'000'000;
    Measurement seq = runConfig(flagship, "MSI/MSI", "NonStalling",
                                "2H+2L exact seq", 2, 2, fo, 1);
    // The parallel run carries the metrics registry, so the JSON
    // includes the live-telemetry snapshot of the flagship check.
    obs::MetricsRegistry reg;
    obs::Telemetry telem;
    telem.metrics = &reg;
    verif::CheckOptions fp = fo;
    fp.telemetry = &telem;
    Measurement par = runConfig(flagship, "MSI/MSI", "NonStalling",
                                "2H+2L exact par", 2, 2, fp, threads);
    rows.push_back(seq);
    rows.push_back(par);
    all_ok = all_ok && seq.ok && par.ok &&
             seq.states == par.states;
    double speedup = par.ms > 0 ? seq.ms / par.ms : 0.0;
    std::cout << "\nMSI/MSI non-stalling 2H+2L: 1 thread " << std::fixed
              << std::setprecision(0) << seq.ms << " ms, " << threads
              << " threads " << par.ms << " ms  (speedup "
              << std::setprecision(2) << speedup << "x, "
              << seq.states << " states both"
              << (std::thread::hardware_concurrency() > 1
                      ? ")\n"
                      : "; 1 hardware thread — speedup not "
                        "meaningful)\n");

    // Checkpoint overhead at the default cadence (30 s): the flagship
    // sequential run again, snapshotting to a scratch file. The ≤5%
    // criterion from docs/VERIFIER.md is tracked by
    // checkpoint_overhead_pct in the JSON.
    CheckpointOverhead ckpt;
    {
        verif::CheckOptions co = fo;
        co.numThreads = 1;
        co.checkpointPath = "bench_verification.ckpt.tmp";
        util::Stopwatch sw;
        auto rr = verif::checkHier(flagship, 2, 2, co);
        Measurement withCkpt;
        withCkpt.protocol = "MSI/MSI";
        withCkpt.variant = "NonStalling";
        withCkpt.config = "2H+2L exact seq ckpt";
        withCkpt.threads = 1;
        withCkpt.ok = rr.ok;
        withCkpt.states = rr.statesExplored;
        withCkpt.ms = sw.ms();
        withCkpt.statesPerSec =
            withCkpt.ms > 0 ? static_cast<double>(rr.statesExplored) *
                                  1e3 / withCkpt.ms
                            : 0.0;
        withCkpt.symmetry = rr.symmetryReduction;
        ckpt.writes = rr.checkpointsWritten;
        ckpt.bytes = rr.checkpointBytes;
        ckpt.pct = seq.ms > 0
                       ? (withCkpt.ms - seq.ms) * 100.0 / seq.ms
                       : 0.0;
        rows.push_back(withCkpt);
        all_ok = all_ok && withCkpt.ok &&
                 withCkpt.states == seq.states;
        std::remove("bench_verification.ckpt.tmp");
        std::remove("bench_verification.ckpt.tmp.tmp");
        std::cout << "checkpointing at default cadence: "
                  << std::fixed << std::setprecision(0) << withCkpt.ms
                  << " ms (" << std::showpos << std::setprecision(1)
                  << ckpt.pct << "%" << std::noshowpos << ", "
                  << ckpt.writes << " writes)\n";
    }

    // Out-of-core overhead: the flagship sequential run once more
    // with a 128 MB watermark and a spill directory. The run must
    // stay exact (same canonical count as the uncapped leg); the
    // JSON row's spilled_bytes / disk_probe_hit_rate / ms track the
    // spill overhead factor across PRs.
    {
        verif::CheckOptions so = fo;
        so.maxResidentBytes = 128ull << 20;
        so.memoryLimitPolicy = verif::MemoryLimitPolicy::SpillToDisk;
        so.spillDir = "bench_spill.tmp";
        Measurement spill =
            runConfig(flagship, "MSI/MSI", "NonStalling",
                      "2H+2L exact seq spill 128MB", 2, 2, so, 1);
        rows.push_back(spill);
        all_ok = all_ok && spill.ok && spill.states == seq.states &&
                 spill.spilled;
        std::remove("bench_spill.tmp");  // segments already gone
        std::cout << "out-of-core at 128 MB cap: " << std::fixed
                  << std::setprecision(0) << spill.ms << " ms ("
                  << std::setprecision(2)
                  << (seq.ms > 0 ? spill.ms / seq.ms : 0.0)
                  << "x uncapped, "
                  << spill.spilledBytes / (1024 * 1024)
                  << " MB spilled, disk-probe hit "
                  << std::setprecision(1)
                  << spill.diskProbeHitRate * 100 << "%)\n";
    }

    writeJson(rows, threads, speedup, ckpt, reg,
              "BENCH_verification.json");
    std::cout << "wrote BENCH_verification.json\n";

    std::cout << (all_ok ? "\nALL VERIFICATIONS PASS\n"
                         : "\nFAILURES PRESENT\n");
    return all_ok ? 0 : 1;
}
