#!/usr/bin/env python3
"""HieraGen verdict benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the program's library modules, the `hieragen` CLI
and the benchmark driver) into .bench_build/. Every leg of a workload
runs in its own process, and its peak RSS comes from wait4().

Workloads (see perfbench/README.md for why each was chosen):

  flagship_seq      MSI/MSI non-stalling, 2H+1L, library defaults
                    (tracing, symmetry, POR on), 1 checker thread,
                    verified over and over, each time on the next CPU.
  flagship_bounded  MSI/MSI non-stalling, 2H+2L, at nproc threads
                    under a 64 MB memory limit spilling to disk,
                    stopped at a seed-chosen state count with a
                    checkpoint and resumed to the verdict in a fresh
                    process.
  serve_mix         one `hieragen serve` daemon (2 workers), two
                    closed-loop clients replaying identical rounds of
                    jobs in a seeded order.

--trace 0 prints the end-to-end metrics; --trace 1 makes the traced
run and prints the per-layer metrics. Every verdict is checked against
perfbench/pins.json; any mismatch fails the run. The last stdout line
is the result object; the line before it is the run's provenance.

    python3 perfbench/run.py --record-pins

re-records pins.json from the current program (both POR settings).
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(".bench_build", "perfbench")
RUNS = ".bench_run"
DRIVER = os.path.join(BUILD, "perfbench_driver")
HIERAGEN = os.path.join(BUILD, "hg_src", "tools", "hieragen")
NOSYNC = os.path.join(BUILD, "libperfbench_nosync.so")
PINS = os.path.join(BENCH, "pins.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# The flagship protocol (MSI/MSI non-stalling) at the cache counts of
# each workload: (pin key, higher-level caches, lower-level caches).
SEQ = ("MSI/MSI/nonstalling/2h1l", 2, 1)
BOUNDED = ("MSI/MSI/nonstalling/2h2l", 2, 2)
TRACE_STORE_SECONDS = 8  # each trace-store on/off leg of a traced run
SETUP_REPS = 150         # back-to-back set-up reps per set-up process
SETUP_PROCS = 9          # set-up-only processes per run
TRACED_SETUP_REPS = 41   # set-up reps ahead of a traced verdict
DAEMON_STARTS = 31       # daemon start -> ping repetitions per run
# Below the 128 MB of the low-memory kill/resume path on purpose: at
# 128 MB, leg 2 spills or not depending on how full the hot table was
# when leg 1 stopped, which splits verdict_s into two modes ~25%
# apart. At 64 MB both legs always spill.
MEMORY_LIMIT_MB = 64
CHILD_TIMEOUT_S = 170
NAMES = ["MI", "MSI", "MESI", "MOSI", "MOESI"]
MODES = ["stalling", "nonstalling"]
HEAVY_STEP = 20          # a round holds every 20th heavy configuration
LIGHT_STEP = 5           # ... and every fifth light one
STREAM_ROUNDS = 400      # rounds in a stream (6000 jobs)
MIN_ROUNDS = 7           # timed serve_mix rounds a run needs (p90: 10 beyond)
SERVE_WORKERS = 2        # the daemon's default pool
SERVE_CLIENTS = 2        # closed-loop clients (see README: no queueing)


class RunFailure(Exception):
    """A leg errored: the run prints no result and exits non-zero."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------------
# Build and provenance

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RunFailure("no program sources next to perfbench/ "
                         "(run from the root of a source checkout)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                        "-DHG_GIT_VERSION=" + source_identity()],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench_driver", "hieragen",
                    "perfbench_nosync"],
                   check=True, stdout=sys.stderr)


def source_identity():
    """`git describe` when the checkout is a repository, else a digest
    of the program and benchmark sources."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-sha1:" + h.hexdigest()[:12]


def fs_type(path):
    """Filesystem type of the mount holding @p path (/proc/self/mountinfo)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, right = line.split(" - ", 1)
                mnt = left.split()[4]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) >= len(best):
                    best, kind = mnt, right.split()[0]
    except OSError:
        pass
    return kind


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# ------------------------------------------------------------------
# Child processes

def spawn(argv, out_path, cpu=None, env=None):
    """Start @p argv with stdout to @p out_path, pinned to @p cpu when
    one is given."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        return subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                stdin=subprocess.DEVNULL, preexec_fn=pin)


def daemon_env():
    """The environment of every daemon: fsync made free (nosync.cc)."""
    return dict(os.environ, LD_PRELOAD=os.path.abspath(NOSYNC))


def reap(proc, name, deadline):
    """wait4() the child: (exit status, its rusage). Kills it at the
    deadline."""
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, ru
        if time.monotonic() > deadline:
            proc.kill()
            _, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise RunFailure(name + " timed out")
        time.sleep(0.01)


TRACE = []  # spans of every traced leg of this run, written at the end


def drive(run_dir, name, *args, cpu=None, env=None):
    """Run one driver leg; returns (its JSON, peak RSS MB). The JSON
    gains the leg's CPU time (user + system) as "cpu_s"."""
    out = os.path.join(run_dir, name + ".json")
    argv = [DRIVER] + [str(a) for a in args]
    proc = spawn(argv, out, cpu, env)
    code, ru = reap(proc, name, time.monotonic() + CHILD_TIMEOUT_S)
    if code != 0:
        with open(out + ".err", errors="replace") as f:
            raise RunFailure("%s exited %d: %s" % (name, code, f.read()[-2000:]))
    with open(out) as f:
        result = json.loads(f.read().strip().splitlines()[-1])
    if isinstance(result, dict):
        result["cpu_s"] = ru.ru_utime + ru.ru_stime
    if "spans" in result:
        TRACE.append({"leg": name, "spans": result["spans"]})
    return result, ru.ru_maxrss / 1024.0


# ------------------------------------------------------------------
# Known answers

def load_pins():
    with open(PINS) as f:
        return json.load(f)


class Gate:
    """Counts operations and checks each verdict against the pins."""

    def __init__(self, pins):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def verdict(self, key, ok, states, what):
        pin = self.pins.get(key)
        good = bool(ok) and pin is not None and \
            states in (pin["por_on"], pin["por_off"])
        self.op(good, "%s: %s ok=%s states=%s pin=%s"
                % (what, key, ok, states, pin))


# ------------------------------------------------------------------
# Statistics helpers

def med(values):
    return statistics.median(values) if values else 0.0


def pct(values, p):
    """Nearest-rank percentile of @p values (0 < p < 100)."""
    v = sorted(values)
    k = max(0, min(len(v) - 1, -(-len(v) * p // 100) - 1))
    return v[int(k)]


# ------------------------------------------------------------------
# Spans: self time per layer and the sum rule

def layer_of(name):
    return name.split(".", 1)[0] if "." in name else None


def self_times(spans):
    """{span id: self time ns}: duration minus what its children cover
    (children of one parent never overlap in one process)."""
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0) + \
                s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0)
            for s in spans}


def layer_self_ms(spans):
    """Self time per layer (span name prefix) in ms, over root spans
    of a process."""
    st = self_times(spans)
    out = {}
    for s in spans:
        layer = layer_of(s["name"])
        if layer:
            out[layer] = out.get(layer, 0.0) + st[s["id"]] / 1e6
    return out


def median_rep_spans(spans):
    """Spans of the set-up rep whose total is the median, plus every
    span outside set-up."""
    roots = [s for s in spans if s["name"] == "setup"]
    if not roots:
        return spans
    roots.sort(key=lambda s: s["end"] - s["start"])
    keep = roots[len(roots) // 2]["id"]
    drop = {s["id"] for s in roots if s["id"] != keep}
    changed = True
    while changed:
        changed = False
        for s in spans:
            if s["parent"] in drop and s["id"] not in drop:
                drop.add(s["id"])
                changed = True
    return [s for s in spans if s["id"] not in drop]


def coverage(legs):
    """Layer self time / wall time over the traced legs, each reduced
    to its median set-up rep plus its verdict."""
    layer_ms = wall_ms = 0.0
    for spans in legs:
        spans = median_rep_spans(spans)
        layer_ms += sum(layer_self_ms(spans).values())
        wall_ms += sum(s["end"] - s["start"] for s in spans
                       if s["parent"] < 0) / 1e6
    return layer_ms / wall_ms if wall_ms else 0.0


PASSES = ["lower-ssp", "compat-conservative", "compose",
          "concurrency-nonstalling", "rename-forwarded",
          "merge-equivalent", "prune-unreachable"]


def per_layer_zero():
    names = (["dsl.compile_ms", "pipeline.generate_ms"] +
             ["pipeline.%s_ms" % p for p in PASSES] +
             ["pipeline.rows_out", "verif.system_build_ms",
              "checker.run_s", "checker.states", "checker.states_generated",
              "checker.dedup_ratio", "checker.ample_expansions",
              "checker.threads", "checker.expand_ms", "checker.encode_ms",
              "checker.canonicalize_ms", "checker.insert_ms",
              "checker.trace_extra_s", "checker.trace_extra_mb",
              "statestore.spilled_mb", "statestore.segments",
              "statestore.stall_ms", "statestore.disk_probes",
              "statestore.disk_hit_rate",
              "checkpoint.bytes", "checkpoint.write_ms", "checkpoint.read_ms",
              "svc.ping_ms", "svc.submit_ms",
              "svc.queue_wait_ms", "svc.run_ms", "svc.hit_job_ms", "svc.miss_job_ms",
              "svc.cache_hit_rate", "svc.persist_ms_per_job",
              "trace.overhead_ms", "trace.layer_coverage"])
    return {n: 0.0 for n in names}


def setup_layers(leg, out):
    st = leg["setup"]
    out["dsl.compile_ms"] = med(st["dsl_ms"])
    out["pipeline.generate_ms"] = med(st["generate_ms"])
    # Per-pass times from the pipeline's own report (api::generate's
    # statsJson), one report per rep.
    pass_ms = {}
    for report in st["pass_reports"]:
        for p in report["passes"]:
            pass_ms.setdefault(p["name"], []).append(p["ms"])
    for p, v in pass_ms.items():
        out["pipeline.%s_ms" % p] = med(v)
    out["pipeline.rows_out"] = st["rows_out"]
    out["verif.system_build_ms"] = med(st["system_ms"])


def checker_layers(legs, out):
    """Checker counters of a verdict split over @p legs (the last leg
    carries the cumulative state counts)."""
    last = legs[-1]["result"]
    out["checker.run_s"] = sum(l["verdict_s"] for l in legs)
    out["checker.states"] = last["states"]
    out["checker.states_generated"] = last["states_generated"]
    out["checker.dedup_ratio"] = last["states"] / max(1, last["states_generated"])
    out["checker.ample_expansions"] = sum(l["result"]["ample_expansions"]
                                          for l in legs)
    out["checker.threads"] = legs[0].get("workers_gauge",
                                         legs[0]["threads_resolved"])
    for k in ("expand_ms", "encode_ms", "canonicalize_ms", "insert_ms"):
        out["checker." + k] = sum(l["result"][k] for l in legs)


# ------------------------------------------------------------------
# Workloads

def verify_args(config, seed, threads, reps, extra=()):
    return ["verify", "--h", config[1], "--l", config[2], "--seed", seed,
            "--threads", threads, "--setup-reps", reps] + list(extra)


def setup_s(ctx, config):
    """Flagship set-up time: the median over SETUP_PROCS set-up-only
    processes, pinned to the CPUs in turn, of each one's fastest of
    SETUP_REPS back-to-back reps. A rep is ~1.5 ms. On a shared VM,
    each vCPU can switch between a fast and a ~1.6x slower speed every
    few seconds (see README), so a median over reps reads the share of
    slow time, not the program. The fastest rep of a process reads its
    CPU's speed when unhindered, and the median over processes drops
    the ones whose reps all ran in a slow spell."""
    cpus = sorted(os.sched_getaffinity(0))
    best = []
    for i in range(SETUP_PROCS):
        r, _ = drive(ctx["dir"], "setup-%d" % i,
                     *verify_args(config, ctx["seed"], 1, SETUP_REPS,
                                  ["--verdict", 0]),
                     cpu=cpus[i % len(cpus)])
        best.append(min(r["setup"]["total_ms"]) / 1e3)
    return med(best)


def flagship_seq(ctx):
    seed, gate, d = ctx["seed"], ctx["gate"], ctx["dir"]
    key = SEQ[0]

    def leg(name, reps, *extra):
        r, rss = drive(d, name, *verify_args(SEQ, seed, 1, reps, extra))
        gate.verdict(key, r["result"]["ok"], r["result"]["states"], name)
        return r, rss

    def repeated(name, seconds, *extra):
        """Verdicts over and over for @p seconds in one process: (the
        mean verdict time, states, peak RSS MB)."""
        r, rss = drive(d, name, *verify_args(
            SEQ, seed, 1, 1, ["--verdict-seconds", seconds] + list(extra)))
        for i, states in enumerate(r["states"]):
            gate.verdict(key, r["ok"], states, "%s verdict %d" % (name, i))
        ctx["prov"].update(threads_resolved=r["threads_resolved"],
                           verdicts=len(r["verdicts_s"]))
        return statistics.fmean(r["verdicts_s"]), r["states"][0], rss

    prov = ctx["prov"]
    prov.update(threads_requested=1, trace_store="on")
    if not ctx["trace"]:
        start = time.monotonic()
        setup = setup_s(ctx, SEQ)
        left = ctx["seconds"] - (time.monotonic() - start)
        verdict, states, rss = repeated("verdicts", max(1, round(left)))
        return verdict_metrics(setup, verdict, states, rss)

    traced, _ = leg("traced", TRACED_SETUP_REPS,
                    "--spans", 1, "--phases", 1, "--metrics", 1)
    plain, _ = leg("untraced", TRACED_SETUP_REPS)
    on_s, _, rss_on = repeated("trace_store_on", TRACE_STORE_SECONDS)
    off_s, _, rss_off = repeated("trace_store_off", TRACE_STORE_SECONDS,
                                 "--trace-store", 0)
    prov.update(threads_resolved=traced["workers_gauge"])
    out = per_layer_zero()
    setup_layers(traced, out)
    checker_layers([traced], out)
    out["checker.trace_extra_s"] = on_s - off_s
    out["checker.trace_extra_mb"] = rss_on - rss_off
    out["trace.overhead_ms"] = 1e3 * (leg_wall(traced) - leg_wall(plain))
    out["trace.layer_coverage"] = coverage([traced["spans"]])
    check_coverage(gate, out["trace.layer_coverage"])
    return out


def leg_wall(leg):
    return med(leg["setup"]["total_ms"]) / 1e3 + leg["verdict_s"]


def check_coverage(gate, cov):
    gate.op(abs(cov - 1.0) <= 0.05, "layer spans cover %.4f of wall" % cov)


def verdict_metrics(setup, verdict_s, states, rss):
    job_ms = 1e3 * (setup + verdict_s)
    return {"setup_s": setup, "verdict_s": verdict_s,
            "states_per_s": states / verdict_s, "peak_rss_mb": rss,
            "job_p50_ms": job_ms, "job_p90_ms": job_ms,
            "jobs_per_s": 1e3 / job_ms}


def flagship_bounded(ctx):
    seed, gate, d, pins = ctx["seed"], ctx["gate"], ctx["dir"], ctx["pins"]
    total = pins[BOUNDED[0]]["por_on"]
    stop_at = int(total * random.Random(seed).uniform(0.45, 0.55))
    bounded = ["--mem-mb", MEMORY_LIMIT_MB]

    def legs(tag, traced, checkpoint=True, resume=True):
        ckpt = os.path.join(d, tag + ".ckpt")
        spill = os.path.join(d, tag + "-spill")
        extra = ["--spans", 1, "--metrics", 1] if traced else []
        first = ["--max-states", stop_at, "--spill", spill] + bounded + extra
        if checkpoint:
            first += ["--checkpoint", ckpt]
        reps = TRACED_SETUP_REPS if traced else 1
        l1, rss1 = drive(d, tag + "-leg1",
                         *verify_args(BOUNDED, seed, 0, reps, first))
        r1 = l1["result"]
        gate.op(r1["error_kind"] == "state-limit" and r1["resumable"] and
                (r1["checkpoints_written"] >= 1) == checkpoint,
                "%s leg 1 stopped as %s" % (tag, r1["error_kind"]))
        if not resume:
            return l1, None, rss1
        second = ["--resume", ckpt, "--spill", spill] + bounded + extra
        if traced:
            second += ["--read-ckpt", 1]
        l2, rss2 = drive(d, tag + "-leg2",
                         *verify_args(BOUNDED, seed, 0, 1, second))
        r2 = l2["result"]
        gate.verdict(BOUNDED[0], r2["ok"] and r2["resumed"], r2["states"],
                     tag + " resumed")
        return l1, l2, max(rss1, rss2)

    prov = ctx["prov"]
    prov.update(threads_requested=0, trace_store="off (spill)",
                spill_fs=fs_type(d), stop_at_states=stop_at)
    if not ctx["trace"]:
        setup = setup_s(ctx, BOUNDED)
        l1, l2, rss = legs("run", False)
        prov.update(threads_resolved=l1["threads_resolved"],
                    verdict_cpu_s=[l1["cpu_s"], l2["cpu_s"]])
        return verdict_metrics(setup,
                               l1["verdict_s"] + l2["verdict_s"],
                               l2["result"]["states"], rss)

    t1, t2, _ = legs("traced", True)
    n1, _, _ = legs("nockpt", True, checkpoint=False, resume=False)
    u1, u2, _ = legs("untraced", False)
    prov.update(threads_resolved=t1["workers_gauge"])
    out = per_layer_zero()
    setup_layers(t1, out)
    checker_layers([t1, t2], out)
    res = [t1["result"], t2["result"]]
    out["statestore.spilled_mb"] = sum(r["spilled_bytes"] for r in res) / 2**20
    out["statestore.segments"] = sum(r["spill_segments"] for r in res)
    out["statestore.stall_ms"] = sum(r["spill_stall_ms"] for r in res)
    probes = sum(r["disk_probes"] for r in res)
    out["statestore.disk_probes"] = probes
    out["statestore.disk_hit_rate"] = \
        sum(r["disk_probe_hits"] for r in res) / probes if probes else 0.0
    out["checkpoint.bytes"] = t1["result"]["checkpoint_bytes"]
    out["checkpoint.write_ms"] = 1e3 * (t1["verdict_s"] - n1["verdict_s"])
    out["checkpoint.read_ms"] = t2["checkpoint_read_ms"]
    traced_wall = leg_wall(t1) + t2["verdict_s"] + \
        t2["checkpoint_read_ms"] / 1e3
    out["trace.overhead_ms"] = 1e3 * (traced_wall - leg_wall(u1) -
                                      u2["verdict_s"])
    out["trace.layer_coverage"] = coverage([t1["spans"], t2["spans"]])
    check_coverage(gate, out["trace.layer_coverage"])
    return out


def round_jobs(pins):
    """The configurations of one serve_mix round: every LIGHT_STEP-th
    1H+1L configuration and every HEAVY_STEP-th 2H+1L / 1H+2L one,
    each ranked by pinned state count, so the round spans cheap to
    expensive checks, with two light jobs per heavy one."""
    keys = [(lo, hi, m) for lo in NAMES for hi in NAMES for m in MODES]
    heavy = [k + lay for k in keys for lay in ((2, 1), (1, 2))]
    heavy.sort(key=lambda j: (pins["%s/%s/%s/%dh%dl" % j]["por_on"], j))
    light = [k + (1, 1) for k in keys]
    light.sort(key=lambda j: (pins["%s/%s/%s/%dh%dl" % j]["por_on"], j))
    return (light[LIGHT_STEP // 2::LIGHT_STEP],
            heavy[HEAVY_STEP // 2::HEAVY_STEP])


def job_stream(seed, pins):
    """The serve_mix job stream: STREAM_ROUNDS rounds, each the same
    jobs (round_jobs) in a seed-shuffled order, laid out in blocks of
    two light jobs and one heavy one. Every round is the same work, so
    rounds can be compared with each other and across seeds."""
    rng = random.Random(seed)
    light, heavy = round_jobs(pins)
    jobs = []
    for _ in range(STREAM_ROUNDS):
        rng.shuffle(light)
        rng.shuffle(heavy)
        for i, h in enumerate(heavy):
            block = light[2 * i:2 * i + 2]
            block.insert(rng.randrange(3), h)
            jobs.extend(block)
    return jobs


def start_daemon(d, tag):
    sock = os.path.join(d, tag + ".sock")
    state = os.path.join(d, tag + "-state")
    proc = spawn([HIERAGEN, "serve", sock, "--state-dir", state,
                  "--workers", str(SERVE_WORKERS)],
                 os.path.join(d, tag + "-daemon.log"), env=daemon_env())
    return proc, sock, state


def serve_run(ctx, tag, traced):
    """One daemon, SERVE_CLIENTS closed-loop clients for --seconds;
    returns (client JSON, daemon peak RSS MB, daemon state dir)."""
    d, gate = ctx["dir"], ctx["gate"]
    stream = os.path.join(d, "stream.txt")
    if not os.path.exists(stream):
        with open(stream, "w") as f:
            for j in job_stream(ctx["seed"], ctx["pins"]):
                f.write("%s %s %s %d %d\n" % j)
    proc, sock, state = start_daemon(d, tag)
    try:
        light, heavy = round_jobs(ctx["pins"])
        client, _ = drive(d, tag + "-clients", "serve-client",
                          "--socket", sock, "--stream", stream,
                          "--seconds", ctx["seconds"],
                          "--min-jobs",
                          (MIN_ROUNDS + 2) * (len(light) + len(heavy)),
                          "--clients", SERVE_CLIENTS,
                          "--spans", int(traced), "--shutdown", 1)
        code, ru = reap(proc, tag + " daemon", time.monotonic() + 30)
        rss = ru.ru_maxrss / 1024.0
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    gate.op(code == 0 and client["shutdown_ok"], "%s daemon exit %d"
            % (tag, code))
    for e in client["client_errors"]:
        gate.op(not e, "client: " + e)
    jobs = client["jobs"]
    for j in jobs:
        key = "%s/%s/%s/%dh%dl" % (j["lower"], j["higher"], j["mode"],
                                    j["h"], j["l"])
        gate.verdict(key, j["transport_ok"] and j["state"] == "done" and
                     j["verify_ok"], j["states"], "job %d" % j["id"])
    ctx["prov"]["state_fs"] = fs_type(state)
    ctx["prov"]["jobs"] = len(jobs)
    return client, rss, state


def latency_ms(j):
    return (j["done"] - j["submit_start"]) / 1e6


def serve_rounds(jobs, round_len):
    """Job metrics over the run's complete rounds but the first: round
    0 fills the generation cache and is left out as warm-up. Each round
    is timed from the last result of the round before it to its own
    last result. Returns (metrics, number of rounds timed)."""
    by_round = {}
    for j in jobs:
        by_round.setdefault(int(j["index"]) // round_len, []).append(j)
    last = {r: max(j["done"] for j in js) for r, js in by_round.items()}
    timed = [r for r, js in by_round.items()
             if r >= 1 and len(js) == round_len and r - 1 in last]
    if len(timed) < MIN_ROUNDS:
        raise RunFailure("only %d complete rounds after warm-up; the "
                         "metrics need %d" % (len(timed), MIN_ROUNDS))
    pooled = [j for r in timed for j in by_round[r]]
    lat = [latency_ms(j) for j in pooled]
    busy = sum(j["elapsed_s"] for j in pooled)
    wall_ns = sum(last[r] - last[r - 1] for r in timed)
    return {"verdict_s": busy / len(pooled),
            "states_per_s": sum(j["states"] for j in pooled) / busy,
            "job_p50_ms": pct(lat, 50),
            "job_p90_ms": pct(lat, 90),
            "jobs_per_s": len(pooled) * 1e9 / wall_ns}, len(timed)


def serve_mix(ctx):
    d = ctx["dir"]
    prov = ctx["prov"]
    prov.update(threads_requested=1, threads_resolved=1, trace_store="on",
                workers=SERVE_WORKERS, clients=SERVE_CLIENTS)
    setup, _ = drive(d, "daemon-setup", "serve-setup", "--hieragen", HIERAGEN,
                     "--dir", d, "--workers", SERVE_WORKERS,
                     "--reps", DAEMON_STARTS, "--spans", ctx["trace"],
                     env=daemon_env())
    start_s = med(setup["start_ms"]) / 1e3

    client, rss, state = serve_run(ctx, "mix", ctx["trace"])
    jobs = client["jobs"]
    lat = [latency_ms(j) for j in jobs]
    busy = sum(j["elapsed_s"] for j in jobs)
    states = sum(j["states"] for j in jobs)
    light, heavy = round_jobs(ctx["pins"])
    rounds, timed = serve_rounds(jobs, len(light) + len(heavy))
    prov["timed_rounds"] = timed
    if not ctx["trace"]:
        return dict(rounds, setup_s=start_s, peak_rss_mb=rss)

    plain, _, _ = serve_run(ctx, "untraced", False)
    probe, _ = drive(d, "persist-probe", "persist-probe", "--dir", state)
    out = per_layer_zero()
    out["checker.run_s"] = busy
    out["checker.states"] = states
    gen = sum(j["states_generated"] for j in jobs)
    out["checker.states_generated"] = gen
    out["checker.dedup_ratio"] = states / gen if gen else 0.0
    out["checker.threads"] = 1
    out["svc.ping_ms"] = med(setup["ping_ms"])
    out["svc.submit_ms"] = med([(j["submit_end"] - j["submit_start"]) / 1e6
                                for j in jobs])
    out["svc.queue_wait_ms"] = med([latency_ms(j) - 1e3 * j["elapsed_s"]
                                    for j in jobs])
    out["svc.run_ms"] = med([1e3 * j["elapsed_s"] for j in jobs])
    hits = [latency_ms(j) for j in jobs if j["cache_hit"]]
    misses = [latency_ms(j) for j in jobs if not j["cache_hit"]]
    out["svc.hit_job_ms"] = med(hits)
    out["svc.miss_job_ms"] = med(misses)
    out["svc.cache_hit_rate"] = len(hits) / len(jobs)
    # Each completed job is persisted five times: its record on
    # submit, worker pick-up, Running and completion, plus its result.
    out["svc.persist_ms_per_job"] = 5 * med(probe["write_ms"])
    out["trace.overhead_ms"] = med(lat) - med(
        [latency_ms(j) for j in plain["jobs"]])
    return out


WORKLOADS = {"flagship_seq": flagship_seq,
             "flagship_bounded": flagship_bounded,
             "serve_mix": serve_mix}


# ------------------------------------------------------------------
# Entry points

def record_pins():
    build()
    d = os.path.join(RUNS, "pins")
    os.makedirs(d, exist_ok=True)
    pins = {}
    for por in (1, 0):
        rows, _ = drive(d, "pins-%d" % por, "pins", "--por", por)
        for r in rows:
            if not r["ok"]:
                raise RunFailure("builtin configuration %s fails" % r["key"])
            pins.setdefault(r["key"], {})["por_on" if por else "por_off"] = \
                r["states"]
        leg, _ = drive(d, "flagship-%d" % por,
                       *verify_args(BOUNDED, 0, 1, 1, ["--por", por]))
        if not leg["result"]["ok"]:
            raise RunFailure("flagship fails")
        pins.setdefault(BOUNDED[0], {})["por_on" if por else "por_off"] = \
            leg["result"]["states"]
    with open(PINS, "w") as f:
        f.write("{\n" + ",\n".join(
            " %s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
            for k, v in sorted(pins.items())) + "\n}\n")
    log("wrote %d pins to %s" % (len(pins), PINS))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-pins", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    try:
        if args.record_pins:
            record_pins()
            return 0
        if not args.workload:
            ap.error("--workload is required")
        with open(SPEC) as f:
            spec = json.load(f)
        build()
        run_dir = os.path.join(RUNS, "%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        ctx = {"seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "dir": run_dir, "pins": load_pins(),
               "gate": None,
               "prov": {"workload": args.workload, "seed": args.seed,
                        "trace": args.trace, "nproc": os.cpu_count(),
                        "build_type": build_type(),
                        "source": source_identity(),
                        "run_fs": fs_type(run_dir)}}
        ctx["gate"] = gate = Gate(ctx["pins"])
        # Write back what earlier runs left dirty (spill segments,
        # daemon state), so that it does not land in this run's
        # set-up timings.
        os.sync()
        values = WORKLOADS[args.workload](ctx)
    except (RunFailure, subprocess.CalledProcessError, OSError,
            KeyError, ValueError) as e:
        log("run failed:", e)
        return 1
    prov = ctx["prov"]
    threads = prov.get("threads_resolved", 1)
    prov["engine"] = "sequential" if threads == 1 else "parallel"
    prov["fail_frac"] = gate.failed / max(1, gate.attempted)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for p in gate.problems[:20]:
        log("FAIL:", p)
    if TRACE:
        path = os.path.join(RUNS, "trace-%s-%d.json" % (args.workload,
                                                         args.seed))
        with open(path, "w") as f:
            json.dump({"provenance": prov, "legs": TRACE}, f)
        prov["spans_file"] = path
    print(json.dumps({"provenance": prov}))
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    if gate.failed == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
