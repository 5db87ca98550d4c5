#include "verif/checker.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "fsm/printer.hh"
#include "obs/journal.hh"
#include "obs/perfcounters.hh"
#include "obs/statusserver.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "util/fileio.hh"
#include "util/logging.hh"
#include "util/stopwatch.hh"
#include "verif/checkpoint.hh"
#include "verif/statestore.hh"
#include "verif/statetable.hh"

namespace hieragen::verif
{

std::string
CheckResult::summary() const
{
    std::ostringstream os;
    const char *states_word =
        symmetryReduction ? " canonical states" : " states";
    if (ok) {
        os << "PASS " << statesExplored << states_word << ", "
           << transitionsFired << " transitions";
        if (omissionProbability > 0)
            os << ", omission<" << omissionProbability;
    } else {
        os << "FAIL[" << errorKindName(errorKind) << "] " << detail
           << " ("
           << statesExplored << states_word << ")";
    }
    os << " [sym " << (symmetryReduction ? "on" : "off") << ", por "
       << (partialOrderReduction ? "on" : "off") << ", compaction "
       << (hashCompaction ? "on" : "off") << "]";
    return os.str();
}

std::string
CheckResult::traceJson() const
{
    std::ostringstream os;
    os << "{\n  \"ok\": " << (ok ? "true" : "false")
       << ",\n  \"error_kind\": "
       << obs::jsonQuote(errorKindName(errorKind))
       << ",\n  \"detail\": " << obs::jsonQuote(detail)
       << ",\n  \"states_explored\": " << statesExplored
       << ",\n  \"transitions_fired\": " << transitionsFired
       << ",\n  \"symmetry_reduction\": "
       << (symmetryReduction ? "true" : "false") << ",\n  \"steps\": [";
    for (size_t i = 0; i < traceStepsJson.size(); ++i)
        os << (i ? ",\n    " : "\n    ") << traceStepsJson[i];
    os << (traceStepsJson.empty() ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

namespace
{

/** FNV-1a over the encoded state, mixed with the compaction seed. */
uint64_t
hashState(const char *data, size_t len, uint64_t seed)
{
    uint64_t h = 14695981039346656037ull ^ seed;
    for (size_t i = 0; i < len; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
hashState(const std::string &enc, uint64_t seed)
{
    return hashState(enc.data(), enc.size(), seed);
}

/** Directory half of @p path ("." when it has no separator) — where
 *  a resumed checkpoint's spill segments already live. */
std::string
dirnameOf(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
}

/** ExecEnv that collects sends into a SysState and flags errors. */
class StateEnv : public hieragen::ExecEnv
{
  public:
    SysState *state = nullptr;
    bool failed = false;
    bool loadCalled = false;  ///< a DoLoad committed during the step
    std::string errorMsg;

    void
    send(const Msg &msg) override
    {
        state->insertMsg(msg);
    }

    uint8_t
    storeValue(NodeId) override
    {
        state->ghost = static_cast<uint8_t>(1 - state->ghost);
        return state->ghost;
    }

    void
    loadObserved(NodeId node, bool has_data, uint8_t) override
    {
        loadCalled = true;
        if (!has_data) {
            failed = true;
            errorMsg = "load committed without data at node " +
                       std::to_string(node);
        }
    }

    void
    error(const std::string &what) override
    {
        failed = true;
        errorMsg = what;
    }
};

/** Quiescent with exhausted budgets: a legitimate end state. */
bool
isTerminalState(const System &sys, const SysState &st)
{
    if (!st.msgs.empty())
        return false;
    for (size_t i = 0; i < st.blocks.size(); ++i) {
        if (!sys.nodes[i].machine->state(st.blocks[i].state).stable)
            return false;
    }
    return true;
}

struct Violation
{
    ErrorKind kind = ErrorKind::None;
    std::string detail;
};

/**
 * Telemetry side of one engine run, shared with the progress sampler
 * thread. With telemetry off (telem_ == nullptr) every hook sits
 * behind on(), so the hot loop pays one predictable branch. The run's
 * counts (explored, generated, visited, queue, memory) live in the
 * engine, which publishes them per batch and assembles each progress
 * sample itself; this class owns only what the engine does not: the
 * sampled symmetry cost, checkpoint tallies, journal events and the
 * final metrics. Canonicalization cost is *sampled* (one timed call
 * in 64) so the clock is off the common path; the share is scaled
 * back up in computeProgress()/finalize().
 *
 * When the caller supplied no registry but wants a heartbeat, the
 * symmetry counters land in a run-local registry so the sampler still
 * has data; finalize() only publishes to a caller-supplied registry.
 */
class Instr
{
  public:
    Instr(const CheckOptions &opts, unsigned workers)
        : telem_(opts.telemetry), workers_(workers),
          maxStates_(opts.maxStates)
    {
        if (!telem_)
            return;
        reg_ = telem_->metrics ? telem_->metrics : &localReg_;
        symCalls_ = &reg_->counter("checker.sym_canonicalizations");
        symSampledNs_ = &reg_->counter("checker.sym_sampled_ns");
        symSampledCalls_ =
            &reg_->counter("checker.sym_sampled_calls");
        journalEvent(
            "engine_start",
            {{"engine", obs::jsonQuote(workers > 1 ? "parallel"
                                                   : "sequential")},
             {"workers", std::to_string(workers)},
             {"max_states", std::to_string(opts.maxStates)},
             {"symmetry",
              opts.symmetryReduction ? "true" : "false"},
             {"por",
              opts.partialOrderReduction ? "true" : "false"},
             {"hash_compaction",
              opts.hashCompaction ? "true" : "false"},
             {"spill_dir", obs::jsonQuote(opts.spillDir)},
             {"resume", opts.resume ? "true" : "false"}});
    }

    bool on() const { return telem_ != nullptr; }

    obs::TraceWriter *
    trace() const
    {
        return telem_ ? telem_->trace : nullptr;
    }

    obs::Journal *
    journal() const
    {
        return telem_ ? telem_->journal : nullptr;
    }

    /** Cold-path journal record; no-op without a journal. */
    void
    journalEvent(
        const std::string &kind,
        const std::vector<std::pair<std::string, std::string>>
            &fields = {})
    {
        if (obs::Journal *j = journal())
            j->event(kind, fields);
    }

    // --- Hot-path hooks; call only when on(). ---
    void noteSymCall() { symCalls_->add(1); }

    void
    noteSymSample(uint64_t ns)
    {
        symSampledNs_->add(ns);
        symSampledCalls_->add(1);
    }

    /** True on the calls whose canonicalization should be timed. */
    static bool
    sampleTick(unsigned &tick)
    {
        return (tick++ & 63) == 0;
    }

    // --- Checkpoint hooks (cold path; safe with telemetry off). ---
    void
    noteCheckpointWrite(uint64_t bytes, double ms, uint64_t explored)
    {
        cpWrites_.fetch_add(1, std::memory_order_relaxed);
        cpBytes_.fetch_add(bytes, std::memory_order_relaxed);
        journalEvent("checkpoint",
                     {{"bytes", std::to_string(bytes)},
                      {"ms", std::to_string(ms)},
                      {"states_explored", std::to_string(explored)}});
        if (!telem_ || !reg_)
            return;
        reg_->counter("checkpoint.writes").add(1);
        reg_->counter("checkpoint.bytes_written").add(bytes);
        reg_->gauge("checkpoint.last_write_ms").set(ms);
    }

    void
    noteCheckpointRestore(double ms)
    {
        if (telem_ && reg_)
            reg_->gauge("checkpoint.restore_ms").set(ms);
        journalEvent("restore", {{"ms", std::to_string(ms)}});
    }

    /** Publish the scaled hardware-counter phase attribution to the
     *  caller's registry (cold path, once per run). */
    void
    publishPerf(const CheckResult::PhaseBreakdown &p)
    {
        if (!telem_ || !telem_->metrics)
            return;
        obs::MetricsRegistry &m = *telem_->metrics;
        auto pub = [&m](const char *phase,
                        const CheckResult::PhaseBreakdown::PerfSample
                            &s) {
            std::string base = std::string("perf.") + phase;
            m.counter(base + "_cycles").add(s.cycles);
            m.counter(base + "_instructions").add(s.instructions);
            m.counter(base + "_cache_misses").add(s.cacheMisses);
            m.counter(base + "_branch_misses").add(s.branchMisses);
        };
        pub("expand", p.expandPerf);
        pub("encode", p.encodePerf);
        pub("insert", p.insertPerf);
    }

    /** The sample fields this class owns; the engine fills the
     *  exploration counts and memory components. */
    obs::ProgressSample
    baseSample() const
    {
        obs::ProgressSample s;
        s.symSampledNs = symSampledNs_->value();
        s.symSampledCalls = symSampledCalls_->value();
        s.symCalls = symCalls_->value();
        s.maxStates = maxStates_;
        s.workers = workers_;
        s.checkpointsWritten =
            cpWrites_.load(std::memory_order_relaxed);
        s.checkpointBytes = cpBytes_.load(std::memory_order_relaxed);
        s.rssBytes = util::currentRssBytes();
        return s;
    }

    /** Start the heartbeat and expose @p fn to a status socket. The
     *  callback must stay valid until finalize(). */
    void
    startProgress(obs::ProgressReporter::SampleFn fn)
    {
        if (!telem_)
            return;
        if (telem_->status) {
            telem_->status->setSampler(fn);
            statusRegistered_ = true;
        }
        if (telem_->wantsProgress()) {
            reporter_.start(telem_->progressIntervalSec,
                            std::move(fn), reg_, trace(),
                            telem_->quietProgress, journal());
        }
    }

    /** Publish final totals to the caller's registry. */
    void
    finalize(const CheckResult &r, double wall_ms, uint64_t visited,
             uint64_t visited_bytes)
    {
        reporter_.stop();
        if (statusRegistered_) {
            telem_->status->clearSampler();
            statusRegistered_ = false;
        }
        if (obs::Journal *j = journal()) {
            j->event(
                "verdict",
                {{"ok", r.ok ? "true" : "false"},
                 {"error_kind", obs::jsonQuote(errorKindName(r.errorKind))},
                 {"states_explored",
                  std::to_string(r.statesExplored)},
                 {"states_generated",
                  std::to_string(r.statesGenerated)},
                 {"transitions_fired",
                  std::to_string(r.transitionsFired)},
                 {"wall_ms", std::to_string(
                                 static_cast<uint64_t>(wall_ms))},
                 {"resumable", r.resumable ? "true" : "false"},
                 {"resumed",
                  r.resumedFromCheckpoint ? "true" : "false"},
                 {"spilled", r.spilledToDisk ? "true" : "false"},
                 {"checkpoints_written",
                  std::to_string(r.checkpointsWritten)},
                 {"peak_rss_bytes",
                  std::to_string(r.peakRssBytes)}},
                /*durable=*/true);
        }
        if (!telem_ || !telem_->metrics)
            return;
        obs::MetricsRegistry &m = *telem_->metrics;
        uint64_t gen = r.statesGenerated;
        uint64_t hits = gen > visited ? gen - visited : 0;
        m.gauge("checker.ok").set(r.ok ? 1.0 : 0.0);
        m.counter("checker.states_explored").add(r.statesExplored);
        m.counter("checker.states_generated").add(gen);
        m.counter("checker.transitions_fired")
            .add(r.transitionsFired);
        m.counter("checker.visited_entries").add(visited);
        m.counter("checker.visited_bytes").add(visited_bytes);
        m.counter("checker.dedup_hits").add(hits);
        m.gauge("checker.wall_ms").set(wall_ms);
        m.gauge("checker.states_per_sec")
            .set(wall_ms > 0 ? static_cast<double>(r.statesExplored) *
                                   1e3 / wall_ms
                             : 0.0);
        m.gauge("checker.workers").set(workers_);
        m.gauge("checker.dedup_hit_rate")
            .set(gen ? static_cast<double>(hits) /
                           static_cast<double>(gen)
                     : 0.0);
        if (r.spilledToDisk) {
            m.counter("checker.spilled_bytes").add(r.spilledBytes);
            m.counter("checker.spill_segments")
                .add(r.spillSegmentsWritten);
            m.counter("checker.disk_probes").add(r.diskProbes);
            m.gauge("checker.disk_probe_hit_rate")
                .set(r.diskProbes
                         ? static_cast<double>(r.diskProbeHits) /
                               static_cast<double>(r.diskProbes)
                         : 0.0);
            m.gauge("checker.spill_stall_ms").set(r.spillStallMs);
        }
        m.gauge("checker.peak_rss_bytes")
            .set(static_cast<double>(r.peakRssBytes));
        uint64_t sampled = symSampledCalls_->value();
        if (sampled > 0 && wall_ms > 0) {
            double est_ns =
                static_cast<double>(symSampledNs_->value()) *
                static_cast<double>(symCalls_->value()) /
                static_cast<double>(sampled);
            m.gauge("checker.sym_time_share")
                .set(std::clamp(est_ns / (wall_ms * 1e6 *
                                          static_cast<double>(
                                              workers_)),
                                0.0, 1.0));
        }
    }

  private:
    obs::Telemetry *telem_ = nullptr;
    const unsigned workers_;
    const uint64_t maxStates_;

    obs::MetricsRegistry localReg_;  ///< fallback when no registry
    obs::MetricsRegistry *reg_ = nullptr;
    obs::Counter *symCalls_ = nullptr;
    obs::Counter *symSampledNs_ = nullptr;
    obs::Counter *symSampledCalls_ = nullptr;

    std::atomic<uint64_t> cpWrites_{0};
    std::atomic<uint64_t> cpBytes_{0};
    bool statusRegistered_ = false;

    obs::ProgressReporter reporter_;
};

/**
 * Coalesces per-state expansion work into chunky "expand" spans on
 * one worker's trace track, so a multi-minute run stays a few
 * thousand events instead of one per state. Null writer disables.
 */
class SpanChunker
{
  public:
    SpanChunker(obs::TraceWriter *w, uint32_t tid) : w_(w), tid_(tid)
    {
        if (w_)
            startUs_ = w_->nowUs();
    }

    ~SpanChunker() { flush(); }

    void
    bump(uint64_t states = 1)
    {
        if (!w_)
            return;
        states_ += states;
        uint64_t now = w_->nowUs();
        if (now - startUs_ >= kChunkUs)
            flushAt(now);
    }

    void
    flush()
    {
        if (w_ && states_ > 0)
            flushAt(w_->nowUs());
    }

  private:
    static constexpr uint64_t kChunkUs = 50'000;

    void
    flushAt(uint64_t now)
    {
        w_->completeEvent("expand", tid_, startUs_, now - startUs_,
                          {{"states", std::to_string(states_)}});
        startUs_ = now;
        states_ = 0;
    }

    obs::TraceWriter *w_ = nullptr;
    uint32_t tid_ = 1;
    uint64_t startUs_ = 0;
    uint64_t states_ = 0;
};

/**
 * State invariants shared by both exploration modes: global SWMR,
 * the data-value invariant, and the empty-network transient deadlock.
 * Returns the first violation in the same order the sequential
 * checker has always reported them.
 */
std::optional<Violation>
findViolation(const System &sys, const SysState &st)
{
    // Global SWMR over leaf caches in *stable* states. A silently
    // upgradeable state (MESI E) counts as a writer.
    int writers = 0;
    int readers = 0;
    for (NodeId c : sys.leafCaches) {
        const Machine &m = *sys.nodes[c].machine;
        const State &s = m.state(st.blocks[c].state);
        if (!s.stable)
            continue;
        bool writable = s.perm == Perm::ReadWrite || s.silentUpgrade;
        if (writable)
            ++writers;
        else if (s.perm == Perm::Read)
            ++readers;
    }
    if (writers > 1 || (writers == 1 && readers > 0)) {
        return Violation{ErrorKind::Swmr,
                         "SWMR violated: " + std::to_string(writers) +
                             " writer(s), " + std::to_string(readers) +
                             " concurrent reader(s)"};
    }

    // Data-value invariant: stable readable copies hold the value of
    // the last committed store.
    for (NodeId c : sys.leafCaches) {
        const Machine &m = *sys.nodes[c].machine;
        const State &s = m.state(st.blocks[c].state);
        if (!s.stable || s.perm == Perm::None)
            continue;
        if (!st.blocks[c].hasData || st.blocks[c].data != st.ghost) {
            return Violation{ErrorKind::DataValue,
                             "node " + std::to_string(c) + " in " +
                                 s.name +
                                 " holds stale or missing data"};
        }
    }

    // A transient controller with an empty network can never make
    // progress again: responses only flow as reactions to messages.
    if (st.msgs.empty()) {
        for (size_t i = 0; i < st.blocks.size(); ++i) {
            const Machine &m = *sys.nodes[i].machine;
            if (!m.state(st.blocks[i].state).stable) {
                return Violation{
                    ErrorKind::Deadlock,
                    "node " + std::to_string(i) +
                        " stuck in transient state " +
                        m.state(st.blocks[i].state).name +
                        " with no messages in flight"};
            }
        }
    }
    return std::nullopt;
}

/**
 * One edge of the state graph: which successor of its parent a state
 * is. A delivery names the parent's msgs[index] (Ample when partial-
 * order reduction chose it as the only successor); a core access
 * names a leaf index and the access. Init and Resumed mark roots: the
 * initial state, and frontier state `index` of the checkpoint the run
 * resumed from.
 */
struct Step
{
    enum class Kind : uint8_t { Init, Resumed, Deliver, Ample, Access };
    Kind kind = Kind::Init;
    Access access = Access::Load;
    uint32_t index = 0;
};

/** Execute @p step from @p cur into @p next. The one successor
 *  computation expansion, the ample probe and trace replay share. */
StepResult
applyStep(const System &sys, const SysState &cur, Step step,
          SysState &next, StateEnv &env, bool mark_reached)
{
    env.state = &next;
    if (step.kind == Step::Kind::Access) {
        NodeId c = sys.leafCaches[step.index];
        next = cur;
        next.budget[step.index] -= 1;
        return deliverEvent(sys.nodes[c], *sys.msgs, next.blocks[c],
                            EventKey::mkAccess(step.access), nullptr,
                            env, mark_reached);
    }
    const Msg msg = cur.msgs[step.index];
    next.assignWithoutMsg(cur, step.index);
    return deliverMsg(sys.nodes[msg.dst], *sys.msgs,
                      next.blocks[msg.dst], msg, env, mark_reached);
}

/** The trace label of @p step taken from @p parent. */
std::string
stepLabel(const System &sys, const SysState &parent, Step step)
{
    switch (step.kind) {
    case Step::Kind::Init:
        return "init";
    case Step::Kind::Resumed:
        return "resumed";
    case Step::Kind::Access:
        return "core " + std::to_string(sys.leafCaches[step.index]) +
               ": " + toString(step.access);
    case Step::Kind::Deliver:
    case Step::Kind::Ample:
        break;
    }
    const Msg &msg = parent.msgs[step.index];
    return "deliver " + sys.msgs->displayName(msg.type) + " " +
           std::to_string(msg.src) + "->" + std::to_string(msg.dst) +
           (step.kind == Step::Kind::Ample ? " [ample]" : "");
}

/**
 * Static per-System context for partial-order reduction (POR).
 *
 * The checker's interleaving explosion comes from delivering every
 * deliverable message from every state. Two deliveries to different
 * controllers commute when neither can affect the other's enabledness
 * or behavior; in that case exploring only one of them (an "ample"
 * singleton) and postponing the rest preserves every checked
 * property. A candidate delivery m -> B is ample when:
 *
 *  (1) it is the lowest-indexed candidate that passes all checks
 *      (determinism: the reduced graph is a function of the state);
 *  (2) no other in-flight message is addressed to B, except messages
 *      ordered strictly behind m on m's own FIFO channel (nothing
 *      else can reach B before m fires);
 *  (3) no core access is possible at B right now (B not a leaf, its
 *      budget is exhausted, or its current block state has no access
 *      transition);
 *  (4) no other pending message, and no budgeted core access at
 *      another leaf, can send to B in one step: B is not the
 *      destination node's parent, not the message src/requestor, not
 *      the owner / saved requestor / saved lower / a sharer recorded
 *      at any such node. This is a one-step approximation of the
 *      persistent-set condition; multi-step send chains that reach B
 *      are not excluded statically, and the POR parity suite
 *      (tests/test_checker_por.cc) holds verdict + census equality
 *      over the full builtin matrix as the empirical guard;
 *  (5) executing it is invisible to the invariants: the data ghost,
 *      load observations, and — when B is a leaf — the
 *      stable/permission/data tuple the SWMR and data-value checks
 *      read are unchanged (transient-to-transient moves qualify,
 *      which is most of a non-stalling run);
 *  (6) its message type has a finite "potential": in the static
 *      can-send graph over message types (t -> u when some Execute
 *      transition triggered by t sends u), no cycle is reachable
 *      from t. Every ample delivery then strictly decreases the sum
 *      of potentials over in-flight messages, so no cycle of the
 *      state graph consists solely of ample steps — the standard
 *      cycle proviso, enforced without any visited-set probe (which
 *      would make the reduced graph schedule-dependent).
 *
 * Condition (5) is checked by actually executing the candidate (a
 * "probe") — at most kPorProbeLimit per expansion — and discarding
 * the result if visible. A successful probe IS the successor (it is
 * handed to dedup directly, never re-executed), so POR removes work
 * even before it removes states. Census marks fired by a discarded
 * probe are sound: marks are monotone and the same transition fires
 * again in the full expansion.
 */
struct PorContext
{
    bool enabled = false;
    const System *sys = nullptr;

    /** Per MsgTypeId: no cycle reachable in the can-send type graph
     *  (condition 6). */
    std::vector<char> finitePot;

    /** Per node: per machine state, whether any core-access Execute
     *  transition exists (condition 3). Shared per Machine. */
    std::vector<const std::vector<char> *> accessByNode;

    void
    build(const System &s)
    {
        sys = &s;
        enabled = true;
        const size_t nt = s.msgs->size();
        std::vector<std::vector<MsgTypeId>> adj(nt);
        std::unordered_map<const Machine *, std::vector<char>> access;
        for (const NodeCtx &n : s.nodes) {
            if (!n.machine || access.count(n.machine))
                continue;
            auto &acc = access[n.machine];
            acc.assign(n.machine->numStates(), 0);
            for (const auto &[key, vec] : n.machine->table()) {
                if (key.second.kind == EventKey::Kind::Access) {
                    for (const Transition &t : vec) {
                        if (t.kind == TransKind::Execute)
                            acc[static_cast<size_t>(key.first)] = 1;
                    }
                    continue;
                }
                for (const Transition &t : vec) {
                    if (t.kind != TransKind::Execute)
                        continue;
                    for (const Op &op : t.ops) {
                        if (op.code == OpCode::Send)
                            adj[static_cast<size_t>(key.second.type)]
                                .push_back(op.send.type);
                    }
                }
            }
        }
        std::unordered_map<const Machine *, size_t> stored;
        for (auto &kv : access) {
            stored[kv.first] = access_.size();
            access_.push_back(std::move(kv.second));
        }
        accessByNode.resize(s.nodes.size());
        for (const NodeCtx &n : s.nodes)
            accessByNode[static_cast<size_t>(n.id)] =
                &access_[stored[n.machine]];

        // Cycle reachability over the type graph: iterative DFS with
        // an explicit on-stack color; a type reaching any cycle
        // (including through another type) has infinite potential.
        finitePot.assign(nt, 1);
        std::vector<uint8_t> color(nt, 0);  // 0 new, 1 on stack, 2 done
        for (MsgTypeId root = 0; root < static_cast<MsgTypeId>(nt);
             ++root) {
            if (color[static_cast<size_t>(root)])
                continue;
            dfs(root, adj, color);
        }
    }

  private:
    std::vector<std::vector<char>> access_;

    bool
    dfs(MsgTypeId t, const std::vector<std::vector<MsgTypeId>> &adj,
        std::vector<uint8_t> &color)
    {
        size_t ti = static_cast<size_t>(t);
        if (color[ti] == 1)
            return true;  // back edge: cycle
        if (color[ti] == 2)
            return finitePot[ti] == 0;
        color[ti] = 1;
        bool bad = false;
        for (MsgTypeId u : adj[ti])
            bad = dfs(u, adj, color) || bad;
        color[ti] = 2;
        if (bad)
            finitePot[ti] = 0;
        return bad;
    }
};

/** Probes executed per expansion before falling back to the full
 *  interleaving (a deterministic function of the state, so both
 *  engines agree on the reduced graph). */
constexpr int kPorProbeLimit = 3;

/**
 * Per-expansion precomputation for the static ample checks: one pass
 * over the message multiset and the budgeted leaves replaces the
 * per-candidate rescans of conditions (2) and (4).
 *
 *  - `excl` is a node bitmask of every one-step send target any
 *    pending message or budgeted access could produce (condition 4).
 *    It is built over ALL messages — including the candidate itself —
 *    which is slightly stricter than the pairwise check (a candidate
 *    whose own destination fields point back at its destination is
 *    rejected), and strictly sound.
 *  - `dstCount` counts pending messages per destination; a candidate
 *    with a unique destination passes condition (2) outright, and
 *    only the shared-destination case pays the ordered-behind rescan.
 */
struct PorScan
{
    uint64_t excl = 0;
    std::array<uint8_t, 64> dstCount{};

    void
    build(const PorContext &por, const SysState &st)
    {
        const System &sys = *por.sys;
        auto mark = [this](NodeId n) {
            if (n != kNoNode)
                excl |= uint64_t{1} << static_cast<uint32_t>(n);
        };
        for (const Msg &o : st.msgs) {
            ++dstCount[static_cast<size_t>(o.dst)];
            const BlockState &db =
                st.blocks[static_cast<size_t>(o.dst)];
            mark(sys.nodes[static_cast<size_t>(o.dst)].parent);
            mark(o.src);
            mark(o.requestor);
            mark(db.owner);
            mark(db.tbe.savedRequestor);
            mark(db.tbe.savedLower);
            excl |= static_cast<uint64_t>(db.sharers);
        }
        for (size_t li = 0; li < sys.leafCaches.size(); ++li) {
            if (st.budget[li] == 0)
                continue;
            NodeId lj = sys.leafCaches[li];
            const BlockState &lb =
                st.blocks[static_cast<size_t>(lj)];
            mark(sys.nodes[static_cast<size_t>(lj)].parent);
            mark(lb.owner);
            mark(lb.tbe.savedRequestor);
            mark(lb.tbe.savedLower);
            excl |= static_cast<uint64_t>(lb.sharers);
        }
    }
};

/** Conditions (2)-(4) and (6) of PorContext for msgs[mi] — the
 *  checks that need no execution. */
bool
porStaticallyEligible(const PorContext &por, const SysState &st,
                      size_t mi, const PorScan &scan)
{
    const System &sys = *por.sys;
    const Msg &m = st.msgs[mi];
    if (!por.finitePot[static_cast<size_t>(m.type)])
        return false;  // (6) type can feed a send cycle
    const NodeId B = m.dst;

    // (4) no one-step send anywhere can target B.
    if ((scan.excl >> static_cast<uint32_t>(B)) & 1u)
        return false;

    // (2) nothing else may reach B before m fires: unique destination
    // passes outright, otherwise every other message to B must be
    // ordered strictly behind m on the same channel.
    if (scan.dstCount[static_cast<size_t>(B)] > 1) {
        const bool mOrdered = onOrderedVnet(*sys.msgs, m);
        for (size_t j = 0; j < st.msgs.size(); ++j) {
            if (j == mi)
                continue;
            const Msg &o = st.msgs[j];
            if (o.dst == B &&
                !(o.src == m.src && mOrdered &&
                  onOrderedVnet(*sys.msgs, o) && o.seq > m.seq)) {
                return false;
            }
        }
    }

    // (3) no core access possible at B itself.
    int32_t bli = sys.leafIndex[static_cast<size_t>(B)];
    if (bli >= 0 && st.budget[static_cast<size_t>(bli)] > 0 &&
        (*por.accessByNode[static_cast<size_t>(B)])
            [static_cast<size_t>(st.blocks[static_cast<size_t>(B)]
                                     .state)]) {
        return false;
    }
    return true;
}

/** Condition (5): the executed delivery changed nothing any invariant
 *  reads — the ghost, load observations, and (for leaf destinations)
 *  the stable/permission/data tuple findViolation consults. */
bool
porInvisible(const System &sys, const SysState &cur,
             const SysState &next, NodeId dst, bool load_called)
{
    if (load_called || next.ghost != cur.ghost)
        return false;
    if (sys.leafIndex[static_cast<size_t>(dst)] < 0)
        return true;  // non-leaf controllers are invariant-invisible
    const Machine &m = *sys.nodes[static_cast<size_t>(dst)].machine;
    const State &so =
        m.state(cur.blocks[static_cast<size_t>(dst)].state);
    const State &sn =
        m.state(next.blocks[static_cast<size_t>(dst)].state);
    if (so.stable != sn.stable)
        return false;
    if (!so.stable)
        return true;  // transient -> transient: nothing observable
    auto writable = [](const State &s) {
        return s.perm == Perm::ReadWrite || s.silentUpgrade;
    };
    if (writable(so) != writable(sn) ||
        (so.perm == Perm::Read) != (sn.perm == Perm::Read) ||
        (so.perm == Perm::None) != (sn.perm == Perm::None)) {
        return false;
    }
    if (so.perm != Perm::None &&
        (cur.blocks[static_cast<size_t>(dst)].hasData !=
             next.blocks[static_cast<size_t>(dst)].hasData ||
         cur.blocks[static_cast<size_t>(dst)].data !=
             next.blocks[static_cast<size_t>(dst)].data)) {
        return false;
    }
    return true;
}

enum class PorOutcome
{
    NoAmple,  ///< fall through to the full expansion
    Ample,    ///< @p next holds the single ample successor
    Error,    ///< the probe hit a protocol error (errMsg filled)
};

/**
 * Engine-shared ample scan: find the lowest-indexed candidate that
 * passes the static checks, execute it, and keep it if invisible.
 * Stalled candidates are cleared from @p mask (they fire nothing, so
 * the full expansion need not re-execute them); visible probes are
 * discarded and re-executed by the full expansion.
 */
PorOutcome
porTryAmple(const PorContext &por, const CheckOptions &opts,
            const SysState &cur, std::vector<char> &mask,
            SysState &next, size_t &ample_idx, std::string &err_msg)
{
    const System &sys = *por.sys;
    PorScan scan;
    scan.build(por, cur);
    int probes = 0;
    for (size_t mi = 0; mi < cur.msgs.size(); ++mi) {
        if (!mask[mi] || !porStaticallyEligible(por, cur, mi, scan))
            continue;
        if (++probes > kPorProbeLimit)
            break;
        StateEnv env;
        StepResult r = applyStep(
            sys, cur, {Step::Kind::Ample, Access::Load,
                       static_cast<uint32_t>(mi)},
            next, env, opts.markReached);
        if (r == StepResult::Error || env.failed) {
            err_msg = env.errorMsg;
            return PorOutcome::Error;
        }
        if (r == StepResult::Stalled) {
            mask[mi] = 0;
            continue;
        }
        if (!porInvisible(sys, cur, next, cur.msgs[mi].dst,
                          env.loadCalled))
            continue;
        ample_idx = mi;
        return PorOutcome::Ample;
    }
    return PorOutcome::NoAmple;
}

/**
 * The exploration engine: breadth-first search over the system's
 * state graph by numThreads workers (>= 1; worker 0 is the calling
 * thread). Workers take batches of up to kBatch states from the head
 * of one FIFO queue, buffer the successors they accept and append
 * them with one queue-lock acquisition per batch. The queue holds
 * each state's packed encoding, the bytes encodeState() already made
 * for the visited set: a worker copies its batch's records out under
 * the queue lock and decodes them (SysState::decodeFrom) after
 * releasing it, so a spilling queue writes and reads those bytes as
 * they are. The visited set is split by state fingerprint into
 * independently locked shards (one shard when there is one worker).
 *
 * Traces. A tracing run keeps no states beyond what an untraced run
 * keeps: it appends one 16-byte trace-log entry (parent node + Step)
 * per accepted state. A node id is the state's position in the FIFO's
 * push order, which is also its pop order; flush() appends and
 * takeBatch() numbers under the queue lock. On a violation,
 * buildTrace() walks the parents back to a root (the initial state or
 * a checkpoint frontier state) and rebuilds every state on the path by
 * replaying its steps, exactly as the expansion computed them.
 *
 * Order and determinism. A batch is the next kBatch states of the
 * FIFO and its successors are appended in generation order, so one
 * worker explores in exactly the classic sequential BFS order: the
 * same first violation, the same partial counts and the same
 * shortest counterexample on every run. With more workers the *set*
 * of expanded states is schedule-independent (membership is a
 * property of the canonical encoding), so clean runs report
 * identical statesExplored / statesGenerated / transitionsFired at
 * every thread count; on a failing run which violation is found
 * first may vary.
 *
 * Control points. Cancellation, the stop flag, the memory watermark
 * and the checkpoint cadence are checked before the first expansion
 * and then at the first batch boundary after every kControlEvery
 * expansions, by whichever worker gets there — a count, not a clock,
 * so a run sees the same control points however fast it goes. Work
 * that needs the exploration frozen (a checkpoint, a spill, the
 * degrade to compaction) runs at a rendezvous: the controlling worker
 * parks every other worker at its next batch boundary, where it holds
 * no work, and may then touch the queue, the shards and the census
 * marks without their locks.
 *
 * Stops. The state cap is enforced when a batch is taken, so
 * statesExplored lands exactly on maxStates. A resumable stop (state
 * cap, interrupt, memory limit) lets workers finish their current
 * batch, so the final checkpoint holds the complete frontier; any
 * other error drops the rest of the batch.
 */
class Engine
{
  public:
    Engine(const System &sys, const CheckOptions &opts, unsigned threads)
        : sys_(sys), opts_(opts), numThreads_(threads),
          compaction_(opts.hashCompaction ||
                      (opts.resume &&
                       opts.resume->header.storedAsHashes)),
          spill_(!opts.spillDir.empty()),
          tracing_(opts.traceOnError && !compaction_ && !spill_),
          symmetry_(opts.symmetryReduction && !sys.symClasses.empty()),
          shardCount_(threads > 1 ? 64 : 1),
          shards_(new Shard[shardCount_]), instr_(opts, threads)
    {
        if (opts_.partialOrderReduction)
            por_.build(sys_);
        if (!opts_.checkpointPath.empty() || opts_.resume) {
            fingerprint_ = optionsFingerprint(opts_);
            sysHash_ = systemConfigHash(sys_);
        }
        for (size_t i = 0; i < shardCount_; ++i) {
            shards_[i].store =
                StateStore(compaction_ ? StateTable::Mode::Hashes
                                       : StateTable::Mode::Exact,
                           &tier_);
            if (opts_.expectedStates)
                shards_[i].store.reserve(opts_.expectedStates /
                                             shardCount_ +
                                         1);
        }
        if (spill_)
            armSpill(opts_.spillDir);
        if (!opts_.checkpointPath.empty())
            fqueue_.retainConsumed(true);
    }

    CheckResult
    run()
    {
        wall_.restart();
        if (!spillError_.empty()) {
            reportError(ErrorKind::SpillIo, spillError_);
            return finish();
        }
        if (opts_.resume) {
            std::string rerr = restoreFrom(*opts_.resume);
            if (!rerr.empty()) {
                reportError(ErrorKind::ResumeMismatch, std::move(rerr));
                return finish();
            }
        } else {
            seedInitialState();
        }
        if (instr_.on()) {
            if (auto *tw = instr_.trace()) {
                for (unsigned t = 0; t < numThreads_; ++t) {
                    tw->setThreadName(t + 1, "checker worker " +
                                                 std::to_string(t));
                }
            }
            instr_.startProgress([this] { return sample(); });
        }

        // The first control point runs before any expansion, on this
        // thread, as worker 0 of a pool of one.
        alive_ = 1;
        controlPoint();
        alive_ = numThreads_;
        std::vector<std::thread> helpers;
        helpers.reserve(numThreads_ - 1);
        for (unsigned t = 1; t < numThreads_; ++t)
            helpers.emplace_back([this, t] { workerLoop(t); });
        workerLoop(0);
        for (auto &h : helpers)
            h.join();
        return finish();
    }

  private:
    static constexpr size_t kBatch = 32;
    static constexpr size_t kMaxTraceNodes = 200;
    static constexpr uint64_t kControlEvery = 256;

    /** stop_ values: how workers react to a reported error. */
    enum : uint8_t {
        kRunning = 0,
        kDrain = 1,  ///< resumable: finish the batch, then exit
        kAbort = 2,  ///< drop the rest of the batch
    };

    struct Shard
    {
        std::mutex mu;
        StateStore store;
    };

    static constexpr uint64_t kNoNode = UINT64_MAX;

    /** A trace-log entry: how a state was reached. */
    struct TraceEntry
    {
        uint64_t parent = kNoNode;  ///< a root's is kNoNode
        Step step;
    };
    static_assert(sizeof(TraceEntry) <= 16);

    /** The trace log: append-only, in fixed chunks, so growing it
     *  never copies what is already logged. */
    class TraceLog
    {
      public:
        const TraceEntry &
        operator[](uint64_t i) const
        {
            return chunks_[i >> kShift][i & (kChunk - 1)];
        }

        void
        push_back(const TraceEntry &e)
        {
            if (size_ == chunks_.size() * kChunk)
                chunks_.push_back(std::make_unique<TraceEntry[]>(kChunk));
            chunks_.back()[size_++ & (kChunk - 1)] = e;
        }

        void
        clear()
        {
            chunks_.clear();
            size_ = 0;
        }

        uint64_t
        bytes() const
        {
            return chunks_.size() * kChunk * sizeof(TraceEntry);
        }

      private:
        static constexpr uint64_t kShift = 12,
                                  kChunk = uint64_t{1} << kShift;
        std::vector<std::unique_ptr<TraceEntry[]>> chunks_;
        uint64_t size_ = 0;
    };

    /** A state taken for expansion (in the worker's popped buffer)
     *  and its node id. */
    struct Item
    {
        const SysState *state;
        uint64_t node;
    };

    /** An accepted successor awaiting enqueue; its packed record is
     *  the next len bytes of WorkerCtx::acceptedBytes. */
    struct Accepted
    {
        TraceEntry link;
        uint32_t len;
    };

    /**
     * Batched-expansion staging. Each successor of one expansion is
     * executed into a pending slot, encoded, hashed and its probe
     * prefetched (stage 1); the probes/inserts then run back-to-back
     * in generation order (stage 2, flushPending), overlapping the
     * probe's memory latency with the encoding of its siblings. Slots
     * are pooled so duplicate successors recycle their buffers.
     */
    struct PendingSucc
    {
        SysState st;
        std::string enc;
        uint64_t hash = 0;
        Step step;
    };

    /** Sampled phase attribution (CheckOptions::phaseTiming), kept
     *  per worker and summed when the worker exits. */
    struct PhaseAcc
    {
        double expandNs = 0, encodeNs = 0, canonNs = 0, insertNs = 0;
        uint64_t expansions = 0, adds = 0;
        obs::PerfCounts expandPerf, encodePerf, insertPerf;

        void
        operator+=(const PhaseAcc &o)
        {
            expandNs += o.expandNs;
            encodeNs += o.encodeNs;
            canonNs += o.canonNs;
            insertNs += o.insertNs;
            expansions += o.expansions;
            adds += o.adds;
            expandPerf += o.expandPerf;
            encodePerf += o.encodePerf;
            insertPerf += o.insertPerf;
        }
    };

    /** Per-worker scratch and counters. The counters are plain and
     *  are published to the shared totals once per batch. */
    struct WorkerCtx
    {
        std::vector<Item> batch;
        std::vector<std::string> records;  ///< copied out under qMu_
        std::vector<SysState> popped;  ///< the records, decoded
        std::vector<Accepted> accepted;
        std::string acceptedBytes;  ///< accepted records, back to back
        std::vector<char> mask;
        EncodeScratch esc;  ///< canonicalization buffers
        std::vector<PendingSucc> pend;  ///< staging slot pool
        size_t pendCount = 0;  ///< successors staged this expansion
        unsigned symTick = 0;  ///< 1-in-64 canonicalization sampling
        uint64_t generated = 0, fired = 0, ample = 0;
        uint64_t visited = 0, visitedBytes = 0;

        // Phase timing: 2-in-8 expansions are sampled (see
        // expandSampled); hardware counters (null where
        // perf_event_open is unusable) ride the same samples.
        bool sampling = false;  ///< time the inner sections
        unsigned phaseTick = 0;
        util::Stopwatch sw;
        std::unique_ptr<obs::PerfCounterSet> perf;
        PhaseAcc phase;
    };

    /** The first error. Its trace ends at `node`, then takes `step`
     *  from there when the violation is in a successor. */
    struct ErrorSlot
    {
        ErrorKind kind = ErrorKind::None;
        std::string detail;
        uint64_t node = kNoNode;
        std::optional<Step> step;
    };

    /** Measured memory components (see footprint()). */
    struct Footprint
    {
        uint64_t table = 0, tier = 0, frontier = 0, log = 0;

        uint64_t total() const { return table + tier + frontier + log; }
    };

    const System &sys_;
    const CheckOptions &opts_;
    const unsigned numThreads_;
    // Not const: the degrade flips compaction_ and tracing_ at a
    // rendezvous, a resume from a degraded checkpoint starts
    // compacted, and a resume that references spill segments turns
    // spill_ on (and tracing_ off) before any worker exists.
    bool compaction_;
    bool spill_;
    bool tracing_;  ///< written under qMu_ (the sampler reads it)
    const bool symmetry_;  ///< canonicalize states before dedup
    CheckResult result_;

    // The spill tier is shared by every shard's store; it mutates only
    // at a rendezvous or before the workers start.
    SpillTier tier_;
    std::string spillError_;  ///< latched spill-arming failure
    std::atomic<uint64_t> tierBytes_{0};  ///< tier_.memoryBytes()
    // Shard-table totals as of the last measureTables().
    std::atomic<uint64_t> tableBytes_{0}, tableEntries_{0};
    std::atomic<uint64_t> tableSlots_{0}, shardsOccupied_{0};
    const size_t shardCount_;  ///< power of two
    std::unique_ptr<Shard[]> shards_;

    // The work queue, guarded by qMu_.
    std::mutex qMu_;
    std::condition_variable qCv_;
    SpillableFrontier fqueue_;
    TraceLog log_;  ///< one entry per pushed state while tracing_
    uint64_t popped_ = 0;  ///< states taken: the next node id
    size_t pending_ = 0;  ///< queued + currently-expanding states
    uint64_t explored_ = 0;  ///< expansions claimed (the state cap)
    uint64_t nextControl_ = kControlEvery;
    bool controlling_ = false;  ///< a worker runs a control point

    std::atomic<uint8_t> stop_{kRunning};
    std::mutex errMu_;
    bool hasError_ = false;
    ErrorSlot error_;
    PhaseAcc phases_;  ///< summed worker attribution; errMu_

    // Run totals, published per batch.
    std::atomic<uint64_t> generated_{0};
    std::atomic<uint64_t> fired_{0};
    std::atomic<uint64_t> ample_{0};
    std::atomic<uint64_t> visited_{0};
    std::atomic<uint64_t> visitedBytes_{0};
    PorContext por_;

    // Rendezvous: the controller raises parkRequest_ and waits until
    // every other live worker is parked.
    std::atomic<bool> parkRequest_{false};
    std::mutex cpMu_;
    std::condition_variable cpCv_;
    unsigned parked_ = 0;  ///< cpMu_
    unsigned alive_ = 0;   ///< workers not yet exited; cpMu_

    uint64_t fingerprint_ = 0;
    uint64_t sysHash_ = 0;
    double lastCheckpointMs_ = 0;

    Instr instr_;
    util::Stopwatch wall_;

    Shard &
    shardOf(uint64_t h)
    {
        return shards_[h & (shardCount_ - 1)];
    }

    /** Arm the spill tier and frontier (ctor / spilled-resume path).
     *  A failure latches into spillError_. */
    void
    armSpill(const std::string &dir)
    {
        if (!util::ensureDirectory(dir)) {
            spillError_ = "cannot create spill directory '" + dir + "'";
            return;
        }
        tier_.configure(dir, "visited");
        fqueue_.configure(dir, "frontier");
    }

    /** Record the first error and stop the workers: a resumable one
     *  lets them finish their batch, anything else aborts it. */
    void
    reportError(ErrorKind kind, std::string detail,
                uint64_t node = kNoNode,
                std::optional<Step> step = std::nullopt)
    {
        {
            std::lock_guard<std::mutex> lk(errMu_);
            if (hasError_)
                return;
            hasError_ = true;
            error_.kind = kind;
            error_.detail = std::move(detail);
            error_.node = node;
            error_.step = step;
        }
        {
            std::lock_guard<std::mutex> lk(qMu_);
            stop_.store(errorKindResumable(kind) ? kDrain : kAbort,
                        std::memory_order_relaxed);
        }
        qCv_.notify_all();
    }

    /** Encode, insert and enqueue the initial state. */
    void
    seedInitialState()
    {
        WorkerCtx ws;
        pendSlot(ws).st = initialState(sys_, opts_.accessBudget);
        stagePending(ws, Step{});
        PendingSucc &p = ws.pend[0];
        insertVisited(ws, p.hash, p.enc);
        if (auto v = findViolation(sys_, p.st))
            reportError(v->kind, v->detail, kNoNode, Step{});
        if (tracing_)
            log_.push_back({});
        fqueue_.push(p.enc.data(), static_cast<uint32_t>(p.enc.size()));
        pending_ = 1;
        publishCounts(ws);
    }

    void
    publishCounts(WorkerCtx &ws)
    {
        auto pub = [](std::atomic<uint64_t> &to, uint64_t &from) {
            if (from) {
                to.fetch_add(from, std::memory_order_relaxed);
                from = 0;
            }
        };
        pub(generated_, ws.generated);
        pub(fired_, ws.fired);
        pub(ample_, ws.ample);
        pub(visited_, ws.visited);
        pub(visitedBytes_, ws.visitedBytes);
    }

    void
    workerLoop(unsigned widx)
    {
        WorkerCtx ws;
        if (opts_.phaseTiming) {
            // Counters are per thread, so each worker opens its own.
            ws.perf = std::make_unique<obs::PerfCounterSet>();
            if (!ws.perf->available())
                ws.perf.reset();
        }
        SpanChunker chunker(instr_.trace(), widx + 1);
        for (;;) {
            if (parkRequest_.load(std::memory_order_relaxed))
                park();
            bool control = false, capped = false;
            std::string takeErr;
            {
                std::unique_lock<std::mutex> lk(qMu_);
                qCv_.wait(lk, [this] {
                    return stop_.load(std::memory_order_relaxed) ||
                           parkRequest_.load(
                               std::memory_order_relaxed) ||
                           !fqueue_.empty() || pending_ == 0;
                });
                if (stop_.load(std::memory_order_relaxed) ||
                    (fqueue_.empty() && pending_ == 0)) {
                    break;
                }
                if (parkRequest_.load(std::memory_order_relaxed))
                    continue;  // park at the loop top
                if (explored_ >= nextControl_ && !controlling_) {
                    controlling_ = true;
                    control = true;
                    nextControl_ = explored_ + kControlEvery;
                } else {
                    capped = !takeBatch(ws, takeErr);
                }
            }
            if (control) {
                controlPoint();
                std::lock_guard<std::mutex> lk(qMu_);
                controlling_ = false;
                continue;
            }
            if (capped) {
                reportError(ErrorKind::StateLimit,
                            "exploration capped at " +
                                std::to_string(opts_.maxStates) +
                                " states");
                break;
            }
            for (size_t i = 0; i < ws.batch.size() && takeErr.empty();
                 ++i) {
                const std::string &rec = ws.records[i];
                if (!ws.popped[i].decodeFrom(sys_, rec.data(),
                                             rec.size()))
                    takeErr = "malformed frontier record";
            }
            if (!takeErr.empty()) {
                reportError(ErrorKind::SpillIo, std::move(takeErr));
                break;
            }

            size_t consumed = 0;
            for (const Item &it : ws.batch) {
                if (stop_.load(std::memory_order_relaxed) == kAbort)
                    break;
                expandSampled(it, ws);
                ++consumed;
                chunker.bump();
            }
            flush(ws, consumed);
        }
        {
            std::lock_guard<std::mutex> lk(errMu_);
            phases_ += ws.phase;
        }
        retireWorker();
    }

    /**
     * Claim the next batch (caller holds qMu_ and the queue is
     * non-empty): copy its records out, to be decoded after the lock
     * is released. False when the state cap leaves nothing to claim.
     * A failed spill-segment load loses states, so it latches
     * @p err and the run aborts.
     */
    bool
    takeBatch(WorkerCtx &ws, std::string &err)
    {
        uint64_t allowed = UINT64_MAX;
        if (opts_.maxStates) {
            if (explored_ >= opts_.maxStates)
                return false;
            allowed = opts_.maxStates - explored_;
        }
        size_t take = static_cast<size_t>(std::min<uint64_t>(
            std::min<uint64_t>(fqueue_.size(), kBatch), allowed));
        ws.batch.clear();
        if (ws.records.size() < take) {
            ws.records.resize(take);
            ws.popped.resize(take);
        }
        for (size_t i = 0; i < take; ++i) {
            if (!fqueue_.pop(ws.records[i])) {
                err = fqueue_.error().empty()
                          ? "frontier segment load failed"
                          : fqueue_.error();
                take = i;
                break;
            }
            ws.batch.push_back({&ws.popped[i], popped_++});
        }
        explored_ += take;
        return true;
    }

    /** Publish a batch's successors and retire its items with one
     *  queue-lock acquisition. Items an abort left unexpanded are
     *  dropped from the count. */
    void
    flush(WorkerCtx &ws, size_t consumed)
    {
        publishCounts(ws);
        bool wake;
        std::string ferr;
        {
            std::lock_guard<std::mutex> lk(qMu_);
            explored_ -= ws.batch.size() - consumed;
            const char *rec = ws.acceptedBytes.data();
            for (const Accepted &a : ws.accepted) {
                if (tracing_)
                    log_.push_back(a.link);
                fqueue_.push(rec, a.len);
                rec += a.len;
            }
            ferr = fqueue_.error();
            pending_ += ws.accepted.size();
            pending_ -= ws.batch.size();
            wake = pending_ == 0 || !fqueue_.empty();
        }
        ws.accepted.clear();
        ws.acceptedBytes.clear();
        if (!ferr.empty())
            reportError(ErrorKind::SpillIo, std::move(ferr));
        if (wake)
            qCv_.notify_all();
    }

    /** Park at a batch boundary until the controller is done. */
    void
    park()
    {
        std::unique_lock<std::mutex> lk(cpMu_);
        ++parked_;
        cpCv_.notify_all();
        cpCv_.wait(lk, [this] {
            return !parkRequest_.load(std::memory_order_relaxed);
        });
        --parked_;
    }

    void
    retireWorker()
    {
        {
            std::lock_guard<std::mutex> lk(cpMu_);
            --alive_;
        }
        cpCv_.notify_all();
    }

    /** Run @p fn with every other live worker parked. The caller is
     *  the controlling worker, at its own batch boundary. */
    template <typename Fn>
    void
    rendezvous(Fn &&fn)
    {
        {
            std::lock_guard<std::mutex> lk(qMu_);
            parkRequest_.store(true, std::memory_order_relaxed);
        }
        qCv_.notify_all();
        std::unique_lock<std::mutex> lk(cpMu_);
        cpCv_.wait(lk, [this] { return parked_ + 1 == alive_; });
        fn();
        parkRequest_.store(false, std::memory_order_relaxed);
        lk.unlock();
        cpCv_.notify_all();
    }

    /** One control point (see the class comment). */
    void
    controlPoint()
    {
        if (opts_.cancel && opts_.cancel->cancelled()) {
            // Cancellation is terminal: no checkpoint, no resume.
            std::string why = opts_.cancel->reason();
            reportError(ErrorKind::Cancelled,
                        why.empty() ? "cancelled by caller"
                                    : std::move(why));
            return;
        }
        if (opts_.stopRequested &&
            opts_.stopRequested->load(std::memory_order_relaxed)) {
            reportError(ErrorKind::Interrupted,
                        "stop requested (signal or caller)");
            return;
        }
        if (stop_.load(std::memory_order_relaxed))
            return;
        measureTables();
        if (opts_.maxResidentBytes && !result_.degradedToCompaction &&
            footprint().total() > opts_.maxResidentBytes) {
            if (spill_) {
                // Out-of-core: shed memory, keep exactness, never
                // abort. The watermark stays armed.
                if (spillWorthwhile())
                    rendezvous([this] { spillInQuiescence(); });
            } else if (opts_.memoryLimitPolicy ==
                           MemoryLimitPolicy::DegradeToCompaction &&
                       !compaction_) {
                rendezvous([this] {
                    writeCheckpoint();  // emergency pre-degrade snapshot
                    degradeInQuiescence();  // disarms the watermark
                });
            } else {
                reportError(ErrorKind::MemoryLimit,
                            "estimated resident memory exceeds " +
                                std::to_string(
                                    opts_.maxResidentBytes) +
                                " bytes");
                return;
            }
        }
        if (!opts_.checkpointPath.empty() &&
            !stop_.load(std::memory_order_relaxed) &&
            wall_.ms() - lastCheckpointMs_ >=
                opts_.checkpointIntervalSec * 1000.0) {
            rendezvous([this] { writeCheckpoint(); });
        }
    }

    /** Re-measure the shard tables for footprint() and the sampler.
     *  Only a controller (or run() after the workers exit) may call
     *  this: a lone worker inserts without taking shard locks. */
    void
    measureTables()
    {
        uint64_t bytes = 0, entries = 0, slots = 0, occupied = 0;
        for (size_t i = 0; i < shardCount_; ++i) {
            std::lock_guard<std::mutex> lk(shards_[i].mu);
            const StateStore &s = shards_[i].store;
            bytes += s.memoryBytes();
            entries += s.size();
            slots += s.capacity();
            occupied += s.size() > 0;
        }
        tableBytes_.store(bytes, std::memory_order_relaxed);
        tableEntries_.store(entries, std::memory_order_relaxed);
        tableSlots_.store(slots, std::memory_order_relaxed);
        shardsOccupied_.store(occupied, std::memory_order_relaxed);
    }

    /**
     * Engine-owned memory accounting behind the watermark and the
     * heartbeat (so the watermark works with telemetry off): shard
     * table bytes (slot arrays + arena chunks) as of the last
     * control point, the spill tier's in-memory indexes, the work
     * queue's allocated record chunks, and the trace log's allocated
     * bytes. Safe from any thread.
     */
    Footprint
    footprint()
    {
        Footprint f;
        f.table = tableBytes_.load(std::memory_order_relaxed);
        f.tier = tierBytes_.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(qMu_);
        f.frontier = fqueue_.memBytes();
        f.log = log_.bytes();
        return f;
    }

    /** Progress sample: engine counts + measured footprint. */
    obs::ProgressSample
    sample()
    {
        obs::ProgressSample s = instr_.baseSample();
        Footprint f = footprint();
        {
            std::lock_guard<std::mutex> lk(qMu_);
            s.statesExplored = explored_;
            s.queueDepth = fqueue_.size();
            SpillStats fs = fqueue_.stats();
            SpillStats vs = tier_.stats();
            s.spilledBytes = vs.spilledBytes + fs.spilledBytes;
            s.spillSegments = vs.segmentsWritten + fs.segmentsWritten;
            s.diskProbes = vs.diskProbes;
            s.diskProbeHits = vs.diskHits;
            s.spillStallMs =
                static_cast<double>(vs.stallNs + fs.stallNs) / 1e6;
        }
        s.statesGenerated = generated_.load(std::memory_order_relaxed);
        s.transitionsFired = fired_.load(std::memory_order_relaxed);
        s.visitedEntries = visited_.load(std::memory_order_relaxed);
        if (shardCount_ > 1) {  // one shard reads as unsharded (0)
            s.shardCount = shardCount_;
            s.shardsOccupied =
                shardsOccupied_.load(std::memory_order_relaxed);
        }
        s.tableBytes = f.table;
        uint64_t slots = tableSlots_.load(std::memory_order_relaxed);
        s.tableLoadFactor =
            slots ? static_cast<double>(tableEntries_.load(
                        std::memory_order_relaxed)) /
                        static_cast<double>(slots)
                  : 0.0;
        s.frontierBytes = f.frontier;
        s.estMemoryBytes = f.total();
        return s;
    }

    uint64_t
    minSpillBytes() const
    {
        return std::min<uint64_t>(
            uint64_t{1} << 20,
            std::max<uint64_t>(opts_.maxResidentBytes / 4, 64u << 10));
    }

    /** In-memory frontier window, in record bytes, once spilling
     *  starts: an eighth of the budget, bounded away from thrashing
     *  (too small) and pointlessness (too large). */
    uint64_t
    frontierWindow() const
    {
        return std::clamp<uint64_t>(opts_.maxResidentBytes / 8,
                                    uint64_t{64} << 10,
                                    uint64_t{256} << 20);
    }

    /** Is a spill rendezvous worth the stall? True when the hot tier
     *  holds a segment's worth of encodings or the frontier overflow
     *  is not yet armed. */
    bool
    spillWorthwhile()
    {
        {
            std::lock_guard<std::mutex> lk(qMu_);
            if (!fqueue_.spilling())
                return true;
        }
        return !compaction_ && tableBytes_.load(std::memory_order_relaxed) >=
                                   minSpillBytes();
    }

    /**
     * SpillToDisk watermark response with every other worker parked:
     * flush all hot tables into one sealed segment, restart them
     * empty, and (re)arm the frontier overflow. Spill I/O failure
     * aborts the run ("spill-io") — memory pressure alone never does.
     */
    void
    spillInQuiescence()
    {
        if (!compaction_) {
            uint64_t hotBytes = 0;
            for (size_t i = 0; i < shardCount_; ++i)
                hotBytes += shards_[i].store.spillableBytes();
            if (hotBytes >= minSpillBytes() && !spillHotTables())
                return;
        }
        std::string err;
        {
            std::lock_guard<std::mutex> lk(qMu_);
            fqueue_.enableSpill(frontierWindow());
            err = fqueue_.error();
        }
        if (!err.empty())
            reportError(ErrorKind::SpillIo, std::move(err));
    }

    /** Flush every hot table into one sealed visited segment and
     *  restart them empty (quiescent callers only). A failure is a
     *  "spill-io" error and leaves the tables as they were. */
    bool
    spillHotTables()
    {
        std::vector<const StateTable *> tabs;
        for (size_t i = 0; i < shardCount_; ++i)
            tabs.push_back(&shards_[i].store.hot());
        std::string err;
        if (!tier_.spillHot(tabs.data(), tabs.size(), &err)) {
            reportError(ErrorKind::SpillIo, std::move(err));
            return false;
        }
        for (size_t i = 0; i < shardCount_; ++i)
            shards_[i].store.resetHot();
        tierBytes_.store(tier_.memoryBytes(), std::memory_order_relaxed);
        instr_.journalEvent(
            "spill",
            {{"spilled_bytes", std::to_string(tier_.stats().spilledBytes)},
             {"segments", std::to_string(tier_.stats().segmentsWritten)},
             {"states_explored", std::to_string(explored_)}});
        return true;
    }

    /**
     * Degrade to hash compaction with every other worker parked:
     * re-shard each exact encoding by its compaction signature, drop
     * the encodings, and stop tracing (compacted runs do not trace,
     * so the trace log's memory goes too). The replacement tables are
     * pre-sized from the live cardinality, so the transition is one
     * pass with no rehash storm at the memory watermark.
     */
    void
    degradeInQuiescence()
    {
        uint64_t liveStates = 0;
        for (size_t i = 0; i < shardCount_; ++i)
            liveStates += shards_[i].store.size();
        std::vector<StateTable> hashed;
        hashed.reserve(shardCount_);
        for (size_t i = 0; i < shardCount_; ++i) {
            hashed.emplace_back(StateTable::Mode::Hashes);
            // Signatures spread evenly over shards; leave headroom so
            // an unlucky shard still avoids a second grow.
            hashed.back().reserve(liveStates / shardCount_ +
                                  liveStates / (4 * shardCount_) + 1);
        }
        for (size_t i = 0; i < shardCount_; ++i) {
            shards_[i].store.forEachHotExact(
                [&](const char *data, uint32_t len) {
                    uint64_t h =
                        hashState(data, len, opts_.compactionSeed);
                    hashed[h & (shardCount_ - 1)].insertHash(h);
                });
        }
        uint64_t total = 0;
        for (size_t i = 0; i < shardCount_; ++i) {
            shards_[i].store.replaceHot(std::move(hashed[i]));
            total += shards_[i].store.size();
        }
        {
            std::lock_guard<std::mutex> lk(qMu_);
            log_.clear();
            tracing_ = false;
        }
        visited_.store(total, std::memory_order_relaxed);
        visitedBytes_.store(total * 8, std::memory_order_relaxed);
        compaction_ = true;
        result_.degradedToCompaction = true;
        instr_.journalEvent(
            "degrade",
            {{"states_explored", std::to_string(explored_)},
             {"visited_entries", std::to_string(total)}});
    }

    /** Snapshot the exploration to opts_.checkpointPath (no-op when
     *  no path is configured). Runs quiescent: at a rendezvous, or
     *  after the workers have exited. Failures never abort the run; a
     *  partial write never clobbers the previous checkpoint. */
    void
    writeCheckpoint()
    {
        if (opts_.checkpointPath.empty())
            return;
        util::Stopwatch sw;
        CheckpointWriter w(opts_.checkpointPath);
        CheckpointHeader h;
        h.optionsFingerprint = fingerprint_;
        h.systemHash = sysHash_;
        h.storedAsHashes = compaction_;
        h.degraded = result_.degradedToCompaction;
        h.symmetryApplied = symmetry_;
        h.statesExplored = explored_;
        h.statesGenerated = generated_.load();
        h.transitionsFired = fired_.load();
        w.begin(h);
        uint64_t vcount = 0;
        for (size_t i = 0; i < shardCount_; ++i)
            vcount += shards_[i].store.size();
        w.beginVisited(vcount, compaction_);
        for (size_t i = 0; i < shardCount_; ++i) {
            if (compaction_) {
                shards_[i].store.forEachHash(
                    [&](uint64_t v) { w.addVisitedHash(v); });
            } else {
                shards_[i].store.forEachHotExact(
                    [&](const char *data, uint32_t len) {
                        w.addVisitedExact(data, len);
                    });
            }
        }
        // v3 queue split: in-memory head in the classic frontier
        // section, the spilled middle by segment reference, the
        // in-memory tail in its own section (empty sections otherwise,
        // emitted by commit()). Queue records are decoded to states
        // here, so the format stays v3 whatever the queue holds.
        SysState st;
        bool malformed = false;
        auto addRecord = [&](const char *data, uint32_t len) {
            malformed |= !st.decodeFrom(sys_, data, len);
            w.addFrontierState(st);
        };
        w.beginFrontier(fqueue_.headStates());
        fqueue_.forEachHead(addRecord);
        w.addCensus(sys_);
        if (spill_) {
            w.addSpillSegments(tier_.segmentRefs(),
                               fqueue_.segmentRefs());
            w.beginFrontierTail(fqueue_.tailStates());
            fqueue_.forEachTail(addRecord);
        }
        if (malformed) {
            // Uncommitted, the writer leaves the last checkpoint be.
            warn("checkpoint write failed: malformed frontier record");
            return;
        }
        CheckpointIo io = w.commit();
        lastCheckpointMs_ = wall_.ms();
        if (io.ok) {
            ++result_.checkpointsWritten;
            result_.checkpointBytes += io.bytes;
            result_.checkpointFile = opts_.checkpointPath;
            instr_.noteCheckpointWrite(io.bytes, sw.ms(), explored_);
            // The durable snapshot no longer references any frontier
            // segment consumed before it; their files can go now.
            if (spill_)
                fqueue_.purgeConsumed();
        } else {
            warn("checkpoint write failed: ", io.error);
        }
    }

    /** Seed the run from a validated checkpoint instead of the
     *  initial state (before any worker exists; check() has already
     *  verified compatibility). Returns "" on success; a non-empty
     *  string is a refusal reason (missing/corrupt spill segment),
     *  reported as "resume-mismatch" like a fingerprint mismatch. */
    std::string
    restoreFrom(const CheckpointData &d)
    {
        util::Stopwatch sw;
        explored_ = d.header.statesExplored;
        generated_.store(d.header.statesGenerated);
        fired_.store(d.header.transitionsFired);
        result_.degradedToCompaction = d.header.degraded;
        // A snapshot that references live spill segments resumes in
        // spill mode regardless of this run's flags: the segments are
        // part of the visited set, so the tier must be live to probe
        // them. The directory defaults to where they already live.
        uint64_t segBytes = 0;
        if (!d.visitedSegments.empty() || !d.frontierSegments.empty()) {
            tracing_ = false;
            spill_ = true;
            if (!tier_.configured()) {
                std::string dir = opts_.spillDir;
                if (dir.empty()) {
                    const std::string &p =
                        d.visitedSegments.empty()
                            ? d.frontierSegments.front().path
                            : d.visitedSegments.front().path;
                    dir = dirnameOf(p);
                }
                armSpill(dir);
                if (!spillError_.empty())
                    return spillError_;
            }
            for (const SpillSegmentRef &ref : d.visitedSegments) {
                std::string err;
                if (!tier_.adoptSegment(ref, &err))
                    return err;
                segBytes += ref.bytes;
            }
            tierBytes_.store(tier_.memoryBytes());
        }
        // Pre-size every shard from the snapshot's cardinality so the
        // restore is one pass with no rehashes.
        uint64_t stored = d.header.storedAsHashes
                              ? d.visitedHashes.size()
                              : d.visitedExact.size();
        for (size_t i = 0; i < shardCount_; ++i)
            shards_[i].store.reserve(stored / shardCount_ +
                                     stored / (4 * shardCount_) + 1);
        uint64_t n = 0, bytes = 0;
        if (d.header.storedAsHashes) {
            for (uint64_t h : d.visitedHashes)
                n += shardOf(h).store.insertHash(h);
            bytes = n * 8;
        } else {
            for (const std::string &enc : d.visitedExact) {
                uint64_t h = hashState(enc, 0);
                if (shardOf(h).store.insert(
                        h, enc.data(),
                        static_cast<uint32_t>(enc.size()))) {
                    ++n;
                    bytes += enc.size();
                }
            }
        }
        visited_.store(n + tier_.states());
        visitedBytes_.store(bytes + segBytes);
        // Frontier states are already in the visited set; in tracing
        // mode they become trace roots, so a post-resume violation's
        // counterexample starts at the resume point. Restore order
        // (head pushes, segment adoption, tail pushes) rebuilds the
        // exact FIFO the snapshot recorded.
        EncodeScratch esc;
        std::string enc;
        auto pushState = [&](const SysState &st) {
            st.encodeTo(sys_, enc, esc);
            fqueue_.push(enc.data(), static_cast<uint32_t>(enc.size()));
        };
        for (size_t i = 0; i < d.frontier.size(); ++i) {
            if (tracing_) {
                log_.push_back({kNoNode,
                                {Step::Kind::Resumed, Access::Load,
                                 static_cast<uint32_t>(i)}});
            }
            pushState(d.frontier[i]);
        }
        for (const SpillSegmentRef &ref : d.frontierSegments) {
            std::string err;
            if (!fqueue_.adoptSegment(ref, &err))
                return err;
        }
        for (const SysState &st : d.frontierTail)
            pushState(st);
        pending_ = fqueue_.size();
        instr_.noteCheckpointRestore(sw.ms());
        return "";
    }

    /**
     * The counterexample of error_, rebuilt by replay: walk the log
     * from the error's node back to its root, then re-execute each
     * step from the root state, canonicalizing as stagePending() does
     * (census marks off). The trace keeps the last kMaxTraceNodes
     * logged states, plus the violating successor when there is one.
     */
    void
    buildTrace()
    {
        std::vector<TraceEntry> path;  // error first, root last
        if (error_.step)
            path.push_back({error_.node, *error_.step});
        for (uint64_t n = error_.node; n != kNoNode; n = log_[n].parent)
            path.push_back(log_[n]);
        if (path.empty())
            return;
        EncodeScratch esc;
        std::string enc;
        SysState cur;
        const Step root = path.back().step;
        if (root.kind == Step::Kind::Resumed) {
            cur = opts_.resume->frontier[root.index];
        } else {
            cur = initialState(sys_, opts_.accessBudget);
            if (symmetry_)
                cur.encodeCanonicalTo(sys_, enc, esc);
        }
        size_t skip = path.size() - (error_.step ? 1 : 0);
        skip = skip > kMaxTraceNodes ? skip - kMaxTraceNodes : 0;
        for (size_t i = path.size(); i-- > 0;) {
            std::string how = stepLabel(sys_, cur, path[i].step);
            if (i + 1 < path.size()) {
                SysState next;
                StateEnv env;
                applyStep(sys_, cur, path[i].step, next, env, false);
                if (symmetry_)
                    next.encodeCanonicalTo(sys_, enc, esc);
                cur = std::move(next);
            }
            if (skip) {
                --skip;
                continue;
            }
            result_.trace.push_back(how + "  =>  " +
                                    describeState(sys_, cur));
            result_.traceStepsJson.push_back(
                "{\"event\": " + obs::jsonQuote(how) + ", \"state\": " +
                describeStateJson(sys_, cur) + "}");
        }
    }

    /** Canonicalize (under symmetry reduction) and encode @p st into
     *  @p out, with the sampled timing the telemetry symmetry share
     *  and the phase breakdown both draw from. */
    void
    encodeState(SysState &st, std::string &out, WorkerCtx &ws)
    {
        bool sym_sample = false;
        if (symmetry_ && instr_.on()) {
            instr_.noteSymCall();
            sym_sample = Instr::sampleTick(ws.symTick);
        }
        if (!sym_sample && !ws.sampling) {
            if (symmetry_)
                st.encodeCanonicalTo(sys_, out, ws.esc);
            else
                st.encodeTo(sys_, out, ws.esc);
            return;
        }
        // One timed call serves both samplers: the telemetry share
        // takes the orbit walk only (the cost symmetry adds on top of
        // the baseline encode), the phase breakdown both halves.
        obs::PerfCounts p0;
        if (ws.sampling && ws.perf)
            p0 = ws.perf->read();
        if (symmetry_) {
            ws.esc.timeSections = true;
            ws.esc.encodeNs = ws.esc.orbitNs = 0;
            st.encodeCanonicalTo(sys_, out, ws.esc);
            ws.esc.timeSections = false;
        } else {
            ws.sw.restart();
            st.encodeTo(sys_, out, ws.esc);
            ws.esc.encodeNs = static_cast<uint64_t>(ws.sw.ns());
            ws.esc.orbitNs = 0;
        }
        if (sym_sample)
            instr_.noteSymSample(ws.esc.orbitNs);
        if (ws.sampling) {
            if (ws.perf)
                ws.phase.encodePerf += ws.perf->read() - p0;
            ws.phase.encodeNs += static_cast<double>(ws.esc.encodeNs);
            ws.phase.canonNs += static_cast<double>(ws.esc.orbitNs);
            ++ws.phase.adds;
        }
    }

    /** Probe/insert into the sharded visited set; true if new. The
     *  fingerprint picks the shard by its low bits; the table probes
     *  from a scrambled start index, so the two never collide on the
     *  same bits. */
    bool
    insertVisited(WorkerCtx &ws, uint64_t h, const std::string &enc)
    {
        obs::PerfCounts p0;
        if (ws.sampling) {
            if (ws.perf)
                p0 = ws.perf->read();
            ws.sw.restart();
        }
        bool fresh;
        {
            // A lone worker is the only thread touching the shards
            // (see measureTables), so it skips the lock.
            Shard &s = shardOf(h);
            std::unique_lock<std::mutex> lk(s.mu, std::defer_lock);
            if (numThreads_ > 1)
                lk.lock();
            fresh = compaction_
                        ? s.store.insertHash(h)
                        : s.store.insert(
                              h, enc.data(),
                              static_cast<uint32_t>(enc.size()));
        }
        if (ws.sampling) {
            ws.phase.insertNs += ws.sw.ns();
            if (ws.perf)
                ws.phase.insertPerf += ws.perf->read() - p0;
        }
        if (fresh) {
            ++ws.visited;
            ws.visitedBytes += compaction_ ? 8 : enc.size();
        }
        return fresh;
    }

    /** The slot the next successor executes into (not yet staged). */
    PendingSucc &
    pendSlot(WorkerCtx &ws)
    {
        if (ws.pendCount == ws.pend.size())
            ws.pend.emplace_back();
        return ws.pend[ws.pendCount];
    }

    /** Stage 1 commit: encode/hash the state sitting in pendSlot()
     *  and prefetch where its probe will land. With several workers
     *  only the shard header is prefetched — another worker may be
     *  growing that shard's slot arrays under its lock. */
    void
    stagePending(WorkerCtx &ws, Step step)
    {
        PendingSucc &p = ws.pend[ws.pendCount++];
        p.step = step;
        ++ws.generated;
        encodeState(p.st, p.enc, ws);
        p.hash = hashState(p.enc,
                           compaction_ ? opts_.compactionSeed : 0);
        Shard &s = shardOf(p.hash);
        if (numThreads_ == 1)
            s.store.prefetch(p.hash);
#if defined(__GNUC__) || defined(__clang__)
        else
            __builtin_prefetch(&s, 0, 1);
#endif
    }

    /** Stage 2: probe/insert every staged successor in generation
     *  order; fresh ones are invariant-checked (on the canonical form
     *  encodeState left in place) and buffered. Returns false when a
     *  violation was reported — the remaining staged states are
     *  dropped, as an unbatched loop would have stopped there. */
    bool
    flushPending(const Item &parent, WorkerCtx &ws)
    {
        bool clean = true;
        for (size_t pi = 0; pi < ws.pendCount && clean; ++pi) {
            PendingSucc &p = ws.pend[pi];
            if (!insertVisited(ws, p.hash, p.enc))
                continue;
            if (auto v = findViolation(sys_, p.st)) {
                reportError(v->kind, v->detail, parent.node, p.step);
                clean = false;
                break;
            }
            ws.acceptedBytes += p.enc;
            ws.accepted.push_back({{parent.node, p.step},
                                   static_cast<uint32_t>(p.enc.size())});
        }
        ws.pendCount = 0;
        return clean;
    }

    /**
     * expandOne(), with phase timing under phaseTiming: 1 expansion in
     * 8 times the whole expansion, another 1 in 8 times its encode,
     * canonicalize and insert sections. The samples are disjoint, so
     * the inner stopwatches' own cost (a few clock reads per
     * successor) never lands in the outer span, which finishPhases()
     * scales by 8.
     */
    void
    expandSampled(const Item &it, WorkerCtx &ws)
    {
        unsigned tick = opts_.phaseTiming ? ws.phaseTick++ & 7 : 1;
        if (tick == 4) {
            ws.sampling = true;
            expandOne(it, ws);
            ws.sampling = false;
            return;
        }
        if (tick != 0) {
            expandOne(it, ws);
            return;
        }
        obs::PerfCounts p0;
        if (ws.perf)
            p0 = ws.perf->read();
        util::Stopwatch sw;
        expandOne(it, ws);
        ws.phase.expandNs += sw.ns();
        if (ws.perf)
            ws.phase.expandPerf += ws.perf->read() - p0;
        ++ws.phase.expansions;
    }

    /** Generate, dedup and buffer every successor of one state. */
    void
    expandOne(const Item &it, WorkerCtx &ws)
    {
        const SysState &cur = *it.state;
        size_t successors = 0;

        // 1. Message deliveries.
        cur.deliverableMask(*sys_.msgs, ws.mask);

        // 1a. Partial-order reduction: when one delivery provably
        // commutes with everything else enabled here, it is the only
        // successor explored from this state.
        if (por_.enabled) {
            size_t ampleIdx = SIZE_MAX;
            std::string perr;
            switch (porTryAmple(por_, opts_, cur, ws.mask,
                                pendSlot(ws).st, ampleIdx, perr)) {
            case PorOutcome::Error:
                reportError(ErrorKind::ProtocolError, std::move(perr),
                            it.node);
                return;
            case PorOutcome::Ample:
                ++ws.ample;
                ++ws.fired;
                stagePending(ws, {Step::Kind::Ample, Access::Load,
                                  static_cast<uint32_t>(ampleIdx)});
                flushPending(it, ws);
                return;
            case PorOutcome::NoAmple:
                break;
            }
        }

        for (size_t mi = 0; mi < cur.msgs.size(); ++mi) {
            if (!ws.mask[mi])
                continue;  // blocked behind an older ordered message
            const Step step{Step::Kind::Deliver, Access::Load,
                            static_cast<uint32_t>(mi)};
            StateEnv env;
            StepResult r = applyStep(sys_, cur, step, pendSlot(ws).st,
                                     env, opts_.markReached);
            if (r == StepResult::Error || env.failed) {
                // Earlier siblings flush first, so a violation among
                // them still wins (the order an unbatched loop would
                // report in).
                if (flushPending(it, ws))
                    reportError(ErrorKind::ProtocolError, env.errorMsg,
                                it.node);
                return;
            }
            if (r == StepResult::Stalled)
                continue;
            ++successors;
            ++ws.fired;
            stagePending(ws, step);
        }

        // 2. Core accesses.
        bool accesses_allowed =
            !opts_.atomicTransactions || cur.quiescent(sys_);
        if (accesses_allowed) {
            for (size_t li = 0; li < sys_.leafCaches.size(); ++li) {
                if (cur.budget[li] == 0)
                    continue;
                NodeId c = sys_.leafCaches[li];
                const Machine &m = *sys_.nodes[c].machine;
                for (Access a : {Access::Load, Access::Store,
                                 Access::Evict}) {
                    if (!m.hasTransition(cur.blocks[c].state,
                                         EventKey::mkAccess(a))) {
                        continue;
                    }
                    const Step step{Step::Kind::Access, a,
                                    static_cast<uint32_t>(li)};
                    StateEnv env;
                    StepResult r =
                        applyStep(sys_, cur, step, pendSlot(ws).st, env,
                                  opts_.markReached);
                    if (r == StepResult::Error || env.failed) {
                        if (flushPending(it, ws))
                            reportError(ErrorKind::ProtocolError,
                                        env.errorMsg, it.node);
                        return;
                    }
                    if (r == StepResult::Stalled)
                        continue;
                    ++successors;
                    ++ws.fired;
                    stagePending(ws, step);
                }
            }
        }
        if (!flushPending(it, ws))
            return;

        if (successors == 0 && !isTerminalState(sys_, cur))
            reportError(ErrorKind::Deadlock, "no enabled event", it.node);
    }

    /** Assemble the result once every worker has exited. */
    CheckResult
    finish()
    {
        result_.statesExplored = explored_;
        result_.statesGenerated = generated_.load();
        result_.transitionsFired = fired_.load();
        result_.ampleExpansions = ample_.load();
        if (hasError_) {
            result_.errorKind = error_.kind;
            result_.detail = error_.detail;
            result_.hitStateLimit = error_.kind == ErrorKind::StateLimit;
            result_.resumable = errorKindResumable(error_.kind);
            if (tracing_)
                buildTrace();
        }
        // Workers are gone: flush a final resume artifact with the
        // queue exactly as the stop left it. A spilling run first
        // moves its hot tables to a segment, so the artifact names
        // them instead of copying them and a resume adopts them
        // without parsing every encoding into memory.
        if (result_.resumable) {
            if (spill_ && !compaction_ && !opts_.checkpointPath.empty())
                spillHotTables();
            writeCheckpoint();
        }
        result_.ok = !hasError_;
        result_.symmetryReduction = symmetry_;
        result_.partialOrderReduction = por_.enabled;
        result_.hashCompaction = compaction_;
        result_.resumedFromCheckpoint = opts_.resume != nullptr;
        if (compaction_) {
            // Stern–Dill style bound: expected omitted states is about
            // n^2 / 2^b for n states hashed into b-bit signatures.
            double n = static_cast<double>(result_.statesGenerated);
            result_.omissionProbability = n * n / 1.8446744e19;
        }
        if (opts_.phaseTiming && phases_.expansions > 0)
            finishPhases();
        if (spill_) {
            SpillStats vs = tier_.stats();
            const SpillStats &fs = fqueue_.stats();
            result_.spilledToDisk =
                vs.segmentsWritten + fs.segmentsWritten > 0 ||
                tier_.states() > 0;
            result_.spilledBytes = vs.spilledBytes + fs.spilledBytes;
            result_.spillSegmentsWritten =
                vs.segmentsWritten + fs.segmentsWritten;
            result_.diskProbes = vs.diskProbes;
            result_.diskProbeHits = vs.diskHits;
            result_.spillStallMs =
                static_cast<double>(vs.stallNs + fs.stallNs) / 1e6;
            // Segment files outlive the run only while a durable
            // checkpoint references them: this run's last one, or the
            // artifact a refused resume was adopting them from.
            // Otherwise (clean verdict, violation, no checkpoint
            // configured) they go now.
            bool keep =
                (result_.resumable && result_.checkpointsWritten > 0) ||
                result_.errorKind == ErrorKind::ResumeMismatch;
            if (!keep) {
                tier_.removeSegmentFiles();
                fqueue_.removeSegmentFiles();
            }
        }
        result_.peakRssBytes = util::peakRssBytes();
        measureTables();  // exact figures for the final sample
        instr_.finalize(result_, wall_.ms(), visited_.load(),
                        visitedBytes_.load());
        return result_;
    }

    /** Scale the workers' 1-in-8 phase samples (outer spans and inner
     *  sections alike) back to run totals. */
    void
    finishPhases()
    {
        const PhaseAcc &a = phases_;
        CheckResult::PhaseBreakdown &p = result_.phases;
        double expandScale = static_cast<double>(result_.statesExplored) /
                             static_cast<double>(a.expansions);
        double addScale =
            a.adds ? static_cast<double>(result_.statesGenerated) /
                         static_cast<double>(a.adds)
                   : 0.0;
        p.enabled = true;
        p.expandMs = a.expandNs * expandScale / 1e6;
        p.encodeMs = a.encodeNs * addScale / 1e6;
        p.canonicalizeMs = a.canonNs * addScale / 1e6;
        p.insertMs = a.insertNs * addScale / 1e6;
        p.sampledExpansions = a.expansions;
        if (!a.expandPerf.valid)
            return;
        auto scale = [](const obs::PerfCounts &c, double f) {
            CheckResult::PhaseBreakdown::PerfSample s;
            s.cycles = static_cast<uint64_t>(
                static_cast<double>(c.cycles) * f);
            s.instructions = static_cast<uint64_t>(
                static_cast<double>(c.instructions) * f);
            s.cacheMisses = static_cast<uint64_t>(
                static_cast<double>(c.cacheMisses) * f);
            s.branchMisses = static_cast<uint64_t>(
                static_cast<double>(c.branchMisses) * f);
            return s;
        };
        p.perfEnabled = true;
        p.expandPerf = scale(a.expandPerf, expandScale);
        p.encodePerf = scale(a.encodePerf, addScale);
        p.insertPerf = scale(a.insertPerf, addScale);
        instr_.publishPerf(p);
        instr_.journalEvent(
            "perf",
            {{"expand_cycles", std::to_string(p.expandPerf.cycles)},
             {"expand_instructions",
              std::to_string(p.expandPerf.instructions)},
             {"expand_cache_misses",
              std::to_string(p.expandPerf.cacheMisses)},
             {"encode_cycles", std::to_string(p.encodePerf.cycles)},
             {"insert_cycles", std::to_string(p.insertPerf.cycles)}});
    }
};

} // namespace

CheckResult
check(const System &sys, const CheckOptions &opts)
{
    if (opts.telemetry) {
        // Run identity, recorded once per check() call: the same
        // fingerprint pair the checkpoint format uses to refuse
        // incompatible resumes, so a journal replay can match a
        // snapshot to the run that wrote it.
        char fp[17], sh[17];
        std::snprintf(fp, sizeof fp, "%016llx",
                      static_cast<unsigned long long>(
                          optionsFingerprint(opts)));
        std::snprintf(sh, sizeof sh, "%016llx",
                      static_cast<unsigned long long>(
                          systemConfigHash(sys)));
        if (opts.telemetry->journal) {
            opts.telemetry->journal->event(
                "verify_start",
                {{"options_fingerprint", obs::jsonQuote(fp)},
                 {"system_hash", obs::jsonQuote(sh)},
                 {"nodes", std::to_string(sys.nodes.size())}},
                /*durable=*/true);
        }
        if (opts.telemetry->status) {
            opts.telemetry->status->setField("options_fingerprint",
                                             obs::jsonQuote(fp));
            opts.telemetry->status->setField("system_hash",
                                             obs::jsonQuote(sh));
        }
    }
    if (opts.memoryLimitPolicy == MemoryLimitPolicy::SpillToDisk &&
        opts.spillDir.empty()) {
        CheckResult r;
        r.errorKind = ErrorKind::SpillIo;
        r.detail = "MemoryLimitPolicy::SpillToDisk requires a spill "
                   "directory (CheckOptions::spillDir)";
        return r;
    }
    if (opts.resume) {
        std::string err =
            resumeCompatibilityError(*opts.resume, sys, opts);
        if (err.empty() && !restoreCensus(sys, *opts.resume)) {
            err = "checkpoint census does not match the system's "
                  "machine tables; refusing to resume";
        }
        if (!err.empty()) {
            CheckResult r;
            r.errorKind = ErrorKind::ResumeMismatch;
            r.detail = std::move(err);
            return r;
        }
    }
    unsigned threads = opts.numThreads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    return Engine(sys, opts, threads).run();
}

CheckResult
checkFlat(const Protocol &p, int num_caches, const CheckOptions &opts)
{
    System sys = buildFlatSystem(p, num_caches);
    return check(sys, opts);
}

CheckResult
checkHier(const HierProtocol &p, int num_cache_h, int num_cache_l,
          const CheckOptions &opts)
{
    System sys = buildHierSystem(p, num_cache_h, num_cache_l);
    return check(sys, opts);
}

CheckResult
pruneUnreachable(const System &sys, CheckOptions opts,
                 std::vector<Machine *> machines)
{
    for (Machine *m : machines)
        m->clearReachedMarks();
    opts.markReached = true;
    CheckResult r = check(sys, opts);
    if (r.ok) {
        for (Machine *m : machines)
            m->pruneUnreached();
    }
    return r;
}

} // namespace hieragen::verif
