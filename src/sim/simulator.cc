#include "sim/simulator.hh"

#include <deque>
#include <sstream>

#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace hieragen::sim
{

std::string
SimStats::summary() const
{
    std::ostringstream os;
    os << "cycles=" << cycles << " accesses=" << accesses
       << " hits=" << hits << " misses=" << misses << " msgs=" << messages
       << " (L=" << messagesLower << " H=" << messagesHigher << ")"
       << " stallRetries=" << stallRetries << " avgMissLat="
       << avgMissLatency();
    if (protocolError)
        os << " ERROR: " << errorDetail;
    return os.str();
}

namespace
{

struct CoreState
{
    bool pending = false;
    int32_t block = 0;
    Access access = Access::Load;
    uint64_t since = 0;
    bool hasQueued = false;   ///< access waiting behind an eviction
    WorkItem queued;
};

class Engine : public hieragen::ExecEnv
{
  public:
    Engine(const MsgTypeTable &msgs, std::vector<NodeCtx> nodes,
           std::vector<std::string> names, const SimConfig &cfg)
        : msgs_(msgs), nodes_(std::move(nodes)),
          dispatch_(compileDispatch(nodes_, msgs)),
          names_(std::move(names)), cfg_(cfg)
    {
        cores_.resize(nodes_.size());
        ghosts_.assign(cfg_.numBlocks, 0);
    }

    void
    setTrace(TraceFn fn)
    {
        trace_ = std::move(fn);
    }

    void
    addWorkloads()
    {
        for (const NodeCtx &n : nodes_) {
            if (!n.leafCache)
                continue;
            workloads_.emplace(
                n.id, Workload(cfg_.pattern, n.id,
                               static_cast<int>(nodes_.size()),
                               cfg_.numBlocks, cfg_.seed,
                               cfg_.storePct));
        }
    }

    void
    setScript(std::vector<std::pair<NodeId, Access>> script)
    {
        script_ = std::move(script);
        scripted_ = true;
    }

    SimStats
    run()
    {
        obs::TraceWriter *tw =
            cfg_.telemetry ? cfg_.telemetry->trace : nullptr;
        if (tw)
            tw->setThreadName(obs::kSimTid, "simulator");
        uint64_t span_start = tw ? tw->nowUs() : 0;

        for (now_ = 0; now_ < cfg_.maxCycles; ++now_) {
            deliverReady();
            if (stats_.protocolError)
                break;
            issueAccesses();
            if (tw && (now_ & 1023) == 0)
                sampleCounters(*tw);
            if (scripted_ && scriptDone_ && idle())
                break;
        }
        stats_.cycles = now_;

        if (tw) {
            sampleCounters(*tw);
            tw->completeEvent(
                "simulate", obs::kSimTid, span_start,
                tw->nowUs() - span_start,
                {{"cycles", std::to_string(stats_.cycles)},
                 {"accesses", std::to_string(stats_.accesses)},
                 {"messages", std::to_string(stats_.messages)}});
        }
        if (auto *reg =
                cfg_.telemetry ? cfg_.telemetry->metrics : nullptr) {
            reg->counter("sim.cycles").add(stats_.cycles);
            reg->counter("sim.accesses").add(stats_.accesses);
            reg->counter("sim.hits").add(stats_.hits);
            reg->counter("sim.misses").add(stats_.misses);
            reg->counter("sim.messages").add(stats_.messages);
            reg->counter("sim.stall_retries").add(stats_.stallRetries);
        }
        return stats_;
    }

    // --- ExecEnv ---

    void
    send(const Msg &msg) override
    {
        Msg m = msg;
        m.addr = curAddr_;
        ++stats_.messages;
        if (msgs_[m.type].level == Level::Lower)
            ++stats_.messagesLower;
        else
            ++stats_.messagesHigher;
        uint64_t ready = now_ + cfg_.networkLatency;
        if (onOrderedVnet(msgs_, m)) {
            orderedChannels_[{m.src, m.dst}].push_back({ready, m});
        } else {
            unordered_.insert({ready, m});
        }
    }

    uint8_t
    storeValue(NodeId) override
    {
        uint8_t &g = ghosts_[curAddr_];
        g = static_cast<uint8_t>(1 - g);
        return g;
    }

    void
    loadObserved(NodeId node, bool has_data, uint8_t) override
    {
        if (!has_data) {
            stats_.protocolError = true;
            stats_.errorDetail = "load without data at node " +
                                 std::to_string(node);
        }
    }

    void
    error(const std::string &what) override
    {
        stats_.protocolError = true;
        stats_.errorDetail = what;
    }

  private:
    void
    sampleCounters(obs::TraceWriter &tw)
    {
        tw.counterEvent(
            "sim_activity", obs::kSimTid, tw.nowUs(),
            {{"accesses", static_cast<double>(stats_.accesses)},
             {"messages", static_cast<double>(stats_.messages)},
             {"stall_retries",
              static_cast<double>(stats_.stallRetries)}});
    }

    const MsgTypeTable &msgs_;
    std::vector<NodeCtx> nodes_;
    std::vector<std::shared_ptr<const DispatchTable>> dispatch_;
    std::vector<std::string> names_;
    SimConfig cfg_;
    SimStats stats_;
    TraceFn trace_;

    uint64_t now_ = 0;
    int32_t curAddr_ = 0;

    std::multimap<uint64_t, Msg> unordered_;
    std::map<std::pair<NodeId, NodeId>,
             std::deque<std::pair<uint64_t, Msg>>> orderedChannels_;

    std::map<std::pair<NodeId, int32_t>, BlockState> blocks_;
    std::vector<CoreState> cores_;
    std::map<NodeId, Workload> workloads_;
    std::vector<uint8_t> ghosts_;

    std::vector<std::pair<NodeId, Access>> script_;
    size_t scriptPos_ = 0;
    bool scripted_ = false;
    bool scriptDone_ = false;

    BlockState &
    blk(NodeId n, int32_t addr)
    {
        auto key = std::make_pair(n, addr);
        auto it = blocks_.find(key);
        if (it != blocks_.end())
            return it->second;
        BlockState b;
        b.state = nodes_[n].machine->initial();
        if (nodes_[n].parent == kNoNode) {
            b.hasData = true;
            b.data = 0;
        }
        return blocks_.emplace(key, b).first->second;
    }

    bool
    idle() const
    {
        if (!unordered_.empty())
            return false;
        for (const auto &[ch, q] : orderedChannels_) {
            if (!q.empty())
                return false;
        }
        for (const CoreState &c : cores_) {
            if (c.pending)
                return false;
        }
        return true;
    }

    void
    deliverReady()
    {
        // Unordered network.
        while (!unordered_.empty() &&
               unordered_.begin()->first <= now_) {
            Msg m = unordered_.begin()->second;
            unordered_.erase(unordered_.begin());
            if (!deliver(m))
                unordered_.insert({now_ + 1, m});
            if (stats_.protocolError)
                return;
        }
        // Ordered forwarding channels: head-of-line only.
        for (auto &[ch, q] : orderedChannels_) {
            while (!q.empty() && q.front().first <= now_) {
                Msg m = q.front().second;
                if (!deliver(m)) {
                    q.front().first = now_ + 1;
                    break;  // keep FIFO order
                }
                q.pop_front();
                if (stats_.protocolError)
                    return;
            }
        }
    }

    /** Returns false if the message stalled. */
    bool
    deliver(const Msg &m)
    {
        curAddr_ = m.addr;
        BlockState &b = blk(m.dst, m.addr);
        StepResult r =
            deliverMsg(nodes_[m.dst], msgs_, b, m, *this, true);
        if (r == StepResult::Stalled) {
            ++stats_.stallRetries;
            return false;
        }
        if (r == StepResult::Error) {
            stats_.protocolError = true;
            return true;
        }
        if (trace_) {
            trace_(now_, m, names_[m.src], names_[m.dst],
                   nodes_[m.dst].machine->state(b.state).name);
        }
        maybeCompleteCore(m.dst, m.addr);
        return true;
    }

    void
    maybeCompleteCore(NodeId n, int32_t addr)
    {
        CoreState &c = cores_[n];
        if (!c.pending || c.block != addr)
            return;
        const BlockState &b = blk(n, addr);
        if (!nodes_[n].machine->state(b.state).stable)
            return;
        c.pending = false;
        ++stats_.misses;
        stats_.totalMissLatency += now_ - c.since;
        if (c.hasQueued) {
            // The eviction made room; issue the real access now.
            c.hasQueued = false;
            startAccess(n, c.queued.block, c.queued.access);
        }
    }

    size_t
    residentCount(NodeId n)
    {
        size_t count = 0;
        for (const auto &[key, b] : blocks_) {
            if (key.first != n)
                continue;
            const State &st = nodes_[n].machine->state(b.state);
            if (!(st.stable && st.perm == Perm::None && !b.hasData))
                ++count;
        }
        return count;
    }

    int32_t
    pickVictim(NodeId n, int32_t not_this)
    {
        for (const auto &[key, b] : blocks_) {
            if (key.first != n || key.second == not_this)
                continue;
            const State &st = nodes_[n].machine->state(b.state);
            if (st.stable && st.perm != Perm::None)
                return key.second;
        }
        return -1;
    }

    void
    issueAccesses()
    {
        if (scripted_) {
            if (scriptPos_ >= script_.size()) {
                scriptDone_ = true;
                return;
            }
            if (!idle())
                return;
            auto [node, access] = script_[scriptPos_++];
            startAccess(node, 0, access);
            return;
        }
        for (const NodeCtx &n : nodes_) {
            if (!n.leafCache)
                continue;
            CoreState &c = cores_[n.id];
            if (c.pending)
                continue;
            WorkItem item =
                workloads_.at(n.id).next(now_);
            const BlockState &b = blk(n.id, item.block);
            const State &st = nodes_[n.id].machine->state(b.state);
            if (!st.stable)
                continue;  // block busy with another transaction

            bool resident = st.perm != Perm::None;
            if (item.access == Access::Evict) {
                if (!resident)
                    continue;
            } else if (!resident &&
                       residentCount(n.id) >=
                           static_cast<size_t>(cfg_.cacheCapacity)) {
                int32_t victim = pickVictim(n.id, item.block);
                if (victim >= 0) {
                    c.queued = item;
                    c.hasQueued = true;
                    ++stats_.evictions;
                    startAccess(n.id, victim, Access::Evict);
                    continue;
                }
            }
            startAccess(n.id, item.block, item.access);
        }
    }

    void
    startAccess(NodeId n, int32_t addr, Access access)
    {
        const Machine &m = *nodes_[n].machine;
        BlockState &b = blk(n, addr);
        EventKey ev = EventKey::mkAccess(access);
        if (!nodes_[n].dispatch->find(b.state, ev))
            return;  // e.g. evict from I
        ++stats_.accesses;
        switch (access) {
          case Access::Load:
            ++stats_.loads;
            break;
          case Access::Store:
            ++stats_.stores;
            break;
          case Access::Evict:
            ++stats_.evictions;
            break;
        }
        curAddr_ = addr;
        StepResult r = deliverEvent(nodes_[n], msgs_, b, ev, nullptr,
                                    *this, true);
        if (r == StepResult::Error) {
            stats_.protocolError = true;
            return;
        }
        if (m.state(b.state).stable) {
            ++stats_.hits;
        } else {
            CoreState &c = cores_[n];
            c.pending = true;
            c.block = addr;
            c.access = access;
            c.since = now_;
        }
    }
};

std::pair<std::vector<NodeCtx>, std::vector<std::string>>
hierNodes(const HierProtocol &p, const SimConfig &cfg)
{
    std::vector<NodeCtx> nodes;
    std::vector<std::string> names;
    NodeCtx root;
    root.id = 0;
    root.machine = &p.root;
    root.parent = kNoNode;
    root.level = Level::Higher;
    nodes.push_back(root);
    names.push_back("root");
    for (int i = 0; i < cfg.numCacheH; ++i) {
        NodeCtx c;
        c.id = static_cast<NodeId>(1 + i);
        c.machine = &p.cacheH;
        c.parent = 0;
        c.leafCache = true;
        c.level = Level::Higher;
        nodes.push_back(c);
        names.push_back("cache-H" + std::to_string(i + 1));
    }
    NodeCtx dc;
    dc.id = static_cast<NodeId>(1 + cfg.numCacheH);
    dc.machine = &p.dirCache;
    dc.parent = 0;
    dc.level = Level::Lower;
    nodes.push_back(dc);
    names.push_back("dir/cache");
    for (int i = 0; i < cfg.numCacheL; ++i) {
        NodeCtx c;
        c.id = static_cast<NodeId>(2 + cfg.numCacheH + i);
        c.machine = &p.cacheL;
        c.parent = dc.id;
        c.leafCache = true;
        c.level = Level::Lower;
        nodes.push_back(c);
        names.push_back("cache-L" + std::to_string(i + 1));
    }
    return {nodes, names};
}

} // namespace

SimStats
simulateHier(const HierProtocol &p, const SimConfig &cfg, TraceFn trace)
{
    auto [nodes, names] = hierNodes(p, cfg);
    Engine e(p.msgs, std::move(nodes), std::move(names), cfg);
    e.setTrace(std::move(trace));
    e.addWorkloads();
    return e.run();
}

SimStats
simulateFlat(const Protocol &p, const SimConfig &cfg, TraceFn trace)
{
    std::vector<NodeCtx> nodes;
    std::vector<std::string> names;
    NodeCtx dir;
    dir.id = 0;
    dir.machine = &p.directory;
    dir.parent = kNoNode;
    nodes.push_back(dir);
    names.push_back("dir");
    for (int i = 0; i < cfg.numCaches; ++i) {
        NodeCtx c;
        c.id = static_cast<NodeId>(1 + i);
        c.machine = &p.cache;
        c.parent = 0;
        c.leafCache = true;
        nodes.push_back(c);
        names.push_back("cache" + std::to_string(i + 1));
    }
    Engine e(p.msgs, std::move(nodes), std::move(names), cfg);
    e.setTrace(std::move(trace));
    e.addWorkloads();
    return e.run();
}

SimStats
runScript(const HierProtocol &p,
          const std::vector<ScriptedAccess> &script, TraceFn trace)
{
    SimConfig cfg;
    cfg.numBlocks = 1;
    cfg.maxCycles = 100000;
    auto [nodes, names] = hierNodes(p, cfg);
    std::vector<std::pair<NodeId, Access>> resolved;
    for (const auto &s : script) {
        // Leaf index: cache-H nodes first, then cache-L nodes.
        NodeId node = s.core < cfg.numCacheH
                          ? static_cast<NodeId>(1 + s.core)
                          : static_cast<NodeId>(2 + s.core);
        resolved.push_back({node, s.access});
    }
    Engine e(p.msgs, std::move(nodes), std::move(names), cfg);
    e.setTrace(std::move(trace));
    e.setScript(std::move(resolved));
    return e.run();
}

} // namespace hieragen::sim
