#include "fsm/exec.hh"

#include <algorithm>
#include <atomic>
#include <bit>

#include "fsm/printer.hh"
#include "util/logging.hh"

namespace hieragen
{

bool
evalGuard(Guard g, const BlockState &blk, const Msg *msg)
{
    auto bit = [](NodeId n) { return 1u << n; };
    switch (g) {
      case Guard::None:
        return true;
      case Guard::AcksZero:
        return blk.tbe.ackCtr + (msg ? msg->ackCount : 0) == 0;
      case Guard::AcksPending:
        return blk.tbe.ackCtr + (msg ? msg->ackCount : 0) != 0;
      case Guard::IsLastAck:
        return blk.tbe.countReceived && blk.tbe.ackCtr - 1 == 0;
      case Guard::NotLastAck:
        return !(blk.tbe.countReceived && blk.tbe.ackCtr - 1 == 0);
      case Guard::FromOwner:
        return msg && msg->src == blk.owner;
      case Guard::NotFromOwner:
        return !msg || msg->src != blk.owner;
      case Guard::LastSharer:
        return msg && blk.sharers == bit(msg->src);
      case Guard::NotLastSharer:
        return !msg || blk.sharers != bit(msg->src);
      case Guard::SharersEmpty:
        return blk.sharers == 0;
      case Guard::SharersNotEmpty:
        return blk.sharers != 0;
      case Guard::ReqIsOwner:
        return msg && msg->src == blk.owner;
      case Guard::ReqNotOwner:
        return !msg || msg->src != blk.owner;
      case Guard::SavedLowerIsOwner:
        return blk.tbe.savedLower != kNoNode &&
               blk.tbe.savedLower == blk.owner;
      case Guard::SavedLowerNotOwner:
        return blk.tbe.savedLower == kNoNode ||
               blk.tbe.savedLower != blk.owner;
    }
    return false;
}

namespace
{

/** Resolve a ReqField selector to a node id. */
NodeId
resolveReqField(ReqField rf, const NodeCtx &node, const BlockState &blk,
                const Msg *msg)
{
    switch (rf) {
      case ReqField::None:
        return kNoNode;
      case ReqField::Self:
        return node.id;
      case ReqField::MsgSrc:
        return msg ? msg->src : kNoNode;
      case ReqField::MsgReq:
        return msg ? msg->requestor : kNoNode;
      case ReqField::Saved:
        return blk.tbe.savedRequestor;
      case ReqField::SavedLower:
        return blk.tbe.savedLower;
    }
    return kNoNode;
}

/** Execute one Send op; returns false on an unroutable destination. */
bool
execSend(const NodeCtx &node, const MsgTypeTable &msgs, BlockState &blk,
         const Msg *msg, const SendSpec &spec, ExecEnv &env)
{
    Msg out;
    out.type = spec.type;
    out.src = node.id;
    out.epoch = spec.epoch;
    out.requestor = resolveReqField(spec.reqField, node, blk, msg);
    if (spec.withData) {
        if (!blk.hasData) {
            env.error("node " + std::to_string(node.id) + " sending " +
                      msgs.displayName(spec.type) + " without data");
            return false;
        }
        out.hasData = true;
        out.data = blk.data;
    }

    // Ack-count payload. The exclusion node is the requestor the count
    // is about: the explicit reqField if any, else the message sender.
    NodeId excl = out.requestor != kNoNode
                      ? out.requestor
                      : (msg ? msg->src : kNoNode);
    uint32_t excl_mask =
        excl == kNoNode ? 0u : (1u << static_cast<uint32_t>(excl));
    switch (spec.acks) {
      case AckPayload::None:
        break;
      case AckPayload::Zero:
        out.ackCount = 0;
        break;
      case AckPayload::SharersExclReq:
        out.ackCount = std::popcount(blk.sharers & ~excl_mask);
        break;
      case AckPayload::SharersAll:
        out.ackCount = std::popcount(blk.sharers);
        break;
      case AckPayload::FromMsg:
        out.ackCount = msg ? msg->ackCount : 0;
        break;
      case AckPayload::SavedCount:
        out.ackCount = blk.tbe.savedAckCount;
        break;
    }

    auto route = [&](NodeId dst) {
        if (dst == kNoNode) {
            env.error("node " + std::to_string(node.id) +
                      " routing " + msgs.displayName(spec.type) +
                      " to unresolved destination");
            return false;
        }
        Msg m = out;
        m.dst = dst;
        env.send(m);
        return true;
    };

    switch (spec.dst) {
      case Dst::Parent:
        return route(node.parent);
      case Dst::MsgSrc:
        return route(msg ? msg->src : kNoNode);
      case Dst::MsgReq:
        return route(msg ? msg->requestor : kNoNode);
      case Dst::Saved:
        return route(blk.tbe.savedRequestor);
      case Dst::SavedLower:
        return route(blk.tbe.savedLower);
      case Dst::Owner:
        return route(blk.owner);
      case Dst::SharersExclReq:
      case Dst::SharersAll: {
        uint32_t targets = blk.sharers;
        if (spec.dst == Dst::SharersExclReq)
            targets &= ~excl_mask;
        for (uint32_t i = 0; i < 32; ++i) {
            if (targets & (1u << i)) {
                if (!route(static_cast<NodeId>(i)))
                    return false;
            }
        }
        return true;
      }
    }
    return false;
}

bool
execOp(const NodeCtx &node, const MsgTypeTable &msgs, BlockState &blk,
       const Msg *msg, const Op &op, ExecEnv &env)
{
    auto bit = [](NodeId n) { return 1u << static_cast<uint32_t>(n); };
    switch (op.code) {
      case OpCode::Send:
        return execSend(node, msgs, blk, msg, op.send, env);
      case OpCode::CopyDataFromMsg:
        if (!msg || !msg->hasData) {
            env.error("node " + std::to_string(node.id) +
                      " copydata from a message without data");
            return false;
        }
        blk.hasData = true;
        blk.data = msg->data;
        return true;
      case OpCode::InvalidateLine:
        blk.hasData = false;
        blk.data = 0;
        return true;
      case OpCode::DoLoad:
        env.loadObserved(node.id, blk.hasData, blk.data);
        return true;
      case OpCode::DoStore:
        blk.data = env.storeValue(node.id);
        blk.hasData = true;
        return true;
      case OpCode::SetAcksFromMsg:
        blk.tbe.ackCtr += msg ? msg->ackCount : 0;
        blk.tbe.countReceived = true;
        return true;
      case OpCode::SetAcksZero:
        blk.tbe.countReceived = true;
        return true;
      case OpCode::ResetAcks:
        blk.tbe.ackCtr = 0;
        blk.tbe.countReceived = false;
        return true;
      case OpCode::StashAcks:
        blk.tbe.stashedCtr = blk.tbe.ackCtr;
        blk.tbe.stashedRecv = blk.tbe.countReceived;
        blk.tbe.ackCtr = 0;
        blk.tbe.countReceived = false;
        return true;
      case OpCode::RestoreAcks:
        blk.tbe.ackCtr = blk.tbe.stashedCtr;
        blk.tbe.countReceived = blk.tbe.stashedRecv;
        blk.tbe.stashedCtr = 0;
        blk.tbe.stashedRecv = false;
        return true;
      case OpCode::DecAck:
        blk.tbe.ackCtr -= 1;
        return true;
      case OpCode::AddAcksFromSharersExclReq: {
        NodeId excl = msg ? msg->src : kNoNode;
        uint32_t mask = excl == kNoNode ? 0u : bit(excl);
        blk.tbe.ackCtr += std::popcount(blk.sharers & ~mask);
        blk.tbe.countReceived = true;
        return true;
      }
      case OpCode::AddAcksFromSharersAll:
        blk.tbe.ackCtr += std::popcount(blk.sharers);
        blk.tbe.countReceived = true;
        return true;
      case OpCode::SaveMsgReq:
        blk.tbe.savedRequestor = msg ? msg->requestor : kNoNode;
        return true;
      case OpCode::SaveMsgAckCount:
        blk.tbe.savedAckCount =
            static_cast<int8_t>(msg ? msg->ackCount : 0);
        return true;
      case OpCode::SaveMsgSrc:
        blk.tbe.savedRequestor = msg ? msg->src : kNoNode;
        return true;
      case OpCode::SaveLowerReq:
        blk.tbe.savedLower = msg ? msg->src : kNoNode;
        return true;
      case OpCode::ClearSaved:
        blk.tbe.savedRequestor = kNoNode;
        blk.tbe.savedLower = kNoNode;
        return true;
      case OpCode::AddReqToSharers:
        if (msg)
            blk.sharers |= bit(msg->src);
        return true;
      case OpCode::AddSavedToSharers:
        if (blk.tbe.savedRequestor != kNoNode)
            blk.sharers |= bit(blk.tbe.savedRequestor);
        return true;
      case OpCode::RemoveSavedFromSharers:
        if (blk.tbe.savedRequestor != kNoNode)
            blk.sharers &= ~bit(blk.tbe.savedRequestor);
        return true;
      case OpCode::SetOwnerToSaved:
        blk.owner = blk.tbe.savedRequestor;
        return true;
      case OpCode::AddSavedLowerToSharers:
        if (blk.tbe.savedLower != kNoNode)
            blk.sharers |= bit(blk.tbe.savedLower);
        return true;
      case OpCode::RemoveReqFromSharers:
        if (msg)
            blk.sharers &= ~bit(msg->src);
        return true;
      case OpCode::ClearSharers:
        blk.sharers = 0;
        return true;
      case OpCode::SetOwnerToReq:
        blk.owner = msg ? msg->src : kNoNode;
        return true;
      case OpCode::SetOwnerToSavedLower:
        blk.owner = blk.tbe.savedLower;
        return true;
      case OpCode::SetOwnerSelf:
        blk.owner = node.id;
        return true;
      case OpCode::ClearOwner:
        blk.owner = kNoNode;
        return true;
      case OpCode::AddOwnerToSharers:
        if (blk.owner != kNoNode)
            blk.sharers |= bit(blk.owner);
        return true;
    }
    return false;
}

} // namespace

DispatchTable::DispatchTable(const Machine &m, size_t num_msg_types)
    : numMsgTypes_(num_msg_types), msgCol_(num_msg_types * 3, -1)
{
    // Columns in order of first appearance in the machine's table.
    auto colOf = [&](const EventKey &ev) -> int32_t & {
        if (ev.kind == EventKey::Kind::Access)
            return accessCol_[static_cast<size_t>(ev.access)];
        HG_ASSERT(ev.type >= 0 &&
                      static_cast<size_t>(ev.type) < num_msg_types,
                  "machine ", m.name(), " has an event of unknown type");
        return msgCol_[static_cast<size_t>(ev.type) * 3 +
                       static_cast<size_t>(ev.epoch)];
    };
    // One walk of the map (its nodes are scattered over the heap),
    // then a scatter from this flat copy once the width is known.
    struct Entry
    {
        StateId state;
        int32_t col;
        const std::vector<Transition> *alts;
    };
    std::vector<Entry> entries;
    entries.reserve(m.table().size());
    for (const auto &[key, alts] : m.table()) {
        const EventKey &ev = key.second;
        int32_t &col = colOf(ev);
        if (col < 0)
            col = static_cast<int32_t>(numCols_++);
        // A tagged cell without alternatives falls back exactly as a
        // missing one does (below), so it is stored as missing.
        const bool tagged = ev.kind == EventKey::Kind::Msg &&
                            ev.epoch != FwdEpoch::None;
        entries.push_back(
            {key.first, col, tagged && alts.empty() ? nullptr : &alts});
    }
    cells_.assign(m.numStates() * numCols_, nullptr);
    for (const Entry &e : entries) {
        cells_[static_cast<size_t>(e.state) * numCols_ +
               static_cast<size_t>(e.col)] = e.alts;
    }
    // Epoch fallback. A tagged event the machine never names takes
    // the untagged column wholesale; a tagged cell with no
    // alternatives takes the untagged cell of its state.
    for (size_t t = 0; t < num_msg_types; ++t) {
        const int32_t plain = msgCol_[t * 3];
        for (size_t e = 1; e < 3; ++e) {
            int32_t &tagged = msgCol_[t * 3 + e];
            if (tagged < 0) {
                tagged = plain;
                continue;
            }
            for (size_t s = 0; s < m.numStates(); ++s) {
                const std::vector<Transition> *&cell =
                    cells_[s * numCols_ + static_cast<size_t>(tagged)];
                if (!cell) {
                    cell = plain < 0
                               ? nullptr
                               : cells_[s * numCols_ +
                                        static_cast<size_t>(plain)];
                }
            }
        }
    }
    stable_.resize(m.numStates());
    for (size_t s = 0; s < m.numStates(); ++s)
        stable_[s] = m.state(static_cast<StateId>(s)).stable;
}

std::vector<std::shared_ptr<const DispatchTable>>
compileDispatch(std::vector<NodeCtx> &nodes, const MsgTypeTable &msgs)
{
    std::vector<std::shared_ptr<const DispatchTable>> tables;
    std::vector<const Machine *> compiled;  // parallel to tables
    for (NodeCtx &n : nodes) {
        size_t i = static_cast<size_t>(
            std::find(compiled.begin(), compiled.end(), n.machine) -
            compiled.begin());
        if (i == compiled.size()) {
            compiled.push_back(n.machine);
            tables.push_back(
                std::make_shared<DispatchTable>(*n.machine, msgs.size()));
        }
        n.dispatch = tables[i].get();
    }
    return tables;
}

StepResult
deliverEvent(const NodeCtx &node, const MsgTypeTable &msgs,
             BlockState &blk, const EventKey &event, const Msg *msg,
             ExecEnv &env, bool mark_reached)
{
    const Machine &m = *node.machine;
    const DispatchTable &table = *node.dispatch;
    // Epoch-tagged forwards fall back to the untagged handler (stable
    // states and unambiguous transients handle both epochs alike);
    // the table resolved that fallback when it was built.
    const auto *alts = table.find(blk.state, event);
    if (!alts || alts->empty()) {
        env.error("machine " + m.name() + " node " +
                  std::to_string(node.id) + ": unexpected event " +
                  eventName(msgs, event) + " in state " +
                  m.state(blk.state).name);
        return StepResult::Error;
    }
    const Transition *chosen = nullptr;
    for (const Transition &t : *alts) {
        if (evalGuard(t.guard, blk, msg) &&
            evalGuard(t.guard2, blk, msg)) {
            chosen = &t;
            break;
        }
    }
    if (!chosen) {
        env.error("machine " + m.name() + " node " +
                  std::to_string(node.id) + ": no guard matched for " +
                  eventName(msgs, event) + " in state " +
                  m.state(blk.state).name);
        return StepResult::Error;
    }
    if (chosen->kind == TransKind::Stall)
        return StepResult::Stalled;

    if (mark_reached) {
        // reached is a mutable flag on shared machines; checker
        // workers run concurrently, so the mark must be atomic.
        std::atomic_ref<bool>(chosen->reached)
            .store(true, std::memory_order_relaxed);
        m.markStateReached(blk.state);
        if (chosen->next != kNoState)
            m.markStateReached(chosen->next);
    }

    for (const Op &op : chosen->ops) {
        if (!execOp(node, msgs, blk, msg, op, env))
            return StepResult::Error;
    }
    if (chosen->next != kNoState)
        blk.state = chosen->next;

    // Transaction done: returning to a stable state clears the TBE.
    if (table.stable(blk.state))
        blk.tbe.reset();
    return StepResult::Executed;
}

StepResult
deliverMsg(const NodeCtx &node, const MsgTypeTable &msgs, BlockState &blk,
           const Msg &msg, ExecEnv &env, bool mark_reached)
{
    return deliverEvent(node, msgs, blk,
                        EventKey::mkMsg(msg.type, msg.epoch), &msg, env,
                        mark_reached);
}

} // namespace hieragen
