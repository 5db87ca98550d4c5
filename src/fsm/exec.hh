/**
 * @file
 * The shared FSM interpreter.
 *
 * Both the model checker (src/verif) and the simulator (src/sim)
 * execute generated machines through this module, so a protocol that
 * verifies is byte-for-byte the protocol that simulates.
 */

#ifndef HIERAGEN_FSM_EXEC_HH
#define HIERAGEN_FSM_EXEC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fsm/machine.hh"
#include "fsm/msg.hh"

namespace hieragen
{

/** Transaction bookkeeping entry (one outstanding block transaction). */
struct Tbe
{
    int8_t ackCtr = 0;          ///< may dip negative on early InvAcks
    bool countReceived = false; ///< an ack-count-bearing msg arrived
    NodeId savedRequestor = kNoNode;
    NodeId savedLower = kNoNode;
    int8_t savedAckCount = 0;

    /** Stash for the pending transaction's ack state while a nested
     *  proxy window (dir/cache race clone) runs its own count. */
    int8_t stashedCtr = 0;
    bool stashedRecv = false;

    bool operator==(const Tbe &other) const = default;

    void
    reset()
    {
        ackCtr = 0;
        countReceived = false;
        savedRequestor = kNoNode;
        savedLower = kNoNode;
        savedAckCount = 0;
        stashedCtr = 0;
        stashedRecv = false;
    }
};

/** Complete per-block dynamic state of one controller. */
struct BlockState
{
    StateId state = kNoState;
    bool hasData = false;
    uint8_t data = 0;
    Tbe tbe;

    // Directory-role bookkeeping.
    uint32_t sharers = 0;  ///< bitmask over global node ids
    NodeId owner = kNoNode;

    bool operator==(const BlockState &other) const = default;
};

/**
 * A Machine's transitions compiled for execution: a dense, immutable
 * (state x event) -> alternatives table. Columns number only the
 * events the machine has; a per-machine map turns an event key into
 * its column. Cells point at the machine's own alternative lists, so
 * census marks set through a cell land on the machine. The
 * epoch-tagged forward fallback (a tagged event with no alternatives
 * in a state takes the untagged handler) is resolved when the table
 * is built, so a lookup is two array reads.
 *
 * The table holds pointers into the machine: it must not outlive the
 * machine, and the machine's transitions must not change after it is
 * built.
 */
class DispatchTable
{
  public:
    DispatchTable(const Machine &m, size_t num_msg_types);

    /** The alternatives for (@p state, @p event) after the epoch
     *  fallback; null when the machine has no entry. A non-null list
     *  may be empty (an entry with no alternatives). */
    const std::vector<Transition> *
    find(StateId state, const EventKey &event) const
    {
        int32_t col = -1;
        if (event.kind == EventKey::Kind::Access) {
            col = accessCol_[static_cast<size_t>(event.access)];
        } else if (event.type >= 0 &&
                   static_cast<size_t>(event.type) < numMsgTypes_) {
            col = msgCol_[static_cast<size_t>(event.type) * 3 +
                          static_cast<size_t>(event.epoch)];
        }
        if (col < 0)
            return nullptr;
        return cells_[static_cast<size_t>(state) * numCols_ +
                      static_cast<size_t>(col)];
    }

    /** Is @p state a stable state of the machine? */
    bool stable(StateId state) const { return stable_[state] != 0; }

  private:
    size_t numMsgTypes_ = 0;
    size_t numCols_ = 0;
    int32_t accessCol_[3] = {-1, -1, -1};
    std::vector<int32_t> msgCol_;  ///< (type * 3 + epoch) -> column
    std::vector<const std::vector<Transition> *> cells_;
    std::vector<uint8_t> stable_;
};

/** Static description of one controller instance in a system. */
struct NodeCtx
{
    NodeId id = kNoNode;
    const Machine *machine = nullptr;
    /** machine's compiled transitions (see compileDispatch). */
    const DispatchTable *dispatch = nullptr;
    NodeId parent = kNoNode;   ///< this node's directory
    bool leafCache = false;    ///< counted in SWMR / data-value checks
    Level level = Level::Lower;
};

/**
 * Environment callbacks the interpreter needs: message emission, the
 * data-value ghost, and error reporting.
 */
class ExecEnv
{
  public:
    virtual ~ExecEnv() = default;

    /** Emit a message onto the interconnect. */
    virtual void send(const Msg &msg) = 0;

    /** A store commits at @p node; return the value to write. */
    virtual uint8_t storeValue(NodeId node) = 0;

    /** A load commits at @p node observing (@p has_data, value). */
    virtual void loadObserved(NodeId node, bool has_data,
                              uint8_t value) = 0;

    /** The interpreter hit a protocol error (unexpected msg, ...). */
    virtual void error(const std::string &what) = 0;
};

/**
 * Compile one DispatchTable per distinct machine among @p nodes and
 * point each node's dispatch at its machine's table. The returned
 * tables own what the nodes point at; holders of the nodes keep them
 * alive (they are immutable, so copies of a node set may share them).
 */
std::vector<std::shared_ptr<const DispatchTable>>
compileDispatch(std::vector<NodeCtx> &nodes, const MsgTypeTable &msgs);

/** Outcome of delivering one event to a controller. */
enum class StepResult : uint8_t {
    Executed,  ///< a transition fired
    Stalled,   ///< matched an explicit stall; event stays pending
    Error,     ///< no handler / no guard matched / op failure
};

/** Evaluate a guard against the current block state and message. */
bool evalGuard(Guard g, const BlockState &blk, const Msg *msg);

/**
 * Deliver one event (a message or a core access) to a controller,
 * looking the event up in @p node's dispatch table (which must be
 * set). On Executed, @p blk is updated in place and sends/commits have been
 * routed through @p env. @p mark_reached drives the Section V-E
 * reachability census.
 */
StepResult deliverEvent(const NodeCtx &node, const MsgTypeTable &msgs,
                        BlockState &blk, const EventKey &event,
                        const Msg *msg, ExecEnv &env,
                        bool mark_reached = false);

/** Convenience: deliver a message (derives the event key from it). */
StepResult deliverMsg(const NodeCtx &node, const MsgTypeTable &msgs,
                      BlockState &blk, const Msg &msg, ExecEnv &env,
                      bool mark_reached = false);

} // namespace hieragen

#endif // HIERAGEN_FSM_EXEC_HH
