/**
 * @file
 * Unit tests for the shared FSM interpreter (fsm/exec): guard
 * evaluation, op execution, send routing, multicast, TBE lifecycle.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fsm/exec.hh"

namespace hieragen
{
namespace
{

class CaptureEnv : public ExecEnv
{
  public:
    std::vector<Msg> sent;
    std::vector<std::string> errors;
    int loads = 0;
    uint8_t nextStore = 1;

    void send(const Msg &m) override { sent.push_back(m); }
    uint8_t storeValue(NodeId) override { return nextStore; }
    void
    loadObserved(NodeId, bool has, uint8_t) override
    {
        ++loads;
        if (!has)
            errors.push_back("load-no-data");
    }
    void error(const std::string &w) override { errors.push_back(w); }
};

struct Fixture
{
    MsgTypeTable msgs;
    Machine m{"cache", MachineRole::Cache};
    NodeCtx node;
    MsgTypeId data, inv, invack, gets;
    StateId sI, sS, sT;

    Fixture()
    {
        MsgType t;
        t.name = "GetS";
        t.cls = MsgClass::Request;
        gets = msgs.add(t);
        t = {};
        t.name = "Data";
        t.cls = MsgClass::Response;
        t.carriesData = true;
        t.carriesAcks = true;
        data = msgs.add(t);
        t = {};
        t.name = "Inv";
        t.cls = MsgClass::Forward;
        t.invalidating = true;
        inv = msgs.add(t);
        t = {};
        t.name = "InvAck";
        t.cls = MsgClass::Response;
        invack = msgs.add(t);

        sI = m.addState(State{.name = "I"});
        State s;
        s.name = "S";
        s.perm = Perm::Read;
        sS = m.addState(s);
        State tr;
        tr.name = "IS";
        tr.stable = false;
        sT = m.addState(tr);
        m.setInitial(sI);

        node.id = 1;
        node.machine = &m;
        node.parent = 0;
        node.leafCache = true;
    }

    /** node, with the transitions the test added compiled into its
     *  dispatch table. */
    const NodeCtx &
    compiled()
    {
        std::vector<NodeCtx> nodes{node};
        tables = compileDispatch(nodes, msgs);
        node = nodes[0];
        return node;
    }

    std::vector<std::shared_ptr<const DispatchTable>> tables;
};

TEST(ExecGuards, AckArithmetic)
{
    BlockState b;
    Msg msg;
    msg.ackCount = 2;
    EXPECT_FALSE(evalGuard(Guard::AcksZero, b, &msg));
    b.tbe.ackCtr = -2;  // two early acks
    EXPECT_TRUE(evalGuard(Guard::AcksZero, b, &msg));
    EXPECT_FALSE(evalGuard(Guard::AcksPending, b, &msg));
}

TEST(ExecGuards, LastAckNeedsCount)
{
    BlockState b;
    b.tbe.ackCtr = 1;
    EXPECT_FALSE(evalGuard(Guard::IsLastAck, b, nullptr))
        << "count not yet received";
    b.tbe.countReceived = true;
    EXPECT_TRUE(evalGuard(Guard::IsLastAck, b, nullptr));
    b.tbe.ackCtr = 2;
    EXPECT_FALSE(evalGuard(Guard::IsLastAck, b, nullptr));
}

TEST(ExecGuards, SharerPredicates)
{
    BlockState b;
    Msg msg;
    msg.src = 3;
    EXPECT_TRUE(evalGuard(Guard::SharersEmpty, b, &msg));
    b.sharers = 1u << 3;
    EXPECT_TRUE(evalGuard(Guard::LastSharer, b, &msg));
    b.sharers |= 1u << 4;
    EXPECT_FALSE(evalGuard(Guard::LastSharer, b, &msg));
    EXPECT_TRUE(evalGuard(Guard::NotLastSharer, b, &msg));
}

TEST(ExecGuards, OwnerPredicates)
{
    BlockState b;
    Msg msg;
    msg.src = 2;
    EXPECT_FALSE(evalGuard(Guard::FromOwner, b, &msg));
    b.owner = 2;
    EXPECT_TRUE(evalGuard(Guard::FromOwner, b, &msg));
    b.tbe.savedLower = 2;
    EXPECT_TRUE(evalGuard(Guard::SavedLowerIsOwner, b, &msg));
    b.tbe.savedLower = 5;
    EXPECT_TRUE(evalGuard(Guard::SavedLowerNotOwner, b, &msg));
}

TEST(ExecOps, MulticastExcludesRequestor)
{
    Fixture f;
    Transition t;
    t.ops = {Op::mkSend(f.inv, Dst::SharersExclReq, ReqField::MsgSrc)};
    t.next = f.sI;
    f.m.addTransition(f.sI, EventKey::mkMsg(f.gets), t);

    BlockState b;
    b.state = f.sI;
    b.sharers = (1u << 2) | (1u << 3) | (1u << 4);
    Msg req;
    req.type = f.gets;
    req.src = 3;
    req.dst = 1;

    CaptureEnv env;
    auto r = deliverMsg(f.compiled(), f.msgs, b, req, env);
    EXPECT_EQ(r, StepResult::Executed);
    ASSERT_EQ(env.sent.size(), 2u);  // nodes 2 and 4, not 3
    for (const Msg &m : env.sent) {
        EXPECT_NE(m.dst, 3);
        EXPECT_EQ(m.requestor, 3);
    }
}

TEST(ExecOps, AckCountFromSharers)
{
    Fixture f;
    Transition t;
    t.ops = {Op::mkSend(f.data, Dst::MsgSrc, ReqField::None,
                        AckPayload::SharersExclReq, true)};
    t.next = f.sI;
    f.m.addTransition(f.sI, EventKey::mkMsg(f.gets), t);

    BlockState b;
    b.state = f.sI;
    b.hasData = true;
    b.data = 7;
    b.sharers = (1u << 3) | (1u << 5);
    Msg req;
    req.type = f.gets;
    req.src = 3;

    CaptureEnv env;
    deliverMsg(f.compiled(), f.msgs, b, req, env);
    ASSERT_EQ(env.sent.size(), 1u);
    EXPECT_EQ(env.sent[0].ackCount, 1);  // node 5 only
    EXPECT_TRUE(env.sent[0].hasData);
    EXPECT_EQ(env.sent[0].data, 7);
}

TEST(ExecOps, SendWithoutDataIsError)
{
    Fixture f;
    Transition t;
    t.ops = {Op::mkSend(f.data, Dst::MsgSrc, ReqField::None,
                        AckPayload::Zero, true)};
    t.next = f.sI;
    f.m.addTransition(f.sI, EventKey::mkMsg(f.gets), t);

    BlockState b;
    b.state = f.sI;  // no data!
    Msg req;
    req.type = f.gets;
    req.src = 3;
    CaptureEnv env;
    auto r = deliverMsg(f.compiled(), f.msgs, b, req, env);
    EXPECT_EQ(r, StepResult::Error);
    EXPECT_FALSE(env.errors.empty());
}

TEST(ExecOps, TbeResetOnStableEntry)
{
    Fixture f;
    Transition t;
    t.ops = {Op::mk(OpCode::CopyDataFromMsg)};
    t.next = f.sS;  // stable
    f.m.addTransition(f.sT, EventKey::mkMsg(f.data), t);

    BlockState b;
    b.state = f.sT;
    b.tbe.ackCtr = -2;
    b.tbe.savedRequestor = 9;
    Msg msg;
    msg.type = f.data;
    msg.hasData = true;
    msg.data = 5;
    CaptureEnv env;
    deliverMsg(f.compiled(), f.msgs, b, msg, env);
    EXPECT_EQ(b.state, f.sS);
    EXPECT_EQ(b.tbe.ackCtr, 0);
    EXPECT_EQ(b.tbe.savedRequestor, kNoNode);
    EXPECT_EQ(b.data, 5);
}

TEST(ExecOps, EpochFallbackLookup)
{
    Fixture f;
    // Only an untagged handler exists; a Past-tagged message must
    // still find it.
    Transition t;
    t.next = f.sI;
    f.m.addTransition(f.sS, EventKey::mkMsg(f.inv), t);

    BlockState b;
    b.state = f.sS;
    Msg msg;
    msg.type = f.inv;
    msg.epoch = FwdEpoch::Past;
    CaptureEnv env;
    auto r = deliverMsg(f.compiled(), f.msgs, b, msg, env);
    EXPECT_EQ(r, StepResult::Executed);
    EXPECT_EQ(b.state, f.sI);
}

TEST(ExecOps, ExactEpochPreferredOverFallback)
{
    Fixture f;
    Transition plain;
    plain.next = f.sI;
    f.m.addTransition(f.sS, EventKey::mkMsg(f.inv), plain);
    Transition past;
    past.next = f.sS;  // distinct behavior
    f.m.addTransition(f.sS, EventKey::mkMsg(f.inv, FwdEpoch::Past),
                      past);

    BlockState b;
    b.state = f.sS;
    Msg msg;
    msg.type = f.inv;
    msg.epoch = FwdEpoch::Past;
    CaptureEnv env;
    deliverMsg(f.compiled(), f.msgs, b, msg, env);
    EXPECT_EQ(b.state, f.sS) << "exact epoch entry must win";
}

TEST(ExecOps, UnexpectedEventIsError)
{
    Fixture f;
    BlockState b;
    b.state = f.sI;
    Msg msg;
    msg.type = f.inv;
    CaptureEnv env;
    auto r = deliverMsg(f.compiled(), f.msgs, b, msg, env);
    EXPECT_EQ(r, StepResult::Error);
    ASSERT_EQ(env.errors.size(), 1u);
    EXPECT_NE(env.errors[0].find("unexpected"), std::string::npos);
}

TEST(ExecOps, StallLeavesStateUntouched)
{
    Fixture f;
    Transition t;
    t.kind = TransKind::Stall;
    t.next = f.sT;
    f.m.addTransition(f.sT, EventKey::mkMsg(f.inv), t);

    BlockState b;
    b.state = f.sT;
    b.tbe.ackCtr = 3;
    Msg msg;
    msg.type = f.inv;
    CaptureEnv env;
    auto r = deliverMsg(f.compiled(), f.msgs, b, msg, env);
    EXPECT_EQ(r, StepResult::Stalled);
    EXPECT_EQ(b.tbe.ackCtr, 3);
    EXPECT_TRUE(env.sent.empty());
}

TEST(ExecOps, GuardedAlternativesFirstMatchWins)
{
    Fixture f;
    Transition zero;
    zero.guard = Guard::AcksZero;
    zero.next = f.sS;
    f.m.addTransition(f.sT, EventKey::mkMsg(f.data), zero);
    Transition pending;
    pending.guard = Guard::AcksPending;
    pending.ops = {Op::mk(OpCode::SetAcksFromMsg)};
    pending.next = f.sT;
    f.m.addTransition(f.sT, EventKey::mkMsg(f.data), pending);

    BlockState b;
    b.state = f.sT;
    Msg msg;
    msg.type = f.data;
    msg.ackCount = 2;
    msg.hasData = true;
    CaptureEnv env;
    deliverMsg(f.compiled(), f.msgs, b, msg, env);
    EXPECT_EQ(b.state, f.sT);
    EXPECT_EQ(b.tbe.ackCtr, 2);
    EXPECT_TRUE(b.tbe.countReceived);
}

} // namespace
} // namespace hieragen
