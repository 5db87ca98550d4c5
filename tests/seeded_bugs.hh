/**
 * @file
 * Seeded protocol bugs shared by the checker tests. Each helper edits
 * one transition of a built-in (or generated) protocol so that a known
 * property fails.
 */

#ifndef HIERAGEN_TESTS_SEEDED_BUGS_HH
#define HIERAGEN_TESTS_SEEDED_BUGS_HH

#include <gtest/gtest.h>

#include <vector>

#include "fsm/protocol.hh"

namespace hieragen::seeded
{

/** The first alternative of @p state + @p msg, or null (failing the
 *  test) when @p m has no such transition to sabotage. */
inline Transition *
firstAlt(Machine &m, const char *state, const MsgTypeTable &msgs,
         const char *msg, Level lv)
{
    auto *alts = m.transitionsForMutable(
        m.findState(state), EventKey::mkMsg(msgs.find(msg, lv)));
    if (alts == nullptr)
        ADD_FAILURE() << "no " << state << " + " << msg << " to sabotage";
    return alts ? &alts->front() : nullptr;
}

/** S + Inv acks but stays in S and keeps its data: a reader lives on
 *  next to a writer (a SWMR or data-value violation). */
inline void
dropInvalidation(Machine &cache, const MsgTypeTable &msgs, Level lv)
{
    if (Transition *t = firstAlt(cache, "S", msgs, "Inv", lv)) {
        t->next = cache.findState("S");
        std::erase_if(t->ops, [](const Op &op) {
            return op.code == OpCode::InvalidateLine;
        });
    }
}

/** The directory never answers GetM in @p state: the requester
 *  wedges (a deadlock). */
inline void
dropGetM(Machine &dir, const MsgTypeTable &msgs, Level lv,
         const char *state = "I")
{
    if (Transition *t = firstAlt(dir, state, msgs, "GetM", lv))
        t->ops.clear();
}

/** M + FwdGetS responds but stays in M: the requester's S copy lives
 *  next to a writer. */
inline void
keepOwnerOnFwdGetS(Machine &cache, const MsgTypeTable &msgs, Level lv)
{
    if (Transition *t = firstAlt(cache, "M", msgs, "FwdGetS", lv))
        t->next = cache.findState("M");
}

} // namespace hieragen::seeded

#endif // HIERAGEN_TESTS_SEEDED_BUGS_HH
