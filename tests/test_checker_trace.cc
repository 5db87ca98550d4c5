/**
 * @file
 * Counterexample trace parity and shape.
 *
 * A failing verdict hands the designer a trace: the event and the
 * resulting state of every step from the initial (or resumed) state
 * to the violation. These tests pin the exact text of six one-thread
 * counterexamples — SWMR, deadlock, an unexpected message, a
 * hierarchical sabotage, symmetry off and an owner that keeps M past
 * a forwarded GetS — by step count and an FNV-1a hash of `trace` and
 * `traceStepsJson`, so any change to how traces are stored or rebuilt
 * must reproduce them byte for byte.
 * With several workers, which violation is found first may vary, so
 * there each trace is checked for shape instead: it starts at `init`
 * and its last state is the one the reported violation names. A
 * violation found after a resume yields a trace that starts at the
 * resume point. This suite is also a ThreadSanitizer target.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <regex>

#include "core/hiera.hh"
#include "protocols/registry.hh"
#include "seeded_bugs.hh"
#include "util/json.hh"
#include "verif/checker.hh"
#include "verif/checkpoint.hh"

namespace hieragen
{
namespace
{

constexpr unsigned kParThreads = 4;

/** One failing configuration: how to build and check it, the leaf
 *  cache machines (for the SWMR shape check), and the pinned
 *  one-thread trace. */
struct FailingCase
{
    const char *name;
    std::function<verif::CheckResult(unsigned threads)> run;
    std::vector<std::string> leafMachines;
    size_t steps;
    uint64_t hash;
};

verif::CheckOptions
opts(unsigned threads, bool atomic, int budget)
{
    verif::CheckOptions o;
    o.atomicTransactions = atomic;
    o.accessBudget = budget;
    o.numThreads = threads;
    return o;
}

verif::CheckResult
flatSwmr(unsigned threads)
{
    Protocol p = protocols::builtinProtocol("MSI");
    seeded::dropInvalidation(p.cache, p.msgs, Level::Lower);
    return verif::checkFlat(p, 2, opts(threads, true, 2));
}

verif::CheckResult
flatDeadlock(unsigned threads)
{
    Protocol p = protocols::builtinProtocol("MSI");
    seeded::dropGetM(p.directory, p.msgs, Level::Lower);
    return verif::checkFlat(p, 3, opts(threads, true, 2));
}

verif::CheckResult
flatUnexpected(unsigned threads)
{
    // Without serialized transactions the surviving sharer's later
    // Inv lands in a state with no transition for it.
    Protocol p = protocols::builtinProtocol("MSI");
    seeded::dropInvalidation(p.cache, p.msgs, Level::Lower);
    return verif::checkFlat(p, 3, opts(threads, false, 2));
}

verif::CheckResult
hierSwmr(unsigned threads)
{
    Protocol l = protocols::builtinProtocol("MSI");
    Protocol h = protocols::builtinProtocol("MSI");
    core::HierGenOptions g;
    g.mode = ConcurrencyMode::NonStalling;
    HierProtocol p = core::generate(l, h, g);
    seeded::dropInvalidation(p.cacheL, p.msgs, Level::Lower);
    return verif::checkHier(p, 1, 2, opts(threads, false, 1));
}

verif::CheckResult
flatSwmrNoSymmetry(unsigned threads)
{
    Protocol p = protocols::builtinProtocol("MSI");
    seeded::dropInvalidation(p.cache, p.msgs, Level::Lower);
    verif::CheckOptions o = opts(threads, true, 2);
    o.symmetryReduction = false;
    return verif::checkFlat(p, 3, o);
}

verif::CheckResult
flatStaleOwner(unsigned threads)
{
    // One access per core keeps the path short.
    Protocol p = protocols::builtinProtocol("MSI");
    seeded::keepOwnerOnFwdGetS(p.cache, p.msgs, Level::Lower);
    return verif::checkFlat(p, 2, opts(threads, true, 1));
}

const std::vector<FailingCase> &
cases()
{
    static const std::vector<FailingCase> all = {
        {"swmr", flatSwmr, {"cache"}, 9, 0x6ed0823315903cfcull},
        {"deadlock", flatDeadlock, {"cache"}, 3, 0x3e77a0db59aaaa53ull},
        {"unexpected", flatUnexpected, {"cache"}, 5,
         0x1a7124b66103c42eull},
        {"hier", hierSwmr, {"cache-L", "cache-H"}, 13,
         0x54b79fd81e90acc0ull},
        {"nosym", flatSwmrNoSymmetry, {"cache"}, 9,
         0x4eade94de27ccf36ull},
        {"staleowner", flatStaleOwner, {"cache"}, 8,
         0xaa39960c8ec007b1ull},
    };
    return all;
}

uint64_t
traceHash(const verif::CheckResult &r)
{
    std::string all;
    for (const std::string &s : r.trace)
        all += s + "\n";
    all += "--\n";
    for (const std::string &s : r.traceStepsJson)
        all += s + "\n";
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : all) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex(uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

class TraceParity : public ::testing::TestWithParam<size_t>
{
};

TEST_P(TraceParity, OneThreadTraceIsPinned)
{
    const FailingCase &c = cases()[GetParam()];
    verif::CheckResult r = c.run(1);
    ASSERT_FALSE(r.ok) << c.name;
    ASSERT_FALSE(r.trace.empty()) << c.name << ": " << r.summary();
    EXPECT_EQ(r.trace.size(), r.traceStepsJson.size()) << c.name;
    EXPECT_EQ(r.trace.size(), c.steps) << c.name;
    EXPECT_EQ(hex(traceHash(r)), hex(c.hash)) << c.name;
}

/** The state of the last step, parsed from traceStepsJson. */
util::JsonValue
lastState(const verif::CheckResult &r)
{
    util::JsonValue step;
    EXPECT_TRUE(util::parseJson(r.traceStepsJson.back(), step))
        << r.traceStepsJson.back();
    const util::JsonValue *st = step.find("state");
    return st ? *st : util::JsonValue();
}

/** State name of node @p id in a describeStateJson object. */
std::string
nodeState(const util::JsonValue &st, uint64_t id)
{
    if (const util::JsonValue *nodes = st.find("nodes")) {
        for (const util::JsonValue &n : nodes->items()) {
            if (n.uint("id", UINT64_MAX) == id)
                return n.str("state");
        }
    }
    return "";
}

/**
 * The last step must be where the reported violation is: the node
 * and state a deadlock, stale-data or protocol error names, or the
 * writer/reader counts of a SWMR violation (MSI leaf caches: M
 * writes, S reads).
 */
void
expectEndsAtViolation(const FailingCase &c, const verif::CheckResult &r)
{
    util::JsonValue st = lastState(r);
    std::smatch m;
    const std::string &d = r.detail;
    switch (r.errorKind) {
    case ErrorKind::Deadlock: {
        static const std::regex re(
            "node ([0-9]+) stuck in transient state (\\S+) with no "
            "messages in flight");
        ASSERT_TRUE(std::regex_search(d, m, re)) << d;
        EXPECT_EQ(nodeState(st, std::stoull(m[1])), m[2].str()) << d;
        const util::JsonValue *msgs = st.find("msgs");
        ASSERT_NE(msgs, nullptr);
        EXPECT_TRUE(msgs->items().empty()) << d;
        break;
    }
    case ErrorKind::ProtocolError: {
        // The failing delivery's source state ends the trace: the
        // node sits in the named state with the message in flight.
        static const std::regex re(
            "node ([0-9]+): unexpected event (\\S+) in state (\\S+)");
        ASSERT_TRUE(std::regex_search(d, m, re)) << d;
        uint64_t node = std::stoull(m[1]);
        EXPECT_EQ(nodeState(st, node), m[3].str()) << d;
        bool inFlight = false;
        if (const util::JsonValue *msgs = st.find("msgs")) {
            for (const util::JsonValue &msg : msgs->items()) {
                inFlight |= msg.uint("dst", UINT64_MAX) == node &&
                            msg.str("type") == m[2].str();
            }
        }
        EXPECT_TRUE(inFlight) << d;
        break;
    }
    case ErrorKind::DataValue: {
        static const std::regex re("node ([0-9]+) in (\\S+) holds");
        ASSERT_TRUE(std::regex_search(d, m, re)) << d;
        EXPECT_EQ(nodeState(st, std::stoull(m[1])), m[2].str()) << d;
        break;
    }
    case ErrorKind::Swmr: {
        static const std::regex re(
            "([0-9]+) writer\\(s\\), ([0-9]+) concurrent reader");
        ASSERT_TRUE(std::regex_search(d, m, re)) << d;
        uint64_t writers = 0, readers = 0;
        if (const util::JsonValue *nodes = st.find("nodes")) {
            for (const util::JsonValue &n : nodes->items()) {
                std::string mach = n.str("machine");
                if (std::find(c.leafMachines.begin(),
                              c.leafMachines.end(),
                              mach) == c.leafMachines.end()) {
                    continue;
                }
                writers += n.str("state") == "M";
                readers += n.str("state") == "S";
            }
        }
        EXPECT_EQ(writers, std::stoull(m[1])) << d;
        EXPECT_EQ(readers, std::stoull(m[2])) << d;
        break;
    }
    default:
        ADD_FAILURE() << c.name << ": unexpected verdict " << r.summary();
    }
}

TEST_P(TraceParity, ParallelTraceRunsFromInitToViolation)
{
    const FailingCase &c = cases()[GetParam()];
    verif::CheckResult r = c.run(kParThreads);
    ASSERT_FALSE(r.ok) << c.name;
    ASSERT_FALSE(r.trace.empty()) << c.name << ": " << r.summary();
    ASSERT_EQ(r.trace.size(), r.traceStepsJson.size()) << c.name;
    EXPECT_EQ(r.trace.front().rfind("init  =>  ", 0), 0u)
        << c.name << ": " << r.trace.front();
    EXPECT_EQ(r.traceStepsJson.front().rfind("{\"event\": \"init\"", 0),
              0u)
        << r.traceStepsJson.front();
    expectEndsAtViolation(c, r);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TraceParity, ::testing::Range<size_t>(0, 6),
    [](const ::testing::TestParamInfo<size_t> &i) {
        return std::string(cases()[i.param].name);
    });

TEST(TraceShape, OneThreadTraceEndsAtViolation)
{
    for (const FailingCase &c : cases()) {
        SCOPED_TRACE(c.name);
        verif::CheckResult r = c.run(1);
        ASSERT_FALSE(r.trace.empty()) << r.summary();
        expectEndsAtViolation(c, r);
    }
}

// ---------------------------------------------------------------
// A violation found after a resume: the trace starts at the resume
// point (a frontier state of the checkpoint), not at init.

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + std::to_string(::getpid()) + "." +
           name;
}

class ResumedTrace : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ResumedTrace, StartsAtResumePoint)
{
    // 4 caches, budget 3: the one-thread BFS explores 66 states
    // before it reaches the violation, so a cap of 40 stops short.
    std::string ckpt =
        tmpPath("resumed-trace-" + std::to_string(GetParam()) + ".ckpt");
    verif::CheckOptions ko = opts(1, true, 3);
    ko.maxStates = 40;
    ko.checkpointPath = ckpt;
    Protocol killed = protocols::builtinProtocol("MSI");
    seeded::dropInvalidation(killed.cache, killed.msgs, Level::Lower);
    auto kr = verif::checkFlat(killed, 4, ko);
    ASSERT_EQ(kr.errorKind, ErrorKind::StateLimit) << kr.summary();
    ASSERT_TRUE(kr.resumable);
    ASSERT_GE(kr.checkpointsWritten, 1u);

    verif::CheckpointData data;
    ASSERT_TRUE(verif::CheckpointReader().read(ckpt, data).ok);
    ASSERT_FALSE(data.frontier.empty());

    Protocol resumed = protocols::builtinProtocol("MSI");
    seeded::dropInvalidation(resumed.cache, resumed.msgs, Level::Lower);
    verif::CheckOptions ro = opts(GetParam(), true, 3);
    ro.resume = &data;
    auto rr = verif::checkFlat(resumed, 4, ro);
    std::remove(ckpt.c_str());
    ASSERT_FALSE(rr.ok);
    EXPECT_TRUE(rr.resumedFromCheckpoint);
    EXPECT_TRUE(rr.errorKind == ErrorKind::Swmr ||
                rr.errorKind == ErrorKind::DataValue)
        << rr.summary();
    ASSERT_FALSE(rr.trace.empty()) << rr.summary();
    ASSERT_EQ(rr.trace.size(), rr.traceStepsJson.size());
    EXPECT_EQ(rr.trace.front().rfind("resumed  =>  ", 0), 0u)
        << rr.trace.front();
    EXPECT_EQ(
        rr.traceStepsJson.front().rfind("{\"event\": \"resumed\"", 0),
        0u)
        << rr.traceStepsJson.front();
    for (size_t i = 1; i < rr.trace.size(); ++i) {
        EXPECT_EQ(rr.trace[i].find("resumed"), std::string::npos)
            << "only the first step is a resume root: " << rr.trace[i];
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, ResumedTrace,
                         ::testing::Values(1u, kParThreads));

} // namespace
} // namespace hieragen
