/**
 * @file
 * Unit and integration tests for the telemetry library (src/obs):
 * sharded-counter aggregation under threads, histogram percentiles,
 * trace-event JSON validity, progress math, and checker integration
 * (metrics totals must equal the CheckResult counts in both engines).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "protocols/registry.hh"
#include "seeded_bugs.hh"
#include "util/logging.hh"
#include "verif/checker.hh"

namespace hieragen
{
namespace
{

// --- Minimal recursive-descent JSON validator -----------------------
//
// Validates syntax only (no value model): enough to prove the trace
// and metrics emitters produce well-formed JSON without pulling in a
// parser dependency.

class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    const std::string &s_;
    size_t pos_ = 0;

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    eat(char c)
    {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *lit)
    {
        size_t n = std::string(lit).size();
        if (s_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (pos_ < s_.size()) {
            char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= s_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                s_[pos_])))
                            return false;
                    }
                } else if (!strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }

    bool
    number()
    {
        size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    value()
    {
        skipWs();
        if (pos_ >= s_.size())
            return false;
        char c = s_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool
    object()
    {
        if (!eat('{'))
            return false;
        skipWs();
        if (eat('}'))
            return true;
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (!eat(':'))
                return false;
            if (!value())
                return false;
            skipWs();
            if (eat('}'))
                return true;
            if (!eat(','))
                return false;
        }
    }

    bool
    array()
    {
        if (!eat('['))
            return false;
        skipWs();
        if (eat(']'))
            return true;
        for (;;) {
            if (!value())
                return false;
            skipWs();
            if (eat(']'))
                return true;
            if (!eat(','))
                return false;
        }
    }
};

bool
validJson(const std::string &text)
{
    return JsonValidator(text).valid();
}

// --- Metrics registry -----------------------------------------------

TEST(Metrics, CounterAggregatesAcrossThreads)
{
    obs::Counter c;
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 50'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                c.add(1);
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Metrics, CounterAddN)
{
    obs::Counter c;
    c.add(5);
    c.add(7);
    EXPECT_EQ(c.value(), 12u);
}

TEST(Metrics, GaugeLastWriteWins)
{
    obs::Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(3.25);
    EXPECT_EQ(g.value(), 3.25);
    g.set(-1.0);
    EXPECT_EQ(g.value(), -1.0);
}

TEST(Metrics, HistogramBasicStats)
{
    obs::Histogram h;
    for (uint64_t v = 1; v <= 100; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.sum(), 5050u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(Metrics, HistogramPercentiles)
{
    obs::Histogram h;
    for (uint64_t v = 1; v <= 100; ++v)
        h.record(v);
    // Log2 buckets carry up to one-bucket error: the true p50 (50.5)
    // lies in bucket [33, 64], so the interpolated estimate must too.
    double p50 = h.percentile(50.0);
    EXPECT_GE(p50, 33.0);
    EXPECT_LE(p50, 64.0);
    double p99 = h.percentile(99.0);
    EXPECT_GE(p99, 65.0);
    EXPECT_LE(p99, 100.0);
    // Extremes clamp to the observed range.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);
}

TEST(Metrics, HistogramZeroAndSingleValue)
{
    obs::Histogram h;
    h.record(0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);

    obs::Histogram one;
    one.record(42);
    EXPECT_DOUBLE_EQ(one.percentile(50.0), 42.0);
}

TEST(Metrics, HistogramThreadSafeRecord)
{
    obs::Histogram h;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&h] {
            for (uint64_t i = 0; i < 10'000; ++i)
                h.record(i & 1023);
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(h.count(), 40'000u);
}

TEST(Metrics, RegistryStableReferencesAndLookup)
{
    obs::MetricsRegistry reg;
    obs::Counter &a = reg.counter("x.count");
    a.add(3);
    EXPECT_EQ(&reg.counter("x.count"), &a);
    EXPECT_EQ(reg.counterValue("x.count"), 3u);
    EXPECT_EQ(reg.counterValue("never.created"), 0u);
    reg.gauge("x.rate").set(1.5);
    EXPECT_EQ(reg.gaugeValue("x.rate"), 1.5);
    EXPECT_EQ(reg.gaugeValue("never.created"), 0.0);
}

TEST(Metrics, RegistryToJsonParses)
{
    obs::MetricsRegistry reg;
    reg.counter("checker.states").add(123);
    reg.gauge("checker.rate").set(45.75);
    obs::Histogram &h = reg.histogram("pass.us");
    h.record(10);
    h.record(1000);
    std::string json = reg.toJson();
    EXPECT_TRUE(validJson(json)) << json;
    EXPECT_NE(json.find("\"checker.states\": 123"), std::string::npos);
    EXPECT_NE(json.find("\"pass.us\""), std::string::npos);
}

// --- Trace writer ---------------------------------------------------

TEST(Trace, EventsSerializeAsValidTraceJson)
{
    obs::TraceWriter tw;
    tw.setThreadName(1, "worker \"one\"");
    tw.completeEvent("expand", 1, 100, 50,
                     {{"states", "32"},
                      {"label", obs::jsonQuote("a\nb")}});
    tw.counterEvent("exploration", obs::kProgressTid, 200,
                    {{"states_per_sec", 1234.5}, {"queue", 7.0}});
    tw.instantEvent("violation", 1, 300);
    EXPECT_EQ(tw.eventCount(), 4u);

    std::string json = tw.json();
    EXPECT_TRUE(validJson(json)) << json;
    // Required keys on every event line.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"tid\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"ts\": 100"), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 50"), std::string::npos);
}

TEST(Trace, JsonQuoteEscapes)
{
    EXPECT_EQ(obs::jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(obs::jsonQuote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(obs::jsonQuote("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(obs::jsonQuote("a\nb"), "\"a\\nb\"");
    EXPECT_EQ(obs::jsonQuote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Trace, ScopedSpanEmitsOnceAndNullWriterIsNoop)
{
    obs::TraceWriter tw;
    {
        obs::ScopedSpan span(&tw, "work", 2);
        span.close({{"n", "1"}});
        span.close();  // idempotent
    }
    EXPECT_EQ(tw.eventCount(), 1u);

    obs::ScopedSpan none(nullptr, "ignored", 1);
    none.close();  // must not crash
}

TEST(Trace, ConcurrentEmission)
{
    obs::TraceWriter tw;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&tw, t] {
            for (int i = 0; i < 500; ++i)
                tw.completeEvent("e", static_cast<uint32_t>(t + 1),
                                 tw.nowUs(), 1);
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(tw.eventCount(), 2000u);
    EXPECT_TRUE(validJson(tw.json()));
}

// --- Progress math --------------------------------------------------

TEST(Progress, ComputeRatesAndEta)
{
    obs::ProgressSample prev;
    prev.statesExplored = 1000;
    obs::ProgressSample cur;
    cur.statesExplored = 3000;
    cur.statesGenerated = 10'000;
    cur.visitedEntries = 4000;
    cur.maxStates = 13'000;
    cur.workers = 2;
    cur.symCalls = 10'000;
    cur.symSampledCalls = 100;
    cur.symSampledNs = 500'000'000;  // 0.5s measured on 1% of calls

    obs::ProgressStats d =
        obs::computeProgress(prev, cur, 2.0, 100.0);
    EXPECT_DOUBLE_EQ(d.statesPerSec, 1000.0);
    // (generated - visited) / generated = 6000/10000
    EXPECT_DOUBLE_EQ(d.dedupHitRate, 0.6);
    // 0.5s * (10000/100) = 50s estimated, over 100s * 2 workers.
    EXPECT_NEAR(d.symTimeShare, 0.25, 1e-9);
    // (13000 - 3000) / 1000/s = 10s.
    EXPECT_NEAR(d.etaSec, 10.0, 1e-9);
}

TEST(Progress, ComputeHandlesEdgeCases)
{
    obs::ProgressSample prev, cur;
    obs::ProgressStats d = obs::computeProgress(prev, cur, 0.0, 0.0);
    EXPECT_EQ(d.statesPerSec, 0.0);
    EXPECT_EQ(d.dedupHitRate, 0.0);
    EXPECT_EQ(d.symTimeShare, 0.0);
    EXPECT_EQ(d.etaSec, -1.0);  // no cap, no rate -> no ETA

    cur.statesExplored = 100;
    cur.maxStates = 0;  // unlimited: never report an ETA
    d = obs::computeProgress(prev, cur, 1.0, 1.0);
    EXPECT_EQ(d.etaSec, -1.0);
}

TEST(Progress, FormatCount)
{
    EXPECT_EQ(obs::formatCount(999), "999");
    EXPECT_EQ(obs::formatCount(1'234'567), "1.23M");
    EXPECT_EQ(obs::formatCount(12'345'678), "12.3M");
    EXPECT_EQ(obs::formatCount(45'600), "45.6k");
}

TEST(Progress, ReporterBeatsAndFinalSample)
{
    obs::MetricsRegistry reg;
    obs::TraceWriter tw;
    std::atomic<uint64_t> fake{0};
    obs::ProgressReporter rep;
    rep.start(
        0.01,
        [&fake] {
            obs::ProgressSample s;
            s.statesExplored = fake.fetch_add(100) + 100;
            s.statesGenerated = s.statesExplored * 2;
            s.visitedEntries = s.statesExplored;
            return s;
        },
        &reg, &tw, /*quiet=*/true);
    EXPECT_TRUE(rep.running());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    rep.stop();
    EXPECT_FALSE(rep.running());
    // At least the final beat fired; sinks were fed.
    EXPECT_GE(rep.beats(), 1u);
    EXPECT_EQ(reg.counterValue("progress.heartbeats"), rep.beats());
    EXPECT_GT(reg.gaugeValue("progress.states_per_sec"), 0.0);
    EXPECT_GT(tw.eventCount(), 0u);
    rep.stop();  // idempotent
}

TEST(Progress, StatusLineConcurrentSmoke)
{
    // The satellite fix: parallel writers must not interleave bytes.
    // TSan (the CI job) is the real assertion; here we just drive it.
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < 50; ++i)
                statusLine("test", "line " + std::to_string(t));
        });
    }
    for (auto &th : threads)
        th.join();
}

// --- Checker integration --------------------------------------------

verif::CheckOptions
telemetryOpts(obs::Telemetry &telem, unsigned threads)
{
    verif::CheckOptions o;
    o.atomicTransactions = true;
    o.accessBudget = 2;
    o.numThreads = threads;
    o.telemetry = &telem;
    return o;
}

class CheckerTelemetry : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CheckerTelemetry, MetricsMatchCheckResult)
{
    Protocol p = protocols::builtinProtocol("MSI");
    obs::MetricsRegistry reg;
    obs::Telemetry telem;
    telem.metrics = &reg;
    // Run the progress sampler concurrently with the workers (quiet)
    // so TSan exercises the live-sampling path too.
    telem.progressIntervalSec = 0.001;
    telem.quietProgress = true;
    auto r =
        verif::checkFlat(p, 2, telemetryOpts(telem, GetParam()));
    ASSERT_TRUE(r.ok) << r.summary();
    EXPECT_GE(reg.counterValue("progress.heartbeats"), 1u);

    EXPECT_EQ(reg.counterValue("checker.states_explored"),
              r.statesExplored);
    EXPECT_EQ(reg.counterValue("checker.states_generated"),
              r.statesGenerated);
    EXPECT_EQ(reg.counterValue("checker.transitions_fired"),
              r.transitionsFired);
    // Every generated state is either a dedup hit or a fresh entry.
    EXPECT_EQ(reg.counterValue("checker.dedup_hits"),
              r.statesGenerated -
                  reg.counterValue("checker.visited_entries"));
    EXPECT_GT(reg.gaugeValue("checker.wall_ms"), 0.0);
    EXPECT_EQ(reg.gaugeValue("checker.workers"),
              static_cast<double>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Engines, CheckerTelemetry,
                         ::testing::Values(1u, 2u, 4u));

TEST(CheckerTelemetryTrace, SpansEmittedAndParse)
{
    Protocol p = protocols::builtinProtocol("MSI");
    obs::MetricsRegistry reg;
    obs::TraceWriter tw;
    obs::Telemetry telem;
    telem.metrics = &reg;
    telem.trace = &tw;
    auto r = verif::checkFlat(p, 2, telemetryOpts(telem, 2));
    ASSERT_TRUE(r.ok) << r.summary();
    EXPECT_GT(tw.eventCount(), 0u);
    std::string json = tw.json();
    EXPECT_TRUE(validJson(json));
    EXPECT_NE(json.find("checker worker"), std::string::npos);
}

TEST(CheckerTelemetry2, TelemetryDoesNotChangeVerdictOrCounts)
{
    Protocol p = protocols::builtinProtocol("MSI");
    verif::CheckOptions plain;
    plain.atomicTransactions = true;
    plain.accessBudget = 2;
    plain.numThreads = 1;
    auto base = verif::checkFlat(p, 2, plain);

    obs::MetricsRegistry reg;
    obs::Telemetry telem;
    telem.metrics = &reg;
    auto instrumented =
        verif::checkFlat(p, 2, telemetryOpts(telem, 1));
    EXPECT_EQ(base.ok, instrumented.ok);
    EXPECT_EQ(base.statesExplored, instrumented.statesExplored);
    EXPECT_EQ(base.statesGenerated, instrumented.statesGenerated);
    EXPECT_EQ(base.transitionsFired, instrumented.transitionsFired);
}

// --- Structured counterexamples -------------------------------------

TEST(TraceJson, CleanRunHasEmptySteps)
{
    Protocol p = protocols::builtinProtocol("MSI");
    verif::CheckOptions o;
    o.atomicTransactions = true;
    o.accessBudget = 2;
    auto r = verif::checkFlat(p, 2, o);
    ASSERT_TRUE(r.ok);
    std::string json = r.traceJson();
    EXPECT_TRUE(validJson(json)) << json;
    EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
    EXPECT_NE(json.find("\"steps\": []"), std::string::npos);
}

TEST(TraceJson, ViolationYieldsStructuredSteps)
{
    // Sabotage MSI exactly as test_checker_flat does: S + Inv stays
    // in S with data, so SWMR/data-value trips with a trace.
    Protocol p = protocols::builtinProtocol("MSI");
    seeded::dropInvalidation(p.cache, p.msgs, Level::Lower);

    for (unsigned threads : {1u, 2u}) {
        verif::CheckOptions o;
        o.atomicTransactions = true;
        o.accessBudget = 2;
        o.numThreads = threads;
        auto r = verif::checkFlat(p, 2, o);
        ASSERT_FALSE(r.ok);
        ASSERT_FALSE(r.trace.empty());
        EXPECT_EQ(r.traceStepsJson.size(), r.trace.size());

        std::string json = r.traceJson();
        EXPECT_TRUE(validJson(json)) << json;
        EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
        EXPECT_NE(json.find("\"error_kind\""), std::string::npos);
        EXPECT_NE(json.find("\"event\""), std::string::npos);
        EXPECT_NE(json.find("\"nodes\""), std::string::npos);
        EXPECT_NE(json.find("\"msgs\""), std::string::npos);
    }
}

} // namespace
} // namespace hieragen
