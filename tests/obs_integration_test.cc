/**
 * @file
 * Cross-layer observability integration tests: a device wired to a
 * metrics registry and a tracer, under fault injection, must produce
 * (a) trace spans whose per-query "device"-category durations sum to
 * the reported end-to-end latency EXACTLY (probe + fetch/exchange +
 * backoff + render tiling, no gaps, no double counting), (b) an
 * umbrella "query" span matching the latency, (c) registry counters
 * that account for every injected fault, and (d) valid Chrome trace
 * JSON.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "device/mobile_device.h"
#include "logs/triplets.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pc::device {
namespace {

workload::UniverseConfig
tinyUniverse()
{
    workload::UniverseConfig cfg;
    cfg.navResults = 200;
    cfg.nonNavResults = 800;
    cfg.navHead = 30;
    cfg.nonNavHead = 30;
    cfg.habitNavHead = 20;
    cfg.habitNonNavHead = 15;
    return cfg;
}

class ObsIntegrationTest : public ::testing::Test
{
  protected:
    ObsIntegrationTest() : uni_(tinyUniverse()), device_(uni_)
    {
        device_.attachMetrics(&registry_);
        device_.attachTracer(&tracer_, "device");
        warmCache();
    }

    void
    warmCache()
    {
        workload::SearchLog log(uni_);
        for (u32 r = 0; r < 20; ++r) {
            const u32 q = uni_.result(r).queries.front().first;
            for (int i = 0; i < int(40 - r); ++i) {
                log.add({1, SimTime(i), {q, r},
                         workload::DeviceType::Smartphone});
            }
        }
        const auto table = logs::TripletTable::fromLog(log);
        core::CacheContentBuilder builder(uni_);
        core::ContentPolicy policy;
        policy.kind = core::ThresholdKind::VolumeShare;
        policy.volumeShare = 1.0;
        device_.installCommunityCache(builder.build(table, policy));
    }

    workload::PairRef
    cachedPair(u32 r = 0)
    {
        return {uni_.result(r).queries.front().first, r};
    }

    workload::PairRef
    uncachedPair(u32 r = 500)
    {
        return {uni_.result(r).queries.front().first, r};
    }

    /**
     * Serve one query and check the span-tiling invariant: the spans
     * recorded for it (category "device") sum exactly to its latency,
     * and the umbrella span (category "query") equals the latency.
     * @return The outcome.
     */
    QueryOutcome
    serveAndCheckSpans(const workload::PairRef &pair, ServePath path)
    {
        const std::size_t before = tracer_.spans().size();
        const SimTime t0 = device_.now();
        const auto out = device_.serveQuery(pair, path, false);

        SimTime componentSum = 0;
        SimTime umbrella = -1;
        for (std::size_t i = before; i < tracer_.spans().size(); ++i) {
            const auto &sp = tracer_.spans()[i];
            EXPECT_GE(sp.start, t0);
            EXPECT_LE(sp.start + sp.duration, t0 + out.latency);
            if (sp.category == "device")
                componentSum += sp.duration;
            else if (sp.category == "query")
                umbrella = sp.duration;
        }
        EXPECT_EQ(componentSum, out.latency)
            << "device spans must tile the query latency exactly";
        EXPECT_EQ(umbrella, out.latency)
            << "umbrella span must equal the end-to-end latency";
        return out;
    }

    workload::QueryUniverse uni_;
    MobileDevice device_;
    obs::MetricRegistry registry_;
    obs::Tracer tracer_;
};

TEST_F(ObsIntegrationTest, CacheHitSpansTileLatency)
{
    const auto out =
        serveAndCheckSpans(cachedPair(), ServePath::PocketSearch);
    EXPECT_TRUE(out.cacheHit);
    EXPECT_EQ(registry_.counter("device.queries").value(), 1u);
    EXPECT_EQ(registry_.counter("device.cache_hits").value(), 1u);
}

TEST_F(ObsIntegrationTest, RadioMissSpansTileLatency)
{
    const auto out =
        serveAndCheckSpans(uncachedPair(), ServePath::ThreeG);
    EXPECT_FALSE(out.cacheHit);
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_EQ(registry_.counter("device.radio.attempts").value(), 1u);
}

TEST_F(ObsIntegrationTest, FaultedRetriesAndBackoffsStillTileExactly)
{
    // High failure rate forces multi-attempt queries with backoff
    // spans; the tiling invariant must hold through all of it.
    fault::FaultConfig fc;
    fc.seed = 7;
    fc.radio.exchangeFailureRate = 0.6;
    fc.radio.latencySpikeRate = 0.3;
    fault::FaultPlan plan(fc);
    device_.attachFaults(&plan);

    u64 sawRetries = 0;
    u64 sawAttempts = 0;
    u64 sawDegraded = 0;
    for (u32 i = 0; i < 30; ++i) {
        const auto out = serveAndCheckSpans(uncachedPair(500 + i),
                                            ServePath::PocketSearch);
        if (out.attempts > 1)
            ++sawRetries;
        sawAttempts += out.attempts;
        if (out.degraded)
            ++sawDegraded;
        device_.advanceTime(kSecond);
    }
    EXPECT_GT(sawRetries, 0u)
        << "seeded fault plan should force at least one retry";

    // The registry counters account for every outcome the device
    // reported and every fault the plan injected. All 30 queries
    // missed, so each attempt past a query's first is a retry.
    const auto snap = registry_.snapshot();
    EXPECT_EQ(snap.counterValue("device.radio.attempts"), sawAttempts);
    EXPECT_EQ(snap.counterValue("device.radio.retries"), sawAttempts - 30);
    EXPECT_EQ(snap.counterValue("device.radio.failed"),
              plan.stats().exchangeFailures);
    EXPECT_EQ(snap.counterValue("device.radio.latency_spikes"),
              plan.stats().latencySpikes);
    EXPECT_EQ(snap.counterValue("device.degraded.serves"), sawDegraded);
    EXPECT_EQ(snap.counterValue("device.degraded.serves"),
              snap.counterValue("device.degraded.stale") +
                  snap.counterValue("device.degraded.offline_pages"));
    EXPECT_EQ(snap.counterValue("device.missq.queued"), sawDegraded);
    EXPECT_EQ(snap.counterValue("device.queries"), 30u);

    // Fault ground truth folds into the same registry.
    plan.publishMetrics(registry_);
    const auto snap2 = registry_.snapshot();
    EXPECT_EQ(snap2.counterValue("fault.exchange_failures"),
              plan.stats().exchangeFailures);
}

TEST_F(ObsIntegrationTest, OutageBackoffSpansTile)
{
    fault::FaultConfig fc;
    fc.seed = 11;
    fc.radio.outageShare = 0.5;
    fc.radio.meanOutageDuration = 30 * kSecond;
    fault::FaultPlan plan(fc);
    device_.attachFaults(&plan);

    for (u32 i = 0; i < 20; ++i) {
        serveAndCheckSpans(uncachedPair(600 + i),
                           ServePath::PocketSearch);
        device_.advanceTime(5 * kSecond);
    }
    const u64 noCoverage =
        registry_.counterValue("device.radio.no_coverage");
    EXPECT_GT(noCoverage, 0u) << "outage plan should deny coverage";
    EXPECT_EQ(noCoverage, plan.stats().outageAttempts);
}

TEST_F(ObsIntegrationTest, PerPathHistogramsMatchOutcomes)
{
    std::vector<double> hit_ms;
    for (u32 r = 0; r < 5; ++r) {
        const auto out =
            device_.serveQuery(cachedPair(r), ServePath::PocketSearch,
                               false);
        ASSERT_TRUE(out.cacheHit);
        hit_ms.push_back(toMillis(out.latency));
    }
    const auto *h = registry_.findHistogram("device.latency_ms.pocket");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 5u);
    double sum = 0;
    for (double x : hit_ms)
        sum += x;
    EXPECT_NEAR(h->sum(), sum, 1e-9);
}

TEST_F(ObsIntegrationTest, SimfsAndCoreCountersFlow)
{
    device_.serveQuery(cachedPair(), ServePath::PocketSearch, false);
    const auto snap = registry_.snapshot();
    EXPECT_GT(snap.counterValue("simfs.reads"), 0u)
        << "a cache hit fetches results from flash";
    EXPECT_GT(snap.counterValue("core.search.lookups"), 0u);
    EXPECT_GT(snap.counterValue("core.search.query_hits"), 0u);
}

TEST_F(ObsIntegrationTest, ChromeTraceExportIsValidJson)
{
    fault::FaultConfig fc;
    fc.seed = 3;
    fc.radio.exchangeFailureRate = 0.5;
    fault::FaultPlan plan(fc);
    device_.attachFaults(&plan);
    for (u32 i = 0; i < 5; ++i)
        device_.serveQuery(uncachedPair(700 + i),
                           ServePath::PocketSearch, false);

    std::ostringstream os;
    tracer_.writeChromeTrace(os);
    const std::string out = os.str();

    // Structural check: balanced scopes outside strings.
    std::string stack;
    bool inString = false, escaped = false;
    for (char c : out) {
        if (inString) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"')
            inString = true;
        else if (c == '{' || c == '[')
            stack.push_back(c);
        else if (c == '}') {
            ASSERT_FALSE(stack.empty());
            ASSERT_EQ(stack.back(), '{');
            stack.pop_back();
        } else if (c == ']') {
            ASSERT_FALSE(stack.empty());
            ASSERT_EQ(stack.back(), '[');
            stack.pop_back();
        }
    }
    EXPECT_TRUE(stack.empty());
    EXPECT_FALSE(inString);
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(ObsIntegrationTest, MetricsAreZeroCostWhenDetached)
{
    // A second device with nothing attached must behave identically:
    // observability is read-only instrumentation.
    MobileDevice bare(uni_);
    workload::SearchLog log(uni_);
    for (u32 r = 0; r < 20; ++r) {
        const u32 q = uni_.result(r).queries.front().first;
        for (int i = 0; i < int(40 - r); ++i) {
            log.add({1, SimTime(i), {q, r},
                     workload::DeviceType::Smartphone});
        }
    }
    const auto table = logs::TripletTable::fromLog(log);
    core::CacheContentBuilder builder(uni_);
    core::ContentPolicy policy;
    policy.kind = core::ThresholdKind::VolumeShare;
    policy.volumeShare = 1.0;
    bare.installCommunityCache(builder.build(table, policy));

    const auto a =
        device_.serveQuery(cachedPair(), ServePath::PocketSearch, false);
    const auto b =
        bare.serveQuery(cachedPair(), ServePath::PocketSearch, false);
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.cacheHit, b.cacheHit);
}

} // namespace
} // namespace pc::device
