/**
 * @file
 * Graceful-degradation tests: under injected radio faults the device
 * must never surface an error — cached queries still hit, unreachable
 * misses degrade to stale/offline answers and queue for later sync —
 * and the device's registry counters must account for every injected
 * fault.
 */

#include <gtest/gtest.h>

#include "device/mobile_device.h"
#include "logs/triplets.h"

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

class DegradedServeTest : public ::testing::Test
{
  protected:
    DegradedServeTest() : uni_(tinyUniverse()), device_(uni_)
    {
        device_.attachMetrics(&reg_);
        warmCache(device_);
    }

    /** A device counter by name (0 when never registered). */
    u64 ctr(const std::string &name) const
    {
        return reg_.counterValue(name);
    }

    void
    warmCache(MobileDevice &device)
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
        device.installCommunityCache(builder.build(table, policy));
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

    workload::QueryUniverse uni_;
    obs::MetricRegistry reg_;
    MobileDevice device_;
};

TEST_F(DegradedServeTest, TwentyPercentFailureRateSurfacesNoErrors)
{
    fault::FaultConfig fc;
    fc.seed = 2011;
    fc.radio.exchangeFailureRate = 0.2;
    fault::FaultPlan plan(fc);
    device_.attachFaults(&plan);

    u64 radio_queries = 0, attempts_seen = 0, hits = 0;
    for (u32 i = 0; i < 120; ++i) {
        const bool cached = (i % 3 != 2);
        const auto pair =
            cached ? cachedPair(i % 20) : uncachedPair(400 + i);
        const auto out =
            device_.serveQuery(pair, ServePath::PocketSearch,
                               /*record_click=*/false);
        // Graceful degradation means the caller NEVER sees an error:
        // every query yields a rendered page with sane accounting.
        ASSERT_GT(out.latency, 0);
        ASSERT_GT(out.energy, 0.0);
        ASSERT_GT(out.renderTime, 0);
        if (cached) {
            EXPECT_TRUE(out.cacheHit)
                << "faults must not break cache hits (query " << i << ")";
            EXPECT_EQ(out.attempts, 0u);
            EXPECT_FALSE(out.degraded);
            ++hits;
        } else {
            ++radio_queries;
            attempts_seen += out.attempts;
            EXPECT_GE(out.attempts, 1u);
            EXPECT_LE(out.attempts, device_.config().retry.maxAttempts);
            if (out.degraded) {
                EXPECT_FALSE(out.cacheHit);
            }
        }
    }
    EXPECT_EQ(hits, 80u);

    // Every injected fault is accounted for by a device counter.
    const auto &in = plan.stats();
    EXPECT_EQ(ctr("device.radio.failed"), in.exchangeFailures);
    EXPECT_GT(ctr("device.radio.failed"), 0u)
        << "20% of ~40 queries must fail";
    EXPECT_EQ(ctr("device.radio.no_coverage"), in.outageAttempts);
    EXPECT_EQ(ctr("device.radio.latency_spikes"), in.latencySpikes);
    EXPECT_EQ(ctr("device.radio.attempts"), attempts_seen);
    EXPECT_EQ(ctr("device.radio.retries"), attempts_seen - radio_queries);
    EXPECT_EQ(ctr("device.degraded.serves"),
              ctr("device.degraded.stale") +
                  ctr("device.degraded.offline_pages"));
    EXPECT_EQ(ctr("device.missq.queued"), ctr("device.degraded.serves"));
    EXPECT_EQ(device_.missQueue().size(),
              ctr("device.missq.queued") - ctr("device.missq.synced"));
}

TEST_F(DegradedServeTest, UnreachableCloudDegradesThenSyncs)
{
    fault::FaultConfig fc;
    fc.seed = 5;
    fc.radio.exchangeFailureRate = 1.0; // the cloud is unreachable
    fault::FaultPlan plan(fc);
    device_.attachFaults(&plan);

    // Cache hits are untouched by a dead radio.
    const auto hit = device_.serveQuery(cachedPair(0),
                                        ServePath::PocketSearch, false);
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_FALSE(hit.degraded);

    // An uncached query degrades to the offline page and queues.
    const auto p1 = uncachedPair(501);
    const auto offline =
        device_.serveQuery(p1, ServePath::PocketSearch, true);
    EXPECT_FALSE(offline.cacheHit);
    EXPECT_TRUE(offline.degraded);
    EXPECT_FALSE(offline.staleServe);
    EXPECT_EQ(offline.attempts, device_.config().retry.maxAttempts);
    EXPECT_GT(offline.backoffTime, 0);

    // A cached query string whose clicked result is NOT cached serves
    // the stale cached results instead of the offline page.
    const workload::PairRef p2{cachedPair(1).query, 502};
    const auto stale =
        device_.serveQuery(p2, ServePath::PocketSearch, true);
    EXPECT_TRUE(stale.degraded);
    EXPECT_TRUE(stale.staleServe);
    EXPECT_GT(stale.fetchTime, 0);

    EXPECT_EQ(ctr("device.degraded.serves"), 2u);
    EXPECT_EQ(ctr("device.degraded.offline_pages"), 1u);
    EXPECT_EQ(ctr("device.degraded.stale"), 1u);
    EXPECT_EQ(ctr("device.missq.queued"), 2u);
    ASSERT_EQ(device_.missQueue().size(), 2u);

    // While the radio is still dead, a sync pass makes no progress but
    // keeps the queue intact.
    const auto stuck = device_.syncMissQueue();
    EXPECT_EQ(stuck.synced, 0u);
    EXPECT_EQ(stuck.remaining, 2u);

    // Coverage returns: the queue drains and the missed pairs are
    // learned as if they had been clicked online.
    device_.attachFaults(nullptr);
    const auto sync = device_.syncMissQueue();
    EXPECT_EQ(sync.synced, 2u);
    EXPECT_EQ(sync.remaining, 0u);
    EXPECT_GT(sync.time, 0);
    EXPECT_GT(sync.energy, 0.0);
    EXPECT_TRUE(device_.missQueue().empty());
    EXPECT_EQ(ctr("device.missq.synced"), 2u);
    EXPECT_TRUE(device_.pocketSearch().containsPair(p1));
    EXPECT_TRUE(device_.pocketSearch().containsPair(p2));
    const auto again =
        device_.serveQuery(p1, ServePath::PocketSearch, false);
    EXPECT_TRUE(again.cacheHit) << "synced miss serves locally next time";
}

TEST_F(DegradedServeTest, MixedFaultCountersBalanceExactly)
{
    fault::FaultConfig fc;
    fc.seed = 77;
    fc.radio.exchangeFailureRate = 0.3;
    fc.radio.latencySpikeRate = 0.25;
    fc.radio.outageShare = 0.3;
    fc.radio.meanOutageDuration = 20 * kSecond;
    fault::FaultPlan plan(fc);
    device_.attachFaults(&plan);

    for (u32 i = 0; i < 60; ++i) {
        device_.serveQuery(uncachedPair(300 + i), ServePath::PocketSearch,
                           false);
        device_.advanceTime(5 * kSecond);
    }
    device_.syncMissQueue();

    const auto &in = plan.stats();
    EXPECT_EQ(ctr("device.radio.failed"), in.exchangeFailures);
    EXPECT_EQ(ctr("device.radio.no_coverage"), in.outageAttempts);
    EXPECT_EQ(ctr("device.radio.latency_spikes"), in.latencySpikes);
    EXPECT_GT(in.exchangeFailures, 0u);
    EXPECT_GT(in.outageAttempts, 0u);
    EXPECT_GT(in.latencySpikes, 0u);
    // Every attempt is a success, a failure, or an outage probe. Each
    // query that reached the cloud succeeded once, as did each synced
    // miss.
    EXPECT_EQ(ctr("device.radio.attempts"),
              (60 - ctr("device.degraded.serves")) +
                  ctr("device.missq.synced") + ctr("device.radio.failed") +
                  ctr("device.radio.no_coverage"));
    EXPECT_EQ(ctr("device.degraded.serves"),
              ctr("device.degraded.stale") +
                  ctr("device.degraded.offline_pages"));
    EXPECT_EQ(device_.missQueue().size(),
              ctr("device.missq.queued") - ctr("device.missq.synced"));
}

TEST_F(DegradedServeTest, ZeroRatePlanChangesNothing)
{
    // Attaching a plan whose rates are all zero must leave every number
    // byte-identical to the unfaulted device.
    MobileDevice vanilla(uni_);
    warmCache(vanilla);
    fault::FaultPlan plan; // defaults: everything disabled
    device_.attachFaults(&plan);

    for (u32 i = 0; i < 10; ++i) {
        const auto pair =
            (i % 2) ? cachedPair(i) : uncachedPair(600 + i);
        const auto a =
            device_.serveQuery(pair, ServePath::PocketSearch, true);
        const auto b =
            vanilla.serveQuery(pair, ServePath::PocketSearch, true);
        ASSERT_EQ(a.cacheHit, b.cacheHit) << "query " << i;
        ASSERT_EQ(a.latency, b.latency) << "query " << i;
        ASSERT_DOUBLE_EQ(a.energy, b.energy) << "query " << i;
        ASSERT_EQ(a.attempts, b.attempts);
        ASSERT_EQ(a.degraded, b.degraded);
    }
    EXPECT_EQ(ctr("device.radio.retries"), 0u);
    EXPECT_EQ(ctr("device.degraded.serves"), 0u);
    obs::MetricRegistry injected;
    plan.publishMetrics(injected);
    for (const auto &[name, value] : injected.snapshot().counters)
        EXPECT_EQ(value, 0u) << name;
}

TEST_F(DegradedServeTest, FaultyWorkloadIsDeterministic)
{
    auto run = [this]() {
        obs::MetricRegistry reg;
        MobileDevice d(uni_);
        d.attachMetrics(&reg);
        warmCache(d);
        fault::FaultConfig fc;
        fc.seed = 31337;
        fc.radio.exchangeFailureRate = 0.25;
        fc.radio.latencySpikeRate = 0.15;
        fc.radio.outageShare = 0.2;
        fc.radio.meanOutageDuration = 30 * kSecond;
        fault::FaultPlan plan(fc);
        d.attachFaults(&plan);
        SimTime latency = 0;
        MicroJoules energy = 0;
        for (u32 i = 0; i < 50; ++i) {
            const auto out = d.serveQuery(uncachedPair(200 + i),
                                          ServePath::PocketSearch, true);
            latency += out.latency;
            energy += out.energy;
            d.advanceTime(3 * kSecond);
        }
        d.attachFaults(nullptr);
        d.syncMissQueue();
        return std::tuple(latency, energy, reg.snapshot().counters);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(std::get<0>(a), std::get<0>(b));
    EXPECT_DOUBLE_EQ(std::get<1>(a), std::get<1>(b));
    EXPECT_EQ(std::get<2>(a), std::get<2>(b));
}

} // namespace
} // namespace pc::device
