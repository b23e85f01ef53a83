/**
 * @file
 * Causal sync tracing: deterministic trace identity, the flight
 * recorder ring, critical-path explanation, JSON round-trips, and the
 * cross-tier chain a real device<->cloud sync records — including the
 * cost contract (attaching a recorder changes no behaviour and draws
 * no RNG).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "fault/fault_plan.h"
#include "harness/postmortem.h"
#include "harness/workbench.h"
#include "obs/causal.h"
#include "obs/jsonparse.h"
#include "server/service.h"

namespace pc::obs {
namespace {

TEST(DeriveTraceId, DeterministicDistinctNonZero)
{
    EXPECT_EQ(deriveTraceId(3, 7), deriveTraceId(3, 7));
    EXPECT_NE(deriveTraceId(3, 7), deriveTraceId(3, 8));
    EXPECT_NE(deriveTraceId(3, 7), deriveTraceId(4, 7));
    for (u64 dev = 0; dev < 50; ++dev)
        for (u64 seq = 0; seq < 20; ++seq)
            EXPECT_NE(deriveTraceId(dev, seq), 0u);
}

TEST(TraceContext, SpanSequenceAndValidity)
{
    TraceContext ctx;
    EXPECT_FALSE(ctx.valid());
    ctx.traceId = deriveTraceId(1, 0);
    EXPECT_TRUE(ctx.valid());
    EXPECT_EQ(ctx.newSpan(), 1u);
    EXPECT_EQ(ctx.newSpan(), 2u);
    EXPECT_EQ(ctx.newSpan(), 3u);
}

TEST(FlightRecorder, BeginTraceAdvancesDeterministically)
{
    FlightRecorder a(42), b(42);
    const TraceContext a0 = a.beginTrace();
    const TraceContext a1 = a.beginTrace();
    EXPECT_NE(a0.traceId, a1.traceId);
    EXPECT_EQ(a0.traceId, b.beginTrace().traceId);
    EXPECT_EQ(a1.traceId, b.beginTrace().traceId);
    EXPECT_EQ(a.lastTraceId(), a1.traceId);
}

TEST(FlightRecorder, RingOverwritesOldestAndCountsDrops)
{
    FlightRecorder rec(7, /*capacity=*/4);
    EXPECT_EQ(rec.capacity(), 4u);
    for (u32 i = 0; i < 10; ++i) {
        SyncEvent ev;
        ev.traceId = deriveTraceId(7, 0);
        ev.span = i + 1;
        ev.attempt = i;
        rec.record(ev);
    }
    EXPECT_EQ(rec.recorded(), 10u);
    EXPECT_EQ(rec.dropped(), 6u);
    EXPECT_EQ(rec.size(), 4u);
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first: the survivors are attempts 6..9.
    for (u32 i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].attempt, 6u + i);
}

TEST(FlightRecorder, TraceFiltersOneTrace)
{
    FlightRecorder rec(9);
    const TraceContext t0 = rec.beginTrace();
    const TraceContext t1 = rec.beginTrace();
    for (int i = 0; i < 3; ++i) {
        SyncEvent ev;
        ev.traceId = i == 1 ? t1.traceId : t0.traceId;
        ev.attempt = u32(i);
        rec.record(ev);
    }
    EXPECT_EQ(rec.trace(t0.traceId).size(), 2u);
    EXPECT_EQ(rec.trace(t1.traceId).size(), 1u);
    EXPECT_TRUE(rec.trace(12345).empty());
}

TEST(FlightRecorder, PublishMetricsExposesRingPressure)
{
    FlightRecorder rec(1, /*capacity=*/2);
    for (int i = 0; i < 5; ++i)
        rec.record(SyncEvent{});
    MetricRegistry reg;
    rec.publishMetrics(reg);
    EXPECT_EQ(reg.counter("obs.flight.recorded").value(), 5u);
    EXPECT_EQ(reg.counter("obs.flight.dropped").value(), 3u);
}

TEST(ExplainSync, DeviceDurationsPartitionTheCriticalPath)
{
    std::vector<SyncEvent> events;
    const u64 trace = deriveTraceId(5, 0);
    auto add = [&](SyncTier tier, SyncStage stage, SimTime dur) {
        SyncEvent ev;
        ev.traceId = trace;
        ev.span = u32(events.size() + 1);
        ev.tier = tier;
        ev.stage = stage;
        ev.duration = dur;
        events.push_back(ev);
    };
    add(SyncTier::Device, SyncStage::SyncRequest, 0);
    add(SyncTier::Server, SyncStage::VersionLookup, 0);
    add(SyncTier::Device, SyncStage::FrameDelivery, 750);
    add(SyncTier::Device, SyncStage::Backoff, 250);
    add(SyncTier::Device, SyncStage::Commit, 1000);

    const SyncExplain ex = explainSync(events);
    EXPECT_EQ(ex.traceId, trace);
    EXPECT_EQ(ex.criticalPath, 2000);
    ASSERT_EQ(ex.rows.size(), events.size());
    EXPECT_DOUBLE_EQ(ex.rows[2].share, 0.375);
    EXPECT_DOUBLE_EQ(ex.rows[3].share, 0.125);
    EXPECT_DOUBLE_EQ(ex.rows[4].share, 0.5);
    EXPECT_DOUBLE_EQ(ex.rows[1].share, 0.0); // server marker
}

TEST(ExplainSync, DefaultsToTheLastTrace)
{
    std::vector<SyncEvent> events;
    for (u64 t = 1; t <= 3; ++t) {
        SyncEvent ev;
        ev.traceId = deriveTraceId(1, t);
        ev.tier = SyncTier::Device;
        ev.duration = SimTime(t * 10);
        events.push_back(ev);
    }
    const SyncExplain ex = explainSync(events);
    EXPECT_EQ(ex.traceId, deriveTraceId(1, 3));
    EXPECT_EQ(ex.criticalPath, 30);
}

TEST(SyncEventJson, RoundTripsThroughTheObsParser)
{
    std::vector<SyncEvent> events;
    SyncEvent ev;
    // Force a trace id well above 2^53: doubles cannot hold it, the
    // hex-string encoding must.
    ev.traceId = 0xfedcba9876543210ull;
    ev.span = 3;
    ev.parent = 1;
    ev.tier = SyncTier::Server;
    ev.stage = SyncStage::DeltaBuild;
    ev.ok = false;
    ev.attempt = 2;
    ev.fromVersion = 4;
    ev.toVersion = 9;
    ev.bytes = 123456;
    ev.detail = 77;
    ev.start = 1000000;
    ev.duration = 250;
    events.push_back(ev);
    events.push_back(SyncEvent{});
    events[1].traceId = deriveTraceId(0, 0);

    std::ostringstream os;
    {
        JsonWriter w(os, /*pretty=*/true);
        writeSyncEvents(w, events);
    }
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(os.str(), doc, &err)) << err;

    std::vector<SyncEvent> back;
    ASSERT_TRUE(readSyncEvents(doc, back));
    ASSERT_EQ(back.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(back[i].traceId, events[i].traceId);
        EXPECT_EQ(back[i].span, events[i].span);
        EXPECT_EQ(back[i].parent, events[i].parent);
        EXPECT_EQ(back[i].tier, events[i].tier);
        EXPECT_EQ(back[i].stage, events[i].stage);
        EXPECT_EQ(back[i].ok, events[i].ok);
        EXPECT_EQ(back[i].attempt, events[i].attempt);
        EXPECT_EQ(back[i].fromVersion, events[i].fromVersion);
        EXPECT_EQ(back[i].toVersion, events[i].toVersion);
        EXPECT_EQ(back[i].bytes, events[i].bytes);
        EXPECT_EQ(back[i].detail, events[i].detail);
        EXPECT_EQ(back[i].start, events[i].start);
        EXPECT_EQ(back[i].duration, events[i].duration);
    }
}

TEST(SyncStageNames, RoundTrip)
{
    for (u8 s = 0; s <= u8(SyncStage::SloBreach); ++s) {
        SyncStage stage = SyncStage(s);
        SyncStage back;
        ASSERT_TRUE(syncStageFromName(syncStageName(stage), back));
        EXPECT_EQ(back, stage);
    }
    SyncStage ignored;
    EXPECT_FALSE(syncStageFromName("not_a_stage", ignored));
}

TEST(PostmortemJson, RoundTrips)
{
    harness::InvariantReport r;
    r.device = 11;
    r.kind = harness::InvariantKind::DigestMismatch;
    r.sabotaged = true;
    r.deviceVersion = 3;
    r.serverVersion = 3;
    r.deviceDigest = 0xdeadbeef;
    r.serverDigest = 0xcafef00d;
    r.corruptCaught = 2;
    r.corruptInjected = 2;
    SyncEvent ev;
    ev.traceId = deriveTraceId(11, 4);
    ev.stage = SyncStage::Sabotage;
    ev.ok = false;
    r.chain.push_back(ev);

    std::ostringstream os;
    {
        JsonWriter w(os, /*pretty=*/true);
        harness::writePostmortem(w, {r});
    }
    JsonValue doc;
    ASSERT_TRUE(parseJson(os.str(), doc));
    std::vector<harness::InvariantReport> back;
    ASSERT_TRUE(harness::readPostmortem(doc, back));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].device, r.device);
    EXPECT_EQ(back[0].kind, r.kind);
    EXPECT_TRUE(back[0].sabotaged);
    EXPECT_EQ(back[0].deviceDigest, r.deviceDigest);
    EXPECT_EQ(back[0].serverDigest, r.serverDigest);
    ASSERT_EQ(back[0].chain.size(), 1u);
    EXPECT_EQ(back[0].chain[0].traceId, ev.traceId);
    EXPECT_EQ(back[0].chain[0].stage, SyncStage::Sabotage);
}

// ---------------------------------------------------------------------
// Cross-tier integration: one real device<->cloud sync.

harness::Workbench &
sharedWorkbench()
{
    static harness::Workbench wb(harness::smallWorkbenchConfig());
    return wb;
}

TEST(CrossTierChain, OneSyncSpansBothTiersAndTilesItsLatency)
{
    harness::Workbench &wb = sharedWorkbench();
    server::ServiceConfig scfg;
    scfg.build.shards = 4;
    scfg.build.threads = 2;
    server::CloudUpdateService svc(wb.universe(), scfg);
    svc.ingest(wb.buildLog());

    device::MobileDevice dev(wb.universe());
    FlightRecorder rec(0);
    dev.attachFlightRecorder(&rec);
    const auto res = svc.syncDevice(dev);
    dev.attachFlightRecorder(nullptr);
    ASSERT_TRUE(res.ok);

    const auto chain = rec.events();
    ASSERT_FALSE(chain.empty());
    EXPECT_EQ(chain.front().stage, SyncStage::SyncRequest);
    EXPECT_EQ(chain.front().tier, SyncTier::Device);
    EXPECT_EQ(chain.back().stage, SyncStage::Commit);
    bool sawServer = false;
    SimTime deviceTime = 0;
    const u64 trace = chain.front().traceId;
    u32 lastSpan = 0;
    for (const auto &ev : chain) {
        EXPECT_EQ(ev.traceId, trace) << "one sync = one trace";
        EXPECT_GT(ev.span, lastSpan) << "spans are a causal sequence";
        lastSpan = ev.span;
        sawServer = sawServer || ev.tier == SyncTier::Server;
        if (ev.tier == SyncTier::Device)
            deviceTime += ev.duration;
    }
    EXPECT_TRUE(sawServer) << "the chain must include server stages";
    // The invariant the whole explain feature rests on: device-tier
    // durations tile the sync's reported latency exactly.
    EXPECT_EQ(deviceTime, res.time + res.backoffTime);

    const SyncExplain ex = explainSync(chain);
    EXPECT_EQ(ex.traceId, trace);
    EXPECT_EQ(ex.criticalPath, res.time + res.backoffTime);
}

TEST(CrossTierChain, AttachingARecorderChangesNothing)
{
    harness::Workbench &wb = sharedWorkbench();
    server::ServiceConfig scfg;
    scfg.build.shards = 4;
    scfg.build.threads = 2;

    auto runOnce = [&](bool attach, device::MobileDevice::
                                        CommunitySyncResult &res,
                       u64 &draws) {
        server::CloudUpdateService svc(wb.universe(), scfg);
        svc.ingest(wb.buildLog());
        device::MobileDevice dev(wb.universe());
        fault::FaultConfig fc;
        fc.seed = 99;
        fc.radio.exchangeFailureRate = 0.4;
        fc.radio.payloadCorruptRate = 0.3;
        fault::FaultPlan plan(fc);
        dev.attachFaults(&plan);
        FlightRecorder rec(0);
        if (attach)
            dev.attachFlightRecorder(&rec);
        res = svc.syncDevice(dev);
        draws = plan.rngDraws();
        dev.attachFaults(nullptr);
        dev.attachFlightRecorder(nullptr);
    };

    device::MobileDevice::CommunitySyncResult off, on;
    u64 offDraws = 0, onDraws = 0;
    runOnce(false, off, offDraws);
    runOnce(true, on, onDraws);

    EXPECT_EQ(onDraws, offDraws) << "recording must not draw RNG";
    EXPECT_EQ(on.ok, off.ok);
    EXPECT_EQ(on.attempts, off.attempts);
    EXPECT_EQ(on.deltaBytes, off.deltaBytes);
    EXPECT_EQ(on.time, off.time);
    EXPECT_EQ(on.backoffTime, off.backoffTime);
    EXPECT_EQ(on.corruptRejected, off.corruptRejected);
}

} // namespace
} // namespace pc::obs
