/**
 * @file
 * The cloud_update workload: the cloud update service mines community
 * months into model versions while a cohort of CommunityOnly devices
 * syncs to each version and serves that month's queries.
 *
 * Set-up builds the default world and generates the community months
 * up front. One pass then runs, for each version: ingest the month
 * (sharded build), sync every cohort device with syncDevice (a full
 * install on first contact, deltas after) and serve the month's
 * stream. Each sync runs on a fault-free link, so it must end ok and
 * leave the device table equal to the server's latest contents
 * (deviceTableDigest == contentsDigest); either failure counts.
 *
 * The untraced run repeats the pass for --seconds and reports the
 * median. The traced run times each call into a layer, rebuilds every
 * month with the sequential reference (TripletTable::fromLog +
 * CacheContentBuilder) to check the ingest byte for byte and to give
 * server.ingest.vs_seq, and times the delta of each sync on its own
 * so the sync spans hold only the device's download and apply.
 */

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "core/cache_content.h"
#include "harness/fleet.h"
#include "harness/workbench.h"
#include "perfbench.h"
#include "server/service.h"

namespace pc::perfbench {

namespace {

using harness::Workbench;

constexpr u32 kVersions = 3;     ///< Model versions per pass.
constexpr std::size_t kCohort = 8; ///< Devices syncing to each version.

/**
 * The default world plus the community months the service ingests:
 * version 1 is mined from the workbench's build month, later versions
 * from the months generated after it.
 */
struct CloudWorld
{
    std::unique_ptr<Workbench> wb;
    std::vector<workload::SearchLog> later;

    const workload::SearchLog &
    month(u32 version) const
    {
        return version == 1 ? wb->buildLog() : later[version - 2];
    }
};

std::unique_ptr<CloudWorld>
buildCloudWorld(u64 seed)
{
    harness::WorkbenchConfig cfg;
    cfg.seed = 2011 + seed;
    auto w = std::make_unique<CloudWorld>();
    w->wb = std::make_unique<Workbench>(cfg);
    for (u32 v = 2; v <= kVersions; ++v)
        w->later.push_back(w->wb->nextCommunityMonth());
    return w;
}

/** One cohort device and its private world. */
struct Member
{
    std::unique_ptr<obs::MetricRegistry> reg;
    std::optional<device::MobileDevice> dev;
    std::optional<workload::UserStream> stream;
};

/** What one pass produced that the checks and metrics use. */
struct PassOutput
{
    double timedS = 0;       ///< Host seconds of the workload's own work.
    u64 queries = 0;
    std::string registryJson; ///< Merged cohort registry snapshot.
    std::vector<std::string> models; ///< encode() of each version.
    double hitRate = 0;
    double latencyP50 = 0;
    double latencyP99 = 0;
};

/**
 * One pass over kVersions versions. With `log` set, every call into a
 * layer gets a span and the traced-only probes (reference builds,
 * standalone deltas) fill `t`; their time is kept out of timedS.
 */
PassOutput
runPass(const CloudWorld &w, const RunArgs &args, RunResult &out,
        SpanLog *log, TraceTotals *t)
{
    const auto &universe = w.wb->universe();
    PassOutput p;
    u64 probeNs = 0;
    const u64 start = nowNs();
    const auto span = [&](Layer l, u32 owner, u64 t0) {
        if (log)
            log->add(l, owner, t0, nowNs() - t0);
    };

    server::ServiceConfig scfg;
    scfg.build.threads = args.workers;
    server::CloudUpdateService svc(universe, scfg);

    workload::PopulationSampler sampler(w.wb->population());
    const auto profiles = sampler.samplePopulation(kCohort);
    std::vector<Member> cohort(kCohort);
    for (std::size_t i = 0; i < kCohort; ++i) {
        const u64 t0 = nowNs();
        Member &m = cohort[i];
        m.reg = std::make_unique<obs::MetricRegistry>();
        core::PocketSearchConfig ps;
        ps.mode = core::CacheMode::CommunityOnly;
        m.dev.emplace(universe, device::DeviceConfig{}, ps);
        m.dev->attachMetrics(m.reg.get());
        m.stream.emplace(universe, profiles[i],
                         (2011 + args.seed) * 1000003ull + i * 7919ull);
        span(Layer::DeviceCreate, u32(i), t0);
    }

    for (u32 v = 1; v <= kVersions; ++v) {
        const auto &month = w.month(v);
        u64 t0 = nowNs();
        const auto &model = svc.ingest(month);
        span(Layer::ServerIngest, v, t0);
        ++out.attempted;

        const u64 probe0 = nowNs();
        p.models.push_back(model.encode());
        if (t) {
            t->ingestRecords += month.size();
            const u64 s0 = nowNs();
            server::CommunityModel ref;
            ref.version = v;
            ref.table = logs::TripletTable::fromLog(month);
            ref.contents = core::CacheContentBuilder(universe).build(
                ref.table, scfg.policy);
            t->seqBuildNs += nowNs() - s0;
            if (ref.encode() != p.models.back()) {
                ++out.failed;
                out.fail("ingest of version " + std::to_string(v) +
                         " differs from the sequential build");
            }
        }
        const u32 want = harness::contentsDigest(model.contents, universe);
        probeNs += nowNs() - probe0;

        for (std::size_t i = 0; i < kCohort; ++i) {
            Member &m = cohort[i];
            const u64 from = m.dev->communityVersion();
            u64 deltaStart = 0;
            u64 deltaNs = 0;
            if (t) {
                const u64 d0 = deltaStart = nowNs();
                const auto delta = svc.tryMakeDelta(from, 0);
                deltaNs = nowNs() - d0;
                if (delta) {
                    t->deltaOps += delta->ops();
                    t->deltaWireBytes += core::deltaWireBytes(*delta, universe);
                }
                probeNs += nowNs() - d0;
            }
            t0 = nowNs();
            const auto res = svc.syncDevice(*m.dev);
            if (log) {
                const u64 dur = nowNs() - t0;
                log->add(Layer::ServerDelta, u32(i), deltaStart, deltaNs);
                log->add(from == 0 ? Layer::DeviceSyncFull
                                   : Layer::DeviceSyncDelta,
                         u32(i), t0 + deltaNs, dur - std::min(dur, deltaNs));
            }
            ++out.attempted;

            const u64 c0 = nowNs();
            if (!res.ok) {
                ++out.failed;
                out.fail("sync to version " + std::to_string(v) +
                         " failed on a fault-free link");
            } else if (m.dev->communityVersion() != v ||
                       harness::deviceTableDigest(m.dev->pocketSearch()) !=
                           want) {
                ++out.failed;
                out.fail("synced device table differs from version " +
                         std::to_string(v));
            }
            probeNs += nowNs() - c0;

            t0 = nowNs();
            m.stream->setEpoch(v);
            const auto events = m.stream->month(SimTime(v) * workload::kMonth);
            span(Layer::WorkloadStream, u32(i), t0);
            if (t)
                t->streamEvents += events.size();
            for (const auto &ev : events) {
                t0 = nowNs();
                if (ev.time > m.dev->now())
                    m.dev->advanceTime(ev.time - m.dev->now());
                const auto q = m.dev->serveQuery(
                    ev.pair, device::ServePath::PocketSearch);
                span(Layer::DeviceServe, u32(i), t0);
                if (t) {
                    t->serveHits += q.cacheHit;
                    t->serveDegraded += q.degraded;
                }
            }
        }
    }

    obs::MetricRegistry merged;
    for (std::size_t i = 0; i < kCohort; ++i) {
        const u64 t0 = nowNs();
        merged.mergeFrom(*cohort[i].reg);
        span(Layer::ObsFold, u32(i), t0);
    }
    p.timedS = double(nowNs() - start - probeNs) / 1e9;

    const auto snap = merged.snapshot();
    std::ostringstream os;
    snap.writeJson(os);
    p.registryJson = os.str();
    p.queries = snap.counterValue("device.queries");
    if (p.queries > 0)
        p.hitRate =
            double(snap.counterValue("device.cache_hits")) / double(p.queries);
    if (const auto *h = merged.findHistogram("device.latency_ms.pocket")) {
        p.latencyP50 = h->quantile(0.50);
        p.latencyP99 = h->quantile(0.99);
    }
    if (p.queries == 0)
        out.fail("cohort served no queries");
    return p;
}

bool
samePass(const PassOutput &a, const PassOutput &b)
{
    return a.registryJson == b.registryJson && a.models == b.models;
}

} // namespace

void
runCloudUpdate(const RunArgs &args, RunResult &out)
{
    std::vector<double> setupS;
    const auto world = buildRepeated<CloudWorld>(
        args.trace ? 1 : kSetups, [&] { return buildCloudWorld(args.seed); },
        setupS);

    if (args.trace) {
        const PassOutput ref = runPass(*world, args, out, nullptr, nullptr);
        SpanLog log(std::size_t(ref.queries) + 64 * kCohort * kVersions);
        TraceTotals t;
        const PassOutput traced = runPass(*world, args, out, &log, &t);
        t.tracedWallS = traced.timedS;
        t.untracedWallS = ref.timedS;
        if (!samePass(ref, traced))
            out.fail("traced pass differs from the untraced pass");
        t.simHitRate = ref.hitRate;
        t.simLatencyP50 = ref.latencyP50;
        t.simLatencyP99 = ref.latencyP99;
        emitLayerMetrics(log, t, args.workers, out);
        dumpSpans(log, args);
        return;
    }

    out.metric("setup_s", median(setupS), "s");
    std::vector<double> deviceMonths;
    std::vector<double> queries;
    std::optional<PassOutput> ref;
    const u64 start = nowNs();
    do {
        PassOutput p = runPass(*world, args, out, nullptr, nullptr);
        std::cerr << "perfbench: pass " << deviceMonths.size() << ": "
                  << p.timedS << " s\n";
        deviceMonths.push_back(double(kCohort * kVersions) / p.timedS);
        queries.push_back(double(p.queries) / p.timedS);
        if (!ref)
            ref = std::move(p);
        else if (!samePass(*ref, p))
            out.fail("repeated pass is not byte-identical");
    } while (secondsSince(start) < args.seconds);

    out.metric("device_months_per_s", median(deviceMonths), "1/s");
    out.metric("queries_per_s", median(queries), "1/s");
    out.metric("peak_rss_mb", peakRssMb(), "MiB");
}

} // namespace pc::perfbench
