/**
 * @file
 * The two fleet workloads, both driven through harness::runFleet.
 *
 *  - fleet_serve: the small world, 250 devices x 24 months per fleet,
 *    with the month-3 outage of bench_fleet_telemetry. Serving, stream
 *    generation and the monthly telemetry windows dominate.
 *  - fleet_install: the default world (55% community share), 200
 *    devices x 1 month per fleet. Community install is nearly all of
 *    the work; serving is close to none.
 *
 * The untraced run repeats whole fleets for --seconds and reports the
 * median fleet. The traced run replays one fleet on one thread through
 * the same public calls runFleet makes for each device (create,
 * install, stream, serve, miss drain, snapshot, fold), a span around
 * each, and checks that the replay's series CSV and totals are
 * byte-equal to runFleet's.
 */

#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "harness/fleet.h"
#include "harness/workbench.h"
#include "obs/fleet.h"
#include "perfbench.h"

namespace pc::perfbench {

namespace {

using harness::FleetRunConfig;
using harness::FleetRunResult;
using harness::Workbench;
using harness::WorkbenchConfig;

/** Everything one fleet run produced that the checks compare. */
struct FleetOutput
{
    FleetRunResult run;
    std::string seriesCsv;
    double hitRate = 0;
    double latencyP50 = 0;
    double latencyP99 = 0;
};

obs::FleetCollector
makeCollector()
{
    obs::FleetConfig fc;
    fc.windowWidth = workload::kMonth;
    return obs::FleetCollector(fc);
}

FleetOutput
summarize(FleetRunResult run, const obs::FleetCollector &collector)
{
    FleetOutput o;
    o.run = std::move(run);
    std::ostringstream os;
    collector.writeSeriesCsv(os);
    o.seriesCsv = os.str();
    if (o.run.queries > 0)
        o.hitRate = double(o.run.cacheHits) / double(o.run.queries);
    if (const auto *h = collector.fleetRegistry().findHistogram(
            "device.latency_ms.pocket")) {
        o.latencyP50 = h->quantile(0.50);
        o.latencyP99 = h->quantile(0.99);
    }
    return o;
}

/** One untraced runFleet; returns its wall seconds. */
double
runOnce(const Workbench &wb, const FleetRunConfig &cfg, FleetOutput &out)
{
    auto collector = makeCollector();
    const u64 t0 = nowNs();
    FleetRunResult run = harness::runFleet(wb, cfg, collector);
    const double wall = secondsSince(t0);
    out = summarize(std::move(run), collector);
    return wall;
}

bool
sameOutput(const FleetOutput &a, const FleetOutput &b)
{
    return a.seriesCsv == b.seriesCsv && a.run.queries == b.run.queries &&
           a.run.cacheHits == b.run.cacheHits &&
           a.run.degradedServes == b.run.degradedServes &&
           a.run.devices == b.run.devices;
}

/**
 * One traced fleet on the calling thread: the per-device steps of
 * runFleet (epoch engine, no cloud, no chaos) through the same public
 * calls, folded in device-index order through one FleetCollector.
 */
FleetOutput
replayTraced(const Workbench &wb, const FleetRunConfig &cfg, SpanLog &log,
             TraceTotals &t)
{
    auto collector = makeCollector();
    FleetRunResult result;
    workload::PopulationSampler sampler(wb.population());
    const auto profiles = sampler.samplePopulation(cfg.devices);

    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const u32 id = u32(i);
        const u64 devSeed = cfg.seed * 1000003ull + u64(i) * 7919ull;
        std::unique_ptr<obs::MetricRegistry> reg;
        std::optional<device::MobileDevice> dev;
        std::optional<workload::UserStream> stream;
        std::optional<fault::FaultPlan> faults;
        {
            SpanLog::Scope s(log, Layer::DeviceCreate, id);
            reg = std::make_unique<obs::MetricRegistry>();
            dev.emplace(wb.universe(), cfg.device, core::PocketSearchConfig{});
        }
        {
            SpanLog::Scope s(log, Layer::CoreInstall, id);
            dev->installCommunityCache(wb.communityCache());
        }
        {
            SpanLog::Scope s(log, Layer::DeviceCreate, id);
            dev->attachMetrics(reg.get());
            stream.emplace(wb.universe(), profiles[i], devSeed);
            fault::FaultConfig fc = cfg.outageFaults;
            fc.seed = devSeed + 1;
            faults.emplace(fc);
        }

        std::vector<std::pair<SimTime, obs::MetricsSnapshot>> windows;
        for (u32 m = 0; m < cfg.months; ++m) {
            const bool inOutage = cfg.outageMonths > 0 &&
                                  m >= cfg.outageStartMonth &&
                                  m < cfg.outageStartMonth + cfg.outageMonths;
            dev->attachFaults(inOutage ? &*faults : nullptr);
            std::vector<workload::StreamEvent> events;
            {
                SpanLog::Scope s(log, Layer::WorkloadStream, id);
                stream->setEpoch(m);
                events = stream->month(SimTime(m) * workload::kMonth);
            }
            t.streamEvents += events.size();
            for (const auto &ev : events) {
                SpanLog::Scope s(log, Layer::DeviceServe, id);
                if (ev.time > dev->now())
                    dev->advanceTime(ev.time - dev->now());
                const auto q =
                    dev->serveQuery(ev.pair, device::ServePath::PocketSearch);
                t.serveHits += q.cacheHit;
                t.serveDegraded += q.degraded;
            }
            if (!inOutage && !dev->missQueue().empty()) {
                SpanLog::Scope s(log, Layer::DeviceMissDrain, id);
                dev->syncMissQueue();
            }
            {
                SpanLog::Scope s(log, Layer::ObsSnapshot, id);
                windows.emplace_back(SimTime(m) * workload::kMonth,
                                     reg->snapshot());
            }
        }
        dev->attachFaults(nullptr);

        {
            SpanLog::Scope s(log, Layer::ObsFold, id);
            collector.beginDevice(harness::userClassKey(profiles[i].cls));
            for (const auto &[start, snap] : windows)
                collector.collect(start, snap);
            collector.endDevice(*reg);
            const auto snap = reg->snapshot();
            result.queries += snap.counterValue("device.queries");
            result.cacheHits += snap.counterValue("device.cache_hits");
            result.degradedServes +=
                snap.counterValue("device.degraded.serves");
            ++result.devices;
            windows.clear();
        }
        {
            // Teardown belongs to the device's life cycle too.
            SpanLog::Scope s(log, Layer::DeviceCreate, id);
            dev.reset();
            stream.reset();
            faults.reset();
            reg.reset();
        }
    }
    return summarize(std::move(result), collector);
}

/** Untraced: repeat whole fleets for --seconds, report median rates. */
void
timedFleets(const Workbench &wb, const FleetRunConfig &cfg,
            const RunArgs &args, RunResult &out)
{
    std::vector<double> deviceMonths;
    std::vector<double> queries;
    std::optional<FleetOutput> ref;
    const u64 start = nowNs();
    do {
        FleetOutput o;
        const double wall = runOnce(wb, cfg, o);
        std::cerr << "perfbench: fleet " << deviceMonths.size() << ": "
                  << wall << " s\n";
        out.attempted += cfg.devices;
        if (!o.run.error.empty()) {
            out.failed += cfg.devices;
            out.fail("runFleet refused: " + o.run.error);
            break;
        }
        if (!ref)
            ref = std::move(o);
        else if (!sameOutput(*ref, o))
            out.fail("repeated fleet is not byte-identical");
        deviceMonths.push_back(double(cfg.devices) * cfg.months / wall);
        queries.push_back(double(ref->run.queries) / wall);
    } while (secondsSince(start) < args.seconds);
    if (ref && ref->run.queries == 0)
        out.fail("fleet served no queries");

    out.metric("device_months_per_s", median(deviceMonths), "1/s");
    out.metric("queries_per_s", median(queries), "1/s");
    out.metric("peak_rss_mb", peakRssMb(), "MiB");
}

/** Traced: one untraced fleet for reference, then the traced replay. */
void
tracedFleet(const Workbench &wb, const FleetRunConfig &cfg,
            const RunArgs &args, RunResult &out)
{
    FleetOutput ref;
    TraceTotals t;
    t.untracedWallS = runOnce(wb, cfg, ref);
    out.attempted += cfg.devices;
    if (!ref.run.error.empty()) {
        out.failed += cfg.devices;
        out.fail("runFleet refused: " + ref.run.error);
    }

    SpanLog log(std::size_t(ref.run.queries) + 16 * cfg.devices * cfg.months);
    const u64 t0 = nowNs();
    const FleetOutput traced = replayTraced(wb, cfg, log, t);
    t.tracedWallS = secondsSince(t0);
    out.attempted += cfg.devices;
    if (traced.seriesCsv != ref.seriesCsv)
        out.fail("traced replay series CSV differs from runFleet's");
    if (!sameOutput(traced, ref))
        out.fail("traced replay totals differ from runFleet's");

    t.installPairs = wb.communityCache().pairs.size();
    t.simHitRate = ref.hitRate;
    t.simLatencyP50 = ref.latencyP50;
    t.simLatencyP99 = ref.latencyP99;
    emitLayerMetrics(log, t, args.workers, out);
    dumpSpans(log, args);
}

void
runFleetWorkload(const WorkbenchConfig &world, const FleetRunConfig &cfg,
                 const RunArgs &args, RunResult &out)
{
    std::vector<double> setupS;
    const auto wb = buildRepeated<Workbench>(
        args.trace ? 1 : kSetups,
        [&] { return std::make_unique<Workbench>(world); }, setupS);
    if (args.trace) {
        tracedFleet(*wb, cfg, args, out);
    } else {
        out.metric("setup_s", median(setupS), "s");
        timedFleets(*wb, cfg, args, out);
    }
}

} // namespace

void
runFleetServe(const RunArgs &args, RunResult &out)
{
    WorkbenchConfig world = harness::smallWorkbenchConfig();
    world.seed = 2011 + args.seed;
    FleetRunConfig cfg;
    cfg.devices = 250;
    cfg.months = 24;
    cfg.seed = 2011 + args.seed;
    cfg.outageStartMonth = 3;
    cfg.outageMonths = 1;
    cfg.threads = args.workers;
    runFleetWorkload(world, cfg, args, out);
}

void
runFleetInstall(const RunArgs &args, RunResult &out)
{
    WorkbenchConfig world; // The default world, 55% community share.
    world.seed = 2011 + args.seed;
    FleetRunConfig cfg;
    cfg.devices = 200;
    cfg.months = 1;
    cfg.seed = 2011 + args.seed;
    cfg.threads = args.workers;
    runFleetWorkload(world, cfg, args, out);
}

} // namespace pc::perfbench
