#include "harness/fleet.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <cmath>

#include "core/community_image.h"
#include "core/table_codec.h"
#include "harness/event_core.h"
#include "server/work_queue.h"
#include "util/crc32.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"

namespace pc::harness {

std::string
userClassKey(workload::UserClass cls)
{
    switch (cls) {
      case workload::UserClass::Low: return "low";
      case workload::UserClass::Medium: return "medium";
      case workload::UserClass::High: return "high";
      case workload::UserClass::Extreme: return "extreme";
    }
    return "unknown";
}

fault::FaultConfig
defaultOutageFaults()
{
    fault::FaultConfig f;
    f.radio.outageShare = 0.45;
    f.radio.meanOutageDuration = 10ll * 60 * kSecond;
    f.radio.exchangeFailureRate = 0.05;
    f.radio.latencySpikeRate = 0.10;
    return f;
}

namespace {

/** CRC-32 over wire pairs in canonical (query fnv, url hash) order. */
u32
digestWirePairs(std::vector<core::WirePair> pairs)
{
    std::sort(pairs.begin(), pairs.end(),
              [](const core::WirePair &a, const core::WirePair &b) {
                  if (a.queryFnv != b.queryFnv)
                      return a.queryFnv < b.queryFnv;
                  return a.urlHash < b.urlHash;
              });
    u32 crc = 0;
    for (const auto &w : pairs) {
        char buf[8 + 8 + 8 + 1];
        std::memcpy(buf, &w.queryFnv, 8);
        std::memcpy(buf + 8, &w.urlHash, 8);
        std::memcpy(buf + 16, &w.score, 8);
        buf[24] = w.accessed ? 1 : 0;
        crc = crc32(std::string_view(buf, sizeof(buf)), crc);
    }
    return crc;
}

} // namespace

u32
contentsDigest(const core::CacheContents &contents,
               const workload::QueryUniverse &universe)
{
    std::vector<core::WirePair> pairs;
    pairs.reserve(contents.pairs.size());
    for (const auto &sp : contents.pairs) {
        core::WirePair w;
        w.queryFnv = fnv1a(universe.query(sp.pair.query).text);
        w.urlHash = urlHash(universe.result(sp.pair.result).url);
        w.score = sp.score;
        w.accessed = false;
        pairs.push_back(w);
    }
    return digestWirePairs(std::move(pairs));
}

u32
deviceTableDigest(const core::PocketSearch &ps)
{
    const auto decoded = core::decodeTable(core::encodeTable(ps.table()));
    pc_assert(decoded.has_value(), "device table failed to round-trip");
    return digestWirePairs(*decoded);
}

std::string
validateFleetRunConfig(const FleetRunConfig &cfg)
{
    if (cfg.chaos.enabled && cfg.cloud == nullptr)
        return "chaos needs a cloud service attached";
    const FlashCrowdConfig &fc = cfg.flashCrowd;
    if (fc.enabled) {
        if (cfg.chaos.enabled)
            return "flash crowd and chaos cannot combine (chaos "
                   "invariants assume the epoch-granular schedule)";
        if (cfg.outageMonths > 0)
            return "flash crowd replaces the epoch outage episode "
                   "(use flashCrowd.outageStart/outageLen)";
        if (!std::isfinite(fc.arrivalsPerHour) || fc.arrivalsPerHour < 0)
            return "flash crowd arrivalsPerHour must be finite and >= 0";
        if (!std::isfinite(fc.burstMultiplier) || fc.burstMultiplier < 0)
            return "flash crowd burstMultiplier must be finite and >= 0";
        if (fc.burstStart < 0 || fc.burstLen < 0 || fc.outageStart < 0 ||
            fc.outageLen < 0 || fc.reconnectStagger < 0 || fc.window < 0)
            return "flash crowd times must be non-negative";
    }
    return "";
}

namespace {

/**
 * Everything one simulated device hands to the in-order fold: the
 * window-boundary snapshots the collector diffs, the final registry
 * it merges, and the deferred accounting of any cloud syncs. Move-only
 * (the registry), which the WorkQueue supports.
 */
struct DeviceTelemetry
{
    std::size_t index = 0;
    std::string classKey;
    std::vector<std::pair<SimTime, obs::MetricsSnapshot>> windows;
    std::unique_ptr<obs::MetricRegistry> registry;
    /** One entry per attempted monthly sync, month order. */
    std::vector<server::CloudUpdateService::SyncAccounting> syncs;

    // Chaos-run evidence for the invariant checker (zero cost when
    // chaos is off: digest never computed, flags stay default).
    u64 finalVersion = 0;     ///< Community version after the run.
    bool anySyncOk = false;   ///< At least one sync applied.
    bool monotone = true;     ///< Version never moved backwards.
    u32 tableDigest = 0;      ///< Canonical table digest (chaos only).
    u64 corruptRejected = 0;  ///< Frames the device's CRC check caught.
    u64 rejectedDeltas = 0;   ///< Deltas validation rejected.
    u64 injectedCorruptions = 0; ///< Flips the fault plans injected.
    u64 shedSyncs = 0;        ///< Syncs shed by the admission rule.
    u64 reconnectDrains = 0;  ///< Flash-crowd reconnect miss drains.
    bool sabotaged = false;   ///< Chaos silently corrupted this table.
    /** Flight-recorder window (chaos only), for postmortems. */
    std::vector<obs::SyncEvent> events;
};

/**
 * The cache config every device of a run gets. Chaos runs pin the
 * cache to CommunityOnly so a synced device table is byte-comparable
 * to the server model (the invariant the fold checks); chaos off
 * leaves the config untouched.
 */
core::PocketSearchConfig
devicePsConfig(const FleetRunConfig &cfg)
{
    core::PocketSearchConfig psCfg;
    if (cfg.chaos.enabled)
        psCfg.mode = core::CacheMode::CommunityOnly;
    return psCfg;
}

/**
 * One device's private simulation world plus the steps the two
 * drivers run it with. The epoch loop (simulateDevice) calls
 * beginMonth / serve-per-event / endMonth directly; driveFlashCrowd
 * schedules beginMonth, serve and its outage and window steps as
 * continuations in an EventCore.
 */
class DeviceSim
{
  public:
    /**
     * @param image The run's community push, prebuilt; set exactly
     *        when the run has no cloud service.
     */
    DeviceSim(const Workbench &wb, const FleetRunConfig &cfg,
              std::size_t i, const workload::UserProfile &profile,
              const core::CommunityImage *image)
        : cfg_(cfg), i_(i), chaos_(cfg.chaos.enabled),
          devSeed_(cfg.seed * 1000003ull + u64(i) * 7919ull)
    {
        out_.index = i;
        out_.classKey = userClassKey(profile.cls);
        out_.registry = std::make_unique<obs::MetricRegistry>();

        dev_.emplace(wb.universe(), cfg.device, devicePsConfig(cfg));
        if (image)
            image->installInto(dev_->pocketSearch());
        dev_->attachMetrics(out_.registry.get());

        // Chaos attaches the flight recorder: every sync leaves a
        // causal event chain (both tiers), so an invariant trip comes
        // back as an explained postmortem instead of a bare count. The
        // recorder is private to this worker — recording stays
        // deterministic and thread-free.
        if (chaos_) {
            recorder_.emplace(u64(i)); // kDefaultCapacity ring
            dev_->attachFlightRecorder(&*recorder_);
        }

        // Health ledgers are plain registry counters, so they ride the
        // same snapshots and device-index-ordered fold as every other
        // metric — no extra plumbing keeps them deterministic.
        if (cfg.health) {
            health_.emplace(*out_.registry);
            dev_->attachHealth(&*health_);
        }

        // Version-skew cohort: every skewEvery-th device claims a
        // model version it never installed, alternating between an
        // in-window lie (forces transactional rejection, then
        // escalation) and an off-window lie (forces an immediate full
        // install).
        if (chaos_ && cfg.chaos.skewEvery != 0 && cfg.cloud &&
            i % cfg.chaos.skewEvery == 0) {
            const u64 oldest = cfg.cloud->oldestVersion();
            if (oldest > 0) {
                const u64 claim = ((i / cfg.chaos.skewEvery) % 2 == 0)
                                      ? oldest
                                      : (oldest > 1 ? oldest - 1 : oldest);
                dev_->setCommunityVersion(claim);
                lastVersion_ = claim;
            }
        }

        // Per-device derived seeds: device index decorrelates streams
        // and fault schedules, the run seed shifts the whole fleet.
        stream_.emplace(wb.universe(), profile, devSeed_);
        fault::FaultConfig faultCfg = cfg.outageFaults;
        faultCfg.seed = devSeed_ + 1;
        faults_.emplace(faultCfg);

        // Chaos fault plans replace the outage-episode plan for the
        // whole run: stormPlan kills the radio outright, chaosPlan
        // flips payload bits at the configured rate. Only built under
        // chaos, so a disabled ChaosConfig draws nothing and changes
        // no bytes.
        if (chaos_) {
            fault::FaultConfig storm;
            storm.seed = devSeed_ + 2;
            storm.radio.exchangeFailureRate = 1.0;
            stormPlan_.emplace(storm);
            fault::FaultConfig flips;
            flips.seed = devSeed_ + 3;
            flips.radio.payloadCorruptRate = cfg.chaos.payloadCorruptRate;
            chaosPlan_.emplace(flips);
        }

        // Flash-crowd outage plan: radio dead between the OutageStart
        // event and the device's staggered Reconnect event.
        if (cfg.flashCrowd.enabled && cfg.flashCrowd.outageLen > 0) {
            fault::FaultConfig dead;
            dead.seed = devSeed_ + 5;
            dead.radio.exchangeFailureRate = 1.0;
            flashOutagePlan_.emplace(dead);
        }
    }

    /**
     * Month prologue: fault-plan attachment for the epoch-granular
     * schedule (the flash-crowd driver owns fault attachment through
     * its outage events instead) and the monthly cloud sync.
     */
    void
    beginMonth(u32 m)
    {
        // m - start, not start + len: the sum wraps in u32 for
        // episodes that run to the end of any horizon.
        const bool inOutage = m >= cfg_.outageStartMonth &&
                              m - cfg_.outageStartMonth < cfg_.outageMonths;
        const bool inStorm =
            chaos_ && m >= cfg_.chaos.stormStartMonth &&
            m - cfg_.chaos.stormStartMonth < cfg_.chaos.stormMonths;
        if (!inStorm)
            ++nonStormMonths_;
        if (!cfg_.flashCrowd.enabled) {
            if (chaos_)
                dev_->attachFaults(inStorm ? &*stormPlan_ : &*chaosPlan_);
            else
                dev_->attachFaults(inOutage ? &*faults_ : nullptr);
            radioDark_ = chaos_ ? inStorm : inOutage;
        }

        // Monthly model sync through the cloud service, under the
        // month's fault plan: first contact is a full install, later
        // months download deltas. A failed sync (outage) leaves the
        // device serving from its stale model. The sync is detached:
        // the service registry is replayed by the fold, not written
        // here, so concurrent workers never share mutable state.
        if (cfg_.cloud &&
            cfg_.cloud->latestVersion() > dev_->communityVersion()) {
            // Deterministic admission rule: each non-storm month
            // admits another herdBudgetPerMonth devices (by index), so
            // a post-storm reconnect herd drains over several months.
            // Device-local, hence thread-count independent.
            const bool shed =
                chaos_ && cfg_.chaos.herdBudgetPerMonth > 0 &&
                u64(i_) >=
                    u64(nonStormMonths_) * cfg_.chaos.herdBudgetPerMonth;
            if (shed) {
                server::CloudUpdateService::SyncAccounting acct;
                acct.shed = true;
                out_.syncs.push_back(acct);
                ++out_.shedSyncs;
            } else {
                server::CloudUpdateService::SyncAccounting acct;
                const auto res = cfg_.cloud->syncDetached(*dev_, &acct);
                out_.syncs.push_back(acct);
                if (res.ok)
                    out_.anySyncOk = true;
            }
            if (dev_->communityVersion() < lastVersion_)
                out_.monotone = false;
            lastVersion_ = dev_->communityVersion();
        }
    }

    /** The month's epoch-granular query schedule (time-ordered). */
    std::vector<workload::StreamEvent>
    monthEvents(u32 m)
    {
        stream_->setEpoch(m);
        return stream_->month(SimTime(m) * workload::kMonth);
    }

    /** Advance the stream's epoch/window without materializing events
     *  (flash-crowd mode draws pairs one arrival at a time). */
    void
    beginStreamMonth(u32 m)
    {
        stream_->setEpoch(m);
        stream_->beginMonth(SimTime(m) * workload::kMonth);
    }

    /** Draw the next arrival's pair (flash-crowd mode; the caller
     *  overrides the stream's evenly-spread timestamp). */
    workload::StreamEvent nextArrivalPair() { return stream_->next(); }

    /** Serve one query event. */
    void
    serve(const workload::StreamEvent &ev)
    {
        if (ev.time > dev_->now())
            dev_->advanceTime(ev.time - dev_->now());
        dev_->serveQuery(ev.pair, device::ServePath::PocketSearch);
    }

    /**
     * Month epilogue: drain the misses the device queued while the
     * cloud was dark (coverage is back after an outage/storm month)
     * and snapshot the telemetry window.
     */
    void
    endMonth(u32 m)
    {
        if (!radioDark_ && !dev_->missQueue().empty())
            dev_->syncMissQueue();
        out_.windows.emplace_back(SimTime(m) * workload::kMonth,
                                  out_.registry->snapshot());
    }

    /** Flash-crowd OutageStart event: the radio goes dark mid-month. */
    void
    radioDown()
    {
        dev_->attachFaults(&*flashOutagePlan_);
        radioDark_ = true;
    }

    /**
     * Flash-crowd Reconnect event: coverage returns at this device's
     * staggered slot; the queued misses sync immediately — the
     * sub-epoch sync storm the epoch harness cannot express.
     */
    void
    reconnect()
    {
        dev_->attachFaults(nullptr);
        radioDark_ = false;
        if (!dev_->missQueue().empty()) {
            dev_->syncMissQueue();
            ++out_.reconnectDrains;
        }
    }

    /** Snapshot one telemetry window (flash-crowd sub-month widths). */
    void
    snapshotWindow(SimTime windowStart)
    {
        out_.windows.emplace_back(windowStart, out_.registry->snapshot());
    }

    /** Run epilogue: sabotage injection, chaos evidence, detach. */
    DeviceTelemetry
    finish()
    {
        dev_->attachFaults(nullptr);

        // Deliberate sabotage: silently bump one cached pair's score —
        // a corruption the CRC frame never saw. The digest invariant
        // must trip and the postmortem must explain it; the Sabotage
        // event is the ground-truth marker the report carries.
        if (chaos_ && cfg_.chaos.sabotageEvery != 0 && cfg_.cloud &&
            i_ % cfg_.chaos.sabotageEvery == 0 &&
            cfg_.cloud->latestVersion() > 0 &&
            dev_->communityVersion() == cfg_.cloud->latestVersion()) {
            const auto &pairs = cfg_.cloud->latest().contents.pairs;
            if (!pairs.empty()) {
                const auto &victim = pairs.front();
                if (dev_->pocketSearch().setPairScore(victim.pair,
                                                      victim.score + 1.0)) {
                    out_.sabotaged = true;
                    if (recorder_.has_value()) {
                        obs::TraceContext ctx = recorder_->beginTrace();
                        obs::SyncEvent ev;
                        ev.traceId = ctx.traceId;
                        ev.span = ctx.newSpan();
                        ev.tier = obs::SyncTier::Device;
                        ev.stage = obs::SyncStage::Sabotage;
                        ev.ok = false;
                        ev.fromVersion = dev_->communityVersion();
                        ev.toVersion = dev_->communityVersion();
                        ev.detail = u64(victim.pair.query);
                        ev.start = dev_->now();
                        recorder_->record(ev);
                    }
                }
            }
        }

        out_.finalVersion = dev_->communityVersion();
        if (chaos_) {
            out_.tableDigest = deviceTableDigest(dev_->pocketSearch());
            out_.injectedCorruptions =
                chaosPlan_->stats().payloadCorruptions +
                stormPlan_->stats().payloadCorruptions;
            out_.corruptRejected =
                out_.registry->counterValue("device.sync.corrupt_delta");
            out_.rejectedDeltas =
                out_.registry->counterValue("device.sync.rejected_delta");
            if (recorder_.has_value()) {
                out_.events = recorder_->events();
                // Ring pressure into the device registry, so the fleet
                // snapshot exposes trace loss ("obs.flight.*").
                recorder_->publishMetrics(*out_.registry);
            }
            dev_->attachFlightRecorder(nullptr);
        }
        if (health_.has_value())
            dev_->attachHealth(nullptr);
        return std::move(out_);
    }

    u64 deviceSeed() const { return devSeed_; }

  private:
    const FleetRunConfig &cfg_;
    std::size_t i_;
    bool chaos_;
    u64 devSeed_;
    DeviceTelemetry out_;
    std::optional<device::MobileDevice> dev_;
    std::optional<obs::FlightRecorder> recorder_;
    std::optional<obs::health::HealthAccountant> health_;
    std::optional<workload::UserStream> stream_;
    std::optional<fault::FaultPlan> faults_;
    std::optional<fault::FaultPlan> stormPlan_;
    std::optional<fault::FaultPlan> chaosPlan_;
    std::optional<fault::FaultPlan> flashOutagePlan_;
    u64 lastVersion_ = 0;
    u32 nonStormMonths_ = 0;
    bool radioDark_ = false;
};

/**
 * Flash-crowd driver, on the event core: Poisson query arrivals
 * (thinning against the burst-boosted peak rate), a mid-month radio
 * outage with per-device staggered reconnect, monthly cloud syncs at
 * month-begin events, and telemetry snapshots on the scenario's own
 * (possibly sub-month) window width. Push order at equal timestamps:
 * window snapshot, then month begin, then outage transitions, then
 * arrivals — fixed here once so the artifact bytes are a pure
 * function of the config.
 */
void
driveFlashCrowd(DeviceSim &sim, const FleetRunConfig &cfg, std::size_t i)
{
    const FlashCrowdConfig &fc = cfg.flashCrowd;
    const SimTime horizon = SimTime(cfg.months) * workload::kMonth;
    if (horizon <= 0)
        return;
    EventCore core;

    // Telemetry windows first, so a window ending exactly on a month
    // boundary closes before that month's sync runs.
    const SimTime width = fc.window > 0 ? fc.window : workload::kMonth;
    for (SimTime ws = 0; ws < horizon; ws += width) {
        const SimTime end = std::min(ws + width, horizon);
        core.schedule(end, i,
                      [&sim, ws](EventCore &) { sim.snapshotWindow(ws); });
    }

    for (u32 m = 0; m < cfg.months; ++m)
        core.schedule(SimTime(m) * workload::kMonth, i,
                      [&sim, m](EventCore &) {
                          sim.beginMonth(m);
                          sim.beginStreamMonth(m);
                      });

    if (fc.outageLen > 0 && fc.outageStart < horizon) {
        core.schedule(fc.outageStart, i,
                      [&sim](EventCore &) { sim.radioDown(); });
        // Staggered reconnect: device i's slot; clamped so the drain
        // still happens inside the run.
        const SimTime outageEnd =
            std::min(fc.outageStart + fc.outageLen, horizon);
        SimTime reconnectAt = outageEnd;
        if (fc.reconnectStagger > 0) {
            const double slot = double(outageEnd) +
                                double(i) * double(fc.reconnectStagger);
            reconnectAt = slot >= double(horizon) ? horizon
                                                  : SimTime(slot);
        }
        core.schedule(reconnectAt, i,
                      [&sim](EventCore &) { sim.reconnect(); });
    }

    // Poisson arrival chain: each arrival schedules its successor.
    // Thinning keeps the draw sequence a pure function of (seed,
    // device): candidate steps come from the peak rate, and a second
    // uniform accepts with probability rate(t)/peak.
    const double perTick =
        fc.arrivalsPerHour / (3600.0 * double(kSecond));
    const double peak = perTick * std::max(1.0, fc.burstMultiplier);
    const SimTime burstStart = std::min(fc.burstStart, horizon);
    const SimTime burstEnd =
        fc.burstLen > horizon - burstStart ? horizon
                                           : burstStart + fc.burstLen;
    const auto rateAt = [&](SimTime t) {
        return perTick * (t >= burstStart && t < burstEnd
                              ? fc.burstMultiplier
                              : 1.0);
    };
    auto arrivals = std::make_shared<Rng>(sim.deviceSeed() + 4);
    std::function<void(EventCore &, SimTime)> scheduleNext =
        [&sim, &scheduleNext, arrivals, rateAt, peak, horizon,
         i](EventCore &c, SimTime from) {
            if (!(peak > 0))
                return;
            double t = double(from);
            for (;;) {
                const double u = arrivals->uniform();
                t += -std::log(1.0 - u) / peak;
                if (t >= double(horizon))
                    return;
                if (arrivals->uniform() * peak < rateAt(SimTime(t)))
                    break;
            }
            const SimTime at = SimTime(t);
            c.schedule(at, i,
                       [&sim, &scheduleNext, at](EventCore &c2) {
                           workload::StreamEvent se =
                               sim.nextArrivalPair();
                           se.time = at;
                           sim.serve(se);
                           scheduleNext(c2, at);
                       });
        };
    scheduleNext(core, 0);
    core.run();
}

/**
 * Simulate device `i` in a private world: month by month on the
 * epoch loop, or on the event core when the run is a flash crowd.
 * Reads the workbench, the community image and the cloud service (if
 * any) strictly read-only, so any number of these may run
 * concurrently.
 */
DeviceTelemetry
simulateDevice(const Workbench &wb, const FleetRunConfig &cfg,
               std::size_t i, const workload::UserProfile &profile,
               const core::CommunityImage *image)
{
    DeviceSim sim(wb, cfg, i, profile, image);
    if (cfg.flashCrowd.enabled) {
        driveFlashCrowd(sim, cfg, i);
    } else {
        for (u32 m = 0; m < cfg.months; ++m) {
            sim.beginMonth(m);
            for (const auto &ev : sim.monthEvents(m))
                sim.serve(ev);
            sim.endMonth(m);
        }
    }
    return sim.finish();
}

/**
 * What the invariant checker compares every chaos device against:
 * the latest server version and the canonical digest of its contents.
 * Computed once per run, before the fold starts.
 */
struct ChaosCheckCtx
{
    bool active = false;
    u64 latest = 0;
    u32 expectedDigest = 0;
};

/**
 * Fold one device's telemetry into the collector, the cloud registry
 * and the scalar result. Must be called in device-index order — the
 * whole byte-identity argument rests on it. Under chaos (ctx.active)
 * this is also the invariant checker: every device that ever synced
 * successfully must have ended byte-identical to the latest server
 * model, versions must be monotone, and every injected corruption
 * must have been caught by the CRC frame.
 */
void
foldDevice(DeviceTelemetry &&t, const FleetRunConfig &cfg,
           const ChaosCheckCtx &ctx, obs::FleetCollector &collector,
           FleetRunResult &result)
{
    collector.beginDevice(t.classKey);
    for (const auto &[windowStart, snap] : t.windows)
        collector.collect(windowStart, snap);
    collector.endDevice(*t.registry);

    for (const auto &acct : t.syncs) {
        cfg.cloud->accountSync(acct);
        if (acct.shed)
            ++result.cloudSyncsShed;
        else if (acct.ok)
            ++result.cloudSyncs;
        else
            ++result.cloudSyncFailures;
        if (acct.escalated)
            ++result.escalatedFullInstalls;
    }
    result.corruptRejected += t.corruptRejected;
    result.rejectedDeltas += t.rejectedDeltas;
    result.reconnectSyncs += t.reconnectDrains;

    if (ctx.active) {
        // Violations come back explained: the verdict plus the
        // device's causal event chain (postmortem.h). Reports are
        // appended here, in device-index order, so the postmortem
        // artifact is byte-identical at any thread count.
        const auto report = [&](InvariantKind kind) {
            InvariantReport r;
            r.device = t.index;
            r.kind = kind;
            r.sabotaged = t.sabotaged;
            r.deviceVersion = t.finalVersion;
            r.serverVersion = ctx.latest;
            r.deviceDigest = t.tableDigest;
            r.serverDigest = ctx.expectedDigest;
            r.corruptCaught = t.corruptRejected;
            r.corruptInjected = t.injectedCorruptions;
            r.chain = t.events;
            result.invariantReports.push_back(std::move(r));
            ++result.invariantViolations;
        };
        if (t.sabotaged)
            ++result.devicesSabotaged;
        if (!t.monotone) {
            pc_warn("chaos invariant: device ", t.index,
                    " saw a non-monotone version history");
            report(InvariantKind::NonMonotoneVersion);
        }
        if (t.corruptRejected != t.injectedCorruptions) {
            pc_warn("chaos invariant: device ", t.index, " caught ",
                    t.corruptRejected, " corruptions but ",
                    t.injectedCorruptions, " were injected");
            report(InvariantKind::UncaughtCorruption);
        }
        if (t.anySyncOk) {
            ++result.devicesVerified;
            if (t.finalVersion != ctx.latest ||
                t.tableDigest != ctx.expectedDigest) {
                pc_warn("chaos invariant: device ", t.index,
                        " synced ok but ended at version ",
                        t.finalVersion, " digest ", t.tableDigest,
                        " (server: version ", ctx.latest, " digest ",
                        ctx.expectedDigest, ")");
                report(InvariantKind::DigestMismatch);
            }
        }
    }

    const auto snap = t.registry->snapshot();
    result.queries += snap.counterValue("device.queries");
    result.cacheHits += snap.counterValue("device.cache_hits");
    result.degradedServes += snap.counterValue("device.degraded.serves");
    ++result.devices;
}

} // namespace

FleetRunResult
runFleet(const Workbench &wb, const FleetRunConfig &cfg,
         obs::FleetCollector &collector)
{
    FleetRunResult earlyOut;
    earlyOut.error = validateFleetRunConfig(cfg);
    if (!earlyOut.error.empty()) {
        pc_warn("runFleet refused: ", earlyOut.error);
        return earlyOut;
    }

    ChaosCheckCtx ctx;
    if (cfg.chaos.enabled && cfg.cloud &&
        cfg.cloud->latestVersion() > 0) {
        ctx.active = true;
        ctx.latest = cfg.cloud->latestVersion();
        ctx.expectedDigest =
            contentsDigest(cfg.cloud->latest().contents, wb.universe());
    }

    workload::PopulationSampler sampler(wb.population());
    const auto profiles = sampler.samplePopulation(cfg.devices);

    unsigned threads =
        cfg.threads ? cfg.threads : std::thread::hardware_concurrency();
    if (threads == 0)
        threads = 1;
    // A 0-device fleet (or a 0-month horizon, which samples devices
    // but simulates nothing) is a clean empty run, not an error: the
    // in-place path folds zero (or all-zero) devices and the cloud
    // registry still merges below.
    if (std::size_t(threads) > cfg.devices)
        threads = cfg.devices > 0 ? unsigned(cfg.devices) : 1;

    // Without a cloud service every device starts from the workbench's
    // one-shot community push. Install it once here and copy it into
    // each device: the copy is the bytes the per-device install would
    // have produced, at a fraction of the cost.
    std::optional<core::CommunityImage> image;
    if (!cfg.cloud && cfg.devices > 0)
        image.emplace(wb.universe(), wb.communityCache(),
                      device::deviceFlashConfig(cfg.device),
                      cfg.device.store, devicePsConfig(cfg));
    const core::CommunityImage *img = image ? &*image : nullptr;

    FleetRunResult result;
    if (threads == 1) {
        // In-place: one device world alive at a time.
        for (std::size_t i = 0; i < profiles.size(); ++i)
            foldDevice(simulateDevice(wb, cfg, i, profiles[i], img), cfg,
                       ctx, collector, result);
    } else {
        // Device indices out through one bounded queue, telemetry back
        // through another. The results queue is small on purpose —
        // backpressure keeps fast workers from piling up telemetry the
        // in-order fold is not ready for; the fold drains continuously
        // (stashing out-of-order arrivals), so workers never deadlock
        // against a full queue.
        server::WorkQueue<std::size_t> tasks(cfg.devices);
        for (std::size_t i = 0; i < cfg.devices; ++i)
            tasks.push(i);
        tasks.close();

        server::WorkQueue<DeviceTelemetry> results(2 * threads);
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned w = 0; w < threads; ++w) {
            pool.emplace_back([&] {
                std::size_t i = 0;
                while (tasks.pop(i))
                    results.push(
                        simulateDevice(wb, cfg, i, profiles[i], img));
            });
        }

        std::map<std::size_t, DeviceTelemetry> pending;
        std::size_t next = 0;
        while (next < cfg.devices) {
            DeviceTelemetry t;
            const bool got = results.pop(t);
            pc_assert(got, "runFleet: results queue closed early");
            pending.emplace(t.index, std::move(t));
            for (auto it = pending.find(next); it != pending.end();
                 it = pending.find(next)) {
                foldDevice(std::move(it->second), cfg, ctx, collector,
                           result);
                pending.erase(it);
                ++next;
            }
        }
        results.close();
        for (auto &th : pool)
            th.join();
    }

    if (cfg.cloud)
        collector.mergeCloud(cfg.cloud->metrics());
    return result;
}

} // namespace pc::harness
