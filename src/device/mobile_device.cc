#include "device/mobile_device.h"

#include <cmath>

#include "util/logging.h"
#include "util/strings.h"

namespace pc::device {

std::string
servePathName(ServePath p)
{
    switch (p) {
      case ServePath::PocketSearch:
        return "PocketSearch";
      case ServePath::ThreeG:
        return "3G";
      case ServePath::Edge:
        return "Edge";
      case ServePath::Wifi:
        return "802.11g";
    }
    return "?";
}

std::string
servePathKey(ServePath p)
{
    switch (p) {
      case ServePath::PocketSearch:
        return "pocket";
      case ServePath::ThreeG:
        return "3g";
      case ServePath::Edge:
        return "edge";
      case ServePath::Wifi:
        return "wifi";
    }
    return "?";
}

pc::nvm::FlashConfig
deviceFlashConfig(const DeviceConfig &cfg)
{
    pc::nvm::FlashConfig fc = cfg.flash;
    fc.capacity = cfg.flashCapacity;
    return fc;
}

MobileDevice::MobileDevice(const core::QueryUniverse &universe,
                           const DeviceConfig &cfg,
                           const PocketSearchConfig &ps_cfg)
    : cfg_(cfg),
      browser_(cfg.browser),
      threeG_(radio::threeGConfig()),
      edge_(radio::edgeConfig()),
      wifi_(radio::wifiConfig())
{
    flash_ = std::make_unique<pc::nvm::FlashDevice>(deviceFlashConfig(cfg_));
    store_ = std::make_unique<pc::simfs::FlashStore>(*flash_, cfg_.store);
    ps_ = std::make_unique<PocketSearch>(universe, *store_, ps_cfg);
}

SimTime
MobileDevice::installCommunityCache(const core::CacheContents &contents)
{
    SimTime t = 0;
    ps_->loadCommunity(contents, t);
    return t;
}

radio::RadioLink &
MobileDevice::link(ServePath p)
{
    switch (p) {
      case ServePath::ThreeG:
        return threeG_;
      case ServePath::Edge:
        return edge_;
      case ServePath::Wifi:
        return wifi_;
      case ServePath::PocketSearch:
        break;
    }
    pc_panic("no radio link for this serve path");
}

void
MobileDevice::attachFaults(fault::FaultPlan *plan)
{
    faults_ = plan;
    store_->attachFaults(plan);
}

void
MobileDevice::attachMetrics(obs::MetricRegistry *reg)
{
    registry_ = reg;
    store_->attachMetrics(reg);
    ps_->attachMetrics(reg);
    for (ServePath p :
         {ServePath::ThreeG, ServePath::Edge, ServePath::Wifi}) {
        radio::RadioLink &l = link(p);
        l.attachMetrics(reg, reg ? "device.radio." + l.name() : "");
    }
    if (!reg) {
        metrics_ = Metrics{};
        return;
    }
    metrics_.queries = &reg->counter("device.queries");
    metrics_.cacheHits = &reg->counter("device.cache_hits");
    metrics_.attempts = &reg->counter("device.radio.attempts");
    metrics_.retries = &reg->counter("device.radio.retries");
    metrics_.noCoverage = &reg->counter("device.radio.no_coverage");
    metrics_.failed = &reg->counter("device.radio.failed");
    metrics_.spikes = &reg->counter("device.radio.latency_spikes");
    metrics_.degraded = &reg->counter("device.degraded.serves");
    metrics_.stale = &reg->counter("device.degraded.stale");
    metrics_.offline = &reg->counter("device.degraded.offline_pages");
    metrics_.queued = &reg->counter("device.missq.queued");
    metrics_.synced = &reg->counter("device.missq.synced");
    metrics_.corruptDelta = &reg->counter("device.sync.corrupt_delta");
    metrics_.rejectedDelta = &reg->counter("device.sync.rejected_delta");
    const ServePath all[4] = {ServePath::PocketSearch,
                              ServePath::ThreeG, ServePath::Edge,
                              ServePath::Wifi};
    for (int i = 0; i < 4; ++i) {
        const std::string key = servePathKey(all[i]);
        metrics_.latency[i] =
            &reg->histogram("device.latency_ms." + key);
        metrics_.energy[i] = &reg->histogram("device.energy_mj." + key);
    }
}

void
MobileDevice::attachHealth(obs::health::HealthAccountant *acct)
{
    health_ = acct;
    // Radio busy is charged inside RadioLink::commit so every
    // committed exchange — query miss, community sync, miss-queue
    // drain — lands in the per-link ledger exactly once.
    for (ServePath p :
         {ServePath::ThreeG, ServePath::Edge, ServePath::Wifi}) {
        radio::RadioLink &l = link(p);
        if (acct) {
            const auto ledger = acct->radioLedger(l.name());
            l.attachHealth(ledger.first, ledger.second);
        } else {
            l.attachHealth(nullptr, nullptr);
        }
    }
}

void
MobileDevice::attachTracer(obs::Tracer *tracer,
                           const std::string &track_label)
{
    tracer_ = tracer;
    traceTrack_ = tracer ? tracer->track(track_label) : 0;
}

void
MobileDevice::traceSpan(const char *name, const char *cat, SimTime start,
                        SimTime dur) const
{
    if (!tracer_ || dur <= 0)
        return;
    tracer_->span(traceTrack_, name, cat, start, dur);
}

void
MobileDevice::finishQueryObs(const workload::PairRef &pair, ServePath path,
                             const QueryOutcome &out, SimTime t0)
{
    const int idx = int(path);
    if (registry_) {
        bumpCtr(metrics_.queries);
        if (out.cacheHit)
            bumpCtr(metrics_.cacheHits);
        metrics_.latency[idx]->observe(toMillis(out.latency));
        metrics_.energy[idx]->observe(out.energy / 1000.0);
    }
    if (health_) {
        obs::health::QueryHealthSample s;
        s.cacheHit = out.cacheHit;
        s.degraded = out.degraded;
        s.probe = out.hashLookupTime;
        s.fetch = out.fetchTime;
        s.radio = out.radioTime;
        s.backoff = out.backoffTime;
        s.render = out.renderTime;
        s.misc = out.miscTime;
        s.total = out.latency;
        health_->onQuery(s);
    }
    if (tracer_ && out.latency > 0) {
        obs::TraceSpan span;
        span.name = ps_->universe().query(pair.query).text;
        span.category = "query";
        span.track = traceTrack_;
        span.start = t0;
        span.duration = out.latency;
        span.args.emplace_back("path", servePathName(path));
        span.args.emplace_back("cache_hit",
                               out.cacheHit ? "true" : "false");
        span.args.emplace_back("degraded",
                               out.degraded ? "true" : "false");
        span.args.emplace_back("attempts",
                               strformat("%u", out.attempts));
        span.args.emplace_back("latency_ms",
                               strformat("%.3f", toMillis(out.latency)));
        span.args.emplace_back("energy_mj",
                               strformat("%.3f", out.energy / 1000.0));
        tracer_->record(std::move(span));
    }
}

void
MobileDevice::addSegment(QueryOutcome &out, const char *label, SimTime dur,
                         MilliWatts power) const
{
    if (dur <= 0)
        return;
    out.trace.push_back({label, dur, power});
    out.energy += energyOver(power, dur);
}

bool
MobileDevice::radioExchangeWithRetry(QueryOutcome &out,
                                     radio::RadioLink &radio, SimTime start)
{
    fault::FaultyLink flink(radio, faults_);
    const RetryPolicy &rp = cfg_.retry;
    SimTime elapsed = 0;
    for (u32 attempt = 1;; ++attempt) {
        ++out.attempts;
        bumpCtr(metrics_.attempts);
        if (attempt > 1)
            bumpCtr(metrics_.retries);

        const SimTime attemptStart = start + elapsed;
        const auto oc = flink.attempt(attemptStart, cfg_.requestBytes,
                                      cfg_.responseBytes, cfg_.serverTime);
        // Device trace: base power under every radio segment, plus the
        // radio's own power; the radio tail runs after the exchange but
        // only its radio power counts (the user may have left the app).
        for (const auto &seg : oc.xfer.segments) {
            if (seg.label == "tail") {
                addSegment(out, "radio-tail", seg.duration, seg.power);
            } else {
                addSegment(out, seg.label.c_str(), seg.duration,
                           cfg_.basePower + seg.power);
            }
        }
        out.radioTime += oc.xfer.latency;
        elapsed += oc.xfer.latency;

        // One span per attempt: the user-visible exchange time (the
        // radio tail costs energy, not latency, so it is not a span).
        traceSpan(oc.ok ? "radio-exchange"
                  : oc.noCoverage ? "radio-no-coverage"
                                  : "radio-failed",
                  "device", attemptStart, oc.xfer.latency);

        if (oc.ok) {
            if (oc.latencySpike)
                bumpCtr(metrics_.spikes);
            return true;
        }
        if (oc.noCoverage)
            bumpCtr(metrics_.noCoverage);
        if (oc.failed)
            bumpCtr(metrics_.failed);

        if (attempt >= rp.maxAttempts || elapsed >= rp.queryBudget)
            return false;

        // Exponential backoff with jitter before the next attempt. The
        // jitter draw comes from the fault plan so a fixed seed replays
        // the exact same retry timeline.
        SimTime backoff = SimTime(std::llround(
            double(rp.baseBackoff) *
            std::pow(rp.backoffFactor, double(attempt - 1))));
        backoff = std::min(backoff, rp.maxBackoff);
        if (faults_)
            backoff = SimTime(std::llround(double(backoff) *
                                           faults_->jitter(rp.jitter)));
        if (backoff > 0) {
            addSegment(out, "backoff", backoff, cfg_.basePower);
            traceSpan("backoff", "device", start + elapsed, backoff);
            out.backoffTime += backoff;
            elapsed += backoff;
        }
    }
}

QueryOutcome
MobileDevice::serveQuery(const workload::PairRef &pair, ServePath path,
                         bool record_click)
{
    QueryOutcome out;
    core::LookupOutcome lookup;
    const SimTime t0 = now_;

    if (path == ServePath::PocketSearch) {
        lookup = ps_->lookupPair(pair, 2);
        out.hashLookupTime = lookup.hashLookupTime;
        // Operationally the user is served locally only when the result
        // they are after is among the cached results for the query.
        out.cacheHit = lookup.hit && ps_->containsPair(pair);
        if (out.cacheHit) {
            out.fetchTime = lookup.fetchTime;
            out.renderTime = browser_.renderSearchPage();
            out.miscTime = browser_.miscOverhead();
            out.latency = out.hashLookupTime + out.fetchTime +
                          out.renderTime + out.miscTime;
            addSegment(out, "local-serve",
                       out.hashLookupTime + out.fetchTime + out.miscTime,
                       cfg_.basePower);
            addSegment(out, "render", out.renderTime,
                       cfg_.basePower + browser_.config().renderPower);
            traceSpan("probe", "device", t0, out.hashLookupTime);
            traceSpan("fetch", "device", t0 + out.hashLookupTime,
                      out.fetchTime);
            traceSpan("misc", "device",
                      t0 + out.hashLookupTime + out.fetchTime,
                      out.miscTime);
            traceSpan("render", "device",
                      t0 + out.hashLookupTime + out.fetchTime +
                          out.miscTime,
                      out.renderTime);
            if (record_click) {
                SimTime learn = 0;
                ps_->recordClick(pair, learn);
                // Learning happens after results display; it costs
                // energy but not user latency.
                addSegment(out, "learn", learn, cfg_.basePower);
            }
            finishQueryObs(pair, path, out, t0);
            now_ += out.latency;
            return out;
        }
        // Miss: fall through to 3G (the phone's default data path),
        // having paid only the 10us probe.
    }

    radio::RadioLink &radio =
        link(path == ServePath::PocketSearch ? ServePath::ThreeG : path);
    addSegment(out, "probe", out.hashLookupTime, cfg_.basePower);
    traceSpan("probe", "device", t0, out.hashLookupTime);
    const bool reachable =
        radioExchangeWithRetry(out, radio, now_ + out.hashLookupTime);

    if (!reachable) {
        // Graceful degradation (the paper's offline-search story): the
        // caller never sees an error. Serve the cached — possibly stale
        // — results when the query string is cached; otherwise render
        // the offline page. Either way, queue the miss so it can be
        // fetched when coverage returns.
        out.degraded = true;
        bumpCtr(metrics_.degraded);
        if (path == ServePath::PocketSearch) {
            missQueue_.push_back(pair);
            bumpCtr(metrics_.queued);
            if (lookup.hit) {
                out.staleServe = true;
                bumpCtr(metrics_.stale);
                out.fetchTime = lookup.fetchTime;
                addSegment(out, "stale-fetch", out.fetchTime,
                           cfg_.basePower);
            } else {
                bumpCtr(metrics_.offline);
            }
        } else {
            bumpCtr(metrics_.offline);
        }
        out.renderTime = browser_.renderSearchPage();
        out.miscTime = browser_.miscOverhead();
        out.latency = out.hashLookupTime + out.radioTime +
                      out.backoffTime + out.fetchTime + out.renderTime +
                      out.miscTime;
        addSegment(out, "render", out.renderTime,
                   cfg_.basePower + browser_.config().renderPower);
        addSegment(out, "misc", out.miscTime, cfg_.basePower);
        const SimTime tr = t0 + out.hashLookupTime + out.radioTime +
                           out.backoffTime;
        traceSpan("stale-fetch", "device", tr, out.fetchTime);
        traceSpan("render", "device", tr + out.fetchTime, out.renderTime);
        traceSpan("misc", "device", tr + out.fetchTime + out.renderTime,
                  out.miscTime);
        finishQueryObs(pair, path, out, t0);
        now_ += out.latency;
        return out;
    }

    out.renderTime = browser_.renderSearchPage();
    out.miscTime = browser_.miscOverhead();
    out.latency = out.hashLookupTime + out.radioTime + out.backoffTime +
                  out.renderTime + out.miscTime;

    addSegment(out, "render", out.renderTime,
               cfg_.basePower + browser_.config().renderPower);
    addSegment(out, "misc", out.miscTime, cfg_.basePower);
    const SimTime tr =
        t0 + out.hashLookupTime + out.radioTime + out.backoffTime;
    traceSpan("render", "device", tr, out.renderTime);
    traceSpan("misc", "device", tr + out.renderTime, out.miscTime);

    if (record_click && path == ServePath::PocketSearch) {
        SimTime learn = 0;
        ps_->recordClick(pair, learn);
        addSegment(out, "learn", learn, cfg_.basePower);
    }
    finishQueryObs(pair, path, out, t0);
    now_ += out.latency;
    return out;
}

MobileDevice::SyncResult
MobileDevice::syncMissQueue(ServePath path)
{
    pc_assert(path != ServePath::PocketSearch,
              "sync needs a radio path");
    SyncResult res;
    radio::RadioLink &radio = link(path);
    fault::FaultyLink flink(radio, faults_);
    std::size_t done = 0;
    while (done < missQueue_.size()) {
        bumpCtr(metrics_.attempts);
        const auto oc = flink.attempt(now_, cfg_.requestBytes,
                                      cfg_.responseBytes, cfg_.serverTime);
        res.time += oc.xfer.latency;
        res.energy += oc.xfer.radioEnergy;
        now_ += oc.xfer.latency;
        if (!oc.ok) {
            // Connectivity died again; keep the rest queued.
            if (oc.noCoverage)
                bumpCtr(metrics_.noCoverage);
            if (oc.failed)
                bumpCtr(metrics_.failed);
            break;
        }
        if (oc.latencySpike)
            bumpCtr(metrics_.spikes);
        // The queued miss is now fetched: feed it to personalization
        // exactly as a served click would have been.
        SimTime learn = 0;
        ps_->recordClick(missQueue_[done], learn);
        ++res.synced;
        bumpCtr(metrics_.synced);
        ++done;
    }
    missQueue_.erase(missQueue_.begin(),
                     missQueue_.begin() + std::ptrdiff_t(done));
    res.remaining = missQueue_.size();
    if (health_ && (res.synced > 0 || res.time > 0))
        health_->onMissSync(res.synced, res.time);
    return res;
}

void
MobileDevice::beginSyncTrace()
{
    if (recorder_ == nullptr)
        return;
    syncCtx_ = recorder_->beginTrace();
    obs::SyncEvent ev;
    ev.stage = obs::SyncStage::SyncRequest;
    ev.tier = obs::SyncTier::Device;
    ev.fromVersion = communityVersion_;
    ev.toVersion = communityVersion_;
    ev.start = now_;
    recordSyncStage(ev);
}

void
MobileDevice::recordSyncStage(obs::SyncEvent ev)
{
    if (recorder_ == nullptr || !syncCtx_.valid())
        return;
    ev.traceId = syncCtx_.traceId;
    ev.span = syncCtx_.newSpan();
    ev.parent = syncCtx_.rootSpan;
    recorder_->record(ev);
    if (syncCtx_.rootSpan == 0)
        syncCtx_.rootSpan = ev.span;
}

MobileDevice::CommunitySyncResult
MobileDevice::syncCommunityUpdate(const core::CommunityDelta &delta,
                                  ServePath path)
{
    return syncCommunityFrame(
        core::frameDelta(delta),
        core::deltaWireBytes(delta, ps_->universe()), path);
}

MobileDevice::CommunitySyncResult
MobileDevice::syncCommunityFrame(const std::string &frame,
                                 Bytes wire_bytes, ServePath path)
{
    pc_assert(path != ServePath::PocketSearch,
              "community sync needs a radio path");
    CommunitySyncResult res;
    res.fromVersion = communityVersion_;
    res.toVersion = communityVersion_;
    res.deltaBytes = wire_bytes;

    // A device-initiated sync (no service orchestrating) opens its
    // own trace; a service-driven one arrives with the context already
    // holding the server-tier stages.
    if (recorder_ != nullptr && !syncCtx_.valid())
        beginSyncTrace();

    radio::RadioLink &radio = link(path);
    fault::FaultyLink flink(radio, faults_);
    const RetryPolicy &rp = cfg_.retry;
    std::optional<core::CommunityDelta> delta;
    SimTime elapsed = 0;
    for (u32 attempt = 1;; ++attempt) {
        ++res.attempts;
        bumpCtr(metrics_.attempts);
        if (attempt > 1)
            bumpCtr(metrics_.retries);
        const SimTime attemptStart = now_ + elapsed;
        const auto oc =
            flink.attempt(attemptStart, cfg_.syncRequestBytes,
                          res.deltaBytes, cfg_.serverTime);
        res.time += oc.xfer.latency;
        res.energy += oc.xfer.radioEnergy;
        elapsed += oc.xfer.latency;
        if (recorder_ != nullptr) {
            obs::SyncEvent ev;
            ev.stage = obs::SyncStage::FrameDelivery;
            ev.ok = oc.ok;
            ev.attempt = attempt;
            ev.fromVersion = res.fromVersion;
            ev.bytes = res.deltaBytes;
            ev.detail = oc.noCoverage ? 1 : oc.failed ? 2 : 0;
            ev.start = attemptStart;
            ev.duration = oc.xfer.latency;
            recordSyncStage(ev);
        }
        if (oc.ok) {
            if (oc.latencySpike)
                bumpCtr(metrics_.spikes);
            // The exchange delivered; the payload may still have been
            // mangled in flight. Verify the frame before trusting it.
            std::optional<std::string> mangled;
            if (faults_)
                mangled = faults_->maybeCorruptPayload(frame);
            const std::string_view received = mangled ? *mangled : frame;
            core::FrameError ferr;
            delta = core::unframeDelta(received, &ferr);
            if (recorder_ != nullptr) {
                obs::SyncEvent ev;
                ev.stage = obs::SyncStage::CrcCheck;
                ev.ok = delta.has_value();
                ev.attempt = attempt;
                ev.fromVersion = res.fromVersion;
                ev.detail = u64(ferr);
                ev.start = now_ + elapsed;
                recordSyncStage(ev);
            }
            if (delta.has_value()) {
                res.ok = true;
                break;
            }
            ++res.corruptRejected;
            bumpCtr(metrics_.corruptDelta);
            // Fall through: a corrupt frame re-requests like a failed
            // exchange, under the same backoff.
        } else {
            if (oc.noCoverage)
                bumpCtr(metrics_.noCoverage);
            if (oc.failed)
                bumpCtr(metrics_.failed);
        }
        if (attempt >= rp.maxAttempts || elapsed >= rp.queryBudget)
            break;

        // Same deterministic backoff timeline as a query retry.
        SimTime backoff = SimTime(std::llround(
            double(rp.baseBackoff) *
            std::pow(rp.backoffFactor, double(attempt - 1))));
        backoff = std::min(backoff, rp.maxBackoff);
        if (faults_)
            backoff = SimTime(std::llround(double(backoff) *
                                           faults_->jitter(rp.jitter)));
        if (recorder_ != nullptr) {
            obs::SyncEvent ev;
            ev.stage = obs::SyncStage::Backoff;
            ev.attempt = attempt;
            ev.fromVersion = res.fromVersion;
            ev.start = now_ + elapsed;
            ev.duration = backoff;
            recordSyncStage(ev);
        }
        res.backoffTime += backoff;
        elapsed += backoff;
    }
    now_ += elapsed;
    if (!res.ok) {
        // A sync defeated by corruption (not mere connectivity)
        // advances the escalation streak: the link delivers, the
        // payloads don't survive, so a fresh full install is the way
        // out. Pure radio failure retries as-is next window.
        if (res.corruptRejected > 0)
            ++badDeltaStreak_;
        if (recorder_ != nullptr) {
            obs::SyncEvent ev;
            ev.stage = obs::SyncStage::Abort;
            ev.ok = false;
            ev.attempt = res.attempts;
            ev.fromVersion = res.fromVersion;
            ev.detail = res.corruptRejected;
            ev.start = now_;
            recordSyncStage(ev);
        }
        clearSyncTrace();
        // Abort: res.time is pure radio time — no delta was applied.
        if (health_) {
            obs::health::SyncHealthSample s;
            s.ok = false;
            s.radio = res.time;
            s.backoff = res.backoffTime;
            health_->onSync(s);
        }
        return res;
    }

    SimTime apply = 0;
    const auto ar = core::tryApplyCommunityDelta(*ps_, *delta, apply);
    if (recorder_ != nullptr) {
        obs::SyncEvent ev;
        ev.stage = obs::SyncStage::Validate;
        ev.ok = ar.ok;
        ev.fromVersion = delta->fromVersion;
        ev.toVersion = delta->toVersion;
        ev.detail = u64(ar.error);
        ev.start = now_;
        recordSyncStage(ev);
    }
    if (!ar.ok) {
        // Verified frame, but the delta does not fit this device's
        // state (version skew). Transactional apply left the cache
        // untouched; retrying the same delta cannot help.
        res.ok = false;
        res.rejected = true;
        res.applyError = ar.error;
        bumpCtr(metrics_.rejectedDelta);
        ++badDeltaStreak_;
        if (recorder_ != nullptr) {
            obs::SyncEvent ev;
            ev.stage = obs::SyncStage::Reject;
            ev.ok = false;
            ev.fromVersion = delta->fromVersion;
            ev.toVersion = delta->toVersion;
            ev.detail = u64(ar.error);
            ev.start = now_;
            recordSyncStage(ev);
        }
        clearSyncTrace();
        // Reject: apply time is not part of res.time (the rollback
        // leaves the cache untouched), so the ledger matches it.
        if (health_) {
            obs::health::SyncHealthSample s;
            s.ok = false;
            s.radio = res.time;
            s.backoff = res.backoffTime;
            health_->onSync(s);
        }
        return res;
    }
    if (recorder_ != nullptr) {
        obs::SyncEvent ev;
        ev.stage = obs::SyncStage::Commit;
        ev.fromVersion = delta->fromVersion;
        ev.toVersion = delta->toVersion;
        ev.detail = u64(ar.stats.added + ar.stats.evicted +
                        ar.stats.reranked);
        ev.start = now_;
        ev.duration = apply;
        recordSyncStage(ev);
    }
    clearSyncTrace();
    // Commit: res.time still holds the radio share here; apply joins
    // it below and is charged to the CPU ledger.
    if (health_) {
        obs::health::SyncHealthSample s;
        s.ok = true;
        s.radio = res.time;
        s.backoff = res.backoffTime;
        s.apply = apply;
        s.bytes = res.deltaBytes;
        health_->onSync(s);
    }
    res.apply = ar.stats;
    res.time += apply;
    now_ += apply;
    communityVersion_ = delta->toVersion;
    res.toVersion = delta->toVersion;
    badDeltaStreak_ = 0;
    return res;
}

SimTime
MobileDevice::navigationLatency(const QueryOutcome &q, PageWeight w) const
{
    return q.latency + browser_.pageLoad(w);
}

} // namespace pc::device
