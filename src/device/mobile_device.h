/**
 * @file
 * The simulated smartphone: flash + file store + PocketSearch + radios +
 * browser, with end-to-end latency and energy accounting.
 *
 * This is the measurement platform standing in for the paper's Sony
 * Ericsson Xperia X1a (Windows Mobile 6.1, AT&T): it reproduces the
 * serve-a-query pipeline of Section 6.1 — cache probe, local fetch and
 * render on a hit; radio exchange and render on a miss — and produces
 * the per-query latency (Figure 15a), energy (Figure 15b), breakdown
 * (Table 4), navigation times (Table 5), and power traces (Figure 16).
 */

#ifndef PC_DEVICE_MOBILE_DEVICE_H
#define PC_DEVICE_MOBILE_DEVICE_H

#include <memory>
#include <string>
#include <vector>

#include "core/delta.h"
#include "core/pocket_search.h"
#include "device/browser.h"
#include "fault/faulty_link.h"
#include "obs/causal.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "radio/link.h"

namespace pc::device {

using core::CacheMode;
using core::PocketSearch;
using core::PocketSearchConfig;
using radio::PowerSegment;

/** Which path a query is served through. */
enum class ServePath
{
    PocketSearch, ///< Cache first; radio fallback on miss.
    ThreeG,       ///< Always over 3G.
    Edge,         ///< Always over EDGE.
    Wifi,         ///< Always over 802.11g.
};

/** Display name of a serve path. */
std::string servePathName(ServePath p);

/** Metric-name-safe key of a serve path ("pocket", "3g", ...). */
std::string servePathKey(ServePath p);

/**
 * How the device retries failed radio exchanges (bounded retries,
 * exponential backoff with jitter, per-query time budget). With no
 * fault plan attached the first attempt always succeeds and none of
 * this machinery engages.
 */
struct RetryPolicy
{
    /** Total exchange attempts per query (1 = no retry). */
    u32 maxAttempts = 4;
    /** Backoff before the first retry. */
    SimTime baseBackoff = fromMillis(400);
    /** Backoff growth per retry (exponential). */
    double backoffFactor = 2.0;
    /** Backoff ceiling. */
    SimTime maxBackoff = 5 * kSecond;
    /** Multiplicative jitter (+-fraction) on each backoff. */
    double jitter = 0.25;
    /** Give up once a query has burned this much wall time. */
    SimTime queryBudget = 45 * kSecond;
};

/** Device-level constants. */
struct DeviceConfig
{
    /** Base platform power while the user is interacting (screen+CPU). */
    MilliWatts basePower = 550.0;
    /** Flash capacity dedicated to cloudlets. */
    Bytes flashCapacity = 1 * kGiB;
    /** Search request payload (query + headers). */
    Bytes requestBytes = 1 * kKiB;
    /** Community-sync request payload (device id + version). */
    Bytes syncRequestBytes = 256;
    /** Search response payload (results page). */
    Bytes responseBytes = 100 * kKiB;
    /** Server-side processing time per query. */
    SimTime serverTime = fromMillis(250);
    BrowserConfig browser{};
    pc::simfs::StoreConfig store{};
    pc::nvm::FlashConfig flash{};
    RetryPolicy retry{};
};

/** The flash geometry a device with these constants runs on. */
pc::nvm::FlashConfig deviceFlashConfig(const DeviceConfig &cfg);

/** Everything measured about one served query. */
struct QueryOutcome
{
    bool cacheHit = false;
    SimTime latency = 0;        ///< Submit -> results page rendered.
    MicroJoules energy = 0;     ///< Whole-device energy for the query.
    SimTime hashLookupTime = 0; ///< Cache probe time.
    SimTime fetchTime = 0;      ///< Flash retrieval time (hits).
    SimTime radioTime = 0;      ///< Radio exchange time (misses).
    SimTime renderTime = 0;     ///< Browser render time.
    SimTime miscTime = 0;       ///< App overhead.
    SimTime backoffTime = 0;    ///< Time spent waiting between retries.
    u32 attempts = 0;           ///< Radio attempts made (0 on cache hit).
    /**
     * The cloud stayed unreachable, so the query was answered locally
     * (stale cached results or an offline page) and the miss queued.
     * Never an error: degradation is the failure mode the caller sees.
     */
    bool degraded = false;
    /** Degraded answer carried cached (possibly stale) results. */
    bool staleServe = false;
    /** Whole-device power timeline (base + radio), for Figure 16. */
    std::vector<PowerSegment> trace;
};

/**
 * The simulated phone.
 */
class MobileDevice
{
  public:
    /**
     * @param universe World model for PocketSearch.
     * @param cfg Device constants.
     * @param ps_cfg PocketSearch configuration.
     */
    MobileDevice(const core::QueryUniverse &universe,
                 const DeviceConfig &cfg = {},
                 const PocketSearchConfig &ps_cfg = {});

    /**
     * Install community cache contents (the overnight push).
     * @return Flash write time of the push.
     */
    SimTime installCommunityCache(const core::CacheContents &contents);

    /**
     * Serve one query end to end.
     *
     * @param pair The (query, clicked result) intent being replayed.
     * @param path Serving policy.
     * @param record_click Whether to feed the click back into
     *        personalization (hit-rate experiments do; latency
     *        microbenchmarks usually don't).
     */
    QueryOutcome serveQuery(const workload::PairRef &pair, ServePath path,
                            bool record_click = true);

    /**
     * Navigation latency: query serving plus landing-page load
     * (Table 5). The landing page always loads over 3G.
     */
    SimTime navigationLatency(const QueryOutcome &q, PageWeight w) const;

    /** The cache. */
    PocketSearch &pocketSearch() { return *ps_; }
    /** The cache. */
    const PocketSearch &pocketSearch() const { return *ps_; }

    /** A radio by path (must not be PocketSearch). */
    radio::RadioLink &link(ServePath p);

    /**
     * Attach a fault plan: radio exchanges become fallible (the retry
     * policy engages) and the flash store becomes crash-able/bit-rotten.
     * nullptr detaches and restores perfect-hardware behaviour.
     */
    void attachFaults(fault::FaultPlan *plan);

    /** The attached fault plan (may be nullptr). */
    fault::FaultPlan *faults() const { return faults_; }

    /**
     * Attach a metrics registry: the device registers its counters
     * ("device.queries", "device.radio.attempts", ...), per-path
     * latency/energy histograms ("device.latency_ms.<path>"), and
     * wires the store ("simfs.*"), PocketSearch ("core.search.*") and
     * every radio link ("device.radio.<link>.*") into the same
     * registry. These counters are the device's only ledger of what it
     * did about injected faults: a detached device counts nothing.
     * nullptr detaches everything.
     */
    void attachMetrics(obs::MetricRegistry *reg);

    /**
     * Attach a tracer: every served query records spans on the track
     * named `track_label` — an umbrella span (category "query") plus
     * component spans (category "device": probe, fetch, radio
     * attempts, backoffs, render, ...) whose durations sum exactly to
     * the query's end-to-end latency. nullptr detaches.
     */
    void attachTracer(obs::Tracer *tracer,
                      const std::string &track_label = "device");

    /**
     * Attach a flight recorder: every community sync records typed
     * causal events (obs/causal.h) covering both tiers of the
     * pipeline. nullptr detaches; a detached device pays exactly one
     * pointer test per sync stage — no allocation, no RNG draw, no
     * behaviour change (bench_trace_overhead gates this).
     */
    void attachFlightRecorder(obs::FlightRecorder *rec)
    {
        recorder_ = rec;
    }

    /** The attached flight recorder (may be nullptr). */
    obs::FlightRecorder *flightRecorder() const { return recorder_; }

    /**
     * Attach a health accountant (obs/health.h): every served query
     * and community sync folds its already-measured spans into the
     * busy-time/demand ledgers, and each radio link's committed
     * exchanges bump its per-link ledger. nullptr detaches. Same cost
     * contract as the flight recorder: detached is one pointer test,
     * attached is cached-counter adds — zero allocations, zero RNG
     * draws, zero behaviour change (health_test gates this).
     */
    void attachHealth(obs::health::HealthAccountant *acct);

    /** The attached health accountant (may be nullptr). */
    obs::health::HealthAccountant *health() const { return health_; }

    /**
     * Open the causal trace of the next community sync and record its
     * root SyncRequest event. The cloud service calls this before the
     * version lookup so server-tier stages land in the same trace; a
     * device-initiated sync opens one lazily. No-op without a
     * recorder.
     */
    void beginSyncTrace();

    /** Discard the active sync trace (no-version outcomes). */
    void clearSyncTrace() { syncCtx_ = obs::TraceContext{}; }

    /**
     * Record one stage into the active sync trace: the context's
     * trace/span ids are filled in here, then the event is copied into
     * the recorder. No-op when no recorder or no open trace. The
     * service uses this to land server-tier stages in the device's
     * ring — the recorder is private to the device's worker, so the
     * cross-tier chain stays thread-free and deterministic.
     */
    void recordSyncStage(obs::SyncEvent ev);

    /** Misses queued while the cloud was unreachable (oldest first). */
    const std::vector<workload::PairRef> &missQueue() const
    {
        return missQueue_;
    }

    /** Outcome of a miss-queue sync pass. */
    struct SyncResult
    {
        u64 synced = 0;        ///< Queued misses fetched and learned.
        u64 remaining = 0;     ///< Still queued (connectivity died again).
        SimTime time = 0;      ///< Radio time spent syncing.
        MicroJoules energy = 0; ///< Radio energy spent syncing.
    };

    /**
     * Drain the offline miss queue over the given radio path: fetch
     * each queued miss and feed it to personalization, stopping early
     * if connectivity fails again. Call when coverage returns.
     */
    SyncResult syncMissQueue(ServePath path = ServePath::ThreeG);

    /** Everything measured about one community-model sync. */
    struct CommunitySyncResult
    {
        bool ok = false;     ///< Delta downloaded and applied.
        u64 fromVersion = 0; ///< Device model version before the sync.
        u64 toVersion = 0;   ///< Version after (== from on failure).
        u32 attempts = 0;    ///< Radio attempts made.
        Bytes deltaBytes = 0;  ///< Downlink payload (delta wire size).
        SimTime time = 0;      ///< Radio + apply time.
        SimTime backoffTime = 0; ///< Wait between retry attempts.
        MicroJoules energy = 0; ///< Radio energy spent.
        u32 corruptRejected = 0; ///< Frames rejected by the CRC check.
        /** The verified delta failed validation (state mismatch). */
        bool rejected = false;
        /** Why validation rejected it (None unless `rejected`). */
        core::DeltaApplyError applyError = core::DeltaApplyError::None;
        core::DeltaApplyStats apply{}; ///< Application accounting.
    };

    /**
     * Download and apply one community-model delta from the cloud
     * update service over a radio path, with the same retry/backoff
     * machinery (and fault plan) a query miss uses. The delta travels
     * as a CRC-32 integrity frame (core::frameDelta); this overload
     * frames it locally and defers to syncCommunityFrame. On success
     * the delta is applied to PocketSearch (core/delta.h rules) and
     * the device's community version advances to delta.toVersion; on
     * failure the cache and version are untouched and the service can
     * retry next sync window.
     */
    CommunitySyncResult
    syncCommunityUpdate(const core::CommunityDelta &delta,
                        ServePath path = ServePath::ThreeG);

    /**
     * Download and apply one framed community delta. Every radio
     * attempt delivers `frame` through the attached fault plan (which
     * may flip a bit in flight); a frame that fails the CRC-32 check
     * is counted, dropped, and re-requested under the standard retry
     * backoff — corrupt bytes never reach the cache. A frame that
     * verifies but whose delta fails transactional validation
     * (version skew: the device's table is not the state the delta
     * was diffed against) is rejected whole with `rejected` set and
     * no retry, since re-downloading the same mismatch cannot help.
     * Both terminal outcomes advance the bad-delta streak; after
     * kBadDeltaEscalation consecutive bad syncs needsFullInstall()
     * turns true and the service falls back to a full install, which
     * resets the streak when it lands.
     *
     * @param frame core::frameDelta() bytes as sent by the service.
     * @param wire_bytes Modelled downlink payload for the radio
     *        (frame plus patched flash records; deltaWireBytes).
     * @param path Radio path.
     */
    CommunitySyncResult
    syncCommunityFrame(const std::string &frame, Bytes wire_bytes,
                       ServePath path = ServePath::ThreeG);

    /** Consecutive bad syncs before escalating to a full install. */
    static constexpr u32 kBadDeltaEscalation = 3;

    /**
     * True once kBadDeltaEscalation consecutive syncs ended in a
     * corrupt or rejected delta: incremental updates are not landing,
     * so the next sync should be a full install (fromVersion 0).
     */
    bool needsFullInstall() const
    {
        return badDeltaStreak_ >= kBadDeltaEscalation;
    }

    /** Consecutive syncs that ended corrupt/rejected (0 after a success). */
    u32 badDeltaStreak() const { return badDeltaStreak_; }

    /** Community-model version last synced (0 = never synced). */
    u64 communityVersion() const { return communityVersion_; }

    /** Pin the community version (tests / snapshot restore). */
    void setCommunityVersion(u64 v) { communityVersion_ = v; }

    /** Simulated now (advances as queries are served). */
    SimTime now() const { return now_; }

    /** Advance simulated time (e.g., idle gaps between queries). */
    void advanceTime(SimTime dt) { now_ += dt; }

    /** Device constants. */
    const DeviceConfig &config() const { return cfg_; }

    /** The flash file store (inspection). */
    pc::simfs::FlashStore &store() { return *store_; }

    /** The raw flash device (inspection). */
    pc::nvm::FlashDevice &flash() { return *flash_; }

  private:
    /** Cached metric handles (null when no registry is attached). */
    struct Metrics
    {
        obs::Counter *queries = nullptr;
        obs::Counter *cacheHits = nullptr;
        obs::Counter *attempts = nullptr;
        obs::Counter *retries = nullptr;
        obs::Counter *noCoverage = nullptr;
        obs::Counter *failed = nullptr;
        obs::Counter *spikes = nullptr;
        obs::Counter *degraded = nullptr;
        obs::Counter *stale = nullptr;
        obs::Counter *offline = nullptr;
        obs::Counter *queued = nullptr;
        obs::Counter *synced = nullptr;
        obs::Counter *corruptDelta = nullptr;
        obs::Counter *rejectedDelta = nullptr;
        obs::Histogram *latency[4] = {};
        obs::Histogram *energy[4] = {};
    };

    /** Bump a cached counter if metrics are attached. */
    static void
    bumpCtr(obs::Counter *c, u64 delta = 1)
    {
        if (c)
            c->bump(delta);
    }

    /** Record a component span if a tracer is attached. */
    void traceSpan(const char *name, const char *cat, SimTime start,
                   SimTime dur) const;

    /** Record the per-query umbrella span and histogram samples. */
    void finishQueryObs(const workload::PairRef &pair, ServePath path,
                        const QueryOutcome &out, SimTime t0);

    /** Append a device-power segment and charge energy. */
    void addSegment(QueryOutcome &out, const char *label, SimTime dur,
                    MilliWatts power) const;

    /**
     * Run the radio exchange with retry/backoff under the attached
     * fault plan. Appends trace segments to `out` and advances its
     * radio/backoff accounting. @return True once an attempt succeeds.
     */
    bool radioExchangeWithRetry(QueryOutcome &out, radio::RadioLink &radio,
                                SimTime start);

    DeviceConfig cfg_;
    std::unique_ptr<pc::nvm::FlashDevice> flash_;
    std::unique_ptr<pc::simfs::FlashStore> store_;
    std::unique_ptr<PocketSearch> ps_;
    Browser browser_;
    radio::RadioLink threeG_;
    radio::RadioLink edge_;
    radio::RadioLink wifi_;
    SimTime now_ = 0;
    u64 communityVersion_ = 0;
    u32 badDeltaStreak_ = 0;
    fault::FaultPlan *faults_ = nullptr;
    std::vector<workload::PairRef> missQueue_;
    obs::MetricRegistry *registry_ = nullptr;
    Metrics metrics_;
    obs::Tracer *tracer_ = nullptr;
    u32 traceTrack_ = 0;
    obs::FlightRecorder *recorder_ = nullptr;
    obs::TraceContext syncCtx_;
    obs::health::HealthAccountant *health_ = nullptr;
};

} // namespace pc::device

#endif // PC_DEVICE_MOBILE_DEVICE_H
