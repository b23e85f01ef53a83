/**
 * @file
 * Causal sync tracing: cross-tier trace propagation and the per-device
 * flight recorder.
 *
 * The community-model sync loop spans two machines — the device cache
 * and the cloud builder — and when a chaos run trips an invariant the
 * question is always *which device, which sync, why*. This module
 * gives every sync a deterministic causal identity (a TraceContext
 * whose trace/span ids derive from the device id and the sync
 * sequence, never from wall clocks or pointers, so traces are
 * byte-identical at any thread count) and records typed, fixed-size
 * SyncEvents from both tiers into a bounded per-device FlightRecorder
 * ring.
 *
 * Cost contract (bench_trace_overhead gates it):
 *  - recorder detached: the sync hot path performs no recording work
 *    beyond a null-pointer test — zero allocations, zero RNG draws,
 *    zero behaviour change;
 *  - recorder attached: SyncEvent is a POD and the ring is
 *    preallocated at construction, so recording itself still performs
 *    zero allocations and zero RNG draws on the hot path — attaching a
 *    recorder cannot perturb a seeded experiment's fault stream.
 *
 * The postmortem engine (harness/postmortem.h) folds these rings in
 * device-index order into explained InvariantReports; explainSync()
 * turns one trace's events into a per-stage critical-path breakdown
 * (pocket_shell `explain`, tools/trace_explain).
 */

#ifndef PC_OBS_CAUSAL_H
#define PC_OBS_CAUSAL_H

#include <vector>

#include "obs/json.h"
#include "obs/jsonparse.h"
#include "obs/metrics.h"
#include "util/types.h"

namespace pc::obs {

/** Which tier of the sync pipeline emitted an event. */
enum class SyncTier : u8
{
    Device = 0, ///< The phone: request, delivery, verify, apply.
    Server = 1, ///< The cloud service: lookup, build, escalation.
};

/** Display name of a tier ("device" / "server"). */
const char *syncTierName(SyncTier t);

/**
 * Typed stages of one device<->cloud sync, in causal order. Device
 * and server stages interleave within one trace: request -> lookup ->
 * build -> delivery attempts (with CRC verdicts) -> validate ->
 * commit/reject.
 */
enum class SyncStage : u8
{
    SyncRequest = 0, ///< Device opens the sync (the trace root).
    VersionLookup,   ///< Server resolves device/target versions.
    DeltaBuild,      ///< Server diffs from->to (from 0 = full install).
    Escalate,        ///< Server forced a full install (bad streak).
    NoVersion,       ///< Target version off the history window.
    FrameDelivery,   ///< One radio attempt carrying the frame.
    Backoff,         ///< Retry backoff wait between attempts.
    CrcCheck,        ///< Integrity verdict on a delivered frame.
    Validate,        ///< Transactional validation verdict.
    Commit,          ///< Delta committed; version advanced.
    Reject,          ///< Verified delta rejected (version skew).
    Abort,           ///< Sync gave up (retries/budget exhausted).
    Sabotage,        ///< Chaos injected a silent table corruption.
    SloBreach,       ///< SLO burn-rate breach window (obs/slo.h).
};

/** Metric-safe display name of a stage ("sync_request", ...). */
const char *syncStageName(SyncStage s);

/** syncStageName's inverse; false when `name` is unknown. */
bool syncStageFromName(std::string_view name, SyncStage &out);

/**
 * Deterministic causal identity of one sync. The trace id derives
 * from (device id, per-device sync sequence) through mix64, so two
 * runs of the same fleet produce identical ids at any thread count;
 * span ids are a per-trace sequence with the root at 1.
 */
struct TraceContext
{
    u64 traceId = 0; ///< 0 = no active trace (recording disabled).
    u32 rootSpan = 0;
    u32 nextSpan = 1;

    /** Allocate the next span id within this trace. */
    u32 newSpan() { return nextSpan++; }

    /** True when a recorder opened this context. */
    bool valid() const { return traceId != 0; }
};

/** The deterministic trace-id derivation (exposed for tests). */
u64 deriveTraceId(u64 device_id, u64 seq);

/**
 * One typed sync event. Fixed-size POD on purpose: recording is a
 * struct copy into a preallocated ring — no allocation, ever.
 * `detail` is stage-specific: delta op count (DeltaBuild), frame
 * error code (CrcCheck), DeltaApplyError (Validate/Reject), apply op
 * count (Commit), canonical table digest (Sabotage).
 */
struct SyncEvent
{
    u64 traceId = 0;
    u32 span = 0;
    u32 parent = 0; ///< Parent span id; 0 = root.
    SyncTier tier = SyncTier::Device;
    SyncStage stage = SyncStage::SyncRequest;
    bool ok = true;
    u32 attempt = 0; ///< Radio attempt number (delivery/backoff/CRC).
    u64 fromVersion = 0;
    u64 toVersion = 0;
    u64 bytes = 0;  ///< Wire bytes (delivery events).
    u64 detail = 0; ///< Stage-specific (see struct comment).
    SimTime start = 0;
    SimTime duration = 0;
};

/**
 * Bounded per-device ring of sync events — the flight recorder. The
 * ring is preallocated at construction; once full, the oldest event
 * is overwritten and counted, so a long soak keeps the most recent
 * causal window. Single-writer by design (one device), like the
 * device itself.
 */
class FlightRecorder
{
  public:
    /** Default ring capacity (events, not syncs). */
    static constexpr std::size_t kDefaultCapacity = 256;

    /**
     * @param device_id Stable device identity (fleet index) the trace
     *        ids derive from.
     * @param capacity Ring capacity; preallocated here so record()
     *        never allocates.
     */
    explicit FlightRecorder(u64 device_id,
                            std::size_t capacity = kDefaultCapacity);

    /** Device identity trace ids derive from. */
    u64 deviceId() const { return deviceId_; }

    /** Open the next sync's trace context (deterministic ids). */
    TraceContext beginTrace();

    /** Record one event (overwrites the oldest when full; no alloc). */
    void record(const SyncEvent &ev);

    /** Events ever recorded (including overwritten). */
    u64 recorded() const { return recorded_; }

    /** Events overwritten by the ring bound. */
    u64 dropped() const { return dropped_; }

    /** Ring capacity. */
    std::size_t capacity() const { return ring_.capacity(); }

    /** Events currently retained. */
    std::size_t size() const { return ring_.size(); }

    /** Trace id of the most recently opened trace (0 = none yet). */
    u64 lastTraceId() const { return lastTraceId_; }

    /** Retained events, oldest first (cold path: copies). */
    std::vector<SyncEvent> events() const;

    /** Retained events of one trace, oldest first. */
    std::vector<SyncEvent> trace(u64 trace_id) const;

    /**
     * Publish ring pressure into a registry: bumps the
     * "obs.flight.recorded" / "obs.flight.dropped" counters by the
     * current totals. Call once, when the device's run is over.
     */
    void publishMetrics(MetricRegistry &reg) const;

  private:
    u64 deviceId_;
    u64 seq_ = 0;
    u64 lastTraceId_ = 0;
    std::vector<SyncEvent> ring_; ///< Preallocated; ring via head_.
    std::size_t head_ = 0;        ///< Oldest element once saturated.
    u64 recorded_ = 0;
    u64 dropped_ = 0;
};

/** One row of a per-stage critical-path breakdown. */
struct ExplainRow
{
    SyncEvent event;
    /**
     * Share of the trace's critical path this event's duration is.
     * Server decisions and verdicts are instantaneous markers in
     * simulated time (their cost rides inside the radio exchange), so
     * their share is 0 and the device-side spans partition the path.
     */
    double share = 0.0;
};

/** Per-stage latency breakdown of one sync trace. */
struct SyncExplain
{
    u64 traceId = 0;
    /**
     * End-to-end critical path: the sum of device-tier durations
     * (radio attempts, backoffs, apply) — exactly the sync's reported
     * time.
     */
    SimTime criticalPath = 0;
    std::vector<ExplainRow> rows; ///< Events in causal order.
};

/**
 * Build the critical-path breakdown for `trace_id` (0 = the last
 * trace present in `events`). Rows keep event order; shares are
 * durations over the device-tier total.
 */
SyncExplain explainSync(const std::vector<SyncEvent> &events,
                        u64 trace_id = 0);

/**
 * Serialize events as a deterministic JSON array (the postmortem
 * chain format). Trace ids are hex strings — they exceed 2^53 and
 * must survive double-typed JSON readers.
 */
void writeSyncEvents(JsonWriter &w, const std::vector<SyncEvent> &events);

/**
 * Parse a writeSyncEvents() array back (tools/trace_explain). Events
 * with unknown stages/tiers fail the parse. @return False on shape
 * mismatch.
 */
bool readSyncEvents(const JsonValue &arr, std::vector<SyncEvent> &out);

} // namespace pc::obs

#endif // PC_OBS_CAUSAL_H
