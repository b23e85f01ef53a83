#include "obs/causal.h"

#include <cstdio>
#include <cstring>

#include "util/hash.h"
#include "util/logging.h"

namespace pc::obs {

const char *
syncTierName(SyncTier t)
{
    switch (t) {
      case SyncTier::Device: return "device";
      case SyncTier::Server: return "server";
    }
    return "?";
}

const char *
syncStageName(SyncStage s)
{
    switch (s) {
      case SyncStage::SyncRequest: return "sync_request";
      case SyncStage::VersionLookup: return "version_lookup";
      case SyncStage::DeltaBuild: return "delta_build";
      case SyncStage::Escalate: return "escalate";
      case SyncStage::NoVersion: return "no_version";
      case SyncStage::FrameDelivery: return "frame_delivery";
      case SyncStage::Backoff: return "backoff";
      case SyncStage::CrcCheck: return "crc_check";
      case SyncStage::Validate: return "validate";
      case SyncStage::Commit: return "commit";
      case SyncStage::Reject: return "reject";
      case SyncStage::Abort: return "abort";
      case SyncStage::Sabotage: return "sabotage";
      case SyncStage::SloBreach: return "slo_breach";
    }
    return "?";
}

bool
syncStageFromName(std::string_view name, SyncStage &out)
{
    static constexpr SyncStage kAll[] = {
        SyncStage::SyncRequest, SyncStage::VersionLookup,
        SyncStage::DeltaBuild,  SyncStage::Escalate,
        SyncStage::NoVersion,   SyncStage::FrameDelivery,
        SyncStage::Backoff,     SyncStage::CrcCheck,
        SyncStage::Validate,    SyncStage::Commit,
        SyncStage::Reject,      SyncStage::Abort,
        SyncStage::Sabotage,    SyncStage::SloBreach,
    };
    for (SyncStage s : kAll) {
        if (name == syncStageName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

u64
deriveTraceId(u64 device_id, u64 seq)
{
    // mix64 over a device/sequence combination with odd multipliers:
    // collision-free in practice across a fleet, fully deterministic,
    // and never 0 (0 means "no trace") thanks to the fallback.
    const u64 id = mix64(device_id * 0x9e3779b97f4a7c15ull ^
                         (seq + 1) * 0xc2b2ae3d27d4eb4full);
    return id == 0 ? 1 : id;
}

FlightRecorder::FlightRecorder(u64 device_id, std::size_t capacity)
    : deviceId_(device_id)
{
    pc_assert(capacity >= 1, "FlightRecorder needs capacity >= 1");
    ring_.reserve(capacity);
}

TraceContext
FlightRecorder::beginTrace()
{
    TraceContext ctx;
    ctx.traceId = deriveTraceId(deviceId_, seq_++);
    lastTraceId_ = ctx.traceId;
    return ctx;
}

void
FlightRecorder::record(const SyncEvent &ev)
{
    ++recorded_;
    if (ring_.size() < ring_.capacity()) {
        ring_.push_back(ev);
        return;
    }
    // Saturated: overwrite the oldest slot in place (no allocation).
    ring_[head_] = ev;
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
}

std::vector<SyncEvent>
FlightRecorder::events() const
{
    std::vector<SyncEvent> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

std::vector<SyncEvent>
FlightRecorder::trace(u64 trace_id) const
{
    std::vector<SyncEvent> out;
    for (std::size_t i = 0; i < ring_.size(); ++i) {
        const SyncEvent &ev = ring_[(head_ + i) % ring_.size()];
        if (ev.traceId == trace_id)
            out.push_back(ev);
    }
    return out;
}

void
FlightRecorder::publishMetrics(MetricRegistry &reg) const
{
    reg.counter("obs.flight.recorded").bump(recorded_);
    reg.counter("obs.flight.dropped").bump(dropped_);
}

SyncExplain
explainSync(const std::vector<SyncEvent> &events, u64 trace_id)
{
    SyncExplain out;
    if (trace_id == 0) {
        for (const SyncEvent &ev : events)
            if (ev.traceId != 0)
                trace_id = ev.traceId;
    }
    out.traceId = trace_id;
    for (const SyncEvent &ev : events) {
        if (ev.traceId != trace_id)
            continue;
        out.rows.push_back({ev, 0.0});
        if (ev.tier == SyncTier::Device)
            out.criticalPath += ev.duration;
    }
    if (out.criticalPath > 0) {
        for (ExplainRow &row : out.rows) {
            if (row.event.tier == SyncTier::Device)
                row.share = double(row.event.duration) /
                            double(out.criticalPath);
        }
    }
    return out;
}

namespace {

/** Deterministic hex rendering of a trace id ("0x..."). */
std::string
traceIdHex(u64 id)
{
    char buf[2 + 16 + 1];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  (unsigned long long)id);
    return buf;
}

/** traceIdHex's inverse; false on malformed input. */
bool
traceIdFromHex(const std::string &s, u64 &out)
{
    if (s.size() != 18 || s[0] != '0' || s[1] != 'x')
        return false;
    u64 v = 0;
    for (std::size_t i = 2; i < s.size(); ++i) {
        const char c = s[i];
        u64 nibble = 0;
        if (c >= '0' && c <= '9')
            nibble = u64(c - '0');
        else if (c >= 'a' && c <= 'f')
            nibble = u64(c - 'a') + 10;
        else
            return false;
        v = (v << 4) | nibble;
    }
    out = v;
    return true;
}

} // namespace

void
writeSyncEvents(JsonWriter &w, const std::vector<SyncEvent> &events)
{
    w.beginArray();
    for (const SyncEvent &ev : events) {
        w.beginObject();
        w.kv("trace", traceIdHex(ev.traceId));
        w.kv("span", u64(ev.span));
        w.kv("parent", u64(ev.parent));
        w.kv("tier", syncTierName(ev.tier));
        w.kv("stage", syncStageName(ev.stage));
        w.kv("ok", ev.ok);
        w.kv("attempt", u64(ev.attempt));
        w.kv("from", ev.fromVersion);
        w.kv("to", ev.toVersion);
        w.kv("bytes", ev.bytes);
        w.kv("detail", ev.detail);
        w.kv("t_ns", i64(ev.start));
        w.kv("dur_ns", i64(ev.duration));
        w.endObject();
    }
    w.endArray();
}

bool
readSyncEvents(const JsonValue &arr, std::vector<SyncEvent> &out)
{
    if (!arr.isArray())
        return false;
    out.clear();
    out.reserve(arr.array().size());
    for (const JsonValue &v : arr.array()) {
        if (!v.isObject())
            return false;
        SyncEvent ev;
        if (!traceIdFromHex(v.strOr("trace", ""), ev.traceId))
            return false;
        ev.span = u32(v.numberOr("span", 0));
        ev.parent = u32(v.numberOr("parent", 0));
        const std::string tier = v.strOr("tier", "");
        if (tier == "device")
            ev.tier = SyncTier::Device;
        else if (tier == "server")
            ev.tier = SyncTier::Server;
        else
            return false;
        if (!syncStageFromName(v.strOr("stage", ""), ev.stage))
            return false;
        const JsonValue *ok = v.find("ok");
        if (ok == nullptr || !ok->isBool())
            return false;
        ev.ok = ok->boolean();
        ev.attempt = u32(v.numberOr("attempt", 0));
        ev.fromVersion = u64(v.numberOr("from", 0));
        ev.toVersion = u64(v.numberOr("to", 0));
        ev.bytes = u64(v.numberOr("bytes", 0));
        ev.detail = u64(v.numberOr("detail", 0));
        ev.start = SimTime(v.numberOr("t_ns", 0));
        ev.duration = SimTime(v.numberOr("dur_ns", 0));
        out.push_back(ev);
    }
    return true;
}

} // namespace pc::obs
