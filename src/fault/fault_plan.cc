#include "fault/fault_plan.h"

#include <algorithm>

#include "util/logging.h"

namespace pc::fault {

FaultPlan::FaultPlan(const FaultConfig &cfg)
    : cfg_(cfg), rng_(cfg.seed)
{
    const auto &r = cfg_.radio;
    pc_assert(r.exchangeFailureRate >= 0.0 && r.exchangeFailureRate <= 1.0,
              "exchange failure rate must be a probability");
    pc_assert(r.outageShare >= 0.0 && r.outageShare < 1.0,
              "outage share must be in [0, 1)");
    pc_assert(r.latencySpikeRate >= 0.0 && r.latencySpikeRate <= 1.0,
              "latency spike rate must be a probability");
    pc_assert(r.latencySpikeFactor >= 1.0,
              "a latency spike cannot speed the exchange up");
    pc_assert(r.payloadCorruptRate >= 0.0 && r.payloadCorruptRate <= 1.0,
              "payload corruption rate must be a probability");

    outageEnabled_ = r.outageShare > 0.0 && r.meanOutageDuration > 0;
    if (outageEnabled_) {
        // Alternating exponential up/down intervals whose means give the
        // configured long-run outage share.
        meanUptime_ = SimTime(double(r.meanOutageDuration) *
                              (1.0 - r.outageShare) / r.outageShare);
        inOutage_ = false;
        nextTransition_ = SimTime(rng_.exponential(double(meanUptime_)));
    }
}

void
FaultPlan::advanceOutageSchedule(SimTime now)
{
    while (now >= nextTransition_) {
        inOutage_ = !inOutage_;
        const double mean = inOutage_
            ? double(cfg_.radio.meanOutageDuration)
            : double(meanUptime_);
        // Outages shorter than 1 unit would stall the schedule; clamp.
        nextTransition_ +=
            std::max<SimTime>(SimTime(rng_.exponential(mean)), 1);
    }
}

bool
FaultPlan::inOutage(SimTime now)
{
    if (!outageEnabled_)
        return false;
    advanceOutageSchedule(now);
    return inOutage_;
}

SimTime
FaultPlan::outageEnd(SimTime now)
{
    if (!inOutage(now))
        return now;
    return nextTransition_;
}

bool
FaultPlan::drawExchangeFailure()
{
    if (cfg_.radio.exchangeFailureRate <= 0.0)
        return false;
    const bool fail = rng_.chance(cfg_.radio.exchangeFailureRate);
    if (fail)
        ++stats_.exchangeFailures;
    return fail;
}

double
FaultPlan::drawFailurePoint()
{
    // Open interval: a failure at exactly 0 or 1 degenerates into
    // "never started" / "actually succeeded".
    return 0.05 + 0.9 * rng_.uniform();
}

bool
FaultPlan::drawLatencySpike()
{
    if (cfg_.radio.latencySpikeRate <= 0.0)
        return false;
    const bool spike = rng_.chance(cfg_.radio.latencySpikeRate);
    if (spike)
        ++stats_.latencySpikes;
    return spike;
}

std::optional<std::string>
FaultPlan::maybeCorruptPayload(std::string_view payload)
{
    if (cfg_.radio.payloadCorruptRate <= 0.0 || payload.empty())
        return std::nullopt;
    if (!rng_.chance(cfg_.radio.payloadCorruptRate))
        return std::nullopt;
    const u64 bit = rng_.below(u64(payload.size()) * 8);
    std::string mangled(payload);
    mangled[bit / 8] =
        char(u8(mangled[bit / 8]) ^ (1u << (bit % 8)));
    ++stats_.payloadCorruptions;
    return mangled;
}

double
FaultPlan::jitter(double frac)
{
    if (frac <= 0.0)
        return 1.0;
    return rng_.uniform(1.0 - frac, 1.0 + frac);
}

void
FaultPlan::armCrashAfterBytes(Bytes bytes)
{
    pc_assert(!powerLost_, "cannot arm a crash while the power is out");
    crashArmed_ = true;
    crashBudget_ = bytes;
}

Bytes
FaultPlan::programBudget(Bytes want)
{
    if (powerLost_)
        return 0;
    if (!crashArmed_)
        return want;
    if (want <= crashBudget_) {
        crashBudget_ -= want;
        return want;
    }
    const Bytes granted = crashBudget_;
    crashBudget_ = 0;
    crashArmed_ = false;
    powerLost_ = true;
    ++stats_.crashes;
    return granted;
}

void
FaultPlan::reboot()
{
    crashArmed_ = false;
    powerLost_ = false;
    crashBudget_ = 0;
}

bool
FaultPlan::maybeFlipBit(std::string &buf, Bytes from, Bytes len,
                        u64 blockErases)
{
    const double per_kilo = cfg_.storage.bitFlipPerReadPerKiloErase;
    if (per_kilo <= 0.0 || len == 0 || blockErases == 0)
        return false;
    const double p =
        std::min(1.0, per_kilo * double(blockErases) / 1000.0);
    if (!rng_.chance(p))
        return false;
    pc_assert(from + len <= buf.size(), "flip range beyond buffer");
    const u64 bit = rng_.below(len * 8);
    buf[from + bit / 8] = char(u8(buf[from + bit / 8]) ^ (1u << (bit % 8)));
    ++stats_.bitFlips;
    return true;
}

void
FaultPlan::publishMetrics(obs::MetricRegistry &reg) const
{
    reg.counter("fault.outage_attempts").bump(stats_.outageAttempts);
    reg.counter("fault.exchange_failures").bump(stats_.exchangeFailures);
    reg.counter("fault.latency_spikes").bump(stats_.latencySpikes);
    reg.counter("fault.payload_corruptions")
        .bump(stats_.payloadCorruptions);
    reg.counter("fault.bit_flips").bump(stats_.bitFlips);
    reg.counter("fault.crashes").bump(stats_.crashes);
}

} // namespace pc::fault
