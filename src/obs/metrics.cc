#include "obs/metrics.h"

#include <algorithm>

#include "obs/json.h"
#include "util/logging.h"

namespace pc::obs {

u64
MetricsSnapshot::counterValue(const std::string &name) const
{
    for (const auto &[n, v] : counters) {
        if (n == name)
            return v;
    }
    return 0;
}

MetricsSnapshot
MetricsSnapshot::deltaSince(const MetricsSnapshot &earlier) const
{
    MetricsSnapshot d;
    d.counters.reserve(counters.size());
    for (const auto &[n, v] : counters) {
        const u64 before = earlier.counterValue(n);
        d.counters.emplace_back(n, v >= before ? v - before : 0);
    }
    d.gauges.reserve(gauges.size());
    for (const auto &[n, v] : gauges) {
        double before = 0.0;
        for (const auto &[en, ev] : earlier.gauges) {
            if (en == n) {
                before = ev;
                break;
            }
        }
        d.gauges.emplace_back(n, v - before);
    }
    d.histograms = histograms;
    return d;
}

void
MetricsSnapshot::writeJson(std::ostream &os, bool pretty) const
{
    JsonWriter w(os, pretty);
    w.beginObject();
    w.key("counters");
    w.beginObject();
    for (const auto &[n, v] : counters)
        w.kv(n, v);
    w.endObject();
    w.key("gauges");
    w.beginObject();
    for (const auto &[n, v] : gauges)
        w.kv(n, v);
    w.endObject();
    w.key("histograms");
    w.beginArray();
    for (const auto &h : histograms) {
        w.beginObject();
        w.kv("name", h.name);
        w.kv("count", h.count);
        w.kv("mean", h.mean);
        w.kv("min", h.min);
        w.kv("max", h.max);
        w.kv("sum", h.sum);
        w.kv("p50", h.p50);
        w.kv("p90", h.p90);
        w.kv("p99", h.p99);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
MetricRegistry::checkType(const std::string &name, const char *want) const
{
    pc_assert(!name.empty(), "metric name must not be empty");
    const bool isCounter = counters_.count(name) > 0;
    const bool isGauge = gauges_.count(name) > 0;
    const bool isHisto = histograms_.count(name) > 0;
    const char *have = isCounter ? "counter"
                     : isGauge   ? "gauge"
                     : isHisto   ? "histogram"
                                 : want;
    if (std::string_view(have) != want)
        pc_fatal("metric '", name, "' already registered as a ", have,
                 ", requested as a ", want);
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    checkType(name, "counter");
    auto &slot = counters_[name];
    if (!slot)
        slot.reset(new Counter(name));
    return *slot;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    checkType(name, "gauge");
    auto &slot = gauges_[name];
    if (!slot)
        slot.reset(new Gauge(name));
    return *slot;
}

Histogram &
MetricRegistry::histogram(const std::string &name)
{
    checkType(name, "histogram");
    auto &slot = histograms_[name];
    if (!slot)
        slot.reset(new Histogram(name));
    return *slot;
}

const Counter *
MetricRegistry::findCounter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second.get();
}

u64
MetricRegistry::counterValue(const std::string &name) const
{
    const Counter *c = findCounter(name);
    return c ? c->value() : 0;
}

const Gauge *
MetricRegistry::findGauge(const std::string &name) const
{
    auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram *
MetricRegistry::findHistogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second.get();
}

MetricsSnapshot
MetricRegistry::snapshot() const
{
    MetricsSnapshot s;
    s.counters.reserve(counters_.size());
    for (const auto &[n, c] : counters_)
        s.counters.emplace_back(n, c->value());
    s.gauges.reserve(gauges_.size());
    for (const auto &[n, g] : gauges_)
        s.gauges.emplace_back(n, g->value());
    s.histograms.reserve(histograms_.size());
    for (const auto &[n, h] : histograms_) {
        HistogramSummary hs;
        hs.name = n;
        hs.count = h->count();
        hs.mean = h->mean();
        hs.min = h->min();
        hs.max = h->max();
        hs.sum = h->sum();
        hs.p50 = h->quantile(0.50);
        hs.p90 = h->quantile(0.90);
        hs.p99 = h->quantile(0.99);
        s.histograms.push_back(std::move(hs));
    }
    return s;
}

void
MetricRegistry::mergeFrom(const MetricRegistry &other)
{
    for (const auto &[n, c] : other.counters_)
        counter(n).bump(c->value());
    for (const auto &[n, g] : other.gauges_)
        gauge(n).set(g->value());
    for (const auto &[n, h] : other.histograms_) {
        auto it = histograms_.find(n);
        Histogram &dst = it != histograms_.end() ? *it->second : histogram(n);
        dst.mergeFrom(*h);
    }
}

} // namespace pc::obs
