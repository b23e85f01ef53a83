#include <algorithm>
#include <fstream>
#include <iostream>

#include <sys/resource.h>

#include "perfbench.h"

namespace pc::perfbench {

void
RunResult::fail(const std::string &why)
{
    std::cerr << "perfbench: check failed: " << why << "\n";
    correct = false;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB.
}

const char *
layerName(Layer l)
{
    switch (l) {
      case Layer::DeviceCreate: return "device.create";
      case Layer::CoreInstall: return "core.install";
      case Layer::WorkloadStream: return "workload.stream";
      case Layer::DeviceServe: return "device.serve";
      case Layer::DeviceMissDrain: return "device.miss_drain";
      case Layer::ObsSnapshot: return "obs.snapshot";
      case Layer::ObsFold: return "obs.fold";
      case Layer::ServerIngest: return "server.ingest";
      case Layer::ServerDelta: return "server.delta";
      case Layer::DeviceSyncFull: return "device.sync_full";
      case Layer::DeviceSyncDelta: return "device.sync_delta";
      case Layer::Count: break;
    }
    return "unknown";
}

u64
SpanLog::calls(Layer l) const
{
    return u64(std::count_if(spans_.begin(), spans_.end(),
                             [l](const Span &s) { return s.layer == l; }));
}

u64
SpanLog::busyNs(Layer l) const
{
    u64 ns = 0;
    for (const auto &s : spans_)
        if (s.layer == l)
            ns += s.durNs;
    return ns;
}

u64
SpanLog::totalBusyNs() const
{
    u64 ns = 0;
    for (const auto &s : spans_)
        ns += s.durNs;
    return ns;
}

std::vector<u64>
SpanLog::sortedDurations(Layer l) const
{
    std::vector<u64> d;
    for (const auto &s : spans_)
        if (s.layer == l)
            d.push_back(s.durNs);
    std::sort(d.begin(), d.end());
    return d;
}

bool
SpanLog::writeCsv(const std::string &path) const
{
    std::ofstream f(path);
    f << "layer,owner,start_ns,dur_ns\n";
    const u64 t0 = spans_.empty() ? 0 : spans_.front().startNs;
    for (const auto &s : spans_)
        f << layerName(s.layer) << ',' << s.owner << ','
          << (s.startNs - t0) << ',' << s.durNs << '\n';
    return bool(f);
}

double
quantileOf(const std::vector<u64> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::size_t rank = std::size_t(q * double(sorted.size()));
    return double(sorted[std::min(rank, sorted.size() - 1)]);
}

double
measureTimerOverheadNs()
{
    constexpr std::size_t kSpans = 200'000;
    SpanLog scratch(kSpans);
    const u64 t0 = nowNs();
    for (std::size_t i = 0; i < kSpans; ++i)
        SpanLog::Scope s(scratch, Layer::DeviceServe, u32(i));
    return double(nowNs() - t0) / double(kSpans);
}

void
emitLayerMetrics(const SpanLog &log, const TraceTotals &t,
                 unsigned workers, RunResult &out)
{
    const double total = double(log.totalBusyNs());
    for (int i = 0; i < int(Layer::Count); ++i) {
        const Layer l = Layer(i);
        const std::string name = layerName(l);
        const double busy = double(log.busyNs(l));
        out.metric(name + ".calls", double(log.calls(l)), "count");
        out.metric(name + ".busy_s", busy / 1e9, "s");
        out.metric(name + ".share", total > 0 ? busy / total : 0.0,
                   "ratio");
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    const auto install = log.sortedDurations(Layer::CoreInstall);
    out.metric("core.install.p50_us", quantileOf(install, 0.50) / 1e3, "us");
    out.metric("core.install.p95_us", quantileOf(install, 0.95) / 1e3, "us");
    out.metric("core.install.us_per_pair",
               ratio(double(log.busyNs(Layer::CoreInstall)) / 1e3,
                     double(install.size()) * double(t.installPairs)),
               "us");

    const auto serve = log.sortedDurations(Layer::DeviceServe);
    out.metric("device.serve.p50_ns", quantileOf(serve, 0.50), "ns");
    out.metric("device.serve.p99_ns", quantileOf(serve, 0.99), "ns");
    out.metric("device.serve.hit_ratio",
               ratio(double(t.serveHits), double(serve.size())), "ratio");
    out.metric("device.serve.degraded_ratio",
               ratio(double(t.serveDegraded), double(serve.size())),
               "ratio");

    out.metric("workload.stream.events", double(t.streamEvents), "count");
    out.metric("obs.snapshot.p50_us",
               quantileOf(log.sortedDurations(Layer::ObsSnapshot), 0.5) / 1e3,
               "us");
    out.metric("obs.fold.p50_us",
               quantileOf(log.sortedDurations(Layer::ObsFold), 0.5) / 1e3,
               "us");

    const double ingestNs = double(log.busyNs(Layer::ServerIngest));
    out.metric("server.ingest.p50_ms",
               quantileOf(log.sortedDurations(Layer::ServerIngest), 0.5) / 1e6,
               "ms");
    out.metric("server.ingest.records", double(t.ingestRecords), "count");
    out.metric("server.ingest.records_per_s",
               ratio(double(t.ingestRecords), ingestNs / 1e9), "1/s");
    out.metric("server.ingest.vs_seq", ratio(ingestNs, double(t.seqBuildNs)),
               "ratio");

    out.metric("server.delta.ops", double(t.deltaOps), "count");
    out.metric("server.delta.wire_kib", double(t.deltaWireBytes) / 1024.0,
               "KiB");

    const double fullP50 =
        quantileOf(log.sortedDurations(Layer::DeviceSyncFull), 0.5) / 1e6;
    const double deltaP50 =
        quantileOf(log.sortedDurations(Layer::DeviceSyncDelta), 0.5) / 1e6;
    out.metric("device.sync_full.p50_ms", fullP50, "ms");
    out.metric("device.sync_delta.p50_ms", deltaP50, "ms");
    out.metric("device.sync_delta.vs_full", ratio(deltaP50, fullP50),
               "ratio");

    out.metric("harness.parallel_efficiency",
               ratio(total / 1e9, t.untracedWallS * double(workers)),
               "ratio");
    out.metric("harness.layer_coverage",
               ratio(total / 1e9, t.tracedWallS), "ratio");
    out.metric("harness.timer_overhead_ns", measureTimerOverheadNs(), "ns");

    out.metric("sim.hit_rate", t.simHitRate, "ratio");
    out.metric("sim.latency_p50", t.simLatencyP50, "sim_ms");
    out.metric("sim.latency_p99", t.simLatencyP99, "sim_ms");
}

void
dumpSpans(const SpanLog &log, const RunArgs &args)
{
    if (args.traceDir.empty())
        return;
    const std::string path = args.traceDir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".csv";
    if (!log.writeCsv(path))
        std::cerr << "perfbench: could not write " << path << "\n";
    else
        std::cerr << "perfbench: spans written to " << path << "\n";
}

} // namespace pc::perfbench
