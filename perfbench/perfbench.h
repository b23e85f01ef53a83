/**
 * @file
 * Host-clock benchmark of the fleet simulator and the cloud tier:
 * shared result type, wall clocks, and the in-memory span log the
 * traced runs record around every call into a layer.
 *
 * Two clocks never mix here. Metrics named `sim.*` come from the
 * simulated clock (device registries) and repeat exactly for a seed;
 * every other metric is host wall-clock time or a count of host work.
 */

#ifndef PC_PERFBENCH_PERFBENCH_H
#define PC_PERFBENCH_PERFBENCH_H

#include <chrono>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "util/types.h"

namespace pc::perfbench {

/** Command-line shape of one run. */
struct RunArgs
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned workers = 1; ///< Worker threads: min(4, hardware threads).
    std::string traceDir; ///< Where traced runs write spans ("" = nowhere).
};

/** What one run prints as its last line. */
struct RunResult
{
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    /** (name, value, unit) in print order. */
    std::vector<std::tuple<std::string, double, std::string>> metrics;

    void
    metric(std::string name, double value, std::string unit)
    {
        metrics.emplace_back(std::move(name), value, std::move(unit));
    }

    /** Record a failed correctness check (with a reason on stderr). */
    void fail(const std::string &why);
};

/** Monotonic host nanoseconds. */
inline u64
nowNs()
{
    return u64(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count());
}

inline double
secondsSince(u64 startNs)
{
    return double(nowNs() - startNs) / 1e9;
}

/** Median of a sample (0 when empty). */
double median(std::vector<double> v);

/** Times each untraced run builds its world; setup_s is the median. */
constexpr int kSetups = 3;

/**
 * Build a world `reps` times with `make`, freeing each before the next
 * is built, and keep the last. Appends each build's seconds to `secs`.
 */
template <class T, class Make>
std::unique_ptr<T>
buildRepeated(int reps, Make make, std::vector<double> &secs)
{
    std::unique_ptr<T> world;
    for (int r = 0; r < reps; ++r) {
        world.reset();
        const u64 t0 = nowNs();
        world = make();
        secs.push_back(secondsSince(t0));
    }
    return world;
}

/** Process memory high-water mark in MiB. */
double peakRssMb();

/** The layers a traced run attributes host time to. */
enum class Layer : u8
{
    DeviceCreate,
    CoreInstall,
    WorkloadStream,
    DeviceServe,
    DeviceMissDrain,
    ObsSnapshot,
    ObsFold,
    ServerIngest,
    ServerDelta,
    DeviceSyncFull,
    DeviceSyncDelta,
    Count,
};

/** Metric-name prefix of a layer, e.g. "core.install". */
const char *layerName(Layer l);

/** One timed call into a layer. `owner` is the device (or version)
 *  the call worked for, so one device's spans share an identifier. */
struct Span
{
    u64 startNs = 0;
    u64 durNs = 0;
    u32 owner = 0;
    Layer layer = Layer::Count;
};

/**
 * Spans of one traced run, kept in memory and written out once the
 * run ends. Single-threaded: traced runs replay on the calling thread.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::size_t reserve = 0) { spans_.reserve(reserve); }

    void
    add(Layer l, u32 owner, u64 startNs, u64 durNs)
    {
        spans_.push_back(Span{startNs, durNs, owner, l});
    }

    /** RAII span around one call. */
    class Scope
    {
      public:
        Scope(SpanLog &log, Layer l, u32 owner)
            : log_(log), layer_(l), owner_(owner), start_(nowNs())
        {
        }
        ~Scope() { log_.add(layer_, owner_, start_, nowNs() - start_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        Layer layer_;
        u32 owner_;
        u64 start_;
    };

    u64 calls(Layer l) const;
    u64 busyNs(Layer l) const;
    /** Sum of busy time over every layer. */
    u64 totalBusyNs() const;
    /** Per-call durations of one layer, ascending. */
    std::vector<u64> sortedDurations(Layer l) const;

    /** Write every span as CSV (layer,owner,start_ns,dur_ns). */
    bool writeCsv(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** Nearest-rank q-quantile of an ascending sample (0 when empty). */
double quantileOf(const std::vector<u64> &sorted, double q);

/** Host cost of recording one span, in ns (measured, not modelled). */
double measureTimerOverheadNs();

/**
 * What a traced run measured beside its spans. Fields a workload
 * never touches stay zero, and so do the metrics derived from them.
 */
struct TraceTotals
{
    double tracedWallS = 0;   ///< Replay wall, traced-only probes excluded.
    double untracedWallS = 0; ///< The same work untraced, all workers.
    u64 installPairs = 0;     ///< Pairs per community install.
    u64 serveHits = 0;        ///< Served queries answered from cache.
    u64 serveDegraded = 0;    ///< Served queries degraded by an outage.
    u64 streamEvents = 0;     ///< Query events the streams generated.
    u64 ingestRecords = 0;    ///< Log records ingested.
    u64 seqBuildNs = 0;       ///< Sequential reference builds, same logs.
    u64 deltaOps = 0;         ///< Add/evict/re-rank ops shipped.
    u64 deltaWireBytes = 0;   ///< Modelled downlink bytes of the deltas.
    double simHitRate = 0;    ///< Simulated: cache_hits / queries.
    double simLatencyP50 = 0; ///< Simulated ms, device.latency_ms.pocket.
    double simLatencyP99 = 0;
};

/**
 * Emit every per-layer metric: calls, busy seconds and share of each
 * layer, the per-call percentiles, the layer ratios and the harness
 * ledger. Every traced run prints the same set; layers a workload
 * never enters report zeros.
 */
void emitLayerMetrics(const SpanLog &log, const TraceTotals &t,
                      unsigned workers, RunResult &out);

/** Write spans under the benchmark's trace directory; warn on error. */
void dumpSpans(const SpanLog &log, const RunArgs &args);

/** Workload entry points (fleet.cc, cloud.cc). */
void runFleetServe(const RunArgs &args, RunResult &out);
void runFleetInstall(const RunArgs &args, RunResult &out);
void runCloudUpdate(const RunArgs &args, RunResult &out);

} // namespace pc::perfbench

#endif // PC_PERFBENCH_PERFBENCH_H
