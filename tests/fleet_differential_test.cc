/**
 * @file
 * Golden-digest gate for the fleet drivers. Every cell of a devices x
 * months x threads x {plain, cloud, chaos} grid, plus the harness edge
 * cells, runs once and must reproduce a pinned FNV-1a digest over all
 * of its artifacts: fleet registry snapshot, per-class snapshots,
 * series CSV, anomaly CSV, cloud-service registry, chaos postmortem
 * JSON, a BENCH-style report and the FleetRunResult scalars. The
 * digests were generated when a second, event-scheduled driver still
 * ran the same month schedule and matched the epoch loop byte for
 * byte, so they pin the bytes both drivers agreed on. A digest that
 * moves means some operation of the month schedule was reordered,
 * added or dropped.
 *
 * The grid table is keyed without the thread count: threads 1 and 3
 * must land on the same digest, so the byte-identity-at-any-thread-
 * count rule is checked here too. Edge cells: 0-device fleets, a
 * 0-month horizon, an outage longer than the horizon, a cloud sync in
 * the final epoch, chaos + sabotage postmortems at threads 1 and 4,
 * a flash-crowd burst straddling the horizon at threads 1 and 3, and
 * the clean-error paths of validateFleetRunConfig. Labelled `fast` —
 * it is the tier-1 correctness anchor for the fleet drivers.
 */

#include <gtest/gtest.h>

#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "harness/fleet.h"
#include "harness/postmortem.h"
#include "obs/fleet.h"
#include "obs/json.h"
#include "obs/report.h"
#include "server/service.h"
#include "util/hash.h"

namespace pc::harness {
namespace {

const Workbench &
sharedWorkbench()
{
    static const Workbench wb(smallWorkbenchConfig());
    return wb;
}

/** Everything one fleet run is digested from. */
struct RunBytes
{
    std::string snapshotJson;  ///< Fleet registry (incl. server.*).
    std::string classJson;     ///< Per-class registries, class order.
    std::string seriesCsv;     ///< Fleet time series.
    std::string anomaliesCsv;  ///< Drift report.
    std::string cloudJson;     ///< Service registry after replay.
    std::string postmortemJson; ///< Chaos invariant reports.
    std::string benchJson;     ///< BENCH-style report document.
    FleetRunResult result;
};

/** Scheduling-dependent service build gauges (console-only by doc). */
std::string
scrubTimingLines(const std::string &json)
{
    static const char *const kTiming[] = {
        "server.build.wall_ms",
        "server.ingest.records_per_s",
        "server.queue.max_depth",
        "server.queue.mean_depth",
    };
    std::string out;
    out.reserve(json.size());
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        bool timing = false;
        for (const char *name : kTiming)
            timing = timing || line.find(name) != std::string::npos;
        if (!timing) {
            out += line;
            out += '\n';
        }
    }
    return out;
}

/**
 * One FNV-1a chain over every artifact string and result scalar.
 * Scalars are hashed as decimal text, so the digest does not depend
 * on the host's byte order; a separator after each field keeps
 * adjacent fields from aliasing.
 */
u64
runDigest(const RunBytes &b)
{
    u64 h = kFnvOffset;
    for (const std::string *s :
         {&b.snapshotJson, &b.classJson, &b.seriesCsv, &b.anomaliesCsv,
          &b.cloudJson, &b.postmortemJson, &b.benchJson}) {
        h = fnv1a(*s, h);
        h = fnv1a("|", h);
    }
    const FleetRunResult &r = b.result;
    for (const u64 v :
         {u64(r.devices), r.queries, r.cacheHits, r.degradedServes,
          r.cloudSyncs, r.cloudSyncFailures, r.cloudSyncsShed,
          r.reconnectSyncs, r.corruptRejected, r.rejectedDeltas,
          r.escalatedFullInstalls, r.devicesVerified, r.devicesSabotaged,
          r.invariantViolations, u64(r.invariantReports.size())}) {
        h = fnv1a(std::to_string(v), h);
        h = fnv1a("|", h);
    }
    return h;
}

/** Check a run against its pinned digest; prints the actual in hex. */
void
expectDigest(const RunBytes &b, u64 want, const std::string &cell)
{
    const u64 got = runDigest(b);
    std::ostringstream hex;
    hex << "0x" << std::hex << std::setw(16) << std::setfill('0') << got
        << "ull";
    EXPECT_EQ(got, want) << cell << " digest is " << hex.str();
}

struct CellShape
{
    std::size_t devices = 7;
    u32 months = 3;
    unsigned threads = 1;
    bool cloud = false;
    bool chaos = false;
};

/** The grid's fleet config: month-1 outage, or a month-1 chaos storm. */
FleetRunConfig
gridConfig(const CellShape &shape)
{
    FleetRunConfig cfg;
    cfg.devices = shape.devices;
    cfg.months = shape.months;
    cfg.threads = shape.threads;
    cfg.outageStartMonth = 1;
    cfg.outageMonths = 1;
    if (shape.chaos) {
        cfg.outageMonths = 0;
        cfg.chaos.enabled = true;
        cfg.chaos.stormStartMonth = 1;
        cfg.chaos.stormMonths = 1;
        cfg.chaos.payloadCorruptRate = 0.3;
        cfg.chaos.skewEvery = 3;
        cfg.chaos.sabotageEvery = 4;
    }
    return cfg;
}

/**
 * Run `cfg` once, with a freshly ingested cloud service attached when
 * `withService`, and capture every artifact.
 */
RunBytes
runCell(FleetRunConfig cfg, bool withService)
{
    const Workbench &wb = sharedWorkbench();

    std::unique_ptr<server::CloudUpdateService> svc;
    if (withService) {
        server::ServiceConfig scfg;
        scfg.build.shards = 4;
        scfg.build.threads = 2;
        svc = std::make_unique<server::CloudUpdateService>(wb.universe(),
                                                           scfg);
        svc->ingest(wb.buildLog());
    }
    cfg.cloud = svc.get();

    obs::FleetConfig fc;
    fc.windowWidth = workload::kMonth;
    obs::FleetCollector collector(fc);

    RunBytes out;
    out.result = runFleet(wb, cfg, collector);
    EXPECT_EQ(out.result.error, "");

    {
        std::ostringstream os;
        collector.fleetRegistry().snapshot().writeJson(os, true);
        out.snapshotJson = scrubTimingLines(os.str());
    }
    {
        std::ostringstream os;
        for (const auto &[cls, reg] : collector.classRegistries()) {
            os << cls << "\n";
            reg.snapshot().writeJson(os, true);
        }
        out.classJson = os.str();
    }
    {
        std::ostringstream os;
        collector.writeSeriesCsv(os);
        out.seriesCsv = os.str();
    }
    {
        obs::DriftConfig dc;
        dc.warmup = 1;
        std::ostringstream os;
        obs::FleetCollector::writeAnomaliesCsv(
            os, collector.scanAnomalies(dc));
        out.anomaliesCsv = os.str();
    }
    if (svc) {
        std::ostringstream os;
        svc->metrics().snapshot().writeJson(os, true);
        out.cloudJson = scrubTimingLines(os.str());
    }
    {
        std::ostringstream os;
        obs::JsonWriter w(os, /*pretty=*/true);
        writePostmortem(w, out.result.invariantReports);
        out.postmortemJson = os.str();
    }
    {
        // BENCH-artifact shape: the scalar metrics + embedded snapshot
        // a gated bench would ship, so the digest covers the report
        // pipeline too.
        obs::BenchReport report("fleet_differential",
                                "engine differential cell");
        report.metric("queries", double(out.result.queries));
        report.metric("cache_hits", double(out.result.cacheHits));
        report.metric("degraded_serves",
                      double(out.result.degradedServes));
        report.metric("cloud_syncs", double(out.result.cloudSyncs));
        report.metric("violations",
                      double(out.result.invariantViolations));
        report.attachSnapshot(collector.fleetRegistry().snapshot());
        std::ostringstream os;
        report.writeJson(os);
        out.benchJson = scrubTimingLines(os.str());
    }
    return out;
}

RunBytes
runCell(const CellShape &shape)
{
    return runCell(gridConfig(shape), shape.cloud || shape.chaos);
}

/** Pinned digest of one grid cell, shared by every thread count. */
struct GridDigest
{
    std::size_t devices;
    u32 months;
    int mode; ///< 0 plain, 1 cloud, 2 chaos.
    u64 digest;
};

constexpr GridDigest kGridDigests[] = {
    {1, 1, 0, 0x0c5b1c74e62541b5ull},
    {1, 1, 1, 0x782b47ceefa72c83ull},
    {1, 1, 2, 0x732a5664c551fc5bull},
    {1, 3, 0, 0x093acfd8315aeb69ull},
    {1, 3, 1, 0xd9fca6ad1a01f1f8ull},
    {1, 3, 2, 0xacaec8dfddf199ceull},
    {7, 1, 0, 0x4f2ef42fe24e75e9ull},
    {7, 1, 1, 0xedae3907f324bfaeull},
    {7, 1, 2, 0xa7de1efe0c62afddull},
    {7, 3, 0, 0x515802e41467a290ull},
    {7, 3, 1, 0x4c87d9d50acfab50ull},
    {7, 3, 2, 0xaa62bb70af22f5f0ull},
    {25, 1, 0, 0xcbb9c99fed446957ull},
    {25, 1, 1, 0x64df61eb26ad223aull},
    {25, 1, 2, 0x1e61a42620d286bfull},
    {25, 3, 0, 0xfcd7e2c3ad42d826ull},
    {25, 3, 1, 0x188f8a455c1bff09ull},
    {25, 3, 2, 0xb956e90dbc8107a3ull},
};

u64
gridDigest(std::size_t devices, u32 months, int mode)
{
    for (const GridDigest &g : kGridDigests)
        if (g.devices == devices && g.months == months && g.mode == mode)
            return g.digest;
    ADD_FAILURE() << "no pinned digest for d" << devices << " m" << months
                  << " mode " << mode;
    return 0;
}

/** devices x months x threads x mode (0 plain, 1 cloud, 2 chaos). */
class FleetGoldenGrid
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, u32, unsigned, int>>
{
};

TEST_P(FleetGoldenGrid, MatchesPinnedDigest)
{
    const auto [devices, months, threads, mode] = GetParam();
    CellShape shape;
    shape.devices = devices;
    shape.months = months;
    shape.threads = threads;
    shape.cloud = mode >= 1;
    shape.chaos = mode == 2;

    const RunBytes run = runCell(shape);
    expectDigest(run, gridDigest(devices, months, mode), "grid cell");

    EXPECT_EQ(run.result.devices, devices);
    if (devices > 0 && months > 0) {
        EXPECT_GT(run.result.queries, 0u);
    }
    if (shape.chaos && devices >= 4) {
        EXPECT_GT(run.result.devicesSabotaged, 0u)
            << "sabotage cells must actually sabotage";
        EXPECT_EQ(run.result.invariantViolations,
                  run.result.devicesSabotaged)
            << "only sabotage may trip invariants";
    }
}

std::string
gridCellName(const ::testing::TestParamInfo<FleetGoldenGrid::ParamType> &info)
{
    static const char *const kMode[] = {"plain", "cloud", "chaos"};
    return "d" + std::to_string(std::get<0>(info.param)) + "_m" +
           std::to_string(std::get<1>(info.param)) + "_t" +
           std::to_string(std::get<2>(info.param)) + "_" +
           kMode[std::get<3>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FleetGoldenGrid,
    ::testing::Combine(::testing::Values(std::size_t(1), std::size_t(7),
                                         std::size_t(25)),
                       ::testing::Values(u32(1), u32(3)),
                       ::testing::Values(1u, 3u),
                       ::testing::Values(0, 1, 2)),
    gridCellName);

// ---------------------------------------------------------------------
// Edge cells, each pinned to its own digest.

TEST(FleetEdgeCases, ZeroDeviceFleetIsACleanEmptyRun)
{
    FleetRunConfig cfg;
    cfg.devices = 0;
    cfg.months = 3;
    const RunBytes run = runCell(cfg, false);
    expectDigest(run, 0xc695ae56fef10c44ull, "zero-device");
    EXPECT_EQ(run.result.devices, 0u);
    EXPECT_EQ(run.result.queries, 0u);
    EXPECT_EQ(run.seriesCsv.find("device.queries"), std::string::npos)
        << "empty run must not invent series rows";
}

TEST(FleetEdgeCases, ZeroMonthHorizonFoldsDevicesWithNoWindows)
{
    FleetRunConfig cfg;
    cfg.devices = 3;
    cfg.months = 0;
    const RunBytes run = runCell(cfg, false);
    expectDigest(run, 0xddde56149107df1eull, "zero-month");
    EXPECT_EQ(run.result.devices, 3u);
    EXPECT_EQ(run.result.queries, 0u);
}

TEST(FleetEdgeCases, OutageLongerThanHorizonClampsCleanly)
{
    FleetRunConfig cfg;
    cfg.devices = 5;
    cfg.months = 2;
    cfg.outageStartMonth = 0;
    cfg.outageMonths = 100; // dwarfs the horizon
    const RunBytes run = runCell(cfg, false);
    expectDigest(run, 0xba1016e61a496091ull, "outage > horizon");
    EXPECT_GT(run.result.degradedServes, 0u)
        << "whole-run outage must degrade serves";
}

TEST(FleetEdgeCases, CloudSyncInFinalEpoch)
{
    // months=1: the only sync epoch IS the final epoch; the miss-queue
    // drain and window snapshot follow it with no later month to paper
    // over ordering bugs.
    CellShape shape;
    shape.devices = 6;
    shape.months = 1;
    shape.cloud = true;
    const RunBytes run = runCell(shape);
    expectDigest(run, 0x681969afbc60b60cull, "final-epoch sync");
    EXPECT_GT(run.result.cloudSyncs + run.result.cloudSyncFailures, 0u)
        << "final-epoch cell must actually sync";
}

TEST(FleetEdgeCases, ChaosSabotagePostmortemPinnedAtAnyThreadCount)
{
    CellShape shape;
    shape.devices = 12;
    shape.months = 3;
    shape.chaos = true;
    for (const unsigned threads : {1u, 4u}) {
        shape.threads = threads;
        const RunBytes run = runCell(shape);
        EXPECT_GT(run.result.devicesSabotaged, 0u);
        expectDigest(run, 0x5ce9b2ca3a2f3ee8ull,
                     "chaos sabotage, threads=" + std::to_string(threads));
    }
}

TEST(FleetEdgeCases, ValidationRejectsImpossibleConfigs)
{
    const Workbench &wb = sharedWorkbench();
    obs::FleetConfig fc;
    fc.windowWidth = workload::kMonth;

    {
        // Chaos without a cloud service.
        FleetRunConfig cfg;
        cfg.devices = 2;
        cfg.chaos.enabled = true;
        obs::FleetCollector collector(fc);
        const FleetRunResult r = runFleet(wb, cfg, collector);
        EXPECT_NE(r.error, "");
        EXPECT_EQ(r.devices, 0u);
        EXPECT_EQ(collector.devices(), 0u)
            << "refused runs must not touch the collector";
    }
    {
        // Negative flash-crowd rate.
        FleetRunConfig cfg;
        cfg.devices = 2;
        cfg.flashCrowd.enabled = true;
        cfg.flashCrowd.arrivalsPerHour = -1.0;
        obs::FleetCollector collector(fc);
        const FleetRunResult r = runFleet(wb, cfg, collector);
        EXPECT_NE(r.error, "");
        EXPECT_EQ(collector.devices(), 0u);
    }
}

TEST(FleetEdgeCases, FlashCrowdBurstWindowStraddlingEndClamps)
{
    FleetRunConfig cfg;
    cfg.devices = 4;
    cfg.months = 1;
    cfg.flashCrowd.enabled = true;
    cfg.flashCrowd.arrivalsPerHour = 3.0;
    cfg.flashCrowd.burstMultiplier = 8.0;
    // Burst opens mid-month and nominally runs far past the horizon.
    cfg.flashCrowd.burstStart = workload::kMonth / 2;
    cfg.flashCrowd.burstLen = 40 * workload::kMonth;
    for (const unsigned threads : {1u, 3u}) {
        cfg.threads = threads;
        const RunBytes run = runCell(cfg, false);
        EXPECT_EQ(run.result.devices, 4u);
        EXPECT_GT(run.result.queries, 0u);
        expectDigest(run, 0x2b7e7225402fd62full,
                     "flash burst, threads=" + std::to_string(threads));
    }
}

} // namespace
} // namespace pc::harness
