/**
 * @file
 * Fuzz-style robustness of event-schedule construction: adversarial
 * FleetRunConfig values — zero devices, zero-length horizons, outage
 * episodes dwarfing the horizon, burst windows straddling (or
 * entirely past) the end, degenerate rates, extreme stagger — must
 * produce a clean validation error or a clean (possibly empty) run,
 * never UB, a hang, or a crash. Same discipline as
 * jsonparse_fuzz_test: seeded deterministic generators, every input
 * either rejected with a message or executed to completion with sane
 * invariants. Outage episodes and chaos storms of UINT32_MAX months
 * must degrade exactly like 100-month ones: the month-window test may
 * not wrap. The world is tiny (2–4 devices); the few seeded configs
 * whose flash crowds serve the most queries run as a separate
 * slow-tier ctest entry (tests/CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "harness/fleet.h"
#include "obs/fleet.h"
#include "util/rng.h"

namespace pc::harness {
namespace {

const Workbench &
sharedWorkbench()
{
    static const Workbench wb(smallWorkbenchConfig());
    return wb;
}

/**
 * Run one config to completion. Either validation refuses it (clean
 * error, untouched collector) or the run finishes with coherent
 * scalars. Returns the error string for callers asserting a verdict.
 */
std::string
mustRunClean(const FleetRunConfig &cfg)
{
    obs::FleetConfig fc;
    fc.windowWidth =
        cfg.flashCrowd.enabled && cfg.flashCrowd.window > 0
            ? cfg.flashCrowd.window
            : workload::kMonth;
    obs::FleetCollector collector(fc);
    const FleetRunResult r = runFleet(sharedWorkbench(), cfg, collector);
    if (!r.error.empty()) {
        EXPECT_EQ(r.devices, 0u);
        EXPECT_EQ(collector.devices(), 0u)
            << "refused run touched the collector";
        return r.error;
    }
    EXPECT_EQ(r.devices, cfg.devices);
    EXPECT_EQ(collector.devices(), cfg.devices);
    EXPECT_GE(r.queries, r.cacheHits);
    // The series must serialize without tripping assertions.
    std::ostringstream os;
    collector.writeSeriesCsv(os);
    return "";
}

TEST(FleetEventFuzz, NamedAdversarialShapes)
{
    const SimTime horizon2m = 2 * workload::kMonth;

    {
        // Zero devices.
        FleetRunConfig cfg;
        cfg.devices = 0;
        cfg.months = 2;
        EXPECT_EQ(mustRunClean(cfg), "");
    }
    {
        // Zero-length horizon, with and without flash crowd.
        FleetRunConfig cfg;
        cfg.devices = 2;
        cfg.months = 0;
        EXPECT_EQ(mustRunClean(cfg), "");
        cfg.flashCrowd.enabled = true;
        cfg.flashCrowd.arrivalsPerHour = 5.0;
        EXPECT_EQ(mustRunClean(cfg), "");
    }
    {
        // Outage vastly longer than the horizon.
        FleetRunConfig cfg;
        cfg.devices = 2;
        cfg.months = 2;
        cfg.outageStartMonth = 0;
        cfg.outageMonths = 100000;
        EXPECT_EQ(mustRunClean(cfg), "");
    }
    {
        // Flash-crowd outage longer than the horizon, reconnect
        // stagger pushing every reconnect past the end.
        FleetRunConfig cfg;
        cfg.devices = 3;
        cfg.months = 2;
        cfg.flashCrowd.enabled = true;
        cfg.flashCrowd.arrivalsPerHour = 2.0;
        cfg.flashCrowd.outageStart = workload::kMonth / 3;
        cfg.flashCrowd.outageLen = 50 * workload::kMonth;
        cfg.flashCrowd.reconnectStagger = 100 * workload::kMonth;
        EXPECT_EQ(mustRunClean(cfg), "");
    }
    {
        // Burst window straddling the end of the horizon; also one
        // starting exactly at the end and one entirely past it.
        for (const SimTime start :
             {horizon2m - workload::kWeek, horizon2m,
              horizon2m + workload::kMonth}) {
            FleetRunConfig cfg;
            cfg.devices = 2;
            cfg.months = 2;
            cfg.flashCrowd.enabled = true;
            cfg.flashCrowd.arrivalsPerHour = 4.0;
            cfg.flashCrowd.burstStart = start;
            cfg.flashCrowd.burstLen = 3 * workload::kMonth;
            cfg.flashCrowd.burstMultiplier = 20.0;
            EXPECT_EQ(mustRunClean(cfg), "");
        }
    }
    {
        // Degenerate rates: zero arrivals (silent fleet), zero burst
        // multiplier (burst window goes quiet instead of loud).
        FleetRunConfig cfg;
        cfg.devices = 2;
        cfg.months = 1;
        cfg.flashCrowd.enabled = true;
        cfg.flashCrowd.arrivalsPerHour = 0.0;
        EXPECT_EQ(mustRunClean(cfg), "");
        cfg.flashCrowd.arrivalsPerHour = 6.0;
        cfg.flashCrowd.burstMultiplier = 0.0;
        cfg.flashCrowd.burstStart = workload::kWeek;
        cfg.flashCrowd.burstLen = workload::kWeek;
        EXPECT_EQ(mustRunClean(cfg), "");
    }
    {
        // Invalid shapes must be refused with a message, not UB.
        FleetRunConfig cfg;
        cfg.devices = 2;
        cfg.flashCrowd.enabled = true;
        cfg.flashCrowd.arrivalsPerHour =
            std::numeric_limits<double>::quiet_NaN();
        EXPECT_NE(mustRunClean(cfg), "");

        cfg.flashCrowd.arrivalsPerHour = 1.0;
        cfg.flashCrowd.burstMultiplier =
            std::numeric_limits<double>::infinity();
        EXPECT_NE(mustRunClean(cfg), "");

        cfg.flashCrowd.burstMultiplier = 1.0;
        cfg.flashCrowd.outageStart = -5;
        EXPECT_NE(mustRunClean(cfg), "");

        cfg.flashCrowd.outageStart = 0;
        cfg.outageMonths = 1; // epoch episode + flash crowd
        EXPECT_NE(mustRunClean(cfg), "");

        cfg.outageMonths = 0;
        cfg.chaos.enabled = true; // chaos + flash crowd
        EXPECT_NE(mustRunClean(cfg), "");
    }
}

/** Run `cfg` to completion; the scalars plus the series CSV. */
std::pair<FleetRunResult, std::string>
runWithSeries(const FleetRunConfig &cfg)
{
    obs::FleetConfig fc;
    fc.windowWidth = workload::kMonth;
    obs::FleetCollector collector(fc);
    FleetRunResult r = runFleet(sharedWorkbench(), cfg, collector);
    EXPECT_EQ(r.error, "");
    std::ostringstream os;
    collector.writeSeriesCsv(os);
    return {std::move(r), os.str()};
}

TEST(FleetEventFuzz, OutageOfU32MaxMonthsLastsToTheHorizon)
{
    // start + length wraps in u32; the episode must still cover every
    // month from its start, exactly like any other over-long episode.
    FleetRunConfig cfg;
    cfg.devices = 3;
    cfg.months = 3;
    cfg.outageStartMonth = 1;
    cfg.outageMonths = 100;
    const auto [longRun, longSeries] = runWithSeries(cfg);
    cfg.outageMonths = std::numeric_limits<u32>::max();
    const auto [maxRun, maxSeries] = runWithSeries(cfg);
    EXPECT_GT(longRun.degradedServes, 0u);
    EXPECT_EQ(maxRun.degradedServes, longRun.degradedServes);
    EXPECT_TRUE(maxSeries == longSeries) << "series CSV differs";
}

TEST(FleetEventFuzz, ChaosStormOfU32MaxMonthsLastsToTheHorizon)
{
    const Workbench &wb = sharedWorkbench();
    const auto run = [&](u32 stormMonths) {
        server::CloudUpdateService svc(wb.universe());
        svc.ingest(wb.buildLog());
        FleetRunConfig cfg;
        cfg.devices = 3;
        cfg.months = 3;
        cfg.cloud = &svc;
        cfg.chaos.enabled = true;
        cfg.chaos.stormStartMonth = 1;
        cfg.chaos.stormMonths = stormMonths;
        return runWithSeries(cfg);
    };
    const auto [longRun, longSeries] = run(100);
    const auto [maxRun, maxSeries] = run(std::numeric_limits<u32>::max());
    EXPECT_GT(longRun.degradedServes, 0u);
    EXPECT_EQ(maxRun.degradedServes, longRun.degradedServes);
    EXPECT_EQ(maxRun.cloudSyncs, longRun.cloudSyncs);
    EXPECT_EQ(maxRun.cloudSyncFailures, longRun.cloudSyncFailures);
    EXPECT_TRUE(maxSeries == longSeries) << "series CSV differs";
}

/**
 * The seeded random config for `seed`. Values are drawn from ranges
 * that include every clamping edge (0, exactly the horizon, far past
 * it); flash crowd on or off.
 */
FleetRunConfig
randomConfig(u64 seed)
{
    Rng rng(seed * 0x2545F4914F6CDD1Dull);
    FleetRunConfig cfg;
    cfg.seed = seed;
    cfg.devices = std::size_t(rng.below(5)); // 0..4
    cfg.months = u32(rng.below(4));          // 0..3
    cfg.threads = unsigned(rng.below(3));    // 0 = hardware
    cfg.outageStartMonth = u32(rng.below(4));
    cfg.outageMonths = u32(rng.below(3)) == 0 ? u32(rng.below(200))
                                              : u32(rng.below(3));
    // Spare draw: keeps each seed's config what it always was.
    rng.below(2);
    if (rng.below(2) == 0) {
        cfg.flashCrowd.enabled = true;
        cfg.outageMonths = 0;
        cfg.flashCrowd.arrivalsPerHour = double(rng.below(12));
        cfg.flashCrowd.burstMultiplier = double(rng.below(30));
        const SimTime horizon = SimTime(cfg.months) * workload::kMonth;
        const auto pick = [&](SimTime scale) {
            switch (rng.below(4)) {
              case 0: return SimTime(0);
              case 1: return scale / 2;
              case 2: return scale;
              default: return scale * 3 + SimTime(rng.below(1000));
            }
        };
        cfg.flashCrowd.burstStart = pick(horizon);
        cfg.flashCrowd.burstLen = pick(horizon);
        cfg.flashCrowd.outageStart = pick(horizon);
        cfg.flashCrowd.outageLen = pick(horizon);
        cfg.flashCrowd.reconnectStagger = pick(workload::kWeek);
        cfg.flashCrowd.window =
            rng.below(2) == 0 ? SimTime(0) : workload::kWeek;
    }
    return cfg;
}

/**
 * Expected flash-crowd arrivals of a config across the fleet: the
 * base rate over the horizon plus the burst's excess over its clamped
 * window. Serving those queries is nearly all of a seed's cost.
 */
double
expectedArrivals(const FleetRunConfig &cfg)
{
    const FlashCrowdConfig &fc = cfg.flashCrowd;
    if (!fc.enabled)
        return 0.0;
    const SimTime horizon = SimTime(cfg.months) * workload::kMonth;
    const SimTime burstStart = std::min(fc.burstStart, horizon);
    const SimTime burstLen = std::min(fc.burstLen, horizon - burstStart);
    const double hour = 3600.0 * double(kSecond);
    return double(cfg.devices) * fc.arrivalsPerHour *
           (double(horizon) / hour +
            (fc.burstMultiplier - 1.0) * double(burstLen) / hour);
}

/**
 * Seeds whose config expects more arrivals than this run in the
 * slow-tier Heavy case: 8 of the 120, ~80% of the sweep's time.
 */
constexpr double kHeavyArrivals = 50'000.0;

/**
 * Run every one of the 120 seeded configs on one side of the
 * kHeavyArrivals split. Each must validate cleanly and run to
 * completion: the generator keeps every config structurally valid
 * (invalid shapes are pinned by NamedAdversarialShapes).
 * @return Seeds run.
 */
u64
runSeeds(bool heavy)
{
    u64 ran = 0;
    for (u64 seed = 1; seed <= 120; ++seed) {
        const FleetRunConfig cfg = randomConfig(seed);
        if ((expectedArrivals(cfg) > kHeavyArrivals) != heavy)
            continue;
        EXPECT_EQ(mustRunClean(cfg), "") << "seed " << seed;
        ++ran;
    }
    return ran;
}

// The two cases split the 120 seeds 112 + 8, so together they run all.
TEST(FleetEventFuzz, SeededRandomConfigsNeverMisbehave)
{
    EXPECT_EQ(runSeeds(false), 112u);
}

TEST(FleetEventFuzz, SeededHeavyConfigsNeverMisbehave)
{
    EXPECT_EQ(runSeeds(true), 8u);
}

} // namespace
} // namespace pc::harness
