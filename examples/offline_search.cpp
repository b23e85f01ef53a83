/**
 * @file
 * Offline search: the paper's motivating scenario pushed to its limit.
 * On a subway/flight the radio is dead — no exchange completes — yet
 * the device must never show an error. Cache hits serve locally as
 * always; misses retry with backoff, then degrade gracefully (stale
 * cached results when the query string is cached, the offline page
 * otherwise) and queue. When coverage returns, the queued misses sync
 * and the cache learns them as if they had been clicked online.
 */

#include <cstdio>

#include "device/mobile_device.h"
#include "fault/fault_plan.h"
#include "harness/workbench.h"
#include "util/stats.h"
#include "util/strings.h"

using namespace pc;
using namespace pc::device;

int
main()
{
    harness::Workbench wb(harness::smallWorkbenchConfig());

    // 12 commuters of mixed classes go underground for a day; the
    // radio is dead the whole ride (every exchange attempt fails).
    workload::PopulationSampler sampler(wb.population());
    Rng seeder(404);
    RunningStat offline_rate;
    RunningStat hit_ms;
    // One registry across all phones: the device counters add up.
    obs::MetricRegistry reg;
    for (int u = 0; u < 12; ++u) {
        Rng ur = seeder.fork();
        const auto profile = sampler.sampleUser(ur);
        workload::UserStream stream(wb.universe(), profile,
                                    seeder.next(), 0);
        stream.setEpoch(1);

        MobileDevice phone(wb.universe());
        phone.installCommunityCache(wb.communityCache());
        phone.attachMetrics(&reg);
        fault::FaultConfig fc;
        fc.seed = u64(1000 + u);
        fc.radio.exchangeFailureRate = 1.0; // the tunnel
        fault::FaultPlan plan(fc);
        phone.attachFaults(&plan);

        u64 served = 0, degraded = 0;
        for (const auto &ev : stream.month(0)) {
            const auto out =
                phone.serveQuery(ev.pair, ServePath::PocketSearch, true);
            if (out.cacheHit) {
                ++served;
                hit_ms.add(toMillis(out.hashLookupTime + out.fetchTime));
            } else {
                ++degraded; // stale results or the offline page — no error
            }
            phone.advanceTime(20 * kSecond);
        }
        offline_rate.add(double(served) / double(served + degraded));

        // Back above ground: coverage returns, the queue drains.
        phone.attachFaults(nullptr);
        phone.syncMissQueue();
    }
    const u64 stale = reg.counterValue("device.degraded.stale");
    const u64 offline_pages =
        reg.counterValue("device.degraded.offline_pages");
    const u64 queued = reg.counterValue("device.missq.queued");
    const u64 synced = reg.counterValue("device.missq.synced");

    std::printf("Offline search with a dead radio (12 commuters, one "
                "month of queries each):\n");
    std::printf("  queries still answered from the cache: %.0f%% on "
                "average (min %.0f%%, max %.0f%%)\n",
                100.0 * offline_rate.mean(), 100.0 * offline_rate.min(),
                100.0 * offline_rate.max());
    std::printf("  served from flash in %.1f ms on average (plus "
                "~360 ms of page rendering)\n", hit_ms.mean());
    std::printf("  degraded serves: %llu stale result pages, %llu "
                "offline pages — zero errors shown\n",
                (unsigned long long)stale,
                (unsigned long long)offline_pages);
    std::printf("  misses queued underground: %llu; synced once "
                "coverage returned: %llu\n",
                (unsigned long long)queued, (unsigned long long)synced);

    obs::MetricsSnapshot ledger;
    for (const auto &c : reg.snapshot().counters) {
        if (c.first.rfind("device.", 0) == 0)
            ledger.counters.push_back(c);
    }
    harness::printMetricsReport("Combined resilience ledger", ledger);

    std::printf("\nThe same cache also relieves the network when "
                "connectivity exists: every one of those\nqueries "
                "would otherwise have hit the cell and the search "
                "datacenter.\n");
    return 0;
}
