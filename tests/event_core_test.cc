/**
 * @file
 * Functional coverage of the discrete-event core (harness/event_core):
 * key ordering, deterministic tie-breaking, and the dispatch loop's
 * re-entrancy rules (continuations scheduling while the queue
 * drains). The seeded random interleaving sweep against a reference
 * model lives in event_queue_property_test (slow tier, run under
 * ASan/TSan in CI).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/event_core.h"

namespace pc::harness {
namespace {

TEST(EventQueue, PopsInTimeDeviceSeqOrder)
{
    EventQueue<int> q;
    q.push(30, 0, 1);
    q.push(10, 5, 2);
    q.push(20, 0, 3);
    q.push(10, 2, 4); // same time as #2, lower device: pops first
    q.push(10, 5, 5); // same (time, device) as #2, later seq: after it
    EXPECT_EQ(q.size(), 5u);

    std::vector<int> order;
    while (auto ev = q.pop())
        order.push_back(ev->payload);
    EXPECT_EQ(order, (std::vector<int>{4, 2, 5, 3, 1}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualKeysPreserveInsertionOrder)
{
    // A long run of identical (time, device) events must pop in exact
    // push order — the seq tie-break, not heap luck.
    EventQueue<int> q;
    for (int i = 0; i < 200; ++i)
        q.push(42, 7, i);
    for (int i = 0; i < 200; ++i) {
        auto ev = q.pop();
        ASSERT_TRUE(ev.has_value());
        EXPECT_EQ(ev->payload, i);
        EXPECT_EQ(ev->key.time, 42);
        EXPECT_EQ(ev->key.device, 7u);
        EXPECT_EQ(ev->key.seq, u64(i));
    }
    EXPECT_FALSE(q.pop().has_value());
}

TEST(EventCore, DispatchesInOrderAndTracksNow)
{
    EventCore core;
    std::vector<SimTime> times;
    for (SimTime t : {50, 10, 30})
        core.schedule(t, 0, [&times, t](EventCore &c) {
            times.push_back(t);
            EXPECT_EQ(c.now(), t);
        });
    core.run();
    EXPECT_EQ(times, (std::vector<SimTime>{10, 30, 50}));
    EXPECT_EQ(core.now(), 50);
}

TEST(EventCore, ContinuationsScheduleContinuations)
{
    // The arrival-chain pattern: each event schedules its successor.
    EventCore core;
    std::vector<SimTime> fired;
    std::function<void(EventCore &, SimTime)> chain =
        [&](EventCore &c, SimTime t) {
            if (t > 40)
                return;
            c.schedule(t, 0, [&fired, &chain, t](EventCore &c2) {
                fired.push_back(t);
                chain(c2, t + 10);
            });
        };
    chain(core, 10);
    core.run();
    EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30, 40}));
}

TEST(EventCore, SameInstantRunsInScheduleOrderAcrossReentry)
{
    // An event scheduling another event at its own timestamp: the new
    // one runs after everything already pending at that instant.
    EventCore core;
    std::vector<std::string> order;
    core.schedule(5, 0, [&](EventCore &c) {
        order.push_back("end");
        c.schedule(5, 0, [&](EventCore &) { order.push_back("begin"); });
    });
    core.schedule(5, 0, [&](EventCore &) { order.push_back("sibling"); });
    core.run();
    EXPECT_EQ(order,
              (std::vector<std::string>{"end", "sibling", "begin"}));
}

TEST(EventCore, SchedulingIntoThePastClampsToNow)
{
    EventCore core;
    std::vector<SimTime> times;
    core.schedule(100, 0, [&](EventCore &c) {
        times.push_back(c.now());
        // "Yesterday" clamps to now and runs later this instant.
        c.schedule(1, 0, [&](EventCore &c2) { times.push_back(c2.now()); });
    });
    core.run();
    EXPECT_EQ(times, (std::vector<SimTime>{100, 100}));
}

TEST(EventCore, DeviceIndexBreaksTimeTiesAcrossDevices)
{
    // Events tied on time across devices dispatch in device order —
    // the multi-device determinism rule of the key.
    EventCore core;
    std::vector<std::size_t> devices;
    for (std::size_t d : {3u, 1u, 2u, 0u})
        core.schedule(7, d, [&devices, d](EventCore &) {
            devices.push_back(d);
        });
    core.run();
    EXPECT_EQ(devices, (std::vector<std::size_t>{0, 1, 2, 3}));
}

} // namespace
} // namespace pc::harness
