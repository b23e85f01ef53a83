/**
 * @file
 * Property test for the event queue: seeded random insert / pop
 * interleavings — with deliberately colliding timestamps and device
 * indices — must match a sorted-vector reference model exactly,
 * operation by operation: same pop keys, same payloads, same sizes.
 * Plus heap-order invariants (drain keys strictly increase), an
 * equal-key storm that must pop in push order, and a continuation
 * re-entrancy soak on EventCore: random schedules issued from *inside*
 * running continuations, some into the past.
 *
 * Labelled `slow`: the interleaving loops are sized for the ASan/TSan
 * CI tiers, where the minutes buy real coverage of the heap
 * bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "harness/event_core.h"
#include "util/rng.h"

namespace pc::harness {
namespace {

/** Reference model: a flat vector scanned for the minimum key. */
class ReferenceQueue
{
  public:
    void
    push(SimTime time, std::size_t device, u64 payload)
    {
        Entry e;
        e.key.time = time;
        e.key.device = device;
        e.key.seq = nextSeq_++;
        e.payload = payload;
        entries_.push_back(e);
    }

    std::optional<std::pair<EventKey, u64>>
    pop()
    {
        if (entries_.empty())
            return std::nullopt;
        auto min = entries_.begin();
        for (auto it = entries_.begin(); it != entries_.end(); ++it)
            if (it->key < min->key)
                min = it;
        const auto out = std::make_pair(min->key, min->payload);
        entries_.erase(min);
        return out;
    }

    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        EventKey key;
        u64 payload;
    };
    std::vector<Entry> entries_;
    u64 nextSeq_ = 0;
};

TEST(EventQueueProperty, RandomInterleavingsMatchReferenceModel)
{
    for (u64 seed = 1; seed <= 40; ++seed) {
        Rng rng(seed * 0x9E3779B97F4A7C15ull);
        EventQueue<u64> q;
        ReferenceQueue ref;
        u64 payload = 0;

        const int ops = 4000;
        for (int op = 0; op < ops; ++op) {
            if (rng.below(8) < 5) {
                // Insert. Tiny time/device domains force equal-key
                // runs through the tie-break path constantly.
                const SimTime t = SimTime(rng.below(16));
                const std::size_t dev = std::size_t(rng.below(4));
                q.push(t, dev, payload);
                ref.push(t, dev, payload);
                ++payload;
            } else {
                // Pop. Both sides must agree on key and payload.
                const auto got = q.pop();
                const auto want = ref.pop();
                ASSERT_EQ(got.has_value(), want.has_value());
                if (got.has_value()) {
                    ASSERT_TRUE(got->key == want->first)
                        << "pop key diverged at op " << op << " (seed "
                        << seed << ")";
                    ASSERT_EQ(got->payload, want->second);
                }
            }
            ASSERT_EQ(q.size(), ref.size());
            ASSERT_EQ(q.empty(), ref.size() == 0);
        }

        // Drain both completely: the tails must agree too, and with
        // no intervening pushes the keys must be strictly increasing.
        EventKey lastPopped{-1, 0, 0};
        bool poppedAny = false;
        for (;;) {
            const auto got = q.pop();
            const auto want = ref.pop();
            ASSERT_EQ(got.has_value(), want.has_value());
            if (!got.has_value())
                break;
            ASSERT_TRUE(got->key == want->first);
            ASSERT_EQ(got->payload, want->second);
            if (poppedAny) {
                ASSERT_TRUE(lastPopped < got->key)
                    << "drain keys must be strictly increasing";
            }
            lastPopped = got->key;
            poppedAny = true;
        }
    }
}

TEST(EventQueueProperty, EqualTimestampStormPopsInPushOrder)
{
    // Degenerate heap shape: thousands of identical (time, device)
    // keys, pushed and popped in random bursts. Every pop must return
    // the oldest payload still queued — exact push order.
    for (u64 seed = 1; seed <= 10; ++seed) {
        Rng rng(seed);
        EventQueue<u64> q;
        u64 pushed = 0, expect = 0;
        while (pushed < 3000) {
            for (u64 n = rng.below(64); n > 0 && pushed < 3000; --n)
                q.push(99, 1, pushed++);
            for (u64 n = rng.below(48); n > 0; --n) {
                const auto ev = q.pop();
                if (!ev.has_value())
                    break;
                ASSERT_EQ(ev->payload, expect++);
            }
        }
        while (const auto ev = q.pop())
            ASSERT_EQ(ev->payload, expect++);
        ASSERT_EQ(expect, pushed);
    }
}

TEST(EventCoreProperty, ReentrantScheduleSoak)
{
    // Continuations that schedule new continuations (at clamped-past,
    // present and future instants) while the loop drains. Invariants:
    // dispatch times never decrease, each continuation runs at its
    // requested time clamped to the schedule-time now(), every
    // schedule() dispatches exactly once, and the loop terminates.
    for (u64 seed = 1; seed <= 20; ++seed) {
        Rng rng(seed * 7919);
        EventCore core;
        std::vector<int> runs;
        SimTime lastTime = -1;
        u64 budget = 600; // spawn allowance, so the soak terminates

        std::function<void(EventCore &)> spawn = [&](EventCore &c) {
            const SimTime at = c.now() + SimTime(rng.below(8)) -
                               2; // sometimes in the past: clamps
            const SimTime want = std::max(at, c.now());
            const std::size_t id = runs.size();
            runs.push_back(0);
            c.schedule(at, std::size_t(rng.below(3)),
                       [&, want, id](EventCore &c2) {
                           EXPECT_EQ(c2.now(), want);
                           EXPECT_GE(c2.now(), lastTime);
                           lastTime = c2.now();
                           ++runs[id];
                           // Re-entrancy: schedule up to two successors.
                           const u64 spawns = rng.below(3);
                           for (u64 s = 0; s < spawns && budget > 0; ++s) {
                               --budget;
                               spawn(c2);
                           }
                       });
        };

        for (int i = 0; i < 40 && budget > 0; ++i) {
            --budget;
            spawn(core);
        }
        core.run();

        for (std::size_t id = 0; id < runs.size(); ++id)
            ASSERT_EQ(runs[id], 1) << "continuation " << id
                                   << " ran " << runs[id]
                                   << " times (seed " << seed << ")";
    }
}

} // namespace
} // namespace pc::harness
