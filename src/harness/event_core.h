/**
 * @file
 * Discrete-event core for the fleet harness.
 *
 * The epoch loop advances every device one month at a time; this
 * engine lets the flash-crowd driver (harness/fleet.cc) express
 * sub-epoch structure instead — Poisson query bursts, mid-month
 * outages, staggered reconnect herds. Two layers:
 *
 *  - **EventQueue<Payload>** — a binary min-heap of (key, payload)
 *    entries keyed by `EventKey{time, device, seq}`. `seq` is a
 *    global push counter, so two events at the same instant on the
 *    same device pop in exactly the order they were scheduled, and
 *    events tied on time across devices pop in device-index order.
 *    That total order is the engine's whole determinism story: no
 *    wall clocks, no pointers, no iteration over hashed containers —
 *    a fixed schedule replays the same dispatch sequence on any
 *    machine.
 *
 *  - **EventCore** — the dispatch loop: continuations scheduled at a
 *    (time, device) pair run in key order; a running continuation may
 *    schedule further events (re-entrancy is the normal case — a
 *    query arrival schedules the next arrival). Scheduling into the
 *    past clamps to now(): sim time never moves backwards, which the
 *    fleet fold and every TimeSeries window rely on.
 *
 * Determinism rules (see DESIGN.md "Event-driven fleet"): handlers
 * must derive everything from sim state and seeded RNG streams;
 * the tie-break key is (time, device, seq); per-device telemetry is
 * still folded in device-index order by the harness, so artifacts
 * stay byte-identical at any worker-thread count.
 */

#ifndef PC_HARNESS_EVENT_CORE_H
#define PC_HARNESS_EVENT_CORE_H

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "util/types.h"

namespace pc::harness {

/**
 * Total order of scheduled events: time, then device index, then
 * global push sequence. Every pair of events compares strictly —
 * `seq` is unique — so the pop order is a total function of the push
 * history.
 */
struct EventKey
{
    SimTime time = 0;
    std::size_t device = 0;
    u64 seq = 0;
};

constexpr bool
operator<(const EventKey &a, const EventKey &b)
{
    if (a.time != b.time)
        return a.time < b.time;
    if (a.device != b.device)
        return a.device < b.device;
    return a.seq < b.seq;
}

constexpr bool
operator==(const EventKey &a, const EventKey &b)
{
    return a.time == b.time && a.device == b.device && a.seq == b.seq;
}

/**
 * Binary-heap priority queue of (EventKey, Payload). See the file
 * comment for the ordering contract. Not thread-safe by design: the
 * fleet harness runs one queue per device world — sharing a queue
 * across workers would reintroduce scheduling-order nondeterminism.
 */
template <typename Payload>
class EventQueue
{
  public:
    /** One scheduled event. */
    struct Event
    {
        EventKey key;
        Payload payload;
    };

    /** Schedule `payload` at (time, device). O(log n). */
    void
    push(SimTime time, std::size_t device, Payload payload)
    {
        Event e;
        e.key.time = time;
        e.key.device = device;
        e.key.seq = nextSeq_++;
        e.payload = std::move(payload);
        heap_.push_back(std::move(e));
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    /** Pending events. */
    std::size_t size() const { return heap_.size(); }

    /** True when no pending events remain. */
    bool empty() const { return heap_.empty(); }

    /** Pop the earliest pending event. @return Empty when drained. */
    std::optional<Event>
    pop()
    {
        if (heap_.empty())
            return std::nullopt;
        std::pop_heap(heap_.begin(), heap_.end(), later);
        Event e = std::move(heap_.back());
        heap_.pop_back();
        return e;
    }

  private:
    /** std::push_heap builds a max-heap; invert to pop earliest. */
    static bool
    later(const Event &a, const Event &b)
    {
        return b.key < a.key;
    }

    std::vector<Event> heap_;
    u64 nextSeq_ = 0;
};

/**
 * The dispatch engine: continuations in a single EventQueue, run to
 * exhaustion. One EventCore per device world in the fleet (workers
 * share nothing).
 */
class EventCore
{
  public:
    using Continuation = std::function<void(EventCore &)>;

    /**
     * Schedule `fn` at (time, device). Times before now() clamp to
     * now() — sim time never runs backwards — and the continuation
     * then runs after every event already pending at now().
     */
    void schedule(SimTime time, std::size_t device, Continuation fn);

    /**
     * Dispatch until the queue is empty. Continuations may schedule()
     * freely (re-entrant).
     */
    void run();

    /** Time of the most recently dispatched event. */
    SimTime now() const { return now_; }

  private:
    EventQueue<Continuation> queue_;
    SimTime now_ = 0;
};

} // namespace pc::harness

#endif // PC_HARNESS_EVENT_CORE_H
