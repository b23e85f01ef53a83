#include "harness/event_core.h"

namespace pc::harness {

void
EventCore::schedule(SimTime time, std::size_t device, Continuation fn)
{
    // Clamp instead of asserting: a handler that computes an arrival
    // just behind its own dispatch time (retry backoff arithmetic,
    // clamped burst windows) schedules "immediately after everything
    // already due now", which is the only sane meaning of a past
    // timestamp in a monotone simulation.
    if (time < now_)
        time = now_;
    queue_.push(time, device, std::move(fn));
}

void
EventCore::run()
{
    while (auto ev = queue_.pop()) {
        now_ = ev->key.time;
        // The continuation may schedule() into the queue we are
        // draining (the normal case); that touches only the queue,
        // never this dispatch frame.
        ev->payload(*this);
    }
}

} // namespace pc::harness
