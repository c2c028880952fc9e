/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The whole ASK reproduction runs inside this kernel: hosts, NICs, links,
 * and the PISA switch schedule callbacks at future simulated times, and
 * throughput/latency figures are computed from simulated time. The kernel
 * is single-threaded and fully deterministic: events at the same timestamp
 * fire in scheduling order.
 */
#ifndef ASK_SIM_SIMULATOR_H
#define ASK_SIM_SIMULATOR_H

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/units.h"

namespace ask::sim {

/** Simulated time in nanoseconds since simulation start. */
using SimTime = Nanoseconds;

/** Handle to a scheduled event, usable for cancellation. */
using EventId = std::uint64_t;

/** Sentinel meaning "no event". */
constexpr EventId kInvalidEvent = 0;

/**
 * The event-driven simulator.
 *
 * Typical use:
 * @code
 *   Simulator s;
 *   s.schedule_after(10, [&] { ... });
 *   s.run();
 * @endcode
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Schedule `fn` to run at absolute time `t` (>= now). */
    EventId schedule_at(SimTime t, std::function<void()> fn);

    /** Schedule `fn` to run `delay` ns from now (delay >= 0). */
    EventId schedule_after(SimTime delay, std::function<void()> fn);

    /**
     * Cancel a pending event. Returns true if the event was still pending
     * (it will not fire); false if it already fired or was cancelled.
     */
    bool cancel(EventId id);

    /** Run until the event queue drains. Returns the final time. */
    SimTime run();

    /**
     * Run until simulated time reaches `deadline` (events at exactly
     * `deadline` fire) or the queue drains, whichever is first.
     */
    SimTime run_until(SimTime deadline);

    /** Execute at most one event. Returns false if the queue was empty. */
    bool step();

    /** Number of events currently pending (including cancelled stubs). */
    std::size_t pending() const { return queue_.size() - cancelled_live_; }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Install a hook invoked after every executed event with the current
     * time. Used by obs::Sampler to take periodic samples without ever
     * scheduling events of its own (a self-rescheduling sampler event
     * would keep run() from draining). One hook; pass nullptr to clear.
     */
    void set_after_event_hook(std::function<void(SimTime)> hook)
    {
        after_event_ = std::move(hook);
    }

  private:
    struct Entry
    {
        SimTime time;
        EventId id;
        std::function<void()> fn;

        bool
        operator>(const Entry& o) const
        {
            // Earlier time first; FIFO among equal times via id order.
            if (time != o.time)
                return time > o.time;
            return id > o.id;
        }
    };

    bool pop_and_run();

    SimTime now_ = 0;
    EventId next_id_ = 1;
    std::function<void(SimTime)> after_event_;
    std::uint64_t executed_ = 0;
    std::size_t cancelled_live_ = 0;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
    // Cancellation is implemented by remembering cancelled ids; entries
    // are skipped when popped. The set stays small because ids are purged
    // as their entries surface.
    std::unordered_set<EventId> cancelled_;
};

}  // namespace ask::sim

#endif  // ASK_SIM_SIMULATOR_H
