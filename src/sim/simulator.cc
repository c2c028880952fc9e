#include "sim/simulator.h"

#include <utility>

#include "common/logging.h"

namespace ask::sim {

EventId
Simulator::schedule_at(SimTime t, std::function<void()> fn)
{
    ASK_ASSERT(t >= now_, "cannot schedule an event in the past");
    EventId id = next_id_++;
    queue_.push(Entry{t, id, std::move(fn)});
    return id;
}

EventId
Simulator::schedule_after(SimTime delay, std::function<void()> fn)
{
    ASK_ASSERT(delay >= 0, "negative delay");
    return schedule_at(now_ + delay, std::move(fn));
}

bool
Simulator::cancel(EventId id)
{
    if (id == kInvalidEvent || id >= next_id_)
        return false;
    bool inserted = cancelled_.insert(id).second;
    if (inserted)
        ++cancelled_live_;
    // The entry might have already fired; that is indistinguishable here,
    // but firing purges the id from cancelled_, so a stale insert only
    // happens for ids the caller misuses. Treat insert success as success.
    return inserted;
}

bool
Simulator::pop_and_run()
{
    while (!queue_.empty()) {
        Entry e = std::move(const_cast<Entry&>(queue_.top()));
        queue_.pop();
        auto it = cancelled_.find(e.id);
        if (it != cancelled_.end()) {
            cancelled_.erase(it);
            --cancelled_live_;
            continue;
        }
        ASK_ASSERT(e.time >= now_, "event queue went backwards");
        now_ = e.time;
        ++executed_;
        e.fn();
        if (after_event_)
            after_event_(now_);
        return true;
    }
    return false;
}

SimTime
Simulator::run()
{
    while (pop_and_run()) {
    }
    return now_;
}

SimTime
Simulator::run_until(SimTime deadline)
{
    while (!queue_.empty()) {
        // Skip cancelled heads without advancing time.
        if (cancelled_.count(queue_.top().id)) {
            cancelled_.erase(queue_.top().id);
            --cancelled_live_;
            queue_.pop();
            continue;
        }
        if (queue_.top().time > deadline)
            break;
        pop_and_run();
    }
    if (now_ < deadline)
        now_ = deadline;
    return now_;
}

bool
Simulator::step()
{
    return pop_and_run();
}

}  // namespace ask::sim
