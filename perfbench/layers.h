/**
 * @file
 * Standalone per-layer timings, run after the timed run: each one calls
 * a single layer's public functions on the run's own data or shape, so
 * a layer's cost can be read without instrumenting the program.
 */
#ifndef ASK_PERFBENCH_LAYERS_H
#define ASK_PERFBENCH_LAYERS_H

#include <cstdint>
#include <vector>

#include "ask/cluster.h"
#include "workloads.h"

namespace perfbench {

/** Host ns of one Simulator::schedule_after() plus step() of a no-op
 *  event, on a fresh Simulator kept at `pending` queued events. */
double queue_ns_per_event(double pending);

/** Re-appending every record of the cluster's WALs into fresh logs. */
struct WalTiming
{
    std::uint64_t records = 0;
    double append_s = 0.0;
    /** Every re-appended log reproduced its source's root digest. */
    bool digests_match = true;
};
WalTiming time_wal_reappend(ask::core::AskCluster& cluster);

/** Host ns of parse_header() plus read_slots() per sampled DATA frame. */
double wire_decode_ns_per_packet(
    const std::vector<std::vector<std::uint8_t>>& frames,
    const ask::core::AskConfig& config);

/**
 * Host ms of one AskSwitchController::fetch() of a task region sized as
 * the workload's. Standalone switches, programs and controllers, one per
 * switch of the workload's fabric, replay a task's drain pattern in
 * turn (fetch each shadow copy, then release), so the register memory
 * the scans walk is as large as in the run.
 */
double fetch_scan_ms_per_call(const Workload& w, std::uint32_t switches);

}  // namespace perfbench

#endif  // ASK_PERFBENCH_LAYERS_H
