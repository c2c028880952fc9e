/**
 * @file
 * The closed-loop harness: one client submits a task, steps the cluster's
 * simulator until it is idle, checks the result against the sequential
 * reference fold, and only then submits the next task. A traced run adds
 * host-time spans around the calls into each layer, recorded from this
 * file and the switch wrapper only; the program itself is not changed.
 */
#ifndef ASK_PERFBENCH_HARNESS_H
#define ASK_PERFBENCH_HARNESS_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ask/cluster.h"
#include "workloads.h"

namespace perfbench {

/** Host monotonic clock in nanoseconds. */
std::int64_t now_ns();

/** Resident set size of this process in bytes (0 if unreadable). */
std::uint64_t rss_bytes();


/** The span kinds a traced run records. */
enum class SpanKind : std::uint8_t
{
    kSetup,     ///< generate the workload and build the cluster
    kGenerate,  ///< workload generation (child of setup)
    kBuild,     ///< AskCluster construction (child of setup)
    kRun,       ///< the traced run phase, all tasks
    kTask,      ///< one task: prepare, submit, steps and verification
    kPrepare,   ///< copy the task's streams out of the pool (harness)
    kSubmit,    ///< AskCluster::submit_task
    kStep,      ///< one Simulator::step()
    kSwitch,    ///< one AskSwitchProgram::process() (child of a step)
    kVerify,    ///< check against the reference fold, record (harness)
    kCount,
};

const char* span_name(SpanKind kind);

/** One recorded span. Parent 0 means a root span. */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    SpanKind kind = SpanKind::kSetup;
    std::uint32_t task = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/**
 * In-memory span recorder. Every span is folded into per-kind totals
 * (count, duration, time covered by child spans); the first
 * `keep_limit` spans are also kept verbatim and written out when the
 * run ends, which bounds memory on runs of millions of steps.
 */
class SpanRecorder
{
  public:
    /** Reserves room for `keep_limit` spans up front, so keeping one
     *  never reallocates inside a traced run. */
    explicit SpanRecorder(std::size_t keep_limit) : keep_limit_(keep_limit)
    {
        kept_.reserve(keep_limit);
    }

    /** Open a span as a child of the innermost open span. */
    void open(SpanKind kind, std::uint32_t task);
    /** Close the innermost open span. */
    void close();

    struct Totals
    {
        std::uint64_t count = 0;
        std::int64_t total_ns = 0;
        std::int64_t child_ns = 0;
        std::int64_t self_ns() const { return total_ns - child_ns; }
    };

    const Totals& totals(SpanKind kind) const
    {
        return totals_[static_cast<std::size_t>(kind)];
    }
    Totals& totals(SpanKind kind)
    {
        return totals_[static_cast<std::size_t>(kind)];
    }
    const std::vector<Span>& kept() const { return kept_; }
    std::uint64_t recorded() const { return next_id_ - 1; }

    /** Write the kept spans as JSON lines. Returns false on I/O error. */
    bool write_jsonl(const std::string& path) const;

  private:
    struct Open
    {
        Span span;
        std::int64_t child_ns = 0;
    };
    std::size_t keep_limit_;
    std::uint32_t next_id_ = 1;
    std::vector<Open> stack_;
    std::vector<Span> kept_;
    std::array<Totals, static_cast<std::size_t>(SpanKind::kCount)> totals_{};
};

/** Host times of one setup (workload generation + cluster build). */
struct SetupTimes
{
    double gen_s = 0.0;
    double build_s = 0.0;
    double total_s() const { return gen_s + build_s; }
};

/** A workload plus the cluster built from it. */
struct Deployment
{
    Workload workload;
    std::unique_ptr<ask::core::AskCluster> cluster;
};

/** Generate the workload and build its cluster, timing both. With a
 *  recorder, the setup is also recorded as spans. */
Deployment set_up(const std::string& name, std::uint64_t seed,
                  SetupTimes& times, SpanRecorder* recorder = nullptr);

/**
 * Counters and simulated results over the window: the first
 * kWindowTasks tasks of a run. They depend on the seed alone, so two
 * runs with one seed (traced or not) must agree on all of them.
 */
struct WindowStats
{
    std::vector<double> sim_jct_ms;
    double sim_task_ns = 0.0;
    std::uint64_t tuples = 0;
    std::uint64_t payload_bytes = 0;
    /** Tasks that committed at least one shadow-copy swap, and the
     *  swaps committed in all. */
    std::uint64_t tasks_swapped = 0;
    std::uint64_t swaps_committed = 0;
    ask::core::SwitchAggStats switches;
    ask::core::HostStats hosts;
    ask::core::ChaosStats chaos;
    ask::net::NetworkStats net;
    std::uint64_t events = 0;
    std::uint64_t wal_records = 0;
    std::uint64_t wal_bytes = 0;
    /** Digest of every simulated value above plus each task's result. */
    std::uint64_t digest = 0;
    /** Host seconds the window's tasks took (submit to idle). */
    double host_s = 0.0;
    /** RSS growth from the end of setup to the end of the window. */
    double rss_growth_mb = 0.0;
};

/** Layer timings and samples gathered by a traced run. */
struct TraceData
{
    SpanRecorder spans{200000};
    double pending_sum = 0.0;
    std::uint64_t pending_max = 0;
    std::uint64_t steps = 0;
    std::uint64_t switch_packets = 0;
    /** DATA frames as they entered the switches (wire decode sample). */
    std::vector<std::vector<std::uint8_t>> frames;
};

/** The outcome of one closed-loop run. */
struct RunResult
{
    std::uint32_t attempted = 0;
    std::uint32_t failed = 0;
    std::vector<std::string> failures;
    /** Host ms per task, submit to idle, every task of the run. */
    std::vector<double> task_host_ms;
    /** Host seconds per pass: one task of each pool entry in turn, so
     *  every pass does the same work. A run ends on a pass boundary. */
    std::vector<double> pass_host_s;
    std::uint64_t tuples = 0;
    WindowStats window;
};

/**
 * Host ns a traced step spends outside its span (the loop, the
 * queue-depth sample and the span bookkeeping), calibrated by tracing
 * steps of an idle simulator. The conservation check counts this time
 * as the tracer's own.
 */
double span_gap_ns();

/** Passes every untraced run completes, whatever `seconds` says, so
 *  that the fastest tenth of them holds at least 100 tasks. */
constexpr std::uint32_t kMinPasses = 130;

/**
 * Run tasks in a closed loop on `d`'s cluster until `seconds` of wall
 * time have passed and at least the window and kMinPasses passes are
 * complete. With `trace`, run exactly the window with the timing switch
 * wrapper installed, recording spans into `trace`.
 */
RunResult run_closed_loop(Deployment& d, double seconds, TraceData* trace,
                          std::uint64_t rss_after_setup);

}  // namespace perfbench

#endif  // ASK_PERFBENCH_HARNESS_H
