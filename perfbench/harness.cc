#include "harness.h"

#include <chrono>
#include <fstream>
#include <optional>
#include <stdexcept>

#include <unistd.h>

#include "ask/fabric.h"
#include "ask/metrics.h"
#include "ask/wire.h"
#include "common/random.h"
#include "common/stats.h"

namespace perfbench {

using namespace ask;

std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
rss_bytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size_pages = 0;
    std::uint64_t resident_pages = 0;
    if (!(statm >> size_pages >> resident_pages))
        return 0;
    return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

const char*
span_name(SpanKind kind)
{
    switch (kind) {
      case SpanKind::kSetup: return "setup";
      case SpanKind::kGenerate: return "workload.gen";
      case SpanKind::kBuild: return "cluster.build";
      case SpanKind::kRun: return "run";
      case SpanKind::kTask: return "task";
      case SpanKind::kPrepare: return "prepare";
      case SpanKind::kSubmit: return "submit";
      case SpanKind::kStep: return "sim.step";
      case SpanKind::kSwitch: return "switch.process";
      case SpanKind::kVerify: return "verify";
      case SpanKind::kCount: break;
    }
    return "?";
}

void
SpanRecorder::open(SpanKind kind, std::uint32_t task)
{
    Open o;
    o.span.id = next_id_++;
    o.span.parent = stack_.empty() ? 0 : stack_.back().span.id;
    o.span.kind = kind;
    o.span.task = task;
    stack_.push_back(o);
    // Read the clock last, so the bookkeeping above is not inside the span.
    stack_.back().span.start_ns = now_ns();
}

void
SpanRecorder::close()
{
    std::int64_t end = now_ns();
    Open& o = stack_.back();
    o.span.end_ns = end;
    std::int64_t dur = end - o.span.start_ns;
    Totals& t = totals(o.span.kind);
    ++t.count;
    t.total_ns += dur;
    t.child_ns += o.child_ns;
    if (kept_.size() < keep_limit_)
        kept_.push_back(o.span);
    stack_.pop_back();
    if (!stack_.empty())
        stack_.back().child_ns += dur;
}

bool
SpanRecorder::write_jsonl(const std::string& path) const
{
    std::ofstream out(path);
    for (const Span& s : kept_) {
        out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"name\":\"" << span_name(s.kind) << "\",\"task\":"
            << s.task << ",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << "}\n";
    }
    return static_cast<bool>(out);
}

Deployment
set_up(const std::string& name, std::uint64_t seed, SetupTimes& times,
       SpanRecorder* recorder)
{
    Deployment d;
    if (recorder != nullptr) {
        recorder->open(SpanKind::kSetup, 0);
        recorder->open(SpanKind::kGenerate, 0);
    }
    std::int64_t t0 = now_ns();
    d.workload = make_workload(name, seed);
    std::int64_t t1 = now_ns();
    if (recorder != nullptr) {
        recorder->close();
        recorder->open(SpanKind::kBuild, 0);
    }
    d.cluster = std::make_unique<core::AskCluster>(d.workload.config);
    std::int64_t t2 = now_ns();
    if (recorder != nullptr) {
        recorder->close();
        recorder->close();
    }
    times.gen_s = static_cast<double>(t1 - t0) * 1e-9;
    times.build_s = static_cast<double>(t2 - t1) * 1e-9;
    return d;
}

namespace {

/**
 * The timing switch wrapper: a forwarding SwitchProgram installed in
 * place of a switch's AskSwitchProgram. It records one span per
 * process() call and samples DATA frames for the wire-decode timing;
 * the packet and the emitter pass through untouched.
 */
class TimedProgram final : public pisa::SwitchProgram
{
  public:
    static constexpr std::size_t kFrameSample = 4096;

    TimedProgram(core::AskSwitchProgram& inner, TraceData& trace,
                 const std::uint32_t& task)
        : inner_(inner), trace_(trace), task_(task)
    {
    }

    void
    process(net::Packet pkt, pisa::Emitter& emit) override
    {
        if (trace_.frames.size() < kFrameSample) {
            auto hdr = core::parse_header(pkt.data);
            if (hdr && hdr->type == core::PacketType::kData)
                trace_.frames.push_back(pkt.data);
        }
        trace_.spans.open(SpanKind::kSwitch, task_);
        inner_.process(std::move(pkt), emit);
        trace_.spans.close();
        ++trace_.switch_packets;
    }

    std::string name() const override { return inner_.name(); }

  private:
    core::AskSwitchProgram& inner_;
    TraceData& trace_;
    const std::uint32_t& task_;
};

void
fold(std::uint64_t& h, std::uint64_t v)
{
    h ^= v;
    h = split_mix64(h);
}

std::uint64_t
digest_counters(const WindowStats& w)
{
    std::uint64_t h = 0;
#define PERFBENCH_FOLD_2(field, doc) fold(h, w.switches.field);
    ASK_SWITCH_AGG_STATS_FIELDS(PERFBENCH_FOLD_2)
#undef PERFBENCH_FOLD_2
#define PERFBENCH_FOLD_2(field, doc) fold(h, w.hosts.field);
    ASK_HOST_STATS_FIELDS(PERFBENCH_FOLD_2)
#undef PERFBENCH_FOLD_2
#define PERFBENCH_FOLD_3(field, owner, doc) fold(h, w.chaos.field);
    ASK_CHAOS_STATS_FIELDS(PERFBENCH_FOLD_3)
#undef PERFBENCH_FOLD_3
    fold(h, w.net.packets_sent);
    fold(h, w.net.packets_delivered);
    fold(h, w.net.packets_dropped);
    fold(h, w.net.bytes_sent);
    fold(h, w.events);
    fold(h, w.wal_records);
    fold(h, w.wal_bytes);
    return h;
}

/**
 * The sequential reference fold of a task's streams: a 64-bit sum per
 * key. It shares no code with the service's own folds, so a bug there
 * cannot hide in the reference. Every workload runs ReduceOp::kAdd.
 */
core::AggregateMap
reference_fold(const TaskInput& input)
{
    core::AggregateMap ref;
    for (const core::StreamSpec& s : input.streams) {
        for (const core::KvTuple& t : s.stream)
            ref[t.key] += t.value;
    }
    return ref;
}

/** A key as text: numeric keys are raw bytes, so escape those. */
std::string
printable(const core::Key& key)
{
    static const char* digits = "0123456789abcdef";
    std::string out;
    for (unsigned char c : key) {
        if (c >= 0x20 && c < 0x7f && c != '\\') {
            out.push_back(static_cast<char>(c));
        } else {
            out += "\\x";
            out.push_back(digits[c >> 4]);
            out.push_back(digits[c & 0xf]);
        }
    }
    return out;
}

/** Empty when `got` equals the reference fold, else what differs. */
std::string
compare_to_reference(const core::AggregateMap& got,
                     const core::AggregateMap& want)
{
    for (const auto& [key, value] : want) {
        auto it = got.find(key);
        if (it == got.end())
            return "key '" + printable(key) + "' missing";
        if (it->second != value)
            return "key '" + printable(key) + "' = " +
                   std::to_string(it->second) + ", reference " +
                   std::to_string(value);
    }
    if (got.size() != want.size())
        return std::to_string(got.size() - want.size()) +
               " keys not in the reference";
    return {};
}

void
snapshot_window(core::AskCluster& cluster, WindowStats& w)
{
    w.switches = cluster.total_switch_stats();
    w.hosts = cluster.total_host_stats();
    w.chaos = cluster.chaos_stats();
    w.net = cluster.network().stats();
    w.events = cluster.simulator().executed();
    w.wal_records = 0;
    w.wal_bytes = 0;
    core::WalStore& store = cluster.wal_store();
    for (std::uint32_t h = 0; h < cluster.num_hosts(); ++h) {
        w.wal_records += store.host_wal(h).records();
        w.wal_bytes += store.host_wal(h).size_bytes();
    }
    for (std::uint32_t s = 0; s < cluster.num_switches(); ++s) {
        const core::Wal& wal = store.wal(core::controller_wal_name(SwitchId{s}));
        w.wal_records += wal.records();
        w.wal_bytes += wal.size_bytes();
    }
}

/** One step of the traced loop, with its queue-depth sample. */
bool
traced_step(sim::Simulator& simulator, TraceData& trace, std::uint32_t task)
{
    std::uint64_t pending = simulator.pending();
    trace.pending_sum += static_cast<double>(pending);
    trace.pending_max = std::max(trace.pending_max, pending);
    ++trace.steps;
    trace.spans.open(SpanKind::kStep, task);
    bool more = simulator.step();
    trace.spans.close();
    return more;
}

}  // namespace

double
span_gap_ns()
{
    constexpr int kSteps = 200000;
    sim::Simulator idle;
    Samples gap;
    for (int rep = 0; rep < 7; ++rep) {
        TraceData t;
        t.spans = SpanRecorder(0);
        t.spans.open(SpanKind::kRun, 0);
        for (int i = 0; i < kSteps; ++i)
            traced_step(idle, t, 1);
        t.spans.close();
        gap.add(static_cast<double>(t.spans.totals(SpanKind::kRun).total_ns -
                                    t.spans.totals(SpanKind::kStep).total_ns) /
                kSteps);
    }
    return gap.quantile(0.5);
}

RunResult
run_closed_loop(Deployment& d, double seconds, TraceData* trace,
                std::uint64_t rss_after_setup)
{
    core::AskCluster& cluster = *d.cluster;
    const Workload& w = d.workload;
    sim::Simulator& simulator = cluster.simulator();

    std::uint32_t current_task = 0;
    std::vector<std::unique_ptr<TimedProgram>> wrappers;
    if (trace != nullptr) {
        for (std::uint32_t s = 0; s < cluster.num_switches(); ++s) {
            wrappers.push_back(std::make_unique<TimedProgram>(
                cluster.program(SwitchId{s}), *trace, current_task));
            cluster.pisa_switch(SwitchId{s}).install(wrappers.back().get());
        }
    }
    SpanRecorder* spans = trace != nullptr ? &trace->spans : nullptr;

    if (w.options.op != core::ReduceOp::kAdd)
        throw std::invalid_argument("the reference fold covers kAdd only");
    std::vector<std::optional<core::AggregateMap>> references(w.pool.size());
    RunResult r;
    std::uint64_t sim_digest = 0;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    if (spans != nullptr)
        spans->open(SpanKind::kRun, 0);

    for (std::uint32_t i = 0;; ++i) {
        if (i % w.pool.size() == 0 && i >= kWindowTasks &&
            (trace != nullptr ||
             (now_ns() >= deadline && r.pass_host_s.size() >= kMinPasses)))
            break;
        const std::size_t slot = i % w.pool.size();
        const TaskInput& input = w.pool[slot];
        const core::TaskId id = i + 1;
        current_task = id;
        if (spans != nullptr) {
            spans->open(SpanKind::kTask, id);
            spans->open(SpanKind::kPrepare, id);
        }
        // The cluster takes the streams by value; copy the pool entry
        // before the clock starts.
        std::vector<core::StreamSpec> streams = input.streams;
        std::optional<core::TaskResult> done;
        if (spans != nullptr) {
            spans->close();
            spans->open(SpanKind::kSubmit, id);
        }

        const std::int64_t t0 = now_ns();
        cluster.submit_task(
            id, w.receiver, std::move(streams), w.options,
            [&done](core::AggregateMap result, core::TaskReport report) {
                done = core::TaskResult{std::move(result), std::move(report)};
            });
        if (spans != nullptr) {
            spans->close();
            while (traced_step(simulator, *trace, id)) {
            }
        } else {
            while (simulator.step()) {
            }
        }
        const std::int64_t t1 = now_ns();

        const double host_s = static_cast<double>(t1 - t0) * 1e-9;
        r.task_host_ms.push_back(host_s * 1e3);
        if (slot == 0)
            r.pass_host_s.push_back(0.0);
        r.pass_host_s.back() += host_s;
        r.tuples += input.tuples;
        ++r.attempted;

        if (spans != nullptr)
            spans->open(SpanKind::kVerify, id);
        std::string failure;
        if (!done) {
            failure = "never completed";
        } else if (!done->ok()) {
            failure = "status " + std::to_string(static_cast<int>(
                                      done->report.status)) +
                      ": " + done->report.detail;
        } else {
            if (!references[slot])
                references[slot] = reference_fold(input);
            failure = compare_to_reference(done->result, *references[slot]);
        }
        if (!failure.empty()) {
            ++r.failed;
            r.failures.push_back("task " + std::to_string(id) + ": " + failure);
        }

        if (i < kWindowTasks) {
            WindowStats& win = r.window;
            if (done) {
                const core::TaskReport& rep = done->report;
                const double jct_ns =
                    static_cast<double>(rep.finish_time - rep.start_time);
                win.sim_jct_ms.push_back(jct_ns * 1e-6);
                win.sim_task_ns += jct_ns;
                win.tasks_swapped += rep.swaps > 0 ? 1 : 0;
                win.swaps_committed += rep.swaps;
                fold(sim_digest, static_cast<std::uint64_t>(rep.start_time));
                fold(sim_digest, static_cast<std::uint64_t>(rep.finish_time));
                fold(sim_digest, static_cast<std::uint64_t>(rep.status));
                fold(sim_digest, rep.swaps);
                fold(sim_digest, rep.packets_received);
                fold(sim_digest, rep.tuples_fetched_from_switch);
                fold(sim_digest, rep.tuples_aggregated_locally);
                fold(sim_digest, done->result.size());
            }
            win.tuples += input.tuples;
            win.payload_bytes += input.payload_bytes;
            win.host_s += host_s;
            if (i + 1 == kWindowTasks) {
                snapshot_window(cluster, win);
                win.digest = digest_counters(win);
                fold(win.digest, sim_digest);
                win.rss_growth_mb =
                    (static_cast<double>(rss_bytes()) -
                     static_cast<double>(rss_after_setup)) *
                    1e-6;
            }
        }
        // Free the result inside the span, too.
        done.reset();
        if (spans != nullptr) {
            spans->close();
            spans->close();
        }
    }

    if (spans != nullptr) {
        spans->close();
        for (std::uint32_t s = 0; s < cluster.num_switches(); ++s)
            cluster.pisa_switch(SwitchId{s}).install(&cluster.program(SwitchId{s}));
    }
    return r;
}

}  // namespace perfbench
