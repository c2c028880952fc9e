/**
 * ask_perf: the host-time benchmark of the simulated ASK service.
 *
 *   ask_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--out-dir <dir>]
 *
 * Runs one workload in one process and one thread on a single
 * AskCluster, closed loop with one client, and checks every task's
 * result against the sequential reference fold. With --trace 0 it prints
 * the end-to-end metrics; with --trace 1 it makes the same untraced run,
 * then a traced run of the window's tasks, and prints the per-layer
 * metrics. The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. A report with the
 * build, machine and seed metadata and every sample is written to
 * --out-dir. Exit code 0 only when every task matched its reference.
 *
 * Metrics named sim_* (and switch_agg_pct) are simulated-time results of
 * a switch model that has not been validated against Tofino hardware;
 * they are deterministic for a seed. Every other time is host time.
 */
#include <malloc.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "harness.h"
#include "layers.h"
#include "obs/json.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using ask::obs::Json;

/** Layer spans, harness spans and the calibrated tracer bookkeeping
 *  must sum to the traced run's wall time to within this share. The
 *  calibration runs on an idle simulator with warm caches, so the run's
 *  gaps between spans cost somewhat more than it predicts. */
constexpr double kConservationTolerance = 0.05;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".bench_build/perfbench";
};

/** Setups per run; setup_s is their median. */
constexpr int kSetupReps = 15;

[[noreturn]] void
usage(const std::string& error)
{
    std::cerr << "ask_perf: " << error << "\n"
              << "usage: ask_perf --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\nworkloads:";
    for (const std::string& n : workload_names())
        std::cerr << " " << n;
    std::cerr << "\n";
    std::exit(2);
}

std::uint64_t
parse_uint(const std::string& flag, const std::string& v)
{
    char* end = nullptr;
    errno = 0;
    unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-')
        usage("bad value for " + flag + ": '" + v + "'");
    return x;
}

Args
parse_args(int argc, char** argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = parse_uint(flag, v);
        } else if (flag == "--seconds") {
            a.seconds = static_cast<double>(parse_uint(flag, v));
        } else if (flag == "--trace") {
            std::uint64_t t = parse_uint(flag, v);
            if (t > 1)
                usage("--trace takes 0 or 1");
            a.trace = t == 1;
        } else if (flag == "--out-dir") {
            a.out_dir = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("unknown workload '" + a.workload + "'");
    return a;
}

double
quantile(const std::vector<double>& xs, double q)
{
    ask::Samples s;
    for (double x : xs)
        s.add(x);
    return s.quantile(q);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Metrics in insertion order, printed as a table and as JSON. */
class MetricSet
{
  public:
    void
    add(const std::string& name, double value, const std::string& unit)
    {
        entries_.push_back({name, value, unit});
    }

    void
    print(std::ostream& os) const
    {
        for (const Entry& e : entries_) {
            os << "  " << e.name;
            for (std::size_t pad = e.name.size(); pad < 34; ++pad)
                os << ' ';
            os << Json(e.value).dump() << " " << e.unit << "\n";
        }
    }

    Json
    json() const
    {
        Json m = Json::object();
        for (const Entry& e : entries_) {
            Json v = Json::object();
            v.set("value", e.value);
            v.set("unit", e.unit);
            m.set(e.name, std::move(v));
        }
        return m;
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

Json
doubles(const std::vector<double>& xs)
{
    Json a = Json::array();
    for (double x : xs)
        a.push_back(x);
    return a;
}

/** Return freed heap to the OS, so RSS growth counts only live data. */
void
trim_heap()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
}

/**
 * Host speed over the fastest tenth of a run's passes. Other tenants of
 * a shared host slow this memory-bound program by up to half, in phases
 * of seconds to minutes; the share of a run spent in slow phases varies
 * from run to run, and a plain median over all tasks jumps between the
 * phases. The fastest tenth is the part of the run a change to the
 * program moves. Every task of the chosen passes counts, slow ones
 * included, and every pass time is in the report.
 */
struct HostSpeed
{
    double tuples_per_s = 0.0;
    std::vector<double> task_ms;
    std::size_t passes = 0;
};

HostSpeed
fastest_tenth(const RunResult& run, const Workload& w)
{
    const std::size_t pool = w.pool.size();
    std::uint64_t pass_tuples = 0;
    for (const TaskInput& t : w.pool)
        pass_tuples += t.tuples;
    std::vector<std::size_t> order(run.pass_host_s.size());
    for (std::size_t p = 0; p < order.size(); ++p)
        order[p] = p;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return run.pass_host_s[a] < run.pass_host_s[b];
    });
    HostSpeed h;
    h.passes = std::max<std::size_t>(1, order.size() / 10);
    double seconds = 0.0;
    for (std::size_t j = 0; j < h.passes; ++j) {
        const std::size_t p = order[j];
        seconds += run.pass_host_s[p];
        h.task_ms.insert(h.task_ms.end(), run.task_host_ms.begin() + p * pool,
                         run.task_host_ms.begin() + (p + 1) * pool);
    }
    h.tuples_per_s =
        ratio(static_cast<double>(pass_tuples * h.passes), seconds);
    return h;
}

MetricSet
end_to_end_metrics(const std::vector<SetupTimes>& setups, const RunResult& run,
                   const HostSpeed& speed)
{
    std::vector<double> setup_s;
    for (const SetupTimes& s : setups)
        setup_s.push_back(s.total_s());
    const WindowStats& win = run.window;
    MetricSet m;
    m.add("setup_s", quantile(setup_s, 0.5), "s");
    m.add("sim_tuples_per_s", speed.tuples_per_s, "1/s");
    m.add("task_host_ms_p50", quantile(speed.task_ms, 0.5), "ms");
    m.add("task_host_ms_p90", quantile(speed.task_ms, 0.9), "ms");
    m.add("run_rss_growth_mb", win.rss_growth_mb, "MB");
    // Bytes over simulated ns: bits per ns is Gbit/s.
    m.add("sim_goodput_gbps",
          ratio(static_cast<double>(win.payload_bytes) * 8.0, win.sim_task_ns),
          "Gbps");
    m.add("sim_jct_ms_p50", quantile(win.sim_jct_ms, 0.5), "ms");
    m.add("sim_jct_ms_p90", quantile(win.sim_jct_ms, 0.9), "ms");
    m.add("switch_agg_pct",
          100.0 * ratio(static_cast<double>(win.switches.tuples_aggregated),
                        static_cast<double>(win.switches.tuples_in)),
          "%");
    return m;
}

struct LayerReport
{
    MetricSet metrics;
    bool conserved = false;
    bool identical = false;
    bool wal_digests_match = false;
    double unattributed_pct = 0.0;
};

LayerReport
per_layer_metrics(const Deployment& d, const std::vector<SetupTimes>& setups,
                  const RunResult& untraced, const RunResult& traced,
                  TraceData& trace)
{
    using SK = SpanKind;
    const SpanRecorder& sp = trace.spans;
    const WindowStats& win = traced.window;
    auto secs = [&](SK k) {
        return static_cast<double>(sp.totals(k).total_ns) * 1e-9;
    };
    const double step_s = secs(SK::kStep);
    const double switch_s = secs(SK::kSwitch);
    const double submit_s = secs(SK::kSubmit);
    const double prepare_s = secs(SK::kPrepare);
    const double verify_s = secs(SK::kVerify);
    const double run_s = secs(SK::kRun);
    const double events = static_cast<double>(win.events);
    const double pending_mean =
        ratio(trace.pending_sum, static_cast<double>(trace.steps));

    const double queue_ns = queue_ns_per_event(pending_mean);
    const double queue_est_s = queue_ns * events * 1e-9;
    const WalTiming wal = time_wal_reappend(*d.cluster);
    const double wire_ns =
        wire_decode_ns_per_packet(trace.frames, d.workload.config.ask);
    const double fetch_ms =
        fetch_scan_ms_per_call(d.workload, d.cluster->num_switches());
    // read_region scans per task on every switch: finalize drains each
    // shadow copy and release clears each copy again; every committed
    // swap drains the retired copy once more.
    const double copies = d.workload.config.ask.shadow_copies ? 2.0 : 1.0;
    const double switches = static_cast<double>(d.cluster->num_switches());
    const double fetch_scans =
        switches * (static_cast<double>(kWindowTasks) * copies * 2.0 +
                    static_cast<double>(win.swaps_committed));

    std::vector<double> gen_s;
    std::vector<double> build_s;
    for (const SetupTimes& s : setups) {
        gen_s.push_back(s.gen_s);
        build_s.push_back(s.build_s);
    }
    const ask::core::SwitchAggStats& sw = win.switches;
    const ask::core::HostStats& host = win.hosts;
    const double untraced_tps =
        ratio(static_cast<double>(untraced.window.tuples), untraced.window.host_s);
    const double traced_tps =
        ratio(static_cast<double>(win.tuples), win.host_s);
    // Spans whose bookkeeping gap falls outside every layer span (the
    // gaps of switch spans fall inside their step and stay there).
    const double gaps = static_cast<double>(
        sp.totals(SK::kTask).count + sp.totals(SK::kPrepare).count +
        sp.totals(SK::kSubmit).count + sp.totals(SK::kStep).count +
        sp.totals(SK::kVerify).count);
    const double bookkeeping_s = span_gap_ns() * gaps * 1e-9;
    const double accounted =
        prepare_s + submit_s + step_s + verify_s + bookkeeping_s;

    LayerReport r;
    r.unattributed_pct = 100.0 * ratio(run_s - accounted, run_s);
    r.conserved = std::abs(run_s - accounted) <= kConservationTolerance * run_s;
    r.identical = win.digest == untraced.window.digest &&
                  win.sim_jct_ms == untraced.window.sim_jct_ms;
    r.wal_digests_match = wal.digests_match;

    MetricSet& m = r.metrics;
    m.add("workload.gen_s", quantile(gen_s, 0.5), "s");
    m.add("cluster.build_s", quantile(build_s, 0.5), "s");
    m.add("sim.events", events, "count");
    m.add("sim.pending_mean", pending_mean, "count");
    m.add("sim.pending_max", static_cast<double>(trace.pending_max), "count");
    m.add("sim.step_s", step_s, "s");
    m.add("sim.events_per_s", ratio(events, step_s), "1/s");
    m.add("sim.queue_ns_per_event", queue_ns, "ns");
    m.add("sim.queue_est_s", queue_est_s, "s");
    m.add("switch.process_s", switch_s, "s");
    m.add("switch.ns_per_packet",
          ratio(switch_s * 1e9, static_cast<double>(trace.switch_packets)), "ns");
    m.add("switch.packets", static_cast<double>(trace.switch_packets), "count");
    m.add("switch.tuples_in", static_cast<double>(sw.tuples_in), "count");
    m.add("switch.tuples_aggregated", static_cast<double>(sw.tuples_aggregated),
          "count");
    m.add("switch.agg_ratio",
          ratio(static_cast<double>(sw.tuples_aggregated),
                static_cast<double>(sw.tuples_in)),
          "ratio");
    m.add("switch.duplicates", static_cast<double>(sw.duplicates), "count");
    m.add("switch.swaps", static_cast<double>(sw.swaps), "count");
    m.add("switch.packets_forwarded", static_cast<double>(sw.packets_forwarded),
          "count");
    m.add("switch.residual_forwarded",
          static_cast<double>(sw.residual_forwarded), "count");
    m.add("switch.long_packets", static_cast<double>(sw.long_packets), "count");
    m.add("fetch.tuples", static_cast<double>(host.fetch_tuples), "count");
    m.add("fetch.scan_ms_per_call", fetch_ms, "ms");
    m.add("fetch.scans", fetch_scans, "count");
    m.add("fetch.est_s", fetch_scans * fetch_ms * 1e-3, "s");
    m.add("wal.records", static_cast<double>(win.wal_records), "count");
    m.add("wal.bytes", static_cast<double>(win.wal_bytes), "bytes");
    m.add("wal.append_ns_per_record",
          ratio(wal.append_s * 1e9, static_cast<double>(wal.records)), "ns");
    m.add("wal.append_s", wal.append_s, "s");
    m.add("wire.decode_ns_per_packet", wire_ns, "ns");
    m.add("daemon.data_packets_sent", static_cast<double>(host.data_packets_sent),
          "count");
    m.add("daemon.tuples_sent", static_cast<double>(host.tuples_sent), "count");
    m.add("daemon.retransmissions", static_cast<double>(host.retransmissions),
          "count");
    m.add("daemon.retx_ratio",
          ratio(static_cast<double>(host.retransmissions),
                static_cast<double>(host.data_packets_sent +
                                    host.long_packets_sent)),
          "ratio");
    m.add("daemon.packets_received", static_cast<double>(host.packets_received),
          "count");
    m.add("daemon.duplicates_received",
          static_cast<double>(host.duplicates_received), "count");
    m.add("daemon.tuples_aggregated_locally",
          static_cast<double>(host.tuples_aggregated_locally), "count");
    m.add("daemon.swap_requests", static_cast<double>(host.swap_requests),
          "count");
    m.add("host.residual_s", step_s - switch_s - queue_est_s, "s");
    m.add("net.packets_sent", static_cast<double>(win.net.packets_sent), "count");
    m.add("net.packets_dropped", static_cast<double>(win.net.packets_dropped),
          "count");
    m.add("net.bytes_sent", static_cast<double>(win.net.bytes_sent), "bytes");
    m.add("mgmt.rpcs", static_cast<double>(win.chaos.mgmt_rpcs), "count");
    m.add("mgmt.retries", static_cast<double>(win.chaos.mgmt_retries), "count");
    m.add("harness.prepare_s", prepare_s, "s");
    m.add("harness.submit_s", submit_s, "s");
    m.add("harness.verify_s", verify_s, "s");
    m.add("trace.overhead_pct",
          100.0 * ratio(untraced_tps - traced_tps, untraced_tps), "%");
    m.add("trace.bookkeeping_s", bookkeeping_s, "s");
    m.add("trace.unattributed_pct", r.unattributed_pct, "%");
    return r;
}

std::string
hex(std::uint64_t v)
{
    static const char* digits = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i, v >>= 4)
        s[static_cast<std::size_t>(i)] = digits[v & 0xf];
    return s;
}

}  // namespace

int
main(int argc, char** argv)
{
    const Args args = parse_args(argc, argv);
    const unsigned nproc = std::thread::hardware_concurrency();

    std::cout << "ask_perf: workload " << args.workload << ", seed "
              << args.seed << ", " << args.seconds << " s, trace "
              << (args.trace ? 1 : 0) << "\n"
              << "build: " << ASK_PERF_BUILD_TYPE << ", " << ASK_PERF_COMPILER
              << ", nproc " << nproc << "\n"
              << "sim_* metrics and switch_agg_pct are simulated time from a "
                 "switch model not validated against Tofino hardware; all "
                 "other times are host time.\n";

    // Set up several times; the last deployment is the one that runs.
    std::vector<SetupTimes> setups;
    Deployment d;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        d = Deployment{};
        trim_heap();
        SetupTimes t;
        d = set_up(args.workload, args.seed, t);
        setups.push_back(t);
    }
    trim_heap();
    RunResult run = run_closed_loop(d, args.seconds, nullptr, rss_bytes());
    const HostSpeed speed = fastest_tenth(run, d.workload);
    const MetricSet e2e = end_to_end_metrics(setups, run, speed);

    Json report = Json::object();
    report.set("schema", "ask-perfbench/v1");
    report.set("workload", args.workload);
    report.set("seed", args.seed);
    report.set("seconds", args.seconds);
    report.set("trace", args.trace);
    report.set("build_type", ASK_PERF_BUILD_TYPE);
    report.set("compiler", ASK_PERF_COMPILER);
    report.set("nproc", static_cast<std::uint64_t>(nproc));
    report.set("window_tasks", kWindowTasks);
    Json setup_runs = Json::array();
    for (const SetupTimes& s : setups) {
        Json o = Json::object();
        o.set("workload_gen_s", s.gen_s);
        o.set("cluster_build_s", s.build_s);
        o.set("setup_s", s.total_s());
        setup_runs.push_back(std::move(o));
    }
    report.set("setup_runs", std::move(setup_runs));
    report.set("task_host_ms", doubles(run.task_host_ms));
    report.set("pass_host_s", doubles(run.pass_host_s));
    report.set("host_speed_passes", static_cast<std::uint64_t>(speed.passes));
    report.set("sim_jct_ms", doubles(run.window.sim_jct_ms));
    report.set("sim_digest", hex(run.window.digest));
    report.set("end_to_end", e2e.json());

    std::uint32_t attempted = run.attempted;
    std::uint32_t failed = run.failed;
    std::vector<std::string> failures = run.failures;
    bool correct = failed == 0;

    std::cout << "setup: " << setups.size() << " runs\n"
              << "run: " << run.attempted << " tasks (" << run.window.sim_jct_ms.size()
              << " in the simulated window), " << run.tuples << " tuples, "
              << run.window.tasks_swapped << " window tasks swapped\n"
              << "sim_digest: " << hex(run.window.digest) << "\n"
              << "task_fail_pct: "
              << 100.0 * ratio(failed, std::max<std::uint32_t>(attempted, 1))
              << " % (" << failed << " of " << attempted << ")\n"
              << "end-to-end (host speed over the fastest " << speed.passes
              << " of " << run.pass_host_s.size() << " passes, task_host_ms "
              << "samples: " << speed.task_ms.size() << "; sim_jct_ms samples: "
              << run.window.sim_jct_ms.size() << "):\n";
    e2e.print(std::cout);

    Json metrics = e2e.json();
    if (args.trace) {
        // Same seed, fresh deployment; the run above is torn down first
        // so the two never share the heap.
        d = Deployment{};
        trim_heap();
        TraceData trace;
        SetupTimes traced_setup;
        Deployment td =
            set_up(args.workload, args.seed, traced_setup, &trace.spans);
        trim_heap();
        RunResult traced = run_closed_loop(td, 0.0, &trace, rss_bytes());
        LayerReport layers = per_layer_metrics(td, setups, run, traced, trace);

        attempted += traced.attempted;
        failed += traced.failed;
        failures.insert(failures.end(), traced.failures.begin(),
                        traced.failures.end());
        // Conservation checks the instrumentation, not the program: it
        // is reported here and enforced by the benchmark's own tests.
        correct = correct && traced.failed == 0 && layers.identical &&
                  layers.wal_digests_match;

        std::cout << "traced run: " << traced.attempted << " tasks, "
                  << trace.spans.recorded() << " spans ("
                  << trace.spans.kept().size() << " kept)\n"
                  << "behaviour identity (traced vs untraced window): "
                  << (layers.identical ? "ok" : "FAILED") << "\n"
                  << "conservation (spans cover the run within "
                  << kConservationTolerance * 100.0 << " %): "
                  << (layers.conserved ? "ok" : "FAILED") << ", "
                  << layers.unattributed_pct << " % unattributed\n"
                  << "WAL re-append digests: "
                  << (layers.wal_digests_match ? "ok" : "FAILED") << "\n"
                  << "per-layer:\n";
        layers.metrics.print(std::cout);
        metrics = layers.metrics.json();
        report.set("per_layer", layers.metrics.json());
        report.set("traced_sim_digest", hex(traced.window.digest));
        report.set("behaviour_identical", layers.identical);
        report.set("conserved", layers.conserved);
        report.set("conservation_tolerance", kConservationTolerance);

        std::error_code ec;
        std::filesystem::create_directories(args.out_dir, ec);
        std::string span_path = args.out_dir + "/spans-" + args.workload +
                                "-seed" + std::to_string(args.seed) + ".jsonl";
        if (!trace.spans.write_jsonl(span_path))
            std::cerr << "ask_perf: could not write " << span_path << "\n";
    }

    for (const std::string& f : failures)
        std::cerr << "ask_perf: FAILED " << f << "\n";

    report.set("attempted", attempted);
    report.set("failed", failed);
    report.set("correct", correct);
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    std::string report_path = args.out_dir + "/report-" + args.workload +
                              "-seed" + std::to_string(args.seed) + "-trace" +
                              (args.trace ? "1" : "0") + ".json";
    std::ofstream(report_path) << report.dump(2) << "\n";
    std::cout << "report: " << report_path << "\n";

    Json result = Json::object();
    result.set("correct", correct);
    result.set("attempted", attempted);
    result.set("failed", failed);
    result.set("metrics", std::move(metrics));
    std::cout << result.dump() << std::endl;
    return correct ? 0 : 1;
}
