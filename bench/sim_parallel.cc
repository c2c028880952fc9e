/**
 * sim_parallel — wall-clock speedup and determinism of running
 * independent simulations in parallel (sim::run_isolated,
 * docs/CONCURRENCY.md).
 *
 * Runs a fixed set of independent fig13b-shaped fabric replicas — each
 * replica is a full AskCluster on its own simulator streaming every
 * host to a receiver across racks — at thread counts 1, 2 and 4. One
 * untimed warm-up pass comes first; then kReps repetitions are
 * interleaved (1, 2, 4, 1, 2, 4, ...) so drift in machine load hits
 * every thread count alike. Each row reports, for one thread count,
 * the median wall-clock time with its min and max, the median process
 * CPU time, the speedup median(1 thread) / median(N threads), and a
 * determinism bit: a digest of every replica's simulated results
 * (goodput bit patterns and completion times, in replica order) must
 * equal the sequential warm-up pass's digest in every repetition. The
 * digest row is what perf_gate pins — it is machine-independent,
 * unlike the wall clock. The measured speedup is gated only on
 * machines with enough cores (params.speedup_floor /
 * params.speedup_threads; perf_gate skips the floor when params.cores
 * of the fresh run is smaller).
 *
 * This binary deliberately ignores ASK_SIM_THREADS: it *is* the
 * thread-count sweep.
 *
 * Flags: --smoke | --full   replica size (2-rack CI shape vs the full
 *                           8-rack fig13b shape), plus --help.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <functional>
#include <iostream>
#include <thread>
#include <vector>

#include "ask/cluster.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/table.h"
#include "sim/parallel.h"

namespace {

using namespace ask;

/** What one replica's simulation produced (simulated time only). */
struct ReplicaResult
{
    double goodput_gbps = 0.0;
    sim::SimTime senders_done = 0;
    sim::SimTime all_done = 0;
};

/** One full fabric run: every host of `racks` racks streams to host 0
 *  through the ToR/tier fabric. A clone of fig13b's fabric sweep
 *  point, scaled by `tuples_per_sender`. */
ReplicaResult
run_replica(std::uint32_t racks, std::uint64_t tuples_per_sender,
            std::uint32_t replica_index)
{
    constexpr std::uint32_t kHostsPerRack = 2;
    core::ClusterConfig cc;
    cc.topology =
        core::TopologyBuilder().racks(racks, kHostsPerRack).build();
    cc.ask.max_hosts = cc.topology->num_hosts();
    cc.ask.medium_groups = 0;
    core::AskCluster cluster(cc);

    std::uint32_t senders = cc.topology->num_hosts() - 1;
    std::uint32_t parts = 2 * cc.ask.channels_per_host;
    std::vector<std::uint32_t> sender_hosts;
    for (std::uint32_t s = 1; s <= senders; ++s)
        sender_hosts.push_back(s);
    std::vector<std::uint32_t> ids;
    for (std::uint32_t slack = 0; ids.size() != parts && slack <= 3; ++slack)
        ids = bench::balanced_task_ids_multi(
            sender_hosts, cc.ask.channels_per_host, parts, slack);
    ASK_ASSERT(ids.size() == parts, "could not balance task ids");

    std::uint64_t per_part = tuples_per_sender / parts;
    std::vector<bench::StreamingTask> tasks;
    for (std::uint32_t p = 0; p < parts; ++p) {
        std::vector<core::StreamSpec> streams;
        for (std::uint32_t s : sender_hosts) {
            const core::KeySpace& ks = cluster.daemon(s).key_space();
            // Distinct key offsets per replica: replicas must be
            // independent simulations, not bit-copies of one another.
            streams.push_back(
                {s, bench::balanced_uniform_stream(
                        ks, 2, per_part,
                        (static_cast<std::uint64_t>(replica_index) << 24) +
                            (static_cast<std::uint64_t>(p) << 16))});
        }
        tasks.push_back({ids[p], 0, std::move(streams),
                         {.region_len = cc.ask.copy_size() / parts}});
    }
    bench::StreamingResult sr =
        bench::run_streaming_tasks(cluster, std::move(tasks));

    ReplicaResult r;
    Nanoseconds fixed = cc.mgmt_latency_ns + cc.notify_latency_ns;
    Nanoseconds elapsed = std::max<Nanoseconds>(sr.senders_done - fixed, 1);
    double total_tuple_bytes =
        static_cast<double>(per_part) * parts * senders * 8.0;
    r.goodput_gbps = units::gbps(total_tuple_bytes, elapsed);
    r.senders_done = sr.senders_done;
    r.all_done = sr.all_done;
    return r;
}

/** FNV-1a over every replica's result bits, in replica order. Equal
 *  digests mean bit-for-bit equal simulated outcomes. */
std::uint64_t
digest(const std::vector<ReplicaResult>& results)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 64; b += 8) {
            h ^= (v >> b) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    for (const ReplicaResult& r : results) {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(r.goodput_gbps));
        std::memcpy(&bits, &r.goodput_gbps, sizeof(bits));
        mix(bits);
        mix(static_cast<std::uint64_t>(r.senders_done));
        mix(static_cast<std::uint64_t>(r.all_done));
    }
    return h;
}

/** Median of `v` (the mean of the middle two for an even count). */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Wall and process-CPU milliseconds of one pass, plus its digest. */
struct Sample
{
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    std::uint64_t digest = 0;
};

/** Run every replica once on `threads` threads. */
Sample
run_pass(unsigned threads, std::uint32_t replicas, std::uint32_t racks,
         std::uint64_t tuples)
{
    std::vector<ReplicaResult> results(replicas);
    std::vector<std::function<void()>> jobs;
    for (std::uint32_t r = 0; r < replicas; ++r)
        jobs.push_back([&results, racks, tuples, r] {
            results[r] = run_replica(racks, tuples, r);
        });

    auto start = std::chrono::steady_clock::now();
    std::clock_t cpu_start = std::clock();
    sim::run_isolated(jobs, threads);
    std::clock_t cpu_end = std::clock();
    auto end = std::chrono::steady_clock::now();

    Sample s;
    s.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
    s.cpu_ms = 1000.0 * static_cast<double>(cpu_end - cpu_start) /
               CLOCKS_PER_SEC;
    s.digest = digest(results);
    return s;
}

void
print_usage()
{
    std::cout << "usage: sim_parallel [--smoke|--full]\n"
                 "  --smoke   CI-scale replicas (2 racks, small streams)\n"
                 "  --full    paper-scale replicas (the full 8-rack fig13b "
                 "shape)\n"
                 "  --help    this text\n"
                 "Thread counts 1, 2, 4 are swept internally; "
                 "ASK_SIM_THREADS is ignored.\n";
}

}  // namespace

int
main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0) {
            print_usage();
            return 0;
        }
    }

    bench::BenchReport report(
        "sim_parallel",
        "run_isolated wall-clock speedup and cross-thread determinism",
        argc, argv);
    bool full = report.full();
    std::uint32_t racks = report.smoke() ? 2 : (full ? 8 : 4);
    std::uint32_t replicas = 4;
    std::uint64_t tuples =
        report.smoke() ? 60000 : (full ? 2000000 : 300000);
    unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    constexpr double kSpeedupFloor = 1.5;
    constexpr unsigned kSpeedupThreads = 4;
    constexpr unsigned kReps = 5;
    const std::vector<unsigned> thread_counts = {1, 2, kSpeedupThreads};

    report.param("racks", racks);
    report.param("replicas", replicas);
    report.param("tuples_per_sender", tuples);
    report.param("cores", cores);
    report.param("speedup_floor", kSpeedupFloor);
    report.param("speedup_threads", kSpeedupThreads);
    report.param("repetitions", kReps);

    bench::banner("sim_parallel",
                  "run_isolated speedup and determinism across thread counts");
    std::cout << "machine: " << cores << " core(s); " << replicas
              << " replicas of a " << racks << "-rack fabric, " << tuples
              << " tuples/sender; 1 warm-up + " << kReps
              << " interleaved repetitions\n";

    // The untimed warm-up pass runs inline, in replica order: its
    // digest is the sequential reference every timed pass must match.
    std::uint64_t digest_ref = run_pass(1, replicas, racks, tuples).digest;
    std::vector<std::vector<Sample>> samples(thread_counts.size());
    for (unsigned rep = 0; rep < kReps; ++rep)
        for (std::size_t i = 0; i < thread_counts.size(); ++i)
            samples[i].push_back(
                run_pass(thread_counts[i], replicas, racks, tuples));

    TextTable t;
    t.header({"threads", "wall median (ms)", "min", "max", "cpu (ms)",
              "speedup", "deterministic"});
    double wall_ms_1 = 0.0;
    bool all_deterministic = true;
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
        std::vector<double> wall;
        std::vector<double> cpu;
        bool deterministic = true;
        for (const Sample& s : samples[i]) {
            wall.push_back(s.wall_ms);
            cpu.push_back(s.cpu_ms);
            deterministic = deterministic && s.digest == digest_ref;
        }
        all_deterministic = all_deterministic && deterministic;
        double wall_ms = median(wall);
        double wall_min = *std::min_element(wall.begin(), wall.end());
        double wall_max = *std::max_element(wall.begin(), wall.end());
        double cpu_ms = median(cpu);
        if (thread_counts[i] == 1)
            wall_ms_1 = wall_ms;
        double speedup = wall_ms > 0.0 ? wall_ms_1 / wall_ms : 0.0;
        t.row({std::to_string(thread_counts[i]), fmt_double(wall_ms, 1),
               fmt_double(wall_min, 1), fmt_double(wall_max, 1),
               fmt_double(cpu_ms, 1), fmt_double(speedup, 2),
               deterministic ? "yes" : "NO"});
        report.row({{"threads", thread_counts[i]},
                    {"wall_ms", wall_ms},
                    {"wall_ms_min", wall_min},
                    {"wall_ms_max", wall_max},
                    {"cpu_ms", cpu_ms},
                    {"speedup", speedup},
                    {"determinism_ok", deterministic ? 1 : 0}});
    }
    t.print(std::cout);

    report.note("determinism_ok compares a digest of every replica's "
                "simulated results, in every repetition, against the "
                "sequential warm-up pass: jobs touch only their own "
                "result slot and are folded in index order, so it must "
                "be 1 at every thread count on every machine");
    report.note("wall_ms and cpu_ms are medians over the interleaved "
                "repetitions; speedup is median wall at 1 thread over "
                "median wall at N threads. It is machine-dependent; "
                "perf_gate enforces the speedup_floor only when the "
                "machine has at least speedup_threads cores");

    if (!all_deterministic) {
        std::cerr << "sim_parallel: NONDETERMINISM across thread counts\n";
        return 1;
    }
    return 0;
}
