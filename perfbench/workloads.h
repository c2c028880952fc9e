/**
 * @file
 * The benchmark's workloads: a cluster layout, per-task options, and a
 * pool of generated tasks, all derived from the workload name and the
 * seed. The cluster only ever receives the streams generated here.
 */
#ifndef ASK_PERFBENCH_WORKLOADS_H
#define ASK_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "ask/cluster.h"

namespace perfbench {

/** One task of a workload's pool: the stream every sender submits. */
struct TaskInput
{
    std::vector<ask::core::StreamSpec> streams;
    std::uint64_t tuples = 0;
    /** Key bytes plus 4 value bytes per tuple (the goodput numerator). */
    std::uint64_t payload_bytes = 0;
};

/** A generated workload, ready to build a cluster from. */
struct Workload
{
    std::string name;
    ask::core::ClusterConfig config;
    ask::core::TaskOptions options;
    ask::HostId receiver{0};
    /** Tasks cycle through the pool: task i submits pool[i % size]. */
    std::vector<TaskInput> pool;
};

/** Tasks every run completes whatever the host speed (the *window*).
 *  Simulated metrics, counters and memory growth are taken over exactly
 *  these tasks, so they depend on the seed alone. A whole number of
 *  passes over every workload's pool. */
constexpr std::uint32_t kWindowTasks = 240;

/** Every workload ask_perf runs. BENCHMARK.json lists zipf-swap and
 *  text-lossy; fabric-uniform is run by hand and by the benchmark's own
 *  tests (see README.md for why). */
const std::vector<std::string>& workload_names();

/** Generate workload `name` from `seed`. Throws std::invalid_argument
 *  for an unknown name. */
Workload make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench

#endif  // ASK_PERFBENCH_WORKLOADS_H
