/**
 * @file
 * Parallel execution of independent simulations.
 *
 * Every cluster runs on one sequential Simulator; what runs in parallel
 * is a set of fully independent jobs — fuzz scenarios, sweep points,
 * fabric replicas — each owning its own Simulator and writing only its
 * own result slot. The caller folds the slots in index order after
 * run_isolated() returns, so any report built from them is bit-for-bit
 * identical at every thread count (docs/CONCURRENCY.md).
 */
#ifndef ASK_SIM_PARALLEL_H
#define ASK_SIM_PARALLEL_H

#include <functional>
#include <vector>

namespace ask::sim {

/**
 * The worker-thread count from ASK_SIM_THREADS, clamped to [1, 64]; 1
 * when the variable is unset or unparsable. The only thread knob: every
 * parallel entry point (the fuzz campaign driver, the sweep benches)
 * defaults to it.
 */
unsigned threads_from_env();

/**
 * Run every job exactly once, on up to `threads` threads (the caller's
 * included). Jobs run inline, in index order, when `threads <= 1` or
 * there is at most one job. Otherwise min(threads, jobs.size()) - 1
 * threads are started for this call only and joined before it returns;
 * indices are claimed from one atomic counter, so which thread runs
 * which job is racy by design and nothing may depend on it. An
 * exception thrown by a job is rethrown here once every thread has
 * joined.
 */
void run_isolated(const std::vector<std::function<void()>>& jobs,
                  unsigned threads = threads_from_env());

}  // namespace ask::sim

#endif  // ASK_SIM_PARALLEL_H
