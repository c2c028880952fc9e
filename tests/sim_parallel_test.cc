/**
 * Tests for sim::run_isolated and sim::threads_from_env (sim/parallel.h).
 * The central claim under test is the determinism contract of
 * docs/CONCURRENCY.md: for a fixed input, every observable result —
 * aggregate maps, folded job results — is bit-for-bit identical at any
 * thread count, including 1.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ask/cluster.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

namespace ask::sim {
namespace {

TEST(ThreadsFromEnv, DefaultsToOneAndClamps)
{
    // Only parses: nothing here starts a thread.
    unsetenv("ASK_SIM_THREADS");
    EXPECT_EQ(threads_from_env(), 1u);
    setenv("ASK_SIM_THREADS", "0", 1);
    EXPECT_EQ(threads_from_env(), 1u);
    setenv("ASK_SIM_THREADS", "x", 1);
    EXPECT_EQ(threads_from_env(), 1u);
    setenv("ASK_SIM_THREADS", "1000", 1);
    EXPECT_EQ(threads_from_env(), 64u);
    setenv("ASK_SIM_THREADS", "4", 1);
    EXPECT_EQ(threads_from_env(), 4u);
    unsetenv("ASK_SIM_THREADS");
}

TEST(RunIsolated, FoldsIdenticallyAtEveryThreadCount)
{
    auto campaign = [](unsigned threads) {
        std::vector<std::uint64_t> results(64);
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < results.size(); ++i) {
            jobs.push_back([&results, i] {
                // A little simulation per job: independent state only.
                Simulator s;
                std::uint64_t acc = i;
                for (SimTime t = 1; t <= 20; ++t)
                    s.schedule_at(t * 3, [&acc, t] { acc = acc * 31 + t; });
                s.run();
                results[i] = acc;
            });
        }
        run_isolated(jobs, threads);
        return results;
    };
    std::vector<std::uint64_t> reference = campaign(1);
    for (unsigned threads : {2u, 4u})
        EXPECT_EQ(campaign(threads), reference) << "threads " << threads;
}

TEST(RunIsolated, ForwardsAJobsExceptionAfterTheOthersFinish)
{
    std::vector<int> ran(16, 0);
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < ran.size(); ++i) {
        jobs.push_back([&ran, i] {
            if (i == 5)
                throw std::runtime_error("job 5");
            ran[i] = 1;
        });
    }
    EXPECT_THROW(run_isolated(jobs, 4), std::runtime_error);
    for (std::size_t i = 0; i < ran.size(); ++i)
        EXPECT_EQ(ran[i], i == 5 ? 0 : 1) << "job " << i;
}

// ---- whole clusters as jobs ----------------------------------------------

core::ClusterConfig
small_cluster(std::uint32_t hosts)
{
    core::ClusterConfig cc;
    cc.num_hosts = hosts;
    cc.ask.num_aas = 8;
    cc.ask.aggregators_per_aa = 256;
    cc.ask.medium_groups = 2;
    cc.ask.medium_segments = 2;
    cc.ask.window = 16;
    cc.ask.channels_per_host = 2;
    cc.ask.max_hosts = hosts;
    cc.ask.max_tasks = 8;
    cc.ask.swap_threshold_packets = 0;
    return cc;
}

core::KvStream
counting_stream(std::size_t n, std::uint64_t salt)
{
    core::KvStream s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::string key = "k" + std::to_string((i * 7 + salt) % 23);
        s.push_back({key, static_cast<core::Value>(1 + (i + salt) % 5)});
    }
    return s;
}

TEST(RunIsolated, ClustersMatchStandaloneRuns)
{
    // Each job builds, runs and tears down its own cluster on its own
    // simulator: the only unit test that runs real clusters
    // concurrently.
    auto run_cluster = [](std::uint64_t salt) {
        core::AskCluster cluster(small_cluster(3));
        std::vector<core::StreamSpec> streams{
            {1, counting_stream(400, salt)},
            {2, counting_stream(300, salt + 1)}};
        core::TaskResult r = cluster.run_task(1, 0, streams);
        EXPECT_TRUE(r.ok());
        return r.result;
    };
    const std::vector<std::uint64_t> salts = {5, 9, 13, 17};
    std::vector<core::AggregateMap> want;
    for (std::uint64_t salt : salts)
        want.push_back(run_cluster(salt));

    for (unsigned threads : {1u, 2u, 4u}) {
        std::vector<core::AggregateMap> got(salts.size());
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < salts.size(); ++i)
            jobs.push_back([&, i] { got[i] = run_cluster(salts[i]); });
        run_isolated(jobs, threads);
        EXPECT_EQ(got, want) << "threads " << threads;
    }
}

}  // namespace
}  // namespace ask::sim
