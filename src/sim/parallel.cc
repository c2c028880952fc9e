#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>

namespace ask::sim {

unsigned
threads_from_env()
{
    const char* env = std::getenv("ASK_SIM_THREADS");
    if (env == nullptr)
        return 1;
    long v = std::strtol(env, nullptr, 10);
    return static_cast<unsigned>(std::clamp(v, 1L, 64L));
}

void
run_isolated(const std::vector<std::function<void()>>& jobs,
             unsigned threads)
{
    if (threads <= 1 || jobs.size() <= 1) {
        for (const auto& job : jobs)
            job();
        return;
    }
    std::size_t workers = std::min<std::size_t>(threads, jobs.size()) - 1;
    std::atomic<std::size_t> next{0};
    // One slot per thread (the caller is slot 0): a throwing job stops
    // only its own thread, and the exception reaches the caller after
    // every thread has joined instead of ending the program.
    std::vector<std::exception_ptr> errors(workers + 1);
    auto claim_loop = [&](std::size_t slot) {
        try {
            for (std::size_t i = next++; i < jobs.size(); i = next++)
                jobs[i]();
        } catch (...) {
            errors[slot] = std::current_exception();
        }
    };
    {
        // jthread joins on destruction, so a failed thread start still
        // joins the threads already running.
        std::vector<std::jthread> pool;
        pool.reserve(workers);
        for (std::size_t w = 1; w <= workers; ++w)
            pool.emplace_back(claim_loop, w);
        claim_loop(0);
    }
    for (const std::exception_ptr& e : errors)
        if (e)
            std::rethrow_exception(e);
}

}  // namespace ask::sim
