/**
 * ask_fuzz — the model-based differential fuzzer for the ASK service.
 *
 * Runs seed-derived scenarios (random deployments, task mixes, sender
 * streams, fault specs, and chaos plans) through a full AskCluster and
 * checks every delivered aggregate against the sequential oracle, plus
 * the invariant probes (controller journal, register hygiene, seen-
 * window model equivalence). Failures are shrunk to a minimal
 * reproducer and named by their scenario seed:
 *
 *     ask_fuzz                      # 500 scenarios from base seed 1
 *     ask_fuzz --seed 7 --count 64  # a different, equally replayable run
 *     ask_fuzz --smoke              # CI-sized campaign (ctest fuzz_smoke)
 *     ask_fuzz --crash-heavy        # every scenario crashes hosts or the
 *                                   # controller (ctest recovery_smoke)
 *     ask_fuzz --replay 1234        # re-run one scenario by seed
 *     ask_fuzz --json out.json      # write the ask-fuzz/v1 report
 *
 * The report is byte-deterministic for a given (--seed, --count,
 * --crash-heavy): CI runs the smoke campaigns twice and diffs the
 * bytes. A --crash-heavy failure replays with
 * `--crash-heavy --replay SEED` — the flag is part of the replay key.
 */
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/random.h"
#include "testing/fuzzer.h"

namespace {

using namespace ask;

[[noreturn]] void
usage(const char* argv0)
{
    std::cerr << "usage: " << argv0
              << " [--seed N] [--count N] [--smoke] [--crash-heavy]\n"
                 "       [--replay SEED] [--no-shrink] [--max-failures N]\n"
                 "       [--json PATH]\n"
                 "ASK_SIM_THREADS=N runs the campaign's scenarios on N\n"
                 "threads; the report bytes are identical at any count.\n";
    std::exit(2);
}

std::uint64_t
parse_u64(const char* argv0, const char* text)
{
    char* end = nullptr;
    std::uint64_t v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        usage(argv0);
    return v;
}

}  // namespace

int
main(int argc, char** argv)
{
    testing::FuzzOptions options;
    bool replay = false;
    std::uint64_t replay_target = 0;
    std::string json_path;

    for (int i = 1; i < argc; ++i) {
        auto value = [&]() -> const char* {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--seed") == 0)
            options.base_seed = parse_u64(argv[0], value());
        else if (std::strcmp(argv[i], "--count") == 0)
            options.count =
                static_cast<std::uint32_t>(parse_u64(argv[0], value()));
        else if (std::strcmp(argv[i], "--smoke") == 0)
            options.count = 60;
        else if (std::strcmp(argv[i], "--crash-heavy") == 0)
            options.crash_heavy = true;
        else if (std::strcmp(argv[i], "--replay") == 0) {
            replay = true;
            replay_target = parse_u64(argv[0], value());
        } else if (std::strcmp(argv[i], "--no-shrink") == 0)
            options.shrink = false;
        else if (std::strcmp(argv[i], "--max-failures") == 0)
            options.max_failures =
                static_cast<std::uint32_t>(parse_u64(argv[0], value()));
        else if (std::strcmp(argv[i], "--json") == 0)
            json_path = value();
        else
            usage(argv[0]);
    }

    // ASK_SEED overrides the base seed, like every other seeded run.
    options.base_seed = effective_seed(options.base_seed);

    testing::FuzzReport report;
    if (replay) {
        std::cout << "ask_fuzz: replaying scenario seed " << replay_target
                  << "\n";
        testing::ScenarioTuning tuning;
        tuning.crash_heavy = options.crash_heavy;
        report =
            testing::replay_seed(replay_target, options.shrink,
                                 options.shrink_attempts, tuning);
    } else {
        std::cout << "ask_fuzz: " << options.count
                  << " scenarios from base seed " << options.base_seed
                  << "\n";
        options.progress = [](std::uint32_t done, std::uint32_t count,
                              std::uint32_t failures) {
            if (done % 50 == 0 || done == count)
                std::cout << "  " << done << "/" << count << " scenarios, "
                          << failures << " failure(s)\n";
        };
        report = testing::run_fuzz(options);
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            // An unwritable report path is an operator error, not a
            // bug: diagnose and exit cleanly instead of abort()ing.
            std::cerr << "ask_fuzz: cannot write " << json_path << "\n";
            return 1;
        }
        out << report.to_json().dump(2) << "\n";
        std::cout << "ask_fuzz: report written to " << json_path << "\n";
    }

    std::cout << "ask_fuzz: " << report.scenarios_run << " scenarios ("
              << report.chaos_scenarios << " with chaos, "
              << report.crash_scenarios << " with host crashes, "
              << report.total_tuples << " tuples), "
              << report.failures.size() << " failure(s)\n";
    std::cout << "ask_fuzz: op coverage:";
    for (std::size_t i = 0; i < report.op_tasks.size(); ++i)
        std::cout << " "
                  << core::reduce_op_name(static_cast<core::ReduceOp>(i))
                  << "=" << report.op_tasks[i];
    std::cout << "\n";

    if (!report.ok()) {
        for (const auto& f : report.failures) {
            std::cout << "\nFAILURE seed " << f.seed << " (replay: ask_fuzz"
                      << " --replay " << f.seed << ")\n";
            std::cout << "  diff: " << f.diff.dump() << "\n";
            if (!f.shrunk_scenario.is_null()) {
                std::cout << "  shrunk (" << f.shrink_stats.attempts
                          << " attempts, " << f.shrink_stats.accepted
                          << " reductions): " << f.shrunk_scenario.dump()
                          << "\n";
                std::cout << "  shrunk diff: " << f.shrunk_diff.dump()
                          << "\n";
            }
        }
        return 1;
    }
    std::cout << "ask_fuzz: OK\n";
    return 0;
}
