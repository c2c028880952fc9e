/**
 * Figure 8(a) — Single-server goodput vs key-value tuples per packet
 * (1..64), compared with the ideal 8x/(8x+78) * 100 Gbps curve. Below
 * 32 tuples the host PPS limit binds (goodput grows linearly with the
 * packet size); from 32 up the wire efficiency curve binds. The PCIe
 * TLP quantization produces the paper's glitches at x = 18 and 26.
 */
#include <cstdint>
#include <functional>
#include <iostream>
#include <vector>

#include "baselines/noaggr.h"
#include "bench_util.h"
#include "net/cost_model.h"
#include "sim/parallel.h"

namespace {

using namespace ask;

double
ideal_goodput(std::uint32_t x)
{
    return 8.0 * x / (8.0 * x + 78.0) * 100.0;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchReport report(
        "fig08a_goodput",
        "goodput vs tuples/packet, vs ideal 8x/(8x+78)*100 Gbps", argc, argv);
    bool full = report.full();
    std::uint64_t base_tuples =
        report.smoke() ? 120000 : (full ? 4000000 : 800000);
    report.param("base_tuples_per_sender", base_tuples);

    bench::banner("Figure 8(a)",
                  "goodput vs tuples/packet, vs ideal 8x/(8x+78)*100 Gbps");

    TextTable t;
    t.header({"tuples/pkt", "goodput (Gbps)", "ideal (Gbps)", "TLPs", ""});
    net::CostModel cm;
    std::vector<std::uint32_t> xs;
    for (std::uint32_t x = 1; x <= 64; x += (x < 32 || full) ? 1 : 4)
        xs.push_back(x);

    // Every sweep point is an independent replica simulation, so the
    // sweep fans out over ASK_SIM_THREADS workers; rows are emitted in
    // x order afterwards, so the table and the report bytes are
    // identical at any thread count (the sim_parallel_ab ctest holds
    // this binary to that).
    std::vector<baselines::BulkResult> results(xs.size());
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        jobs.push_back([&results, &xs, base_tuples, i] {
            baselines::BulkSpec spec;
            spec.payload_bytes = 8 * xs[i];
            spec.sender_channels = 4;
            // Fixed transfer duration across x: equal simulated work.
            spec.tuples_per_sender = static_cast<std::uint64_t>(
                static_cast<double>(base_tuples) * (xs[i] / 32.0 + 0.3));
            results[i] = baselines::run_noaggr(spec);
        });
    }
    sim::run_isolated(jobs);

    for (std::size_t i = 0; i < xs.size(); ++i) {
        std::uint32_t x = xs[i];
        const baselines::BulkResult& r = results[i];
        std::uint32_t tlps = cm.tlp_count(40 + 8ull * x);
        bool glitch = x > 1 && tlps > cm.tlp_count(40 + 8ull * (x - 1));
        t.row({std::to_string(x), fmt_double(r.goodput_gbps, 2),
               fmt_double(ideal_goodput(x), 2), std::to_string(tlps),
               glitch ? "<- TLP step" : ""});
        report.row({{"tuples_per_packet", x},
                    {"goodput_gbps", r.goodput_gbps},
                    {"ideal_gbps", ideal_goodput(x)},
                    {"tlps", tlps},
                    {"tlp_step", glitch}});
    }
    t.print(std::cout);
    report.note("paper: linear PPS-bound growth below 32 tuples/packet, "
                "matches the ideal curve above; glitches at 18 and 26 from "
                "PCIe TLP quantization");
    return 0;
}
