#include "layers.h"

#include <algorithm>
#include <cmath>

#include "ask/controller.h"
#include "ask/fabric.h"
#include "ask/wire.h"
#include "common/random.h"
#include "common/stats.h"
#include "harness.h"
#include "net/network.h"
#include "pisa/pisa_switch.h"
#include "sim/simulator.h"

namespace perfbench {

using namespace ask;

namespace {

constexpr int kRepetitions = 7;

/** Keeps a computed value observable so the timed loop is not elided. */
volatile std::uint64_t g_sink = 0;

}  // namespace

double
queue_ns_per_event(double pending)
{
    constexpr std::size_t kOps = 200000;
    // Delays spread over one retransmission timeout, the longest common
    // horizon in the runs.
    constexpr std::uint64_t kHorizonNs = 100000;
    Rng rng(0x5eed);
    std::vector<sim::SimTime> delays(kOps);
    for (sim::SimTime& d : delays)
        d = static_cast<sim::SimTime>(rng.next_below(kHorizonNs));

    sim::Simulator simulator;
    const auto depth = static_cast<std::size_t>(
        std::max(1.0, std::round(pending)));
    for (std::size_t i = 0; i < depth; ++i)
        simulator.schedule_after(delays[i % kOps], [] {});

    Samples per_event;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        std::int64_t t0 = now_ns();
        for (std::size_t i = 0; i < kOps; ++i) {
            simulator.schedule_after(delays[i], [] {});
            simulator.step();
        }
        per_event.add(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(kOps));
    }
    return per_event.quantile(0.5);
}

WalTiming
time_wal_reappend(core::AskCluster& cluster)
{
    std::vector<std::string> names;
    for (std::uint32_t h = 0; h < cluster.num_hosts(); ++h)
        names.push_back(cluster.wal_store().host_wal(h).name());
    for (std::uint32_t s = 0; s < cluster.num_switches(); ++s)
        names.push_back(core::controller_wal_name(SwitchId{s}));

    WalTiming t;
    for (const std::string& name : names) {
        const core::Wal& source = cluster.wal_store().wal(name);
        std::vector<core::WalRecord> records = source.replay();
        core::Wal copy(name);
        std::int64_t t0 = now_ns();
        for (const core::WalRecord& r : records)
            copy.append(r);
        t.append_s += static_cast<double>(now_ns() - t0) * 1e-9;
        t.records += records.size();
        t.digests_match = t.digests_match && copy.digest() == source.digest();
    }
    return t;
}

double
wire_decode_ns_per_packet(const std::vector<std::vector<std::uint8_t>>& frames,
                          const core::AskConfig& config)
{
    if (frames.empty())
        return 0.0;
    std::vector<core::WireSlot> slots(config.num_aas);
    Samples per_packet;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        std::uint64_t acc = 0;
        std::int64_t t0 = now_ns();
        for (const std::vector<std::uint8_t>& frame : frames) {
            auto hdr = core::parse_header(frame);
            core::read_slots(frame, hdr->bitmap, config.num_aas, slots.data());
            acc += hdr->seq + slots[0].value + slots[config.num_aas - 1].seg;
        }
        per_packet.add(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(frames.size()));
        g_sink = g_sink + acc;
    }
    return per_packet.quantile(0.5);
}

double
fetch_scan_ms_per_call(const Workload& w, std::uint32_t switches)
{
    struct Standalone
    {
        sim::Simulator simulator;
        net::Network network{simulator};
        pisa::PisaSwitch sw;
        core::AskSwitchProgram program;
        core::AskSwitchController controller{program};

        explicit Standalone(const core::ClusterConfig& cc)
            : sw(network, cc.switch_stages, cc.switch_sram_per_stage),
              program(cc.ask, sw)
        {
        }
    };
    std::vector<std::unique_ptr<Standalone>> fabric;
    for (std::uint32_t s = 0; s < switches; ++s)
        fabric.push_back(std::make_unique<Standalone>(w.config));

    const core::ReduceOp op = w.options.op.value_or(w.config.ask.op);
    const std::uint32_t copies = w.config.ask.shadow_copies ? 2 : 1;
    Samples per_call;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        for (auto& s : fabric) {
            std::uint32_t len = w.options.region_len != 0
                                    ? w.options.region_len
                                    : s->controller.free_aggregators();
            s->controller.allocate(1, len, op);
            std::int64_t t0 = now_ns();
            for (std::uint32_t copy = 0; copy < copies; ++copy)
                g_sink = g_sink + s->controller.fetch(1, copy, true).size();
            per_call.add(static_cast<double>(now_ns() - t0) * 1e-6 / copies);
            s->controller.release(1);
        }
    }
    return per_call.quantile(0.5);
}

}  // namespace perfbench
