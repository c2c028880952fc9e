#include "workloads.h"

#include <stdexcept>

#include "ask/topology.h"
#include "common/random.h"
#include "net/fault_model.h"
#include "workload/generators.h"
#include "workload/text_corpus.h"

namespace perfbench {

namespace {

using namespace ask;

// Task sizes are chosen so that one task takes about ten host
// milliseconds: a 20 s run then holds over 1000 tasks, and the fastest
// tenth of its passes (see ask_perf's host-speed metrics) still holds
// 100 tasks, enough for a p90 with ten samples beyond it.
constexpr std::uint32_t kPoolSize = 8;
static_assert(kWindowTasks % kPoolSize == 0);

constexpr std::uint64_t kZipfKeys = 1u << 14;
constexpr std::uint64_t kZipfTuplesPerSender = 8000;

constexpr std::uint32_t kFabricRacks = 4;
constexpr std::uint32_t kFabricHostsPerRack = 2;
constexpr std::uint64_t kFabricKeys = 4096;
constexpr std::uint64_t kFabricTuplesPerSender = 1000;
constexpr std::uint32_t kFabricRegionLen = 4096;

constexpr std::uint64_t kTextTuplesPerSender = 6000;
constexpr std::uint32_t kTextRegionLen = 1024;
constexpr std::uint64_t kTextVocabularySeed = 0x7e47;

TaskInput
make_task(std::vector<core::StreamSpec> streams)
{
    TaskInput in;
    for (const core::StreamSpec& s : streams) {
        in.tuples += s.stream.size();
        for (const core::KvTuple& t : s.stream)
            in.payload_bytes += t.key.size() + sizeof(core::Value);
    }
    in.streams = std::move(streams);
    return in;
}

/** One rack of three hosts: host 0 receives, hosts 1 and 2 send. */
core::ClusterConfig
one_rack_config(std::uint64_t seed)
{
    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(3).build();
    cc.ask.max_hosts = cc.topology->num_hosts();
    cc.seed = seed;
    return cc;
}

// Zipf(1) numeric keys into a region of 1/16 aggregator-to-key ratio
// with a low swap threshold: every task swaps shadow copies (the
// paper's hot-key mechanism, §3.4).
Workload
zipf_swap(std::uint64_t seed, std::uint64_t& rng_state)
{
    Workload w;
    w.config = one_rack_config(seed);
    w.config.ask.medium_groups = 0;
    w.config.ask.swap_threshold_packets = 32;
    w.options.region_len = static_cast<std::uint32_t>(
        kZipfKeys / 16 / w.config.ask.num_aas);
    for (std::uint32_t t = 0; t < kPoolSize; ++t) {
        std::vector<core::StreamSpec> streams;
        for (std::uint32_t h = 1; h <= 2; ++h) {
            workload::ZipfGenerator zipf(kZipfKeys, 1.0,
                                         split_mix64(rng_state));
            streams.push_back({HostId{h}, zipf.generate(kZipfTuplesPerSender)});
        }
        w.pool.push_back(make_task(std::move(streams)));
    }
    return w;
}

// Four racks of two hosts under a tier switch; seven senders stream
// uniform keys that fit the region to host 0. Swaps are off in a
// fabric, and the finalize drains scan every switch's region.
Workload
fabric_uniform(std::uint64_t seed, std::uint64_t& rng_state)
{
    Workload w;
    w.config.topology = core::TopologyBuilder()
                            .racks(kFabricRacks, kFabricHostsPerRack)
                            .build();
    w.config.ask.max_hosts = w.config.topology->num_hosts();
    w.config.ask.medium_groups = 0;
    w.config.seed = seed;
    w.options.region_len = kFabricRegionLen;
    for (std::uint32_t t = 0; t < kPoolSize; ++t) {
        std::vector<core::StreamSpec> streams;
        for (std::uint32_t h = 1; h < w.config.ask.max_hosts; ++h) {
            workload::UniformGenerator uni(kFabricKeys,
                                           split_mix64(rng_state));
            streams.push_back({HostId{h}, uni.generate(kFabricTuplesPerSender)});
        }
        w.pool.push_back(make_task(std::move(streams)));
    }
    return w;
}

// Word counts from the yelp-shaped corpus over 1 % lossy links: short
// and medium keys aggregate in-switch, long keys take the bypass, and
// losses drive retransmissions and duplicate suppression. The
// vocabulary (each word's spelling, hence its key class) is fixed like
// a real corpus; the seed draws which words each stream holds.
Workload
text_lossy(std::uint64_t seed, std::uint64_t& rng_state)
{
    Workload w;
    w.config = one_rack_config(seed);
    w.config.faults = net::FaultSpec::lossy(0.01);
    w.options.region_len = kTextRegionLen;
    const workload::CorpusProfile profile = workload::yelp_profile();
    workload::TextCorpus corpus(profile, kTextVocabularySeed);
    workload::ZipfGenerator ranks(profile.vocabulary, profile.zipf_alpha,
                                  split_mix64(rng_state));
    for (std::uint32_t t = 0; t < kPoolSize; ++t) {
        std::vector<core::StreamSpec> streams;
        for (std::uint32_t h = 1; h <= 2; ++h) {
            core::KvStream words;
            words.reserve(kTextTuplesPerSender);
            for (std::uint64_t i = 0; i < kTextTuplesPerSender; ++i)
                words.push_back({corpus.word(ranks.sample_rank()), 1});
            streams.push_back({HostId{h}, std::move(words)});
        }
        w.pool.push_back(make_task(std::move(streams)));
    }
    return w;
}

}  // namespace

const std::vector<std::string>&
workload_names()
{
    static const std::vector<std::string> names = {"zipf-swap",
                                                   "fabric-uniform",
                                                   "text-lossy"};
    return names;
}

Workload
make_workload(const std::string& name, std::uint64_t seed)
{
    std::uint64_t rng_state = seed;
    Workload w;
    if (name == "zipf-swap")
        w = zipf_swap(seed, rng_state);
    else if (name == "fabric-uniform")
        w = fabric_uniform(seed, rng_state);
    else if (name == "text-lossy")
        w = text_lossy(seed, rng_state);
    else
        throw std::invalid_argument("unknown workload '" + name + "'");
    w.name = name;
    w.options.op = core::ReduceOp::kAdd;
    return w;
}

}  // namespace perfbench
