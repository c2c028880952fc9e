#include "common/random.h"

#include <cmath>
#include <cstdlib>
#include <mutex>

#include "common/logging.h"

namespace ask {

std::uint64_t
split_mix64(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed)
{
    // Seed the full 256-bit state from SplitMix64 so that nearby seeds
    // still produce decorrelated streams.
    for (auto& s : s_)
        s = split_mix64(seed);
}

std::uint64_t
Rng::next_u64()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

std::uint64_t
Rng::next_below(std::uint64_t bound)
{
    ASK_ASSERT(bound > 0, "next_below requires a positive bound");
    // Lemire-style rejection to avoid modulo bias.
    std::uint64_t threshold = (-bound) % bound;
    for (;;) {
        std::uint64_t r = next_u64();
        if (r >= threshold)
            return r % bound;
    }
}

std::uint64_t
Rng::next_in(std::uint64_t lo, std::uint64_t hi)
{
    ASK_ASSERT(lo <= hi, "next_in requires lo <= hi");
    return lo + next_below(hi - lo + 1);
}

double
Rng::next_double()
{
    // 53 high-quality mantissa bits.
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return next_double() < p;
}

double
Rng::next_exponential(double mean)
{
    ASK_ASSERT(mean > 0.0, "exponential mean must be positive");
    double u;
    do {
        u = next_double();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

Rng
Rng::fork()
{
    return Rng(next_u64());
}

namespace {

// The registry may be fed from run_isolated threads (a bench sweep
// point seeding an Rng while another runs), so it is mutex-guarded.
// Entries then arrive in thread-schedule order — replay still works
// because ASK_SEED overrides every entry at once, and nothing folds
// the registry into deterministic output.
std::mutex&
seed_registry_mu()
{
    static std::mutex mu;
    return mu;
}

std::vector<SeedRecord>&
seed_registry()
{
    static std::vector<SeedRecord> records;
    return records;
}

}  // namespace

void
note_seed(const std::string& label, std::uint64_t seed)
{
    std::lock_guard<std::mutex> lock(seed_registry_mu());
    seed_registry().push_back({label, seed});
}

const std::vector<SeedRecord>&
noted_seeds()
{
    // Read from the sequential test harness only (after workers quiesce).
    return seed_registry();
}

void
clear_noted_seeds()
{
    std::lock_guard<std::mutex> lock(seed_registry_mu());
    seed_registry().clear();
}

std::uint64_t
effective_seed(std::uint64_t requested)
{
    if (const char* env = std::getenv("ASK_SEED"))
        return std::strtoull(env, nullptr, 0);
    return requested;
}

Rng
seeded_rng(const std::string& label, std::uint64_t seed)
{
    std::uint64_t s = effective_seed(seed);
    note_seed(label, s);
    return Rng(s);
}

}  // namespace ask
