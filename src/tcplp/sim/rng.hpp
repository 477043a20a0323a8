// Deterministic pseudo-random source (xoshiro256**), seeded per simulation.
// Experiments are reproducible bit-for-bit given the same seed; multi-seed
// averages are produced by rerunning with seed+1, seed+2, ...
#pragma once

#include <cstdint>

namespace tcplp::sim {

class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

    void reseed(std::uint64_t seed) {
        // SplitMix64 expansion of the seed into xoshiro state.
        std::uint64_t x = seed;
        for (auto& word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    std::uint64_t next() {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1).
    double uniform() { return double(next() >> 11) * (1.0 / 9007199254740992.0); }

    /// Uniform integer in [0, bound) — bound 0 returns 0.
    std::uint64_t uniformInt(std::uint64_t bound) {
        if (bound == 0) return 0;
        return next() % bound;  // Modulo bias is negligible for our bounds.
    }

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t uniformRange(std::int64_t lo, std::int64_t hi) {
        if (hi <= lo) return lo;
        return lo + std::int64_t(uniformInt(std::uint64_t(hi - lo + 1)));
    }

    /// Bernoulli trial with success probability p.
    bool chance(double p) { return uniform() < p; }

    /// Derives the seed for run point `streamId` of a sweep rooted at
    /// `baseSeed` (a SplitMix64 finalizer over the pair). Sweep runners key
    /// the stream on the point's position in the expanded grid — never on
    /// which worker thread executes it — so running a sweep on N threads
    /// replays the exact RNG streams of the serial run.
    static std::uint64_t deriveStream(std::uint64_t baseSeed, std::uint64_t streamId) {
        std::uint64_t z = baseSeed + 0x9e3779b97f4a7c15ULL * (streamId + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /// Order-sensitive digest of the generator state. Two simulations that
    /// start from the same seed have equal digests iff they consumed the
    /// same number of draws — a cheap fingerprint of a run's draw sequence
    /// (the `rng_digest` row key and the golden corpus pin it).
    std::uint64_t stateDigest() const {
        return state_[0] ^ rotl(state_[1], 13) ^ rotl(state_[2], 29) ^ rotl(state_[3], 47);
    }

private:
    static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
    std::uint64_t state_[4];
};

}  // namespace tcplp::sim
