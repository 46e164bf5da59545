// Deterministic pseudo-random number generation.
//
// Experiments in the paper (Table 2) are averages over ten runs; to make
// those runs reproducible bit-for-bit we avoid std::mt19937's unspecified
// distribution implementations and ship a self-contained xoshiro256**
// generator seeded via SplitMix64, with explicit uniform-sampling helpers.
#pragma once

#include <cstdint>
#include <limits>

namespace ig::util {

/// SplitMix64 step; used to expand a single seed into generator state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Derives a stream seed from a base seed and up to three coordinates. The
/// GP engine keys its per-individual generators as
/// `derive_stream(config.seed, generation, index, phase)`, which makes every
/// individual's randomness independent of evaluation order — the property
/// that lets `run_gp` produce bitwise-identical results at any pool size.
/// Each coordinate passes through a full SplitMix64 avalanche, so nearby
/// (seed, generation, index) tuples yield statistically unrelated streams.
constexpr std::uint64_t derive_stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                                      std::uint64_t c = 0) noexcept {
  std::uint64_t state = seed;
  std::uint64_t mixed = splitmix64(state);
  state = mixed ^ (a + 0x9E3779B97F4A7C15ULL);
  mixed = splitmix64(state);
  state = mixed ^ (b + 0xBF58476D1CE4E5B9ULL);
  mixed = splitmix64(state);
  state = mixed ^ (c + 0x94D049BB133111EBULL);
  return splitmix64(state);
}

/// xoshiro256** — fast, high-quality, reproducible across platforms.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from one 64-bit seed via SplitMix64.
  explicit constexpr Rng(std::uint64_t seed = 0x1234567890ABCDEFULL) noexcept : state_{} {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  constexpr std::uint64_t operator()() noexcept {
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

  /// Uniform integer in [0, bound); bound must be > 0. Uses rejection
  /// sampling (Lemire-style threshold) to avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t value = (*this)();
      if (value >= threshold) return value % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Bernoulli trial with success probability `p`.
  bool next_bool(double p) noexcept { return next_double() < p; }

  /// Derives an independent child generator (for per-run streams).
  Rng split() noexcept { return Rng((*this)() ^ 0xA5A5A5A55A5A5A5AULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace ig::util
