// Deterministic, fast PRNG utilities (xoshiro256** seeded via SplitMix64).
// All generators, samplers and shuffles in this repo are seeded explicitly so
// every test and benchmark is reproducible bit-for-bit.
#ifndef GCGT_UTIL_RANDOM_H_
#define GCGT_UTIL_RANDOM_H_

#include <cmath>
#include <cstdint>
#include <vector>

namespace gcgt {

/// SplitMix64 step; used for seeding and cheap hashing.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix, usable as a hash.
inline uint64_t Mix64(uint64_t x) {
  uint64_t s = x;
  return SplitMix64(s);
}

/// xoshiro256** — the repo-wide PRNG.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : s_) word = SplitMix64(sm);
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Advances the state by k draws (the same as calling Next() k times).
  void Discard(uint64_t k) {
    while (k-- > 0) Next();
  }

  /// Uniform integer in [0, n). Precondition: n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }

  /// Uniform double in [0, 1).
  double NextDouble() { return (Next() >> 11) * 0x1.0p-53; }

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Zipf-like sample in [1, n]: P(k) proportional to k^-alpha, via rejection
  /// inversion. Good enough for degree-sequence generation.
  uint64_t Zipf(uint64_t n, double alpha) {
    // Inverse-CDF on the continuous approximation, then clamp.
    double u = NextDouble();
    if (alpha == 1.0) {
      double v = std::pow(static_cast<double>(n), u);
      uint64_t k = static_cast<uint64_t>(v);
      return k == 0 ? 1 : (k > n ? n : k);
    }
    double one_minus = 1.0 - alpha;
    double v = std::pow(u * (std::pow(static_cast<double>(n), one_minus) - 1.0) + 1.0,
                        1.0 / one_minus);
    uint64_t k = static_cast<uint64_t>(v);
    return k == 0 ? 1 : (k > n ? n : k);
  }

  /// Fisher-Yates shuffle. Draws exactly v.size() - 1 values (none for
  /// fewer than two items), so callers can predict the state it leaves.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = Uniform(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

}  // namespace gcgt

#endif  // GCGT_UTIL_RANDOM_H_
