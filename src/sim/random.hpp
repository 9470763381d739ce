// Deterministic random-number utilities for experiments.
//
// Every stochastic element of a scenario (traffic arrival processes,
// loss processes, payload fill) draws from an Rng seeded explicitly by
// the experiment, so runs are bit-reproducible.

#pragma once

#include <cstdint>
#include <random>

namespace hni::sim {

/// A seedable random source with the distributions the library needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : gen_(seed) {}

  /// Uniform in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(gen_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(gen_);
  }

  /// Bernoulli trial with probability `p` of returning true.
  bool chance(double p) { return uniform() < p; }

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(gen_);
  }

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(gen_);
  }

  /// Forks an independent stream; derived deterministically so that
  /// adding consumers does not perturb existing ones.
  Rng fork() { return Rng(gen_() ^ 0xD1B54A32D192ED03ull); }

  std::mt19937_64& engine() { return gen_; }

 private:
  std::mt19937_64 gen_;
};

}  // namespace hni::sim
