// Small host-side helpers shared by the benchmark driver: clocks, a
// portable seeded RNG, percentiles and stratified input draws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Host monotonic clock, nanoseconds.
std::int64_t host_ns();
/// CPU time consumed by the calling thread, nanoseconds.
std::int64_t thread_cpu_ns();
/// Peak resident set size of this process, KiB.
long peak_rss_kib();

/// splitmix64: a tiny, fully specified generator, so one seed yields the
/// same inputs on every compiler and standard library.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next();
    /// Uniform in [0, 1).
    double unit();
    /// Uniform in [0, n); n > 0.
    std::uint64_t below(std::uint64_t n);
    /// Uniform in [lo, hi]; lo <= hi.
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[static_cast<std::size_t>(below(i))]);
    }

private:
    std::uint64_t s_;
};

/// `n` sizes spread log-uniformly over [lo, hi]: one draw from the central
/// quarter of each of n equal-width log strata, rounded down to a multiple
/// of `align` (at least `align`), in stratum order. Stratifying keeps the
/// total work and the tail sizes nearly seed-independent while every
/// individual size still comes from the seed; callers shuffle the order.
std::vector<std::size_t> stratified_log(Rng& rng, int n, std::size_t lo,
                                        std::size_t hi, std::size_t align);

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

}  // namespace perfbench
