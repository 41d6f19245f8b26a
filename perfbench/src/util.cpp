#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

namespace perfbench {

std::int64_t host_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t thread_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

long peak_rss_kib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

std::uint64_t Rng::next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double Rng::unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::uint64_t Rng::below(std::uint64_t n) { return next() % n; }

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo) + 1));
}

std::vector<std::size_t> stratified_log(Rng& rng, int n, std::size_t lo,
                                        std::size_t hi, std::size_t align) {
    std::vector<std::size_t> out;
    out.reserve(static_cast<std::size_t>(n));
    const double a = std::log(static_cast<double>(lo));
    const double b = std::log(static_cast<double>(hi));
    for (int i = 0; i < n; ++i) {
        const double u =
            (static_cast<double>(i) + 0.375 + 0.25 * rng.unit()) / static_cast<double>(n);
        auto v = static_cast<std::size_t>(std::exp(a + u * (b - a)));
        v = std::clamp(v - v % align, align, hi);
        out.push_back(v);
    }
    return out;
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto n = static_cast<double>(v.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

}  // namespace perfbench
