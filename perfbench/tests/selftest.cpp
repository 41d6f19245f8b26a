// Span self-time arithmetic on hand-built spans, plus the percentile and
// stratified-draw helpers the metrics rest on. Exits 1 on the first failed
// check.
#include <cstdio>
#include <cstdlib>
#include <set>

#include "spans.hpp"
#include "util.hpp"

namespace {

int g_failed = 0;

void expect_eq(long long got, long long want, const char* what) {
    if (got == want) return;
    std::fprintf(stderr, "FAIL %s: got %lld, want %lld\n", what, got, want);
    ++g_failed;
}

perfbench::Span span(perfbench::SpanKind k, int parent, int thread, long long t0,
                     long long t1, long long cpu) {
    perfbench::Span s;
    s.kind = k;
    s.parent = parent;
    s.thread = thread;
    s.t0 = t0;
    s.t1 = t1;
    s.cpu_ns = cpu;
    return s;
}

void test_covered() {
    using perfbench::covered;
    expect_eq(covered({}, 0, 10), 0, "covered: no intervals");
    expect_eq(covered({{2, 4}, {6, 9}}, 0, 10), 5, "covered: disjoint");
    expect_eq(covered({{2, 6}, {4, 8}}, 0, 10), 6, "covered: overlapping");
    expect_eq(covered({{2, 8}, {3, 4}}, 0, 10), 6, "covered: nested");
    expect_eq(covered({{-5, 3}, {8, 20}}, 0, 10), 5, "covered: clipped at both ends");
    expect_eq(covered({{6, 9}, {1, 2}, {1, 3}}, 0, 10), 5, "covered: unsorted input");
}

void test_self_times() {
    using perfbench::SpanKind;
    // run [0,100) on thread 0 with two children on rank threads 1 and 2
    // that overlap each other, [10,50) and [30,70); the first has a child
    // [20,25) of its own on its thread.
    const std::vector<perfbench::Span> spans = {
        span(SpanKind::cluster_run, -1, 0, 0, 100, 30),        // 0
        span(SpanKind::coll_bcast, 0, 1, 10, 50, 12),          // 1
        span(SpanKind::coll_alltoall, 0, 2, 30, 70, 9),        // 2
        span(SpanKind::dt_pack, 1, 1, 20, 25, 4),              // 3
        span(SpanKind::cluster_teardown, -1, 0, 100, 130, 25), // 4
    };
    const std::vector<perfbench::SelfTime> self = perfbench::self_times(spans);
    expect_eq(self[0].wall, 100 - 60, "self wall: parent minus union of overlapping children");
    expect_eq(self[1].wall, 40 - 5, "self wall: child minus its own child");
    expect_eq(self[2].wall, 40, "self wall: leaf");
    expect_eq(self[3].wall, 5, "self wall: nested leaf");
    expect_eq(self[4].wall, 30, "self wall: root leaf");
    expect_eq(self[0].cpu, 30, "self cpu: children on other threads are not subtracted");
    expect_eq(self[1].cpu, 12 - 4, "self cpu: same-thread child is subtracted");
    expect_eq(self[2].cpu, 9, "self cpu: leaf");

    const auto layers = perfbench::layer_self(spans);
    const auto at = [&](perfbench::Layer l) { return layers[static_cast<std::size_t>(l)]; };
    expect_eq(at(perfbench::Layer::sim).wall, 40, "layer sim");
    expect_eq(at(perfbench::Layer::coll).wall, 75, "layer coll");
    expect_eq(at(perfbench::Layer::coll).cpu, 17, "layer coll cpu");
    expect_eq(at(perfbench::Layer::datatype).wall, 5, "layer datatype");
    expect_eq(at(perfbench::Layer::teardown).wall, 30, "layer teardown");
    long long wall = 0;
    long long cpu = 0;
    for (const perfbench::SelfTime& v : layers) {
        wall += v.wall;
        cpu += v.cpu;
    }
    // Overlapping children count once per thread, so the sum can exceed
    // the 130 ns of elapsed time; CPU sums to what the threads consumed.
    expect_eq(wall, 150, "layer self wall times sum per thread");
    expect_eq(cpu, 30 + 12 + 9 + 25, "layer self cpu times sum to total thread CPU");
}

void test_tracer_parents() {
    perfbench::Tracer& tr = perfbench::tracer();
    tr.set_enabled(true);
    {
        const perfbench::Scope run(perfbench::SpanKind::cluster_run);
        tr.set_root(run.index());
        {
            const perfbench::Scope op(perfbench::SpanKind::op, 7);
            const perfbench::Scope call(perfbench::SpanKind::p2p_send);
        }
        tr.set_root(-1);
    }
    tr.set_enabled(false);
    const auto& s = tr.spans();
    expect_eq(static_cast<long long>(s.size()), 3, "tracer: three spans");
    expect_eq(s[0].parent, -1, "tracer: run is a root");
    // The run span is open on this thread, so it parents the op directly.
    expect_eq(s[1].parent, 0, "tracer: op under run");
    expect_eq(s[2].parent, 1, "tracer: call under op");
    expect_eq(s[0].thread == s[2].thread, 1, "tracer: one thread, one id");
    expect_eq(static_cast<long long>(s[2].op), 7, "tracer: call inherits the op id");
    expect_eq(s[2].t0 >= s[1].t0 && s[2].t1 <= s[1].t1, 1, "tracer: call nested in time");
}

void test_percentile() {
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) v.push_back(i);
    expect_eq(static_cast<long long>(perfbench::percentile(v, 50)), 50, "p50 of 1..100");
    expect_eq(static_cast<long long>(perfbench::percentile(v, 99)), 99, "p99 of 1..100");
    expect_eq(static_cast<long long>(perfbench::percentile(v, 100)), 100, "p100 of 1..100");
    expect_eq(static_cast<long long>(perfbench::percentile({}, 50)), 0, "p50 of nothing");
}

void test_stratified() {
    perfbench::Rng a(42);
    perfbench::Rng b(42);
    const auto x = perfbench::stratified_log(a, 16, 8, 4096, 8);
    const auto y = perfbench::stratified_log(b, 16, 8, 4096, 8);
    expect_eq(x == y, 1, "stratified: same seed, same draws");
    std::set<std::size_t> distinct;
    for (std::size_t i = 0; i < x.size(); ++i) {
        expect_eq(x[i] >= 8 && x[i] <= 4096 && x[i] % 8 == 0, 1,
                  "stratified: in range and aligned");
        if (i > 0) expect_eq(x[i] >= x[i - 1], 1, "stratified: in stratum order");
        distinct.insert(x[i]);
    }
    // 9 octaves over 16 strata: only rounding to 8 B can merge the smallest.
    expect_eq(distinct.size() >= 12, 1, "stratified: draws spread over the range");
    expect_eq(x.front() < 16 && x.back() > 2048, 1, "stratified: both ends reached");
}

}  // namespace

int main() {
    test_covered();
    test_self_times();
    test_tracer_parents();
    test_percentile();
    test_stratified();
    if (g_failed != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", g_failed);
        return 1;
    }
    std::printf("perfbench selftest: all checks passed\n");
    return 0;
}
