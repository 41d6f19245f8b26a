// Driver-side tracing: spans recorded around each call the benchmark makes
// into a simulator layer. Spans live in memory and are written out when the
// run ends. Nothing here reaches into src/: a span only brackets a public
// call, so the simulator cannot tell a traced run from an untraced one.
//
// Concurrency: the simulator runs each rank on its own OS thread but passes
// one baton between them, so only one thread records at any moment (the
// handoff is a mutex, which orders the writes). Each thread keeps its own
// stack of open spans; a span opened on a thread with an empty stack gets
// the tracer's root (the enclosing `cluster.run` span) as its parent.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The layer a span's self time is charged to.
enum class Layer : std::uint8_t { setup, sim, teardown, obs, mem, app, coll, req, p2p,
                                  datatype, rma };
inline constexpr int kLayers = 11;
const char* layer_name(Layer l);

/// Every call site the benchmark traces.
enum class SpanKind : std::uint8_t {
    cluster_ctor, cluster_run, cluster_teardown, stats_report,
    op,  // one workload op on one rank (timestep, message, RMA epoch)
    coll_bootstrap, coll_barrier, coll_bcast, coll_allreduce, coll_alltoall,
    req_init, req_start_all, req_wait_all,
    p2p_send, p2p_recv,
    dt_build, dt_pack, dt_unpack,
    rma_win_create, rma_put, rma_get, rma_acc, rma_fence,
    rma_post, rma_start, rma_complete, rma_wait, rma_lock, rma_unlock, mem_alloc,
};
inline constexpr int kSpanKinds = 30;
const char* span_name(SpanKind k);
Layer span_layer(SpanKind k);

struct Span {
    SpanKind kind = SpanKind::op;
    std::int32_t parent = -1;    ///< index into the span vector; -1 = root
    std::int32_t thread = 0;     ///< recording thread (dense ids from 0)
    std::uint32_t iter = 0;      ///< workload instance the span belongs to
    std::uint64_t op = 0;        ///< workload op id shared by its spans (0 = none)
    std::int64_t t0 = 0;         ///< host ns
    std::int64_t t1 = 0;
    std::int64_t cpu_ns = 0;     ///< thread CPU consumed between t0 and t1

    [[nodiscard]] std::int64_t dur() const { return t1 - t0; }
};

class Tracer {
public:
    void set_enabled(bool on) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }
    void set_iter(std::uint32_t iter) { iter_ = iter; }
    /// Parent for spans opened on a thread with no open span.
    void set_root(std::int32_t root) { root_ = root; }

    /// Open a span; `op` 0 inherits the parent's op id. Returns its index.
    std::int32_t begin(SpanKind kind, std::uint64_t op);
    void end(std::int32_t idx);

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    /// One JSON object per line: name, layer, parent, thread, op, iter,
    /// host start/end, thread CPU and self wall/CPU time (all ns).
    [[nodiscard]] bool write_jsonl(const std::string& path) const;

private:
    bool enabled_ = false;
    std::uint32_t iter_ = 0;
    std::int32_t root_ = -1;
    std::int32_t threads_ = 0;
    std::vector<Span> spans_;
};

/// The process-wide recorder (the benchmark runs one Cluster at a time).
Tracer& tracer();

/// RAII span; a no-op while the tracer is off.
class Scope {
public:
    explicit Scope(SpanKind kind, std::uint64_t op = 0)
        : idx_(tracer().enabled() ? tracer().begin(kind, op) : -1) {}
    ~Scope() {
        if (idx_ >= 0) tracer().end(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::int32_t index() const { return idx_; }

private:
    std::int32_t idx_;
};

/// Run `f` inside a span of `kind` and return its result.
template <typename F>
decltype(auto) traced(SpanKind kind, F&& f) {
    Scope s(kind);
    return f();
}

/// Length of the union of the intervals, clipped to [lo, hi).
std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                     std::int64_t lo, std::int64_t hi);

struct SelfTime {
    std::int64_t wall = 0;  ///< ns of the span not covered by child spans
    std::int64_t cpu = 0;   ///< thread CPU ns not spent in same-thread children
};

/// Self time of every span. Wall: its duration minus the part of its
/// interval that its child spans cover; children on other threads may
/// overlap each other, and the union counts each instant once. CPU: its
/// thread CPU minus that of its children on the same thread (a child on
/// another thread burns another thread's clock).
std::vector<SelfTime> self_times(const std::vector<Span>& spans);

/// Sum of self times per layer.
std::array<SelfTime, kLayers> layer_self(const std::vector<Span>& spans);

}  // namespace perfbench
