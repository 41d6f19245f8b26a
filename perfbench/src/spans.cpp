#include "spans.hpp"

#include <algorithm>
#include <cstdio>

#include "util.hpp"

namespace perfbench {

namespace {

struct KindInfo {
    const char* name;
    Layer layer;
};

constexpr std::array<KindInfo, kSpanKinds> kKinds = {{
    {"cluster.ctor", Layer::setup},
    {"cluster.run", Layer::sim},
    {"cluster.teardown", Layer::teardown},
    {"obs.stats_report", Layer::obs},
    {"op", Layer::app},
    {"coll.bootstrap", Layer::coll},
    {"coll.barrier", Layer::coll},
    {"coll.bcast", Layer::coll},
    {"coll.allreduce", Layer::coll},
    {"coll.alltoall", Layer::coll},
    {"req.init", Layer::req},
    {"req.start_all", Layer::req},
    {"req.wait_all", Layer::req},
    {"p2p.send", Layer::p2p},
    {"p2p.recv", Layer::p2p},
    {"datatype.build", Layer::datatype},
    {"datatype.pack", Layer::datatype},
    {"datatype.unpack", Layer::datatype},
    {"rma.win_create", Layer::rma},
    {"rma.put", Layer::rma},
    {"rma.get", Layer::rma},
    {"rma.acc", Layer::rma},
    {"rma.fence", Layer::rma},
    {"rma.post", Layer::rma},
    {"rma.start", Layer::rma},
    {"rma.complete", Layer::rma},
    {"rma.wait", Layer::rma},
    {"rma.lock", Layer::rma},
    {"rma.unlock", Layer::rma},
    {"mem.alloc_mem", Layer::mem},
}};

constexpr std::array<const char*, kLayers> kLayerNames = {
    "setup", "sim", "teardown", "obs", "mem", "app",
    "coll",  "req", "p2p",      "datatype", "rma",
};

/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int32_t> t_open;
/// The calling thread's id in Span::thread; -1 until it records a span.
thread_local std::int32_t t_thread = -1;

}  // namespace

const char* layer_name(Layer l) { return kLayerNames[static_cast<std::size_t>(l)]; }
const char* span_name(SpanKind k) { return kKinds[static_cast<std::size_t>(k)].name; }
Layer span_layer(SpanKind k) { return kKinds[static_cast<std::size_t>(k)].layer; }

Tracer& tracer() {
    static Tracer t;
    return t;
}

std::int32_t Tracer::begin(SpanKind kind, std::uint64_t op) {
    if (t_thread < 0) t_thread = threads_++;
    Span s;
    s.kind = kind;
    s.parent = t_open.empty() ? root_ : t_open.back();
    s.thread = t_thread;
    s.iter = iter_;
    s.op = op != 0 || s.parent < 0 ? op : spans_[static_cast<std::size_t>(s.parent)].op;
    const auto idx = static_cast<std::int32_t>(spans_.size());
    t_open.push_back(idx);
    s.cpu_ns = thread_cpu_ns();
    s.t0 = host_ns();
    spans_.push_back(s);
    return idx;
}

void Tracer::end(std::int32_t idx) {
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.t1 = host_ns();
    s.cpu_ns = thread_cpu_ns() - s.cpu_ns;
    if (!t_open.empty() && t_open.back() == idx) t_open.pop_back();
}

bool Tracer::write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<SelfTime> self = self_times(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"parent\":%d,"
                     "\"thread\":%d,\"op\":%llu,\"iter\":%u,\"t0_ns\":%lld,"
                     "\"t1_ns\":%lld,\"cpu_ns\":%lld,\"self_ns\":%lld,"
                     "\"self_cpu_ns\":%lld}\n",
                     i, span_name(s.kind), layer_name(span_layer(s.kind)), s.parent,
                     s.thread, static_cast<unsigned long long>(s.op), s.iter,
                     static_cast<long long>(s.t0), static_cast<long long>(s.t1),
                     static_cast<long long>(s.cpu_ns), static_cast<long long>(self[i].wall),
                     static_cast<long long>(self[i].cpu));
    }
    return std::fclose(f) == 0;
}

std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                     std::int64_t lo, std::int64_t hi) {
    std::sort(iv.begin(), iv.end());
    std::int64_t total = 0;
    std::int64_t reach = lo;  // everything before `reach` is already counted
    for (const auto& [a0, b0] : iv) {
        const std::int64_t a = std::max(a0, reach);
        const std::int64_t b = std::min(b0, hi);
        if (b > a) {
            total += b - a;
            reach = b;
        }
    }
    return total;
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
    std::vector<SelfTime> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) self[i].cpu = spans[i].cpu_ns;
    for (const Span& s : spans) {
        if (s.parent < 0) continue;
        const auto p = static_cast<std::size_t>(s.parent);
        kids[p].emplace_back(s.t0, s.t1);
        if (spans[p].thread == s.thread) self[p].cpu -= s.cpu_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i].wall = spans[i].dur() - covered(std::move(kids[i]), spans[i].t0, spans[i].t1);
    return self;
}

std::array<SelfTime, kLayers> layer_self(const std::vector<Span>& spans) {
    std::array<SelfTime, kLayers> out{};
    const std::vector<SelfTime> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SelfTime& l = out[static_cast<std::size_t>(span_layer(spans[i].kind))];
        l.wall += self[i].wall;
        l.cpu += self[i].cpu;
    }
    return out;
}

}  // namespace perfbench
