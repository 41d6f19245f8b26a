#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>

#include "obs/span.hpp"
#include "sim/process.hpp"
#include "sim/schedule.hpp"

namespace scimpi::sim {

Engine::Engine() = default;

Engine::~Engine() { shutdown_remaining(); }

void Engine::bind_metrics(obs::MetricsRegistry& m) {
    metrics_ = &m;
    ctx_switches_ = &m.counter("sim.context_switches");
    deadlock_checks_ = &m.counter("sim.deadlock_checks");
}

Process& Engine::spawn(std::string name, Process::Body body) {
    const int id = static_cast<int>(processes_.size());
    tracer_.set_track_name(id, name);
    processes_.push_back(std::unique_ptr<Process>(
        new Process(*this, id, std::move(name), std::move(body))));
    Process& p = *processes_.back();
    schedule(p, now_);
    return p;
}

Process& Engine::spawn_daemon(std::string name, Process::Body body) {
    Process& p = spawn(std::move(name), std::move(body));
    p.daemon_ = true;
    return p;
}

void Engine::schedule(Process& p, SimTime t) {
    SCIMPI_REQUIRE(!p.finished(), "schedule() on finished process " + p.name());
    SCIMPI_REQUIRE(!p.scheduled_, "schedule() on already-scheduled process " + p.name());
    SCIMPI_REQUIRE(t >= now_, "schedule() into the past");
    p.scheduled_ = true;
    if (sched_ != nullptr) {
        if (current_ != nullptr && current_ != &p)
            sched_->on_edge(current_->id(), p.id());
        else if (in_callback_)
            sched_->on_edge(kCallbackActor, p.id());
    }
    push(QEntry{t, seq_++, p.id(), 0});
}

std::uint32_t Engine::claim_slot(SimTime t) {
    SCIMPI_REQUIRE(t >= now_, "Engine::at() into the past");
    if (!free_slots_.empty()) {
        const std::uint32_t s = free_slots_.back();
        free_slots_.pop_back();
        return s;
    }
    if (slots_made_ % kSlotChunk == 0)
        slot_chunks_.push_back(std::make_unique<Callback[]>(kSlotChunk));
    return slots_made_++;
}

void Engine::post(SimTime t, std::uint32_t s) {
    if (sched_ != nullptr) {
        // A callback happens after its poster. Posting is also a footprint
        // on the queue: two processes posting concurrently race on the
        // order of their callbacks.
        if (current_ != nullptr) sched_->on_edge(current_->id(), kCallbackActor);
        note_subject(&queue_);
    }
    push(QEntry{t, seq_++, kCallbackEntry, s});
}

void Engine::push(QEntry e) {
    queue_.push_back(e);
    std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
}

Engine::QEntry Engine::pop() {
    std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
    const QEntry e = queue_.back();
    queue_.pop_back();
    return e;
}

bool Engine::stale(const QEntry& e) const {
    return e.pid != kCallbackEntry && processes_[static_cast<std::size_t>(e.pid)]->finished();
}

void Engine::set_sampler(SimTime cadence, Callback fn) {
    if (cadence <= 0 || !fn) {
        sampler_cadence_ = 0;
        sampler_.reset();
        return;
    }
    sampler_cadence_ = cadence;
    sampler_ = std::move(fn);
    // First boundary strictly after the current time.
    sampler_next_ = (now_ / cadence + 1) * cadence;
}

void Engine::enable_views(unsigned views) {
    views_ |= views;
    if ((views & kViewTrace) != 0) tracer_.enable();
    if ((views & kViewProfile) != 0) profiler_.enable();
    if ((views & kViewGraph) != 0) evgraph_.enable();
}

void Engine::open_span(obs::Span& s) {
    s.t0_ = now_;
    if (s.info_.prof && (views_ & kViewProfile) != 0)
        profiler_.push(s.proc_->id(), *s.info_.prof, now_);
}

void Engine::close_span(obs::Span& s) {
    const obs::SpanInfo& in = s.info_;
    const int track = s.proc_->id();
    if (in.prof && (views_ & kViewProfile) != 0) profiler_.pop(track, now_);
    if (in.drop_empty && now_ == s.t0_) return;
    const bool traced = in.trace != nullptr && (views_ & kViewTrace) != 0;
    const bool graphed = in.ev && (views_ & kViewGraph) != 0;
    if (!traced && !graphed) return;
    std::string joined;
    std::string_view label = in.name;
    if (!in.detail.empty()) {
        joined.append(in.name).append(":").append(in.detail);
        label = joined;
    }
    if (traced)
        tracer_.span(track, label, in.trace, s.t0_, now_, in.bytes);
    if (graphed)
        s.id_ = evgraph_.node(track, *in.ev, label, s.t0_, now_,
                              in.bytes == Tracer::kNoArg ? 0 : in.bytes, in.transparent);
}

obs::Cause Engine::start_flow(Process& p, obs::Flow kind) {
    if ((views_ & kViewTrace) == 0) return {};
    const obs::Cause c{.flow = next_flow_++, .kind = kind};
    const bool rma = kind == obs::Flow::rma;
    tracer_.flow_start(p.id(), rma ? "rma" : "msg", rma ? "rma" : "p2p", now_, c.flow);
    return c;
}

void Engine::land(Process& p, const obs::Cause& c, std::uint64_t to, obs::EvCat cat,
                  bool ends_flow, int a, int b) {
    evgraph_.edge(c.node, to, cat, a, b);
    if (!ends_flow || c.flow == 0) return;
    // Perfetto binds a flow's finish to its start by (name, category).
    const bool rma = c.kind == obs::Flow::rma;
    tracer_.flow_end(p.id(), rma ? "rma" : "msg", rma ? "rma" : "p2p", now_, c.flow);
}

void Engine::trace_critical_path() {
    if (!evgraph_.enabled() || !tracer_.enabled()) return;
    const obs::CriticalPath cp = obs::critical_path(evgraph_, now_);
    tracer_.set_track_name(-2, "critical path");
    for (const obs::CritSeg& seg : cp.segments)
        tracer_.span(-2, obs::ev_cat_name(seg.cat), "critpath", seg.t0, seg.t1);
}

std::uint64_t Engine::wall_ns() const {
    std::uint64_t ns = wall_base_ns_;
    if (running_)
        ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - wall_run_start_)
                .count());
    return ns;
}

void Engine::run() {
    SCIMPI_REQUIRE(!running_, "Engine::run() is not reentrant");
    running_ = true;
    wall_run_start_ = std::chrono::steady_clock::now();
    try {
        run_loop();
    } catch (...) {
        // A schedule controller threw on the engine thread (replay
        // divergence, choice out of range). Unwind the parked process
        // stacks *now*, while the objects they reference are still alive —
        // the caller's members die before this engine does.
        running_ = false;
        shutdown_remaining();
        throw;
    }
    wall_base_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_run_start_)
            .count());
    running_ = false;

    if (!pending_error_.empty()) {
        std::string err = pending_error_;
        pending_error_.clear();
        shutdown_remaining();
        panic(err);
    }

    if (deadlock_checks_ != nullptr) deadlock_checks_->inc();
    std::string blocked;
    for (const auto& p : processes_) {
        if (p->finished() || p->daemon_) continue;
        blocked += " " + p->name();
        if (!p->wait_why_.empty()) blocked += " (in " + p->wait_why_ + ")";
    }
    if (!blocked.empty()) {
        shutdown_remaining();
        panic("simulation deadlock; blocked processes:" + blocked);
    }
}

Engine::QEntry Engine::choose(QEntry first) {
    // Collect every entry within the fuzz window of the earliest one; the
    // controller picks which one runs first. Entries are heap-popped, so
    // cands is (t, seq)-sorted and cands[0] is the deterministic FIFO
    // default. A timed callback is offered as "d<seq>" under the one
    // kCallbackActor identity.
    const SimTime limit = first.t + sched_->fuzz();
    std::vector<QEntry> cands{first};
    while (!queue_.empty() && queue_.front().t <= limit) {
        const QEntry n = pop();
        if (!stale(n)) cands.push_back(n);
    }
    if (cands.size() == 1) return first;
    ChoicePoint cp;
    cp.kind = ChoiceKind::dispatch;
    cp.now = now_;
    cp.alts.reserve(cands.size());
    for (const QEntry& c : cands) {
        if (c.pid == kCallbackEntry) {
            cp.alts.push_back(ChoiceAlt{"d" + std::to_string(c.seq), kCallbackActor, c.t});
        } else {
            const Process& p = *processes_[static_cast<std::size_t>(c.pid)];
            cp.alts.push_back(ChoiceAlt{p.name(), p.id(), c.t});
        }
    }
    const std::size_t pick = sched_->choose(cp);
    SCIMPI_REQUIRE(pick < cands.size(), "schedule choice out of range");
    for (std::size_t i = 0; i < cands.size(); ++i)
        if (i != pick) push(cands[i]);
    return cands[pick];
}

void Engine::run_loop() {
    while (!queue_.empty() && pending_error_.empty()) {
        QEntry e = pop();
        if (stale(e)) continue;  // finished while queued
        if (sched_ != nullptr) e = choose(e);
        // Dispatching a later co-enabled entry first leaves earlier entries
        // in the queue with t < now_; time never runs backwards for them.
        const SimTime t_eff = e.t > now_ ? e.t : now_;
        if (sampler_cadence_ > 0 && t_eff >= sampler_next_) {
            // Crossed one or more cadence boundaries: sample once, between
            // events, stamped at the time actually reached. Catch up
            // sampler_next_ past t_eff so an idle stretch costs one sample.
            now_ = t_eff;
            sampler_();
            sampler_next_ = (t_eff / sampler_cadence_ + 1) * sampler_cadence_;
        }
        now_ = t_eff;
        ++events_dispatched_;
        if (e.pid == kCallbackEntry) {
            run_callback(e);
            continue;
        }
        Process& p = *processes_[static_cast<std::size_t>(e.pid)];
        p.scheduled_ = false;
        if (ctx_switches_ != nullptr) ctx_switches_->inc();
        if (sched_ != nullptr) sched_->on_dispatch(p.id(), now_);
        resume(p);
    }
}

void Engine::run_callback(const QEntry& e) {
    if (sched_ != nullptr) sched_->on_dispatch(kCallbackActor, now_);
    // Argument-less primitives (Mailbox::send) reach the controller through
    // sim::current_engine(), as they do from a process slice.
    Engine* const outer = current_engine();
    set_current_engine(this);
    in_callback_ = true;
    // The slot stays claimed while its closure runs, so callbacks it posts
    // take other slots; chunked storage keeps it in place meanwhile.
    Callback& fn = slot(e.slot);
    try {
        fn();
    } catch (const std::exception& ex) {
        pending_error_ = "timed callback d" + std::to_string(e.seq) + ": " + ex.what();
    } catch (...) {
        pending_error_ = "timed callback d" + std::to_string(e.seq) + ": unknown exception";
    }
    fn.reset();
    free_slots_.push_back(e.slot);
    in_callback_ = false;
    set_current_engine(outer);
}

void Engine::resume(Process& p) {
    current_ = &p;
    p.resume_from_engine();
    current_ = nullptr;
}

void Engine::shutdown_remaining() {
    // ~Process switches into each parked fiber with shutdown_ set, so it
    // throws ShutdownSignal through the user stack, running destructors.
    processes_.clear();
    // Closures that never ran are destroyed here, with their captures.
    queue_.clear();
    slot_chunks_.clear();
    free_slots_.clear();
    slots_made_ = 0;
}

}  // namespace scimpi::sim
