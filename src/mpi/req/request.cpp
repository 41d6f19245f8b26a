#include "mpi/req/request.hpp"

#include <algorithm>

#include "mpi/rank.hpp"
#include "mpi/req/nbc.hpp"
#include "mpi/runtime.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"

namespace scimpi::mpi {

// Lazy so ranks that never touch nonblocking requests pay nothing.
req::Engine& Rank::requests() {
    if (req_ == nullptr) req_ = std::make_unique<req::Engine>(*this);
    return *req_;
}

namespace req {

namespace {

bool state_complete(const State& s) {
    switch (s.kind) {
        case Kind::none: return true;
        case Kind::send: return s.send == nullptr || s.send->complete;
        case Kind::recv: return s.recv == nullptr || s.recv->complete;
        case Kind::coll: return s.coll == nullptr || s.coll->done();
    }
    return true;
}

/// Active and not yet finalized: the only states Wait/Test must drive.
bool needs_completion(const State* s) {
    return s != nullptr && s->kind != Kind::none && !s->done && s->started;
}

/// Causal-graph completion node of the underlying op (0 when unknown):
/// the release event a blocked Wait's transparent node hangs off.
std::uint64_t state_ev_done(const State& s) {
    switch (s.kind) {
        case Kind::send: return s.send != nullptr ? s.send->ev_done : 0;
        case Kind::recv: return s.recv != nullptr ? s.recv->ev_done : 0;
        case Kind::none:
        case Kind::coll: return 0;  // collectives record their own edges
    }
    return 0;
}

}  // namespace

bool Request::complete() const {
    if (st_ == nullptr || st_->done || !st_->started) return true;
    return state_complete(*st_);
}

const RecvResult& Request::result() const {
    SCIMPI_REQUIRE(st_ != nullptr, "result() on an invalid request");
    return st_->result;
}

Engine::Engine(Rank& rank) : rank_(rank) {
    obs::MetricsRegistry& m = rank.cluster().metrics();
    overlap_pct_ = &m.histogram("req.overlap_pct");
    c_ops_ = &m.counter("req.nonblocking_ops");
    c_pstarts_ = &m.counter("req.persistent_starts");
    c_nbc_ = &m.counter("req.nbc_scheds");
}

bool Engine::op_complete(const State& s) { return state_complete(s); }

void Engine::issue(State& s) {
    s.issue_time = rank_.proc().now();
    s.started = true;
    c_ops_->inc();
    if (s.kind == Kind::send)
        s.send = rank_.isend(s.sbuf, s.count, s.type, s.peer, s.tag, s.context);
    else
        s.recv = rank_.irecv(s.rbuf, s.count, s.type, s.peer, s.tag, s.context);
}

Request Engine::isend(const void* buf, int count, const Datatype& type, int dst,
                      int tag, int context) {
    Request r;
    r.st_ = std::make_shared<State>();
    State& s = *r.st_;
    s.kind = Kind::send;
    s.sbuf = buf;
    s.count = count;
    s.type = type;
    s.peer = dst;
    s.tag = tag;
    s.context = context;
    issue(s);
    return r;
}

Request Engine::irecv(void* buf, int count, const Datatype& type, int src, int tag,
                      int context) {
    Request r;
    r.st_ = std::make_shared<State>();
    State& s = *r.st_;
    s.kind = Kind::recv;
    s.rbuf = buf;
    s.count = count;
    s.type = type;
    s.peer = src;
    s.tag = tag;
    s.context = context;
    issue(s);
    return r;
}

Request Engine::send_init(const void* buf, int count, const Datatype& type, int dst,
                          int tag, int context) {
    Request r;
    r.st_ = std::make_shared<State>();
    State& s = *r.st_;
    s.kind = Kind::send;
    s.persistent = true;
    s.sbuf = buf;
    s.count = count;
    s.type = type;
    s.peer = dst;
    s.tag = tag;
    s.context = context;
    return r;
}

Request Engine::recv_init(void* buf, int count, const Datatype& type, int src,
                          int tag, int context) {
    Request r;
    r.st_ = std::make_shared<State>();
    State& s = *r.st_;
    s.kind = Kind::recv;
    s.persistent = true;
    s.rbuf = buf;
    s.count = count;
    s.type = type;
    s.peer = src;
    s.tag = tag;
    s.context = context;
    return r;
}

void Engine::start(Request& r) {
    SCIMPI_REQUIRE(r.st_ != nullptr && r.st_->persistent,
                   "start: not a persistent request");
    SCIMPI_REQUIRE(!r.st_->started, "start: persistent request already active");
    c_pstarts_->inc();
    issue(*r.st_);
}

void Engine::startall(std::span<Request> rs) {
    for (Request& r : rs) start(r);
}

Request Engine::start_coll(std::shared_ptr<NbcSched> sched) {
    Request r;
    r.st_ = std::make_shared<State>();
    State& s = *r.st_;
    s.kind = Kind::coll;
    s.coll = sched;
    s.issue_time = rank_.proc().now();
    s.started = true;
    c_nbc_->inc();
    scheds_.push_back(std::move(sched));
    pump();  // issue round 0 (and any rounds that complete synchronously)
    return r;
}

int Engine::nbc_tag_band(int context, std::size_t rounds) {
    const int len = static_cast<int>(rounds);
    SCIMPI_REQUIRE(rounds <= static_cast<std::size_t>(kTagNbcBase - kTagNbcFloor),
                   "NBC schedule longer than the tag space");
    auto it = std::find_if(nbc_next_.begin(), nbc_next_.end(),
                           [context](const auto& e) { return e.first == context; });
    if (it == nbc_next_.end()) it = nbc_next_.insert(it, {context, kTagNbcBase});
    // Wrap to the top once the band would cross the floor; a live schedule
    // is only overrun after ~1e9 rounds of later schedules on its context.
    if (it->second - len < kTagNbcFloor) it->second = kTagNbcBase;
    const int top = it->second;
    it->second -= len;
    return top;
}

void Engine::pump() {
    if (pumping_ || scheds_.empty()) return;
    // The guard serializes the two possible drivers (the rank inside
    // Wait/Test and the async-progress daemon): a schedule suspended inside
    // one of its own sends must not be re-entered by the other driver.
    pumping_ = true;
    for (std::size_t i = 0; i < scheds_.size(); ++i) {
        // Copy the shared_ptr: a nested completion may append to scheds_.
        const std::shared_ptr<NbcSched> sched = scheds_[i];
        sched->pump();
    }
    std::erase_if(scheds_, [](const auto& s) { return s->done(); });
    pumping_ = false;
}

void Engine::finalize(State& s, SimTime wait_enter) {
    const SimTime now = rank_.proc().now();
    switch (s.kind) {
        case Kind::send:
            rank_.wait(*s.send);  // already complete: closes checker bookkeeping
            s.status = s.send->status;
            break;
        case Kind::recv:
            rank_.wait(*s.recv);
            s.status = s.recv->status;
            s.result = RecvResult{s.recv->status, s.recv->env.src, s.recv->env.tag,
                                  s.recv->received};
            break;
        case Kind::coll:
            s.status = s.coll->status();
            break;
        case Kind::none: break;
    }
    if (s.kind != Kind::none) {
        // Overlap attribution: of the issue→completion window, whatever was
        // not spent blocked inside this Wait was available to user compute.
        // Test-path completions expose no wait time at all.
        const SimTime window = now - s.issue_time;
        const SimTime exposed = now > wait_enter ? now - wait_enter : 0;
        const SimTime overlapped = window > exposed ? window - exposed : 0;
        if (window > 0) {
            obs::Profiler& prof = rank_.proc().engine().profiler();
            if (prof.enabled())
                prof.comm_overlap(rank_.proc().id(),
                                  static_cast<std::uint64_t>(overlapped),
                                  static_cast<std::uint64_t>(window));
            overlap_pct_->record(
                static_cast<std::uint64_t>(overlapped * 100 / window));
        }
    }
    s.send.reset();
    s.recv.reset();
    s.coll.reset();
    s.started = false;
    if (!s.persistent) s.done = true;
}

Status Engine::wait(Request& r) {
    State* s = r.st_.get();
    if (!needs_completion(s)) return s != nullptr ? s->status : Status::ok();
    const SimTime enter = rank_.proc().now();
    sim::Process& self = rank_.cur_proc();
    obs::Span wait(self, Rank::wait_span("wait:req"));
    pump();
    if (!op_complete(*s)) {
        while (!op_complete(*s)) {
            rank_.progress_wait();
            pump();
        }
        Rank::end_wait(self, wait, state_ev_done(*s));
    } else {
        wait.cancel();
    }
    finalize(*s, enter);
    return s->status;
}

bool Engine::test(Request& r, Status* st) {
    State* s = r.st_.get();
    if (!needs_completion(s)) {
        if (st != nullptr) *st = s != nullptr ? s->status : Status::ok();
        return true;
    }
    rank_.progress_poll();
    pump();
    if (!op_complete(*s)) return false;
    finalize(*s, rank_.proc().now());
    if (st != nullptr) *st = s->status;
    return true;
}

Status Engine::waitall(std::span<Request> rs) {
    Status first;
    for (Request& r : rs) {
        const Status st = wait(r);
        if (!st && first.is_ok()) first = st;
    }
    return first;
}

int Engine::waitany(std::span<Request> rs) {
    const SimTime enter = rank_.proc().now();
    sim::Process& self = rank_.cur_proc();
    obs::Span wait(self, Rank::wait_span("wait:any"));
    for (;;) {
        rank_.progress_poll();
        pump();
        bool any_active = false;
        for (std::size_t i = 0; i < rs.size(); ++i) {
            State* s = rs[i].st_.get();
            if (!needs_completion(s)) continue;
            any_active = true;
            if (op_complete(*s)) {
                Rank::end_wait(self, wait, state_ev_done(*s));
                finalize(*s, enter);
                return static_cast<int>(i);
            }
        }
        if (!any_active) {
            wait.cancel();
            return -1;
        }
        rank_.progress_wait();
    }
}

std::vector<int> Engine::testsome(std::span<Request> rs) {
    rank_.progress_poll();
    pump();
    std::vector<int> out;
    const SimTime now = rank_.proc().now();
    for (std::size_t i = 0; i < rs.size(); ++i) {
        State* s = rs[i].st_.get();
        if (!needs_completion(s) || !op_complete(*s)) continue;
        finalize(*s, now);
        out.push_back(static_cast<int>(i));
    }
    return out;
}

}  // namespace req
}  // namespace scimpi::mpi
