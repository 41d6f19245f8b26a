#include "check/explorer.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <vector>

#include "check/clock.hpp"
#include "common/status.hpp"

namespace scimpi::check {
namespace {

/// One slice: everything a process did between being switched in and
/// switching back to the scheduler, or one timed callback (proc ==
/// sim::kCallbackActor). The unit of the DPOR dependence relation.
struct Slice {
    int proc = -1;
    VectorClock vc;                     ///< proc's clock at slice start
    std::vector<const void*> subjects;  ///< shared objects touched
};

struct RecAlt {
    std::string label;
    int proc = -1;
};

/// Actor ids are process ids plus sim::kCallbackActor (-1); clocks and
/// per-actor tables index them from 0.
std::size_t slot(int actor) { return static_cast<std::size_t>(actor + 1); }

/// A choice point as recorded during one run.
struct RecChoice {
    sim::ChoiceKind kind = sim::ChoiceKind::dispatch;
    std::vector<RecAlt> alts;
    std::size_t chosen = 0;
    std::size_t slice_at = 0;  ///< slices executed before this choice
};

/// ScheduleController that replays a sparse decision prefix, records every
/// choice point, and builds the slice/vector-clock model DPOR analyzes.
class RecordingController final : public sim::ScheduleController {
public:
    RecordingController(SimTime fuzz, std::map<std::uint64_t, std::string> decisions)
        : fuzz_(fuzz), decisions_(std::move(decisions)) {}

    std::size_t choose(const sim::ChoicePoint& cp) override {
        const std::uint64_t index = choices_.size();
        std::size_t pick = 0;
        const auto it = decisions_.find(index);
        if (it != decisions_.end()) {
            bool matched = false;
            for (std::size_t i = 0; i < cp.alts.size(); ++i) {
                if (cp.alts[i].label == it->second) {
                    pick = i;
                    matched = true;
                    break;
                }
            }
            SCIMPI_REQUIRE(matched, "exploration diverged: decision " +
                                        std::to_string(index) + " wants '" + it->second +
                                        "' but the program no longer offers it");
        }
        RecChoice rec;
        rec.kind = cp.kind;
        rec.chosen = pick;
        rec.slice_at = slices_.size();
        rec.alts.reserve(cp.alts.size());
        for (const sim::ChoiceAlt& a : cp.alts) rec.alts.push_back(RecAlt{a.label, a.proc});
        choices_.push_back(std::move(rec));
        return pick;
    }

    [[nodiscard]] SimTime fuzz() const override { return fuzz_; }

    void on_dispatch(int proc, SimTime t) override {
        (void)t;
        ensure_proc(proc);
        const std::size_t p = slot(proc);
        clocks_[p].join(pending_[p]);
        pending_[p] = VectorClock();
        clocks_[p].ensure(static_cast<int>(p) + 1);
        clocks_[p].tick(static_cast<int>(p));
        Slice s;
        s.proc = proc;
        s.vc = clocks_[p];
        slices_.push_back(std::move(s));
    }

    void on_edge(int from, int to) override {
        ensure_proc(from);
        ensure_proc(to);
        pending_[slot(to)].join(clocks_[slot(from)]);
    }

    void on_subject(int proc, const void* subject) override {
        if (slices_.empty() || slices_.back().proc != proc) return;
        auto& subj = slices_.back().subjects;
        if (std::find(subj.begin(), subj.end(), subject) == subj.end())
            subj.push_back(subject);
    }

    std::vector<RecChoice> choices_;
    std::vector<Slice> slices_;

private:
    void ensure_proc(int p) {
        const std::size_t n = slot(p) + 1;
        if (clocks_.size() < n) {
            clocks_.resize(n);
            pending_.resize(n);
        }
    }

    SimTime fuzz_;
    std::map<std::uint64_t, std::string> decisions_;
    std::vector<VectorClock> clocks_;
    std::vector<VectorClock> pending_;
};

/// A node of the DFS tree: one choice point on the current path, its
/// explored labels (`done`, the sleep-set projection) and the backtrack
/// alternatives DPOR scheduled (`todo`, the persistent-set seeds).
struct Node {
    RecChoice rec;
    std::string taken;
    std::set<std::string> done;
    std::vector<std::string> todo;
};

const std::string& default_label(const RecChoice& r) { return r.alts.front().label; }

bool want(const Node& n, const std::string& label) {
    return label != n.taken && n.done.count(label) == 0 &&
           std::find(n.todo.begin(), n.todo.end(), label) == n.todo.end();
}

std::uint64_t untried(const Node& n) {
    std::uint64_t k = 0;
    for (const RecAlt& a : n.rec.alts)
        if (want(n, a.label)) ++k;
    return k;
}

bool subjects_intersect(const Slice& a, const Slice& b) {
    for (const void* s : a.subjects)
        if (std::find(b.subjects.begin(), b.subjects.end(), s) != b.subjects.end())
            return true;
    return false;
}

void add_backtracks_naive(std::vector<Node>& nodes, std::uint64_t max_depth) {
    const std::size_t limit = std::min<std::size_t>(nodes.size(), max_depth);
    for (std::size_t c = 0; c < limit; ++c)
        for (const RecAlt& a : nodes[c].rec.alts)
            if (want(nodes[c], a.label)) nodes[c].todo.push_back(a.label);
}

/// First slice of `proc` at or after position `from`; slices.size() if none.
std::size_t next_slice_of(const std::vector<std::vector<std::size_t>>& by_proc,
                          int proc, std::size_t from, std::size_t none) {
    if (slot(proc) >= by_proc.size()) return none;
    const auto& v = by_proc[slot(proc)];
    const auto it = std::lower_bound(v.begin(), v.end(), from);
    return it == v.end() ? none : *it;
}

void add_backtracks_dpor(std::vector<Node>& nodes, const std::vector<Slice>& slices,
                         std::uint64_t max_depth) {
    const std::size_t limit = std::min<std::size_t>(nodes.size(), max_depth);
    const std::size_t none = slices.size();

    std::vector<std::vector<std::size_t>> by_proc;
    for (std::size_t i = 0; i < slices.size(); ++i) {
        const std::size_t p = slot(slices[i].proc);
        if (by_proc.size() <= p) by_proc.resize(p + 1);
        by_proc[p].push_back(i);
    }

    // Dispatch choice points (process wakeups and timed callbacks alike):
    // race-pair-driven backtracking. For every pair
    // of concurrent, footprint-conflicting slices (i before j), the choice
    // point that dispatched i must also try the alternatives leading toward
    // j — its process if co-enabled there, otherwise j's causal ancestors
    // among the alternatives, otherwise (conservatively) every alternative.
    std::map<std::size_t, std::size_t> cp_of_slice;  // slice index -> node index
    for (std::size_t c = 0; c < limit; ++c)
        if (nodes[c].rec.kind == sim::ChoiceKind::dispatch)
            cp_of_slice[nodes[c].rec.slice_at] = c;

    for (const auto& [i, c] : cp_of_slice) {
        if (i >= slices.size()) continue;
        Node& n = nodes[c];
        for (std::size_t j = i + 1; j < slices.size(); ++j) {
            if (slices[j].proc == slices[i].proc) continue;
            if (!subjects_intersect(slices[i], slices[j])) continue;
            if (!VectorClock::concurrent(slices[i].vc, slices[j].vc)) continue;
            std::vector<std::string> cands;
            bool direct = false;
            for (const RecAlt& a : n.rec.alts) {
                if (a.label == n.taken) continue;
                if (a.proc == slices[j].proc) {
                    cands.assign(1, a.label);
                    direct = true;
                    break;
                }
                const std::size_t sa = next_slice_of(by_proc, a.proc, n.rec.slice_at, none);
                if (sa == none) {
                    cands.push_back(a.label);  // never ran again: unknown, keep
                } else if (sa <= j && VectorClock::dominated(slices[sa].vc, slices[j].vc)) {
                    cands.push_back(a.label);  // causal ancestor of slice j
                }
            }
            if (cands.empty() && !direct)
                for (const RecAlt& a : n.rec.alts)
                    if (a.label != n.taken) cands.push_back(a.label);
            for (const std::string& l : cands)
                if (want(n, l)) n.todo.push_back(l);
        }
    }

    // Hand-over choice points: explore an alternative waiter only if its
    // next slice conflicts with something that ran in between.
    for (std::size_t c = 0; c < limit; ++c) {
        Node& n = nodes[c];
        if (n.rec.kind != sim::ChoiceKind::handover) continue;
        for (const RecAlt& a : n.rec.alts) {
            if (!want(n, a.label)) continue;
            const std::size_t sa = next_slice_of(by_proc, a.proc, n.rec.slice_at, none);
            bool conflict = sa == none;  // never observed: conservative
            for (std::size_t s = n.rec.slice_at; !conflict && s < sa; ++s)
                conflict = slices[s].proc != a.proc &&
                           subjects_intersect(slices[s], slices[sa]) &&
                           VectorClock::concurrent(slices[s].vc, slices[sa].vc);
            if (conflict) n.todo.push_back(a.label);
        }
    }
}

RunOutcome run_once(const RunFn& run, sim::ScheduleController& ctrl) {
    try {
        return run(ctrl);
    } catch (const Panic& p) {
        RunOutcome out;
        out.deadlock = true;
        out.report = std::string(p.what()) + "\n";
        out.signature = std::string("panic:") + p.what();
        return out;
    }
}

std::map<std::uint64_t, std::string> as_map(const std::vector<sim::Decision>& ds) {
    std::map<std::uint64_t, std::string> m;
    for (const sim::Decision& d : ds) m[d.index] = d.label;
    return m;
}

/// Greedily drop decisions (deepest first), keeping a removal whenever the
/// reduced schedule still reproduces the same violation signature.
void minimize(const RunFn& run, const ExploreOptions& opt, ExploreResult& res) {
    std::vector<sim::Decision> kept = res.trace.decisions;
    std::uint64_t budget = opt.minimize_budget;
    for (std::size_t i = kept.size(); i-- > 0 && budget > 0;) {
        std::vector<sim::Decision> trial = kept;
        trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
        RecordingController ctrl(opt.fuzz, as_map(trial));
        const RunOutcome out = run_once(run, ctrl);
        ++res.replays;
        --budget;
        if ((out.violation || out.deadlock) && out.signature == res.finding.signature) {
            kept = std::move(trial);
            res.finding = out;
        }
    }
    res.trace.decisions = std::move(kept);
}

}  // namespace

ExploreResult explore(const RunFn& run, const ExploreOptions& opt) {
    const auto t0 = std::chrono::steady_clock::now();
    ExploreResult res;
    res.trace.fuzz = opt.fuzz;

    obs::Counter* c_sched = nullptr;
    obs::Counter* c_pruned = nullptr;
    obs::Counter* c_cps = nullptr;
    obs::Counter* c_replays = nullptr;
    if (opt.metrics != nullptr) {
        c_sched = &opt.metrics->counter("explore.schedules");
        c_pruned = &opt.metrics->counter("explore.pruned_alternatives");
        c_cps = &opt.metrics->counter("explore.choice_points");
        c_replays = &opt.metrics->counter("explore.replays");
    }

    std::vector<Node> path;
    while (res.schedules < opt.max_schedules) {
        std::map<std::uint64_t, std::string> decisions;
        for (std::size_t i = 0; i < path.size(); ++i)
            if (path[i].taken != default_label(path[i].rec)) decisions[i] = path[i].taken;

        RecordingController ctrl(opt.fuzz, decisions);
        const RunOutcome out = run_once(run, ctrl);
        ++res.schedules;
        if (c_sched != nullptr) c_sched->inc();
        if (c_cps != nullptr && ctrl.choices_.size() > res.choice_points)
            c_cps->add(ctrl.choices_.size() - res.choice_points);
        res.choice_points = std::max<std::uint64_t>(res.choice_points, ctrl.choices_.size());

        if (opt.progress != nullptr && res.schedules % 16 == 0) {
            const double secs =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count();
            std::fprintf(opt.progress,
                         "explore: %llu schedules (%.0f/s), depth %zu, pruned %llu\n",
                         static_cast<unsigned long long>(res.schedules),
                         secs > 0 ? static_cast<double>(res.schedules) / secs : 0.0,
                         ctrl.choices_.size(),
                         static_cast<unsigned long long>(res.pruned));
        }

        if (out.violation || out.deadlock) {
            res.found = true;
            res.finding = out;
            res.trace.decisions.clear();
            for (const auto& [idx, label] : decisions)
                res.trace.decisions.push_back(sim::Decision{idx, label});
            minimize(run, opt, res);
            break;
        }

        // Deterministic prefix replay: this run must revisit every choice
        // point already on the path, in order, before diverging.
        SCIMPI_REQUIRE(ctrl.choices_.size() >= path.size(),
                       "exploration lost choice points across replays");
        for (std::size_t i = path.size(); i < ctrl.choices_.size(); ++i) {
            Node n;
            n.rec = ctrl.choices_[i];
            n.taken = n.rec.alts[n.rec.chosen].label;
            n.done.insert(n.taken);
            path.push_back(std::move(n));
        }

        if (opt.dpor)
            add_backtracks_dpor(path, ctrl.slices_, opt.max_depth);
        else
            add_backtracks_naive(path, opt.max_depth);

        std::size_t b = path.size();
        while (b > 0 && path[b - 1].todo.empty()) --b;
        if (b == 0) {
            res.exhausted = true;
            break;
        }
        for (std::size_t i = b; i < path.size(); ++i) res.pruned += untried(path[i]);
        path.resize(b);
        Node& nb = path[b - 1];
        nb.taken = nb.todo.back();
        nb.todo.pop_back();
        nb.done.insert(nb.taken);
    }

    for (const Node& n : path) res.pruned += untried(n);
    if (c_pruned != nullptr) c_pruned->add(res.pruned);
    if (c_replays != nullptr) c_replays->add(res.replays);
    res.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return res;
}

}  // namespace scimpi::check
