#include "sim/schedule.hpp"

#include <cstdio>
#include <sstream>

#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace scimpi::sim {

namespace {
thread_local Engine* t_current_engine = nullptr;
}  // namespace

Engine* current_engine() { return t_current_engine; }

void set_current_engine(Engine* e) { t_current_engine = e; }

void note_subject(const void* subject) {
    Engine* e = t_current_engine;
    if (e == nullptr) return;
    ScheduleController* c = e->schedule_controller();
    if (c == nullptr) return;
    if (const Process* p = e->current(); p != nullptr)
        c->on_subject(p->id(), subject);
    else if (e->in_callback())
        c->on_subject(kCallbackActor, subject);
}

const char* choice_kind_name(ChoiceKind k) {
    switch (k) {
        case ChoiceKind::dispatch: return "dispatch";
        case ChoiceKind::handover: return "handover";
    }
    return "?";
}

std::string DecisionTrace::to_string() const {
    std::string out = "# scimpi explore trace v1\n";
    out += "fuzz " + std::to_string(fuzz) + "\n";
    for (const Decision& d : decisions)
        out += "choice " + std::to_string(d.index) + " " + d.label + "\n";
    return out;
}

Status DecisionTrace::save(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return Status::error(Errc::io_error, "cannot open trace file " + path);
    const std::string text = to_string();
    const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
    const int rc = std::fclose(f);
    if (n != text.size() || rc != 0)
        return Status::error(Errc::io_error, "short write to trace file " + path);
    return Status::ok();
}

Result<DecisionTrace> DecisionTrace::parse(const std::string& text) {
    DecisionTrace t;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#') continue;
        std::istringstream ls(line);
        std::string word;
        ls >> word;
        if (word == "fuzz") {
            if (!(ls >> t.fuzz) || t.fuzz < 0)
                return Status::error(Errc::invalid_argument,
                                     "trace line " + std::to_string(lineno) + ": bad fuzz value");
        } else if (word == "choice") {
            Decision d;
            if (!(ls >> d.index >> d.label))
                return Status::error(Errc::invalid_argument,
                                     "trace line " + std::to_string(lineno) + ": bad choice");
            t.decisions.push_back(std::move(d));
        } else {
            return Status::error(Errc::invalid_argument,
                                 "trace line " + std::to_string(lineno) +
                                     ": unknown directive '" + word + "'");
        }
    }
    return t;
}

Result<DecisionTrace> DecisionTrace::load(const std::string& path) {
    FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return Status::error(Errc::io_error, "cannot open trace file " + path);
    std::string text;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
    return parse(text);
}

ReplayController::ReplayController(DecisionTrace trace) : trace_(std::move(trace)) {
    for (const Decision& d : trace_.decisions) by_index_[d.index] = d.label;
}

std::size_t ReplayController::choose(const ChoicePoint& cp) {
    const std::uint64_t index = next_index_++;
    const auto it = by_index_.find(index);
    if (it == by_index_.end()) return 0;
    for (std::size_t i = 0; i < cp.alts.size(); ++i)
        if (cp.alts[i].label == it->second) return i;
    panic("schedule replay diverged: choice " + std::to_string(index) + " wants '" +
          it->second + "' but the " + std::string(choice_kind_name(cp.kind)) +
          " point offers no such alternative (trace from a different program?)");
}

}  // namespace scimpi::sim
