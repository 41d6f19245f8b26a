#include "obs/evgraph.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.hpp"  // json_escape

namespace scimpi::obs {

namespace {

constexpr const char* kCatNames[kEvCats] = {
    "compute", "pack", "pio",       "dma",       "link",  "proto",
    "wait_recv", "wait_sync", "retry", "coll", "rma", "sched"};

}  // namespace

const char* ev_cat_name(EvCat c) {
    const auto i = static_cast<std::size_t>(c);
    return i < kEvCats ? kCatNames[i] : "?";
}

bool ev_cat_parse(std::string_view s, EvCat& out) {
    for (int i = 0; i < kEvCats; ++i) {
        if (s == kCatNames[i]) {
            out = static_cast<EvCat>(i);
            return true;
        }
    }
    return false;
}

std::uint64_t EventGraph::node(int track, EvCat cat, std::string_view name,
                               SimTime t0, SimTime t1, std::uint64_t bytes,
                               bool transparent) {
    if (!enabled_) return 0;
    if (nodes_.size() >= cap_) {
        ++dropped_;
        return 0;
    }
    EvNode n;
    n.t0 = t0;
    n.t1 = t1;
    n.bytes = bytes;
    n.prev = last(track);
    n.name = intern(name);
    n.track = track;
    n.cat = cat;
    // Wait states never carry attribution themselves; the walk chains
    // through to whatever released them.
    n.transparent = transparent || cat == EvCat::wait_recv ||
                    cat == EvCat::wait_sync || cat == EvCat::coll;
    nodes_.push_back(n);
    const auto id = static_cast<std::uint64_t>(nodes_.size());
    last_[track] = id;
    return id;
}

void EventGraph::edge(std::uint64_t from, std::uint64_t to, EvCat cat, int a,
                      int b) {
    if (!enabled_ || from == 0 || to == 0 || from >= to) return;
    EvEdge e;
    e.from = from;
    e.to = to;
    e.a = a;
    e.b = b;
    e.cat = cat;
    edges_.push_back(e);
}

void EventGraph::message(int src, int dst, std::uint64_t bytes, SimTime latency) {
    if (!enabled_) return;
    EvMsgCell& c = traffic_[{src, dst}];
    c.src = src;
    c.dst = dst;
    c.msgs += 1;
    c.bytes += bytes;
    c.lat_sum_ns += latency > 0 ? static_cast<std::uint64_t>(latency) : 0;
}

std::vector<EvMsgCell> EventGraph::messages() const {
    std::vector<EvMsgCell> out;
    out.reserve(traffic_.size());
    for (const auto& [key, cell] : traffic_) out.push_back(cell);
    return out;
}

int EventGraph::world() const {
    int w = 0;
    for (const auto& [track, rank] : track_rank_)
        if (rank + 1 > w) w = rank + 1;
    return w;
}

void EventGraph::clear() {
    nodes_.clear();
    edges_.clear();
    last_.clear();
    traffic_.clear();
    dropped_ = 0;
}

// ---------------------------------------------------------------------------
// JSONL serialization. One self-describing record per line, discriminated by
// its leading key: {"scimpi_evlog":1,...} header, {"track":..} rank map,
// {"n":..} node, {"e":..} edge, {"m":..} message cell, {"end":1,...} trailer.

Status EventGraph::write_jsonl(const std::string& path, SimTime sim_time) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return Status::error(Errc::io_error, "evlog: cannot open '" + path +
                                                 "': " + std::strerror(errno));
    std::string out;
    out.reserve(256);
    char buf[192];
    bool ok = true;
    const auto flush = [&] {
        if (ok && std::fwrite(out.data(), 1, out.size(), f) != out.size()) ok = false;
        out.clear();
    };

    std::snprintf(buf, sizeof buf, "{\"scimpi_evlog\":1,\"world\":%d}\n", world());
    out += buf;
    for (const auto& [track, rank] : track_rank_) {
        std::snprintf(buf, sizeof buf, "{\"track\":%d,\"rank\":%d}\n", track, rank);
        out += buf;
    }
    flush();

    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const EvNode& n = nodes_[i];
        std::snprintf(buf, sizeof buf,
                      "{\"n\":%llu,\"k\":%d,\"c\":\"%s\",\"nm\":\"",
                      static_cast<unsigned long long>(i + 1), n.track,
                      ev_cat_name(n.cat));
        out += buf;
        json_escape(out, names_.name(n.name));
        std::snprintf(buf, sizeof buf, "\",\"t0\":%lld,\"t1\":%lld",
                      static_cast<long long>(n.t0), static_cast<long long>(n.t1));
        out += buf;
        if (n.bytes != 0) {
            std::snprintf(buf, sizeof buf, ",\"b\":%llu",
                          static_cast<unsigned long long>(n.bytes));
            out += buf;
        }
        if (n.prev != 0) {
            std::snprintf(buf, sizeof buf, ",\"p\":%llu",
                          static_cast<unsigned long long>(n.prev));
            out += buf;
        }
        if (n.transparent) out += ",\"x\":1";
        out += "}\n";
        if (out.size() > 64 * 1024) flush();
    }
    flush();

    for (const EvEdge& e : edges_) {
        std::snprintf(buf, sizeof buf, "{\"e\":%llu,\"to\":%llu,\"c\":\"%s\"",
                      static_cast<unsigned long long>(e.from),
                      static_cast<unsigned long long>(e.to), ev_cat_name(e.cat));
        out += buf;
        if (e.a >= 0 || e.b >= 0) {
            std::snprintf(buf, sizeof buf, ",\"a\":%d,\"b\":%d", e.a, e.b);
            out += buf;
        }
        out += "}\n";
        if (out.size() > 64 * 1024) flush();
    }
    for (const auto& [key, c] : traffic_) {
        std::snprintf(buf, sizeof buf,
                      "{\"m\":%d,\"to\":%d,\"msgs\":%llu,\"b\":%llu,\"lat\":%llu}\n",
                      c.src, c.dst, static_cast<unsigned long long>(c.msgs),
                      static_cast<unsigned long long>(c.bytes),
                      static_cast<unsigned long long>(c.lat_sum_ns));
        out += buf;
        if (out.size() > 64 * 1024) flush();
    }

    std::snprintf(buf, sizeof buf,
                  "{\"end\":1,\"nodes\":%llu,\"edges\":%llu,\"dropped\":%llu,"
                  "\"sim_time_ns\":%llu}\n",
                  static_cast<unsigned long long>(nodes_.size()),
                  static_cast<unsigned long long>(edges_.size()),
                  static_cast<unsigned long long>(dropped_),
                  static_cast<unsigned long long>(sim_time < 0 ? 0 : sim_time));
    out += buf;
    flush();

    const int write_errno = errno;
    if (std::fclose(f) != 0)
        return Status::error(Errc::io_error, "evlog: close failed for '" + path +
                                                 "': " + std::strerror(errno));
    if (!ok)
        return Status::error(Errc::io_error, "evlog: short write to '" + path +
                                                 "': " + std::strerror(write_errno));
    return Status::ok();
}

// ---------------------------------------------------------------------------
// Loader. The format is machine-written with known key order, so a targeted
// field scanner is enough — this is NOT a general JSON parser and reads only
// logs produced by write_jsonl (and hand-written test fixtures that follow
// the same shape).

namespace {

bool find_i64(const std::string& line, const char* key, long long& out) {
    const std::string probe = std::string("\"") + key + "\":";
    const std::size_t pos = line.find(probe);
    if (pos == std::string::npos) return false;
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(line.c_str() + pos + probe.size(), &end, 10);
    if (end == line.c_str() + pos + probe.size() || errno == ERANGE) return false;
    out = v;
    return true;
}

bool find_str(const std::string& line, const char* key, std::string& out) {
    const std::string probe = std::string("\"") + key + "\":\"";
    const std::size_t pos = line.find(probe);
    if (pos == std::string::npos) return false;
    out.clear();
    for (std::size_t i = pos + probe.size(); i < line.size(); ++i) {
        const char c = line[i];
        if (c == '"') return true;
        if (c == '\\' && i + 1 < line.size()) {
            const char n = line[++i];
            switch (n) {
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u':
                    // Writer only emits \u00XX for control bytes; decode those.
                    if (i + 4 < line.size()) {
                        out += static_cast<char>(
                            std::strtol(line.substr(i + 1, 4).c_str(), nullptr, 16));
                        i += 4;
                    }
                    break;
                default: out += n; break;
            }
        } else {
            out += c;
        }
    }
    return false;  // unterminated string: torn line
}

}  // namespace

Result<EvLogLoaded> EventGraph::load_jsonl(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return Status::error(Errc::io_error, "evlog: cannot open '" + path +
                                                 "': " + std::strerror(errno));
    EvLogLoaded result;
    result.graph.enable();
    result.graph.set_cap(~std::size_t{0});
    result.truncated = true;  // until the trailer proves otherwise
    bool header_seen = false;
    std::string line;
    char chunk[1 << 16];
    std::string carry;
    bool done = false;
    while (!done) {
        const std::size_t got = std::fread(chunk, 1, sizeof chunk, f);
        if (got == 0) {
            done = true;
            line = carry;  // final unterminated line (torn trailer): ignore below
            carry.clear();
        } else {
            carry.append(chunk, got);
        }
        std::size_t start = 0;
        for (;;) {
            const std::size_t nl = carry.find('\n', start);
            if (nl == std::string::npos) break;
            line.assign(carry, start, nl - start);
            start = nl + 1;

            long long v = 0;
            if (!header_seen) {
                if (!find_i64(line, "scimpi_evlog", v) || v != 1) {
                    std::fclose(f);
                    return Status::error(Errc::invalid_argument,
                                         "evlog: '" + path +
                                             "' is not a scimpi event log");
                }
                if (find_i64(line, "world", v)) result.world = static_cast<int>(v);
                header_seen = true;
                continue;
            }
            if (find_i64(line, "end", v)) {
                result.truncated = false;
                if (find_i64(line, "sim_time_ns", v) && v >= 0)
                    result.sim_time_ns = static_cast<std::uint64_t>(v);
                continue;
            }
            if (find_i64(line, "track", v)) {
                const int track = static_cast<int>(v);
                if (find_i64(line, "rank", v))
                    result.graph.set_track_rank(track, static_cast<int>(v));
                continue;
            }
            if (find_i64(line, "n", v) && line.compare(0, 5, "{\"n\":") == 0) {
                long long track = 0, t0 = 0, t1 = 0, bytes = 0, x = 0;
                std::string cat_s, nm;
                EvCat cat = EvCat::compute;
                (void)find_i64(line, "k", track);
                (void)find_i64(line, "t0", t0);
                (void)find_i64(line, "t1", t1);
                (void)find_i64(line, "b", bytes);
                (void)find_i64(line, "x", x);
                if (find_str(line, "c", cat_s)) (void)ev_cat_parse(cat_s, cat);
                (void)find_str(line, "nm", nm);
                // node() re-derives prev from per-track order, matching the
                // writer's chain because nodes serialize in id order.
                (void)result.graph.node(static_cast<int>(track), cat, nm, t0, t1,
                                        bytes < 0 ? 0 : static_cast<std::uint64_t>(bytes),
                                        x != 0);
                continue;
            }
            if (find_i64(line, "e", v) && line.compare(0, 5, "{\"e\":") == 0) {
                const auto from = static_cast<std::uint64_t>(v);
                long long to = 0, a = -1, b = -1;
                std::string cat_s;
                EvCat cat = EvCat::sched;
                if (!find_i64(line, "to", to)) continue;
                (void)find_i64(line, "a", a);
                (void)find_i64(line, "b", b);
                if (find_str(line, "c", cat_s)) (void)ev_cat_parse(cat_s, cat);
                if (from >= 1 && to >= 1 &&
                    static_cast<std::uint64_t>(to) <= result.graph.nodes().size() &&
                    from <= result.graph.nodes().size())
                    result.graph.edge(from, static_cast<std::uint64_t>(to), cat,
                                      static_cast<int>(a), static_cast<int>(b));
                continue;
            }
            if (find_i64(line, "m", v) && line.compare(0, 5, "{\"m\":") == 0) {
                const int src = static_cast<int>(v);
                long long to = 0, msgs = 0, bytes = 0, lat = 0;
                if (!find_i64(line, "to", to)) continue;
                (void)find_i64(line, "msgs", msgs);
                (void)find_i64(line, "b", bytes);
                (void)find_i64(line, "lat", lat);
                EvMsgCell& c = result.graph.traffic_[{src, static_cast<int>(to)}];
                c.src = src;
                c.dst = static_cast<int>(to);
                c.msgs += msgs < 0 ? 0 : static_cast<std::uint64_t>(msgs);
                c.bytes += bytes < 0 ? 0 : static_cast<std::uint64_t>(bytes);
                c.lat_sum_ns += lat < 0 ? 0 : static_cast<std::uint64_t>(lat);
                continue;
            }
            // Unknown/torn record inside an otherwise valid log: skip.
        }
        carry.erase(0, start);
    }
    std::fclose(f);
    if (!header_seen)
        return Status::error(Errc::invalid_argument,
                             "evlog: '" + path + "' is empty or not a scimpi event log");
    if (result.truncated && result.sim_time_ns == 0 && !result.graph.nodes().empty()) {
        // Best-effort end time for truncated logs: the latest completion.
        SimTime end = 0;
        for (const EvNode& n : result.graph.nodes()) end = std::max(end, n.t1);
        result.sim_time_ns = static_cast<std::uint64_t>(end);
    }
    return result;
}

// ---------------------------------------------------------------------------
// Critical-path extraction.

namespace {

struct Pred {
    std::uint64_t from;
    const EvEdge* edge;  // nullptr for the program-order link
};

}  // namespace

CriticalPath critical_path(const EventGraph& g, SimTime end_time) {
    CriticalPath cp;
    if (end_time < 0) end_time = 0;
    cp.total_ns = static_cast<std::uint64_t>(end_time);
    const std::vector<EvNode>& nodes = g.nodes();

    const auto attr = [&](EvCat cat, int track, SimTime lo, SimTime hi, int la,
                          int lb) {
        if (hi <= lo) return;
        const auto ns = static_cast<std::uint64_t>(hi - lo);
        cp.cat_ns[static_cast<std::size_t>(cat)] += ns;
        if (cat == EvCat::link)
            cp.link_ns[std::to_string(la) + "->" + std::to_string(lb)] += ns;
        else if (const int rank = g.rank_of(track); rank >= 0)
            cp.rank_ns[rank] += ns;
        cp.segments.push_back({cat, lo, hi, track, la, lb});
    };

    if (nodes.empty()) {
        attr(EvCat::compute, -1, 0, end_time, -1, -1);
        return cp;
    }

    // Cross-edge predecessor index.
    std::vector<std::vector<const EvEdge*>> preds(nodes.size() + 1);
    for (const EvEdge& e : g.edges())
        if (e.to <= nodes.size() && e.from < e.to) preds[e.to].push_back(&e);

    // Start at the latest completion (ties: larger id, the later-scheduled).
    std::uint64_t cur = 1;
    for (std::uint64_t i = 2; i <= nodes.size(); ++i)
        if (nodes[i - 1].t1 >= nodes[cur - 1].t1) cur = i;

    SimTime cursor = end_time;
    // Node ids only ever step down (edges point forward in id space), so the
    // walk terminates; the step bound is a second guard for malformed logs.
    for (std::size_t guard = 0; guard <= nodes.size(); ++guard) {
        const EvNode& n = nodes[cur - 1];
        ++cp.steps;

        // Tail beyond this node (only the start node, defensively elsewhere):
        // nothing was happening on the path — application time.
        if (cursor > n.t1) {
            attr(n.transparent ? n.cat : EvCat::compute, n.track, n.t1, cursor, -1, -1);
            cursor = n.t1;
        }
        if (!n.transparent) {
            const SimTime lo = std::max<SimTime>(n.t0, 0);
            attr(n.cat, n.track, lo, std::min(cursor, n.t1), -1, -1);
            cursor = std::min(cursor, lo);
        }

        // Latest-finishing predecessor among the program-order link and all
        // cross edges; only earlier ids qualify (defends against bad logs).
        std::uint64_t best = n.prev < cur ? n.prev : 0;
        const EvEdge* best_edge = nullptr;
        for (const EvEdge* e : preds[cur]) {
            if (e->from >= cur) continue;
            if (best == 0 || nodes[e->from - 1].t1 > nodes[best - 1].t1 ||
                (nodes[e->from - 1].t1 == nodes[best - 1].t1 && e->from > best)) {
                best = e->from;
                best_edge = e;
            }
        }
        if (best == 0) {
            attr(EvCat::compute, n.track, 0, cursor, -1, -1);
            return cp;
        }
        const EvNode& p = nodes[best - 1];
        if (p.t1 < cursor) {
            // The gap the chosen dependency spans: an explicit edge charges
            // its own category (link gaps name the a->b pair and skip rank
            // blame); a program-order gap out of a transparent node keeps
            // the wait's category; otherwise the rank was computing.
            if (best_edge != nullptr) {
                attr(best_edge->cat, p.track, p.t1, cursor, best_edge->a,
                     best_edge->b);
            } else {
                attr(n.transparent ? n.cat : EvCat::compute, n.track, p.t1, cursor,
                     -1, -1);
            }
            cursor = p.t1;
        }
        cur = best;
    }
    // Guard tripped (cycle in a hand-corrupted log): close the books so the
    // invariant "categories tile total_ns" still holds.
    attr(EvCat::sched, nodes[cur - 1].track, 0, cursor, -1, -1);
    return cp;
}

}  // namespace scimpi::obs
