#include "sci/fabric.hpp"

#include <algorithm>
#include <string>

#include "sim/engine.hpp"

namespace scimpi::sci {

Fabric::Fabric(Topology topo, SciParams params)
    : topo_(std::move(topo)),
      params_(params),
      load_(static_cast<std::size_t>(topo_.links()), 0.0),
      up_(static_cast<std::size_t>(topo_.links()), 1),
      error_rate_(static_cast<std::size_t>(topo_.links()), 0.0),
      stats_(static_cast<std::size_t>(topo_.links())) {}

void Fabric::bind_metrics(obs::MetricsRegistry& m) {
    payload_bytes_c_ = &m.counter("fabric.payload_bytes");
    wire_bytes_c_ = &m.counter("fabric.wire_bytes");
    echo_bytes_c_ = &m.counter("fabric.echo_bytes");
    transfers_c_ = &m.counter("fabric.transfers");
    link_down_c_ = &m.counter("fabric.link_down_events");
    link_up_c_ = &m.counter("fabric.link_up_events");
    reroutes_c_ = &m.counter("fabric.reroutes");
    active_g_ = &m.gauge("fabric.concurrent_transfers");
}

namespace {
/// First down link on `route`, or -1 when every link is up.
int first_down(const std::vector<char>& up, const Route& route) {
    int down = -1;
    route.for_each_link([&](int link) {
        if (down < 0 && up[static_cast<std::size_t>(link)] == 0) down = link;
    });
    return down;
}
}  // namespace

bool Fabric::all_up(const Route& route) const {
    return down_links_ == 0 || first_down(up_, route) < 0;
}

RoutePath Fabric::resolve_route(int src, int dst) {
    RoutePath p{src, dst, topo_.route(src, dst), topo_.echo_route(src, dst)};
    p.healthy = all_up(p.fwd);
    if (!p.healthy) {
        const Route alt = topo_.alt_route(src, dst);
        if (alt != p.fwd && all_up(alt)) {
            p.fwd = alt;
            p.echo = topo_.alt_route(dst, src);
            p.healthy = true;
            p.rerouted = true;
            ++reroutes_;
            if (reroutes_c_ != nullptr) reroutes_c_->inc();
        }
    }
    return p;
}

bool Fabric::route_usable(int src, int dst) {
    if (route_healthy(src, dst)) return true;
    const Route alt = topo_.alt_route(src, dst);
    return alt != topo_.route(src, dst) && all_up(alt);
}

double Fabric::effective_bw(const RoutePath& path, double src_cap) const {
    double bw = src_cap;
    // Headers consume link bandwidth alongside payload.
    const double payload_eff =
        static_cast<double>(params_.sci_packet) /
        static_cast<double>(params_.sci_packet + params_.header_bytes);
    path.fwd.for_each_link([&](int link) {
        const double users = std::max(1.0, load_[static_cast<std::size_t>(link)]);
        const double share = params_.nominal_link_bw() * payload_eff / users;
        bw = std::min(bw, share);
    });
    return bw;
}

double Fabric::begin_transfer(const RoutePath& path, double src_cap) {
    // One walk: register on each forward link and read its share. A route
    // and its echo never share a link (on every ring they both use, they
    // run opposite ways round), so each forward load read here is already
    // the one effective_bw sees once the transfer is registered.
    double bw = src_cap;
    const double payload_eff =
        static_cast<double>(params_.sci_packet) /
        static_cast<double>(params_.sci_packet + params_.header_bytes);
    const double link_eff = params_.nominal_link_bw() * payload_eff;
    path.fwd.for_each_link([&](int link) {
        double& load = load_[static_cast<std::size_t>(link)];
        load += 1.0;
        bw = std::min(bw, link_eff / std::max(1.0, load));
    });
    path.echo.for_each_link(
        [&](int link) { load_[static_cast<std::size_t>(link)] += params_.echo_fraction; });
    ++active_transfers_;
    peak_transfers_ = std::max(peak_transfers_, active_transfers_);
    if (transfers_c_ != nullptr) transfers_c_->inc();
    if (active_g_ != nullptr) active_g_->set(active_transfers_);
    return bw;
}

void Fabric::end_transfer(const RoutePath& path, std::size_t payload) {
    SCIMPI_REQUIRE(active_transfers_ > 0, "end_transfer without begin_transfer");
    --active_transfers_;
    if (active_g_ != nullptr) active_g_->set(active_transfers_);
    const bool moved = path.src != path.dst && payload > 0;
    const std::size_t packets = (payload + params_.sci_packet - 1) / params_.sci_packet;
    const std::size_t wire = payload + packets * params_.header_bytes;
    const auto echo = static_cast<std::uint64_t>(
        static_cast<double>(payload) * params_.echo_fraction);
    path.fwd.for_each_link([&](int link) {
        const auto l = static_cast<std::size_t>(link);
        if (moved) {
            stats_[l].payload_bytes += payload;
            stats_[l].wire_bytes += wire;
        }
        SCIMPI_REQUIRE(load_[l] >= 1.0 - 1e-9, "end_transfer underflow");
        load_[l] -= 1.0;
    });
    path.echo.for_each_link([&](int link) {
        const auto l = static_cast<std::size_t>(link);
        if (moved) stats_[l].echo_bytes += echo;
        SCIMPI_REQUIRE(load_[l] >= params_.echo_fraction - 1e-9,
                       "end_transfer echo underflow");
        load_[l] -= params_.echo_fraction;
    });
    if (moved) count_bytes(path, payload, wire, echo);
}

void Fabric::count_bytes(const RoutePath& path, std::uint64_t payload, std::uint64_t wire,
                         std::uint64_t echo) {
    if (payload_bytes_c_ == nullptr) return;
    const auto hops = static_cast<std::uint64_t>(path.fwd.hops());
    payload_bytes_c_->add(payload * hops);
    wire_bytes_c_->add(wire * hops);
    echo_bytes_c_->add(echo * static_cast<std::uint64_t>(path.echo.hops()));
}

void Fabric::account(int src, int dst, std::size_t payload) {
    if (src == dst || payload == 0) return;
    account(RoutePath{src, dst, topo_.route(src, dst), topo_.echo_route(src, dst)}, payload);
}

void Fabric::account(const RoutePath& path, std::size_t payload) {
    if (path.src == path.dst || payload == 0) return;
    const std::size_t packets = (payload + params_.sci_packet - 1) / params_.sci_packet;
    const std::size_t wire = payload + packets * params_.header_bytes;
    const auto echo = static_cast<std::uint64_t>(
        static_cast<double>(payload) * params_.echo_fraction);
    path.fwd.for_each_link([&](int link) {
        auto& s = stats_[static_cast<std::size_t>(link)];
        s.payload_bytes += payload;
        s.wire_bytes += wire;
    });
    path.echo.for_each_link(
        [&](int link) { stats_[static_cast<std::size_t>(link)].echo_bytes += echo; });
    count_bytes(path, payload, wire, echo);
}

void Fabric::trace_load(sim::Process& self, const RoutePath& path) {
    sim::Tracer& tr = self.engine().tracer();
    if (!tr.enabled()) return;
    if (link_track_names_.empty()) {
        link_track_names_.reserve(static_cast<std::size_t>(topo_.links()));
        for (int l = 0; l < topo_.links(); ++l)
            link_track_names_.push_back("link" + std::to_string(l) + ".load");
    }
    tr.counter("fabric.active_transfers", self.now(), active_transfers_);
    path.fwd.for_each_link([&](int link) {
        tr.counter(link_track_names_[static_cast<std::size_t>(link)], self.now(),
                   load_[static_cast<std::size_t>(link)]);
    });
}

SimTime Fabric::timed_transfer(sim::Process& self, const RoutePath& path,
                               std::size_t bytes, double src_cap, std::size_t chunk) {
    if (bytes == 0) return 0;
    if (path.src == path.dst) {
        // Local move at the source cap; no fabric involvement.
        const SimTime t = transfer_time(bytes, src_cap);
        self.delay(t);
        return t;
    }
    SCIMPI_REQUIRE(chunk > 0, "timed_transfer with zero chunk");
    double bw = begin_transfer(path, src_cap);
    trace_load(self, path);
    inflight_bytes_ += bytes;
    SimTime total = 0;
    std::size_t left = bytes;
    for (;;) {
        const std::size_t n = std::min(left, chunk);
        const SimTime t = transfer_time(n, bw);
        self.delay(t);
        inflight_bytes_ -= n;
        total += t;
        left -= n;
        if (left == 0) {
            end_transfer(path, n);
            break;
        }
        account(path, n);
        bw = effective_bw(path, src_cap);  // contention may have changed
    }
    trace_load(self, path);
    return total;
}

void Fabric::set_link_up(int link, bool up) {
    auto& cell = up_.at(static_cast<std::size_t>(link));
    const char want = up ? 1 : 0;
    if (cell == want) return;  // idempotent: only real state changes count
    cell = want;
    down_links_ += up ? -1 : 1;
    obs::Counter* events_c = up ? link_up_c_ : link_down_c_;
    if (events_c != nullptr) events_c->inc();
    if (engine_ != nullptr && engine_->tracer().enabled()) {
        const std::string mark = std::string(up ? "link_up " : "link_down ") +
                                 std::to_string(link) + " (" +
                                 std::to_string(topo_.link_from(link)) + "->" +
                                 std::to_string(topo_.link_to(link)) + ")";
        engine_->tracer().instant(0, mark, engine_->now());
    }
    if (link_listener_) link_listener_(link, up);
}

bool Fabric::route_healthy(int src, int dst) const {
    return all_up(topo_.route(src, dst));
}

std::string Fabric::describe_down_route(int src, int dst) const {
    if (down_links_ == 0) return {};
    const int link = first_down(up_, topo_.route(src, dst));
    if (link < 0) return {};
    return "route " + std::to_string(src) + "->" + std::to_string(dst) + " down at link " +
           std::to_string(link) + " (" + std::to_string(topo_.link_from(link)) + "->" +
           std::to_string(topo_.link_to(link)) + ")";
}

void Fabric::set_link_error_rate(int link, double rate) {
    double& cell = error_rate_.at(static_cast<std::size_t>(link));
    error_links_ += (rate > 0.0 ? 1 : 0) - (cell > 0.0 ? 1 : 0);
    cell = rate;
}

double Fabric::route_error_rate(const RoutePath& path) const {
    double r = 0.0;
    if (error_links_ == 0) return r;
    path.fwd.for_each_link(
        [&](int link) { r = std::max(r, error_rate_[static_cast<std::size_t>(link)]); });
    return r;
}

void Fabric::reset_stats() {
    std::fill(stats_.begin(), stats_.end(), LinkStats{});
}

std::uint64_t Fabric::total_wire_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& s : stats_) sum += s.total();
    return sum;
}

}  // namespace scimpi::sci
