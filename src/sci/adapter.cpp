#include "sci/adapter.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "check/checker.hpp"
#include "mem/copy_block.hpp"
#include "mem/copy_model.hpp"

namespace scimpi::sci {

namespace {
constexpr std::size_t round_up(std::size_t v, std::size_t a) { return (v + a - 1) / a * a; }
constexpr std::size_t round_down(std::size_t v, std::size_t a) { return v / a * a; }
}  // namespace

SciAdapter::SciAdapter(int node, Fabric& fabric, mem::MachineProfile host, Config cfg,
                       obs::MetricsRegistry& metrics)
    : node_(node),
      fabric_(fabric),
      host_(std::move(host)),
      cfg_(cfg),
      rng_(cfg.seed * 0x51ed2701u + static_cast<std::uint64_t>(node) + 1),
      write_calls_c_(metrics.counter("sci.write_calls", node)),
      pio_bytes_c_(metrics.counter("sci.pio_bytes", node)),
      read_bytes_c_(metrics.counter("sci.read_bytes", node)),
      dma_bytes_c_(metrics.counter("sci.dma_bytes", node)),
      restarts_c_(metrics.counter("sci.stream_restarts", node)),
      gather_timeouts_c_(metrics.counter("sci.gather_timeouts", node)),
      retries_c_(metrics.counter("sci.retries", node)),
      barriers_c_(metrics.counter("sci.store_barriers", node)),
      probes_c_(metrics.counter("sci.probes", node)),
      probe_fail_c_(metrics.counter("sci.probe_failures", node)),
      stall_waits_c_(metrics.counter("sci.adapter_stall_waits", node)) {}

void SciAdapter::wait_if_stalled(sim::Process& self) {
    if (self.now() >= stall_until_) return;
    stall_waits_c_.inc();
    // The stall may be extended while we wait, so loop until clear.
    while (self.now() < stall_until_) self.delay(stall_until_ - self.now());
}

std::optional<Status> SciAdapter::begin_access(sim::Process& self, const SciMapping& map,
                                               std::size_t off, std::size_t len,
                                               bool is_store, const char* what,
                                               RoutePath& path) {
    SCIMPI_REQUIRE(off + len <= map.size(), std::string(what) + " out of segment bounds");
    if (len == 0) return Status::ok();
    if (checker_ != nullptr)
        checker_->on_segment_access(map.seg.node, map.seg.id, self.id(), off, len,
                                    is_store, self.now());
    wait_if_stalled(self);
    if (!map.remote()) return std::nullopt;
    // Loads travel target -> node: the response path is what matters.
    const int from = is_store ? node_ : map.target_node;
    const int to = is_store ? map.target_node : node_;
    path = fabric_.resolve_route(from, to);
    if (!path.healthy)
        return Status::error(Errc::link_failure, fabric_.describe_down_route(from, to));
    return std::nullopt;
}

SciAdapter::StreamState& SciAdapter::stream(int pid) {
    const auto i = static_cast<std::size_t>(pid);
    if (i >= streams_.size()) streams_.resize(i + 1);
    return streams_[i];
}

int& SciAdapter::pending_stores(int pid) {
    const auto i = static_cast<std::size_t>(pid);
    if (i >= pending_stores_.size()) pending_stores_.resize(i + 1);
    return pending_stores_[i];
}

std::byte* SciAdapter::post_store(sim::Process& self, std::byte* dst, std::size_t len) {
    StoreBuffer& buf = fabric_.store_buffer();
    const std::uint64_t id = buf.post(dst, len, self.id());
    ++pending_stores(self.id());
    self.engine().after(fabric_.params().write_latency, [this, id] { land(id); });
    return buf.data(id);
}

void SciAdapter::land(std::uint64_t id) {
    const int pid = fabric_.store_buffer().land(id);
    if (--pending_stores_[static_cast<std::size_t>(pid)] == 0) barrier_waiters_.wake_all();
}

double SciAdapter::route_error_rate(const RoutePath& path) const {
    return std::max(cfg_.link_error_rate, fabric_.route_error_rate(path));
}

SimTime SciAdapter::partial_segment_cost(std::size_t off, std::size_t len) {
    const SciParams& p = fabric_.params();
    SimTime t = transfer_time(len, p.burst_bw);
    // Greedy naturally-aligned power-of-two decomposition, as the PCI bridge
    // splits a partial write-combine flush into individual transactions.
    std::size_t pos = off;
    std::size_t left = len;
    while (left > 0) {
        std::size_t chunk = p.wc_line;
        while (chunk > left || (pos % chunk) != 0) chunk /= 2;
        if (chunk >= 8) {
            t += p.txn_overhead;
        } else {
            t += p.txn_misaligned;
        }
        pos += chunk;
        left -= chunk;
    }
    return t;
}

SimTime SciAdapter::wc_write_time(StreamState& st, const SciMapping& map,
                                  std::size_t off, std::size_t len) {
    const SciParams& p = fabric_.params();

    if (!cfg_.write_combine) {
        // Every store goes out individually; insensitive to stride but slow.
        st.valid = false;
        return transfer_time(len, p.uncached_bw);
    }

    const bool continuation = st.valid && st.seg == map.seg && st.next_off == off;
    if (continuation) {
        st.next_off = off + len;
        if (len < p.wc_gather_min) {
            // The source-side pause between tiny blocks lets the WC buffer
            // time out and flush partially.
            gather_timeouts_c_.inc();
            return p.wc_gather_timeout + transfer_time(len, p.burst_bw);
        }
        return transfer_time(len, p.burst_bw);
    }

    // Jump: the WC buffer's previous content was already charged as its own
    // transmission when it was written; only the stream re-arm costs extra.
    SimTime t = 0;
    if (cfg_.stream_buffers) t += p.stream_restart;
    restarts_c_.inc();

    const std::size_t line = p.wc_line;
    const std::size_t head_end = std::min(round_up(off, line), off + len);
    const std::size_t full_end = std::max(round_down(off + len, line), head_end);
    const std::size_t head = head_end - off;
    const std::size_t full = full_end - head_end;
    const std::size_t tail = off + len - full_end;

    if (head > 0) t += partial_segment_cost(off, head);
    if (tail > 0) t += partial_segment_cost(full_end, tail);
    if (full > 0) {
        if (cfg_.stream_buffers) {
            const std::size_t ramp = std::min(full, p.stream_ramp);
            t += transfer_time(ramp, p.strided_burst_bw);
            t += transfer_time(full - ramp, p.burst_bw);
        } else {
            // Without gathering, every line is its own SCI transaction.
            t += static_cast<SimTime>(full / line) * p.txn_overhead;
            t += transfer_time(full, p.burst_bw);
        }
    }

    st.valid = true;
    st.seg = map.seg;
    st.next_off = off + len;
    return t;
}

Status SciAdapter::inject_errors(std::size_t packets, SimTime* t, double rate) {
    if (rate <= 0.0 || packets == 0) return Status::ok();
    const SciParams& p = fabric_.params();
    for (std::size_t i = 0; i < packets; ++i) {
        int attempts = 0;
        while (rng_.chance(rate)) {
            ++attempts;
            retries_c_.inc();
            *t += p.retry_penalty;
            if (attempts >= cfg_.max_retries)
                return Status::error(Errc::link_failure,
                                     "transaction exceeded retry budget (node " +
                                         std::to_string(node_) + ")");
        }
    }
    return Status::ok();
}

Status SciAdapter::write(sim::Process& self, const SciMapping& map, std::size_t off,
                         const void* src, std::size_t len, std::size_t src_traffic) {
    RoutePath path;
    if (auto done = begin_access(self, map, off, len, /*is_store=*/true, "remote write",
                                 path))
        return *done;
    if (src_traffic == 0) src_traffic = len;
    write_calls_c_.inc();
    pio_bytes_c_.add(len);

    if (!map.remote()) {
        // Loopback mapping: an ordinary cached local copy.
        mem::CopyModel cm(host_);
        self.delay(cm.copy_cost(len, {}, {}));
        std::memcpy(map.mem.data() + off, src, len);
        return Status::ok();
    }

    const SciParams& p = fabric_.params();
    SimTime t_wire = wc_write_time(stream(self.id()), map, off, len);

    // Source feed: the CPU reads the data locally while pushing it out.
    const double feed_bw =
        src_traffic <= host_.l2_size ? host_.copy_bw_l2 : p.pio_src_mem_bw;
    const SimTime t_src = transfer_time(src_traffic, feed_bw);
    SimTime t = std::max(t_wire, t_src);

    // Link contention can throttle below the adapter's own rate.
    const double link_bw = fabric_.begin_transfer(path, 1e9);
    fabric_.trace_load(self, path);
    const SimTime t_link = transfer_time(len, link_bw);
    t = std::max(t, t_link);

    const std::size_t packets = (len + p.sci_packet - 1) / p.sci_packet;
    const Status err = inject_errors(packets, &t, route_error_rate(path));

    self.delay(t);
    fabric_.end_transfer(path, len);
    fabric_.trace_load(self, path);
    if (!err) return err;  // data of the failed transaction never lands

    // The stores are posted: they land after the pipeline latency.
    std::memcpy(post_store(self, map.mem.data() + off, len), src, len);
    return Status::ok();
}

SimTime SciAdapter::pio_stream_cost(std::size_t len, std::size_t src_traffic) const {
    if (len == 0) return 0;
    if (src_traffic == 0) src_traffic = len;
    const SciParams& p = fabric_.params();
    SimTime t_wire = p.stream_restart;
    const std::size_t ramp = std::min(len, p.stream_ramp);
    t_wire += transfer_time(ramp, p.strided_burst_bw);
    t_wire += transfer_time(len - ramp, p.burst_bw);
    const double feed_bw =
        src_traffic <= host_.l2_size ? host_.copy_bw_l2 : p.pio_src_mem_bw;
    return std::max(t_wire, transfer_time(src_traffic, feed_bw));
}

Status SciAdapter::write_gather(sim::Process& self, const SciMapping& map,
                                std::size_t off, std::span<const ConstIovec> blocks,
                                std::size_t src_traffic) {
    std::size_t total = 0;
    for (const auto& b : blocks) total += b.len;
    // Gathered blocks land back to back at `off` (the destination is
    // contiguous, only the source is scattered), so the single
    // [off, off+total) record covers exactly the bytes written.
    RoutePath path;
    if (auto done = begin_access(self, map, off, total, /*is_store=*/true, "gather write",
                                 path))
        return *done;
    if (src_traffic == 0) src_traffic = total;
    write_calls_c_.inc();
    pio_bytes_c_.add(total);

    if (!map.remote()) {
        // Local scatter-gather copy: strided source, contiguous destination.
        mem::CopyModel cm(host_);
        const std::size_t avg =
            std::max<std::size_t>(1, total / std::max<std::size_t>(1, blocks.size()));
        self.delay(cm.copy_cost(total, mem::AccessPattern::strided(avg, avg * 2), {},
                                blocks.size()));
        mem::copy_gather(map.mem.data() + off, blocks);
        return Status::ok();
    }

    const SciParams& p = fabric_.params();
    // Wire time: the first block jumps to `off`, the rest continue the
    // stream. The per-block CPU work (ff stack arithmetic, address
    // generation) stalls the store pipeline, so it adds to the wire time.
    SimTime t_wire = static_cast<SimTime>(blocks.size()) * host_.per_block_overhead;
    StreamState& st = stream(self.id());
    std::size_t cursor = off;
    for (const auto& b : blocks) {
        t_wire += wc_write_time(st, map, cursor, b.len);
        cursor += b.len;
    }
    const double feed_bw =
        src_traffic <= host_.l2_size ? host_.copy_bw_l2 : p.pio_src_mem_bw;
    SimTime t = std::max(t_wire, transfer_time(src_traffic, feed_bw));

    const double link_bw = fabric_.begin_transfer(path, 1e9);
    fabric_.trace_load(self, path);
    t = std::max(t, transfer_time(total, link_bw));
    const std::size_t packets = (total + p.sci_packet - 1) / p.sci_packet;
    const Status err = inject_errors(packets, &t, route_error_rate(path));

    self.delay(t);
    fabric_.end_transfer(path, total);
    fabric_.trace_load(self, path);
    if (!err) return err;

    mem::copy_gather(post_store(self, map.mem.data() + off, total), blocks);
    return Status::ok();
}

Status SciAdapter::read(sim::Process& self, const SciMapping& map, std::size_t off,
                        void* dst, std::size_t len) {
    RoutePath path;
    if (auto done = begin_access(self, map, off, len, /*is_store=*/false, "remote read",
                                 path))
        return *done;
    read_bytes_c_.add(len);

    if (!map.remote()) {
        mem::CopyModel cm(host_);
        self.delay(cm.copy_cost(len, {}, {}));
        std::memcpy(dst, map.mem.data() + off, len);
        return Status::ok();
    }

    const SciParams& p = fabric_.params();
    const std::size_t txns = (len + p.read_txn_bytes - 1) / p.read_txn_bytes;
    SimTime t = static_cast<SimTime>(txns) * p.read_latency;

    const double link_bw = fabric_.begin_transfer(path, 1e9);
    fabric_.trace_load(self, path);
    t = std::max(t, transfer_time(len, link_bw));
    const Status err = inject_errors(txns, &t, route_error_rate(path));

    self.delay(t);
    fabric_.end_transfer(path, len);
    fabric_.trace_load(self, path);
    if (!err) return err;

    // Loads stall the CPU: the data is current as of completion time.
    std::memcpy(dst, map.mem.data() + off, len);
    return Status::ok();
}


Status SciAdapter::dma_write_gather(sim::Process& self, const SciMapping& map,
                                    std::size_t off,
                                    std::span<const ConstIovec> blocks) {
    return dma(self, map, off, blocks, blocks.size(), "DMA gather");
}

Status SciAdapter::dma(sim::Process& self, const SciMapping& map, std::size_t off,
                       std::span<const ConstIovec> blocks, std::size_t descs,
                       const char* what) {
    std::size_t total = 0;
    for (const auto& b : blocks) total += b.len;
    RoutePath path;
    if (auto done = begin_access(self, map, off, total, /*is_store=*/true, what, path))
        return *done;
    const SciParams& p = fabric_.params();
    dma_bytes_c_.add(total);
    // Descriptor chain setup: one per gathered block. This is why DMA pays
    // off only for large basic blocks (Section 6 outlook).
    self.delay(p.dma_startup + static_cast<SimTime>(descs) * p.dma_desc_cost);
    if (map.remote()) {
        const std::size_t packets = (total + p.sci_packet - 1) / p.sci_packet;
        SimTime t_err = 0;
        const Status err = inject_errors(packets, &t_err, route_error_rate(path));
        if (t_err > 0) self.delay(t_err);
        if (!err) return err;
        fabric_.timed_transfer(self, path, total, p.dma_bw);
    } else {
        self.delay(transfer_time(total, p.dma_bw));
    }
    mem::copy_gather(map.mem.data() + off, blocks);
    return Status::ok();
}

bool SciAdapter::probe_peer(sim::Process& self, int peer_node) {
    const SciParams& p = fabric_.params();
    probes_c_.inc();
    if (peer_node == node_) {
        self.delay(100);
        return true;
    }
    wait_if_stalled(self);
    if (!fabric_.route_usable(node_, peer_node) ||
        !fabric_.route_usable(peer_node, node_)) {
        // Probe times out after the retry budget.
        self.delay(static_cast<SimTime>(cfg_.max_retries) * p.retry_penalty);
        probe_fail_c_.inc();
        return false;
    }
    self.delay(p.read_latency);  // one small round trip
    return true;
}

void SciAdapter::store_barrier(sim::Process& self) {
    const SciParams& p = fabric_.params();
    barriers_c_.inc();
    SimTime t = p.barrier_latency;
    StreamState& st = stream(self.id());
    if (st.valid) {
        t += p.txn_overhead;  // flush the write-combine remainder
        st.valid = false;
    }
    self.delay(t);
    while (pending_stores(self.id()) > 0)
        barrier_waiters_.park(self, "store barrier");
}

Status SciAdapter::dma_write(sim::Process& self, const SciMapping& map, std::size_t off,
                             const void* src, std::size_t len) {
    const ConstIovec one{src, len};
    return dma(self, map, off, {&one, 1}, 0, "DMA write");
}

}  // namespace scimpi::sci
