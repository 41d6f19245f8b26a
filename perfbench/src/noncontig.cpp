// noncontig_pack: 2 nodes x 2 procs/node, so inter-node SCI pairs and
// intra-node shared-memory pairs both run. Every message is a seed-drawn
// derived datatype (vector, indexed, struct or subarray) with 8 B - 4 KiB
// blocks and at least 256 KiB of payload, sent with Comm::send after a
// Comm::pack / Comm::unpack round trip of the same buffer. Dominated by
// datatype flattening, direct_pack_ff and the SCI write-combine model; few
// events and a tiny set-up.
//
// The driver keeps its own description of each type (the block list in
// MsgSpec), so every byte the library moves is checked against a layout the
// library did not compute.
#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "mpi/comm.hpp"
#include "spans.hpp"
#include "util.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using scimpi::mpi::Comm;
using scimpi::mpi::Datatype;

constexpr int kRanks = 4;
constexpr std::byte kSentinel{0xA5};
constexpr std::size_t kMinPayload = 256 * 1024;

enum class Shape : std::uint8_t { vector, indexed, strukt, subarray };

struct Block {
    std::size_t off = 0;
    std::size_t len = 0;
};

/// One message: how to build its type, and the byte layout it must have.
struct MsgSpec {
    Shape shape = Shape::vector;
    int count = 1;                  ///< instances passed to send/pack
    std::vector<int> ints;          ///< shape parameters (see build_type)
    std::size_t extent = 0;         ///< bytes of the user buffer
    std::size_t payload = 0;        ///< bytes in the type map
    std::vector<Block> blocks;      ///< reference type map, buffer-relative
    std::uint64_t fill_seed = 0;    ///< sender buffer contents
};

Datatype build_type(const MsgSpec& m) {
    const auto f64 = Datatype::float64();
    const std::vector<int>& p = m.ints;
    switch (m.shape) {
        case Shape::vector:  // {count, blocklen, stride} in doubles
            return Datatype::vector(p[0], p[1], p[2], f64);
        case Shape::indexed: {  // {blocklen..., displ...} in doubles
            const std::size_t k = p.size() / 2;
            return Datatype::indexed(std::span<const int>(p.data(), k),
                                     std::span<const int>(p.data() + k, k), f64);
        }
        case Shape::strukt: {  // {B, d1, d2, extent}: int32s, doubles, bytes
            const int b = p[0];
            const int lens[3] = {b / 4, b / 8, b};
            const std::ptrdiff_t displs[3] = {0, p[1], p[2]};
            const Datatype types[3] = {Datatype::int32(), f64, Datatype::byte_()};
            return Datatype::resized(Datatype::structure(lens, displs, types), 0, p[3]);
        }
        case Shape::subarray: {  // {rows, cols, subrows, subcols, r0, c0}
            const int sizes[2] = {p[0], p[1]};
            const int subs[2] = {p[2], p[3]};
            const int starts[2] = {p[4], p[5]};
            return Datatype::subarray(sizes, subs, starts, f64);
        }
    }
    return {};
}

/// A message of `shape` whose blocks are about `block` bytes.
MsgSpec make_spec(Rng& rng, Shape shape, std::size_t block, std::size_t payload) {
    MsgSpec m;
    m.shape = shape;
    m.fill_seed = rng.next();
    const int e = static_cast<int>(block / 8);  // block length in doubles
    const auto gap = [&] { return static_cast<int>(rng.range(1, std::max(1, e))); };
    switch (shape) {
        case Shape::vector: {
            const int c = static_cast<int>((payload + block - 1) / block);
            const int stride = e + gap();
            m.ints = {c, e, stride};
            for (int i = 0; i < c; ++i)
                m.blocks.push_back({static_cast<std::size_t>(i) * stride * 8, block});
            m.extent = (static_cast<std::size_t>(c - 1) * stride + e) * 8;
            break;
        }
        case Shape::indexed: {
            std::vector<int> lens, displs;
            std::size_t sum = 0;
            int at = 0;
            while (sum < payload) {
                const int len = static_cast<int>(rng.range(std::max(1, e / 2), e + e / 2));
                lens.push_back(len);
                displs.push_back(at);
                m.blocks.push_back({static_cast<std::size_t>(at) * 8,
                                    static_cast<std::size_t>(len) * 8});
                sum += static_cast<std::size_t>(len) * 8;
                at += len + gap();
            }
            m.ints = lens;
            m.ints.insert(m.ints.end(), displs.begin(), displs.end());
            m.extent = m.blocks.back().off + m.blocks.back().len;
            break;
        }
        case Shape::strukt: {
            const auto b = static_cast<int>(std::max<std::size_t>(block, 8));
            const int d1 = b + 8 * gap();
            const int d2 = d1 + b + 8 * gap();
            const int ext = d2 + b + 8 * gap();
            m.ints = {b, d1, d2, ext};
            m.count = static_cast<int>((payload + 3 * static_cast<std::size_t>(b) - 1) /
                                       (3 * static_cast<std::size_t>(b)));
            for (int i = 0; i < m.count; ++i) {
                const auto base = static_cast<std::size_t>(i) * static_cast<std::size_t>(ext);
                for (const int d : {0, d1, d2})
                    m.blocks.push_back({base + static_cast<std::size_t>(d),
                                        static_cast<std::size_t>(b)});
            }
            m.extent = static_cast<std::size_t>(m.count) * static_cast<std::size_t>(ext);
            break;
        }
        case Shape::subarray: {
            const int subrows = static_cast<int>((payload + block - 1) / block);
            const int c0 = gap();
            const int cols = e + c0 + gap();
            const int r0 = static_cast<int>(rng.range(0, 3));
            const int rows = r0 + subrows + static_cast<int>(rng.range(0, 3));
            m.ints = {rows, cols, subrows, e, r0, c0};
            for (int i = 0; i < subrows; ++i)
                m.blocks.push_back(
                    {(static_cast<std::size_t>(r0 + i) * cols + c0) * 8, block});
            m.extent = static_cast<std::size_t>(rows) * cols * 8;
            break;
        }
    }
    m.payload = 0;
    for (const Block& b : m.blocks) m.payload += b.len;
    return m;
}

void fill_words(std::byte* buf, std::size_t bytes, std::uint64_t seed) {
    Rng rng(seed);
    std::size_t i = 0;
    for (; i + 8 <= bytes; i += 8) {
        const std::uint64_t w = rng.next();
        std::memcpy(buf + i, &w, 8);
    }
    for (; i < bytes; ++i) buf[i] = static_cast<std::byte>(rng.next());
}

class NoncontigPack final : public Workload {
public:
    NoncontigPack(std::uint64_t seed, bool short_mode) {
        Rng rng(seed ^ 0x4e43'0002ULL);
        const int per_shape = short_mode ? 2 : 256;
        for (const Shape s : {Shape::vector, Shape::indexed, Shape::strukt, Shape::subarray}) {
            const std::vector<std::size_t> blocks = stratified_log(rng, per_shape, 8, 4096, 8);
            std::vector<std::size_t> payloads =
                stratified_log(rng, per_shape, kMinPayload, kMinPayload + kMinPayload / 4, 8);
            rng.shuffle(payloads);  // no tie between block size and payload
            for (int i = 0; i < per_shape; ++i)
                msgs_.push_back(make_spec(rng, s, blocks[static_cast<std::size_t>(i)],
                                          payloads[static_cast<std::size_t>(i)]));
        }
        rng.shuffle(msgs_);
        for (const MsgSpec& m : msgs_) max_extent_ = std::max(max_extent_, m.extent);
        send_start_.assign(msgs_.size(), 0.0);
    }

    [[nodiscard]] scimpi::mpi::ClusterOptions options() const override {
        scimpi::mpi::ClusterOptions opt;
        opt.nodes = 2;
        opt.procs_per_node = 2;
        return opt;
    }

    [[nodiscard]] std::size_t op_slots() const override { return msgs_.size(); }

    [[nodiscard]] std::uint64_t payload_bytes() const override {
        std::uint64_t b = 0;
        for (const MsgSpec& m : msgs_) b += m.payload;
        return b;
    }

    [[nodiscard]] std::uint64_t packed_blocks() const override {
        std::uint64_t b = 0;
        for (const MsgSpec& m : msgs_) b += m.blocks.size();
        return b;
    }

    void rank_main(Comm& comm, Tally& tally) override;

private:
    void send_msg(Comm& comm, Tally& tally, std::size_t id, int dst);
    void recv_msg(Comm& comm, Tally& tally, std::size_t id, int src);
    /// Sentinel-filled `out` with the type map's bytes copied from `src`.
    void expected(const MsgSpec& m, const std::byte* src, std::byte* out) const;

    std::vector<MsgSpec> msgs_;
    std::size_t max_extent_ = 0;
    std::vector<double> send_start_;  ///< simulated send start per message

    // Per-rank scratch, sized once (ranks run one at a time, but each rank
    // keeps its own set so a blocked sender's buffers stay intact).
    struct Scratch {
        std::vector<std::byte> user, packed, ref, check;
    };
    std::array<Scratch, kRanks> scratch_;
};

void NoncontigPack::expected(const MsgSpec& m, const std::byte* src, std::byte* out) const {
    std::memset(out, static_cast<int>(kSentinel), m.extent);
    for (const Block& b : m.blocks) std::memcpy(out + b.off, src + b.off, b.len);
}

void NoncontigPack::send_msg(Comm& comm, Tally& tally, std::size_t id, int dst) {
    const MsgSpec& m = msgs_[id];
    Scratch& s = scratch_[static_cast<std::size_t>(comm.rank())];
    const Datatype type = traced(SpanKind::dt_build, [&] {
        Datatype t = build_type(m);
        t.commit(comm.cluster().options().cfg);
        return t;
    });
    fill_words(s.user.data(), m.extent, m.fill_seed);

    // Pack / unpack round trip against the driver's own layout.
    std::size_t pos = 0;
    const std::span<std::byte> packed(s.packed.data(), m.payload);
    if (tally.check(id, traced(SpanKind::dt_pack, [&] {
                        return comm.pack(s.user.data(), m.count, type, packed, &pos);
                    }),
                    "pack")) {
        std::size_t at = 0;
        for (const Block& b : m.blocks) {
            std::memcpy(s.ref.data() + at, s.user.data() + b.off, b.len);
            at += b.len;
        }
        if (pos != m.payload || std::memcmp(s.packed.data(), s.ref.data(), m.payload) != 0)
            tally.fail(id, "pack output mismatch in message " + std::to_string(id));
    }
    std::memset(s.check.data(), static_cast<int>(kSentinel), m.extent);
    pos = 0;
    if (tally.check(id, traced(SpanKind::dt_unpack, [&] {
                        return comm.unpack(packed, &pos, s.check.data(), m.count, type);
                    }),
                    "unpack")) {
        expected(m, s.user.data(), s.ref.data());
        if (std::memcmp(s.check.data(), s.ref.data(), m.extent) != 0)
            tally.fail(id, "unpack output mismatch in message " + std::to_string(id));
    }

    send_start_[id] = comm.wtime();
    tally.check(id, traced(SpanKind::p2p_send, [&] {
                    return comm.send(s.user.data(), m.count, type, dst,
                                     static_cast<int>(id));
                }),
                "send");
}

void NoncontigPack::recv_msg(Comm& comm, Tally& tally, std::size_t id, int src) {
    const MsgSpec& m = msgs_[id];
    Scratch& s = scratch_[static_cast<std::size_t>(comm.rank())];
    const Datatype type = traced(SpanKind::dt_build, [&] {
        Datatype t = build_type(m);
        t.commit(comm.cluster().options().cfg);
        return t;
    });
    std::memset(s.check.data(), static_cast<int>(kSentinel), m.extent);
    const double posted = comm.wtime();
    const scimpi::mpi::RecvResult rr = traced(SpanKind::p2p_recv, [&] {
        return comm.recv(s.check.data(), m.count, type, src, static_cast<int>(id));
    });
    // From the moment both sides are in the call: a late receiver's or a
    // late sender's earlier work is not part of this message's latency.
    tally.op_sim_ns[id] = (comm.wtime() - std::max(send_start_[id], posted)) * 1e9;
    if (!tally.check(id, rr.status, "recv")) return;
    fill_words(s.user.data(), m.extent, m.fill_seed);
    expected(m, s.user.data(), s.ref.data());
    if (rr.bytes != m.payload || std::memcmp(s.check.data(), s.ref.data(), m.extent) != 0)
        tally.fail(id, "received bytes mismatch in message " + std::to_string(id));
}

void NoncontigPack::rank_main(Comm& comm, Tally& tally) {
    bootstrap_barriers(comm);
    Scratch& s = scratch_[static_cast<std::size_t>(comm.rank())];
    s.user.assign(max_extent_, std::byte{0});
    s.packed.assign(max_extent_, std::byte{0});
    s.ref.assign(max_extent_, std::byte{0});
    s.check.assign(max_extent_, std::byte{0});

    // Rounds alternate inter-node pairs {0,2} {1,3} with intra-node pairs
    // {0,1} {2,3}; in each pair the lower rank sends first, then answers.
    const int me = comm.rank();
    const std::size_t rounds = msgs_.size() / 4;
    for (std::size_t r = 0; r < rounds; ++r) {
        const bool inter = r % 2 == 0;
        const int partner = inter ? (me + 2) % 4 : me ^ 1;
        const std::size_t pair = inter ? static_cast<std::size_t>(me % 2)
                                       : static_cast<std::size_t>(me / 2);
        const std::size_t first = r * 4 + pair * 2;
        const bool low = me < partner;
        {
            const Scope op(SpanKind::op, first + 1);
            if (low) send_msg(comm, tally, first, partner);
            else recv_msg(comm, tally, first, partner);
        }
        {
            const Scope op(SpanKind::op, first + 2);
            if (low) recv_msg(comm, tally, first + 1, partner);
            else send_msg(comm, tally, first + 1, partner);
        }
    }
    traced(SpanKind::coll_barrier, [&] { comm.barrier(); });
}

}  // namespace

std::unique_ptr<Workload> make_noncontig_pack(std::uint64_t seed, bool short_mode) {
    return std::make_unique<NoncontigPack>(seed, short_mode);
}

}  // namespace perfbench
