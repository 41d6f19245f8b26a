#include "mpi/comm.hpp"

#include "mpi/req/nbc.hpp"
#include "mpi/rma/window.hpp"

namespace scimpi::mpi {

namespace {
std::shared_ptr<const CommGroup> world_group(const Cluster& cluster) {
    auto g = std::make_shared<CommGroup>();
    g->context = 0;
    g->members.resize(static_cast<std::size_t>(cluster.world_size()));
    for (int r = 0; r < cluster.world_size(); ++r)
        g->members[static_cast<std::size_t>(r)] = r;
    return g;
}

/// Run (op, alg)'s description on the nonblocking executor.
Request start_nbc(Comm& c, coll::Op op, coll::Alg alg, const coll::Args& a) {
    coll::Sched s = coll::find_alg(op, alg)->build(c, a);
    req::Engine& eng = c.rank_state().requests();
    const int tag = eng.nbc_tag_band(c.context(), s.rounds.size());
    return eng.start_coll(std::make_shared<req::NbcSched>(
        c.rank_state(), c.members(), c.context(), tag, std::move(s)));
}
}  // namespace

Comm::Comm(Cluster& cluster, Rank& rank)
    : cluster_(&cluster), rank_(&rank), group_(world_group(cluster)),
      local_rank_(rank.rank()) {}

Comm::Comm(Cluster& cluster, Rank& rank, std::shared_ptr<const CommGroup> group)
    : cluster_(&cluster), rank_(&rank), group_(std::move(group)) {
    for (std::size_t i = 0; i < group_->members.size(); ++i)
        if (group_->members[i] == rank.rank()) local_rank_ = static_cast<int>(i);
    SCIMPI_REQUIRE(local_rank_ >= 0, "rank not a member of its communicator group");
}

Comm Comm::split(int color, int key) {
    // Exchange (color, key, world, next_context) over this communicator.
    struct Entry {
        std::int64_t color, key, world, next_ctx;
    };
    const Entry mine{color, key, rank_->rank(), rank_->peek_next_context()};
    std::vector<Entry> all(static_cast<std::size_t>(size()));
    const Status st = allgather(&mine, sizeof mine, all.data());
    SCIMPI_REQUIRE(st.is_ok(), "split allgather failed: " + st.to_string());

    // Deterministic context allocation: distinct colors get consecutive ids
    // starting at the max next_context over the participants.
    std::vector<std::int64_t> colors;
    std::int64_t base = 1;
    for (const Entry& e : all) {
        base = std::max(base, e.next_ctx);
        colors.push_back(e.color);
    }
    std::sort(colors.begin(), colors.end());
    colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
    const auto color_idx = static_cast<std::int64_t>(
        std::lower_bound(colors.begin(), colors.end(), color) - colors.begin());
    rank_->set_next_context(static_cast<int>(base + static_cast<std::int64_t>(colors.size())));

    auto g = std::make_shared<CommGroup>();
    g->context = static_cast<int>(base + color_idx);
    std::vector<Entry> members;
    for (const Entry& e : all)
        if (e.color == color) members.push_back(e);
    std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
        return a.key != b.key ? a.key < b.key : a.world < b.world;
    });
    for (const Entry& e : members) g->members.push_back(static_cast<int>(e.world));
    return Comm(*cluster_, *rank_, std::move(g));
}

Status Comm::send(const void* buf, int count, const Datatype& type, int dst, int tag) {
    SCIMPI_REQUIRE(tag >= 0, "user tags must be non-negative");
    return rank_->send(buf, count, type, world_rank(dst), tag, context());
}

RecvResult Comm::recv(void* buf, int count, const Datatype& type, int src, int tag) {
    SCIMPI_REQUIRE(tag >= 0 || tag == ANY_TAG, "user tags must be non-negative");
    RecvResult r = rank_->recv(buf, count, type,
                               src == ANY_SOURCE ? ANY_SOURCE : world_rank(src), tag,
                               context());
    r.source = local_of_world(r.source);
    return r;
}

Request Comm::isend(const void* buf, int count, const Datatype& type, int dst, int tag) {
    SCIMPI_REQUIRE(tag >= 0, "user tags must be non-negative");
    return rank_->requests().isend(buf, count, type, world_rank(dst), tag, context());
}

Request Comm::irecv(void* buf, int count, const Datatype& type, int src, int tag) {
    SCIMPI_REQUIRE(tag >= 0 || tag == ANY_TAG, "user tags must be non-negative");
    return rank_->requests().irecv(buf, count, type,
                                   src == ANY_SOURCE ? ANY_SOURCE : world_rank(src),
                                   tag, context());
}

Status Comm::wait(Request& req) { return rank_->requests().wait(req); }

Status Comm::wait_all(std::span<Request> reqs) {
    return rank_->requests().waitall(reqs);
}

bool Comm::test(Request& req, Status* st) { return rank_->requests().test(req, st); }

int Comm::wait_any(std::span<Request> reqs) {
    return rank_->requests().waitany(reqs);
}

std::vector<int> Comm::test_some(std::span<Request> reqs) {
    return rank_->requests().testsome(reqs);
}

RecvResult Comm::recv_result(const Request& req) const {
    RecvResult r = req.result();
    if (r.source >= 0) r.source = local_of_world(r.source);
    return r;
}

Request Comm::send_init(const void* buf, int count, const Datatype& type, int dst,
                        int tag) {
    SCIMPI_REQUIRE(tag >= 0, "user tags must be non-negative");
    return rank_->requests().send_init(buf, count, type, world_rank(dst), tag,
                                       context());
}

Request Comm::recv_init(void* buf, int count, const Datatype& type, int src, int tag) {
    SCIMPI_REQUIRE(tag >= 0 || tag == ANY_TAG, "user tags must be non-negative");
    return rank_->requests().recv_init(buf, count, type,
                                       src == ANY_SOURCE ? ANY_SOURCE : world_rank(src),
                                       tag, context());
}

void Comm::start(Request& req) { rank_->requests().start(req); }

void Comm::start_all(std::span<Request> reqs) { rank_->requests().startall(reqs); }

Request Comm::ibarrier() {
    return start_nbc(*this, coll::Op::barrier, coll::Alg::p2p, {});
}

Request Comm::ibcast(void* buf, std::size_t bytes, int root) {
    return start_nbc(*this, coll::Op::bcast, coll::Alg::p2p,
                     {.out = buf, .bytes = bytes, .root = root});
}

Request Comm::iallreduce_sum(const double* in, double* out, int n) {
    const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(double);
    return start_nbc(*this, coll::Op::allreduce, coll::Alg::rdouble,
                     {.in = in, .out = out, .bytes = bytes});
}

Request Comm::iallgather(const void* in, std::size_t bytes_each, void* out) {
    return start_nbc(*this, coll::Op::allgather, coll::Alg::p2p,
                     {.in = in, .out = out, .bytes = bytes_each});
}

Status Comm::sendrecv(const void* sbuf, int scount, const Datatype& stype, int dst,
                      int stag, void* rbuf, int rcount, const Datatype& rtype, int src,
                      int rtag) {
    auto r = rank_->irecv(rbuf, rcount, rtype,
                          src == ANY_SOURCE ? ANY_SOURCE : world_rank(src), rtag,
                          context());
    auto s = rank_->isend(sbuf, scount, stype, world_rank(dst), stag, context());
    rank_->wait(*s);
    rank_->wait(*r);
    if (!s->status) return s->status;
    return r->status;
}

Status Comm::sendrecv_replace(void* buf, int count, const Datatype& type, int dst,
                              int stag, int src, int rtag) {
    // Stage the outgoing data so the incoming message may overwrite buf.
    Datatype t = type;
    if (!t.committed()) t.commit(cluster_->options().cfg);
    const std::size_t bytes = t.size() * static_cast<std::size_t>(count);
    std::vector<std::byte> staged(bytes);
    std::size_t pos = 0;
    Status st = pack(buf, count, t, staged, &pos);
    if (!st) return st;
    auto r = rank_->irecv(buf, count, t,
                          src == ANY_SOURCE ? ANY_SOURCE : world_rank(src), rtag,
                          context());
    auto s = rank_->isend(staged.data(), static_cast<int>(bytes), Datatype::byte_(),
                          world_rank(dst), stag, context());
    rank_->wait(*s);
    rank_->wait(*r);
    if (!s->status) return s->status;
    return r->status;
}

RecvResult Comm::probe(int src, int tag) {
    const auto env = rank_->probe(src == ANY_SOURCE ? ANY_SOURCE : world_rank(src),
                                  tag, /*blocking=*/true, context());
    SCIMPI_REQUIRE(env.has_value(), "blocking probe returned empty");
    return RecvResult{Status::ok(), local_of_world(env->src), env->tag, env->bytes};
}

bool Comm::iprobe(int src, int tag, RecvResult* out) {
    const auto env = rank_->probe(src == ANY_SOURCE ? ANY_SOURCE : world_rank(src),
                                  tag, /*blocking=*/false, context());
    if (!env) return false;
    if (out != nullptr)
        *out = RecvResult{Status::ok(), local_of_world(env->src), env->tag, env->bytes};
    return true;
}

Status Comm::pack(const void* inbuf, int count, const Datatype& type,
                  std::span<std::byte> outbuf, std::size_t* position) {
    SCIMPI_REQUIRE(position != nullptr, "pack: null position");
    Datatype t = type;
    if (!t.committed()) t.commit(cluster_->options().cfg);
    const std::size_t bytes = t.size() * static_cast<std::size_t>(count);
    if (*position + bytes > outbuf.size())
        return Status::error(Errc::truncated, "pack buffer too small");
    // Canonical order on the wire; ff machinery when it is order-safe.
    proc().delay(rank_->count_pack(pack_stream(&t, count, inbuf, 0, bytes,
                                               outbuf.data() + *position,
                                               ff_may_move(cluster_->options().cfg, t),
                                               rank_->copy_model()),
                                   bytes));
    *position += bytes;
    return Status::ok();
}

Status Comm::unpack(std::span<const std::byte> inbuf, std::size_t* position,
                    void* outbuf, int count, const Datatype& type) {
    SCIMPI_REQUIRE(position != nullptr, "unpack: null position");
    Datatype t = type;
    if (!t.committed()) t.commit(cluster_->options().cfg);
    const std::size_t bytes = t.size() * static_cast<std::size_t>(count);
    if (*position + bytes > inbuf.size())
        return Status::error(Errc::truncated, "unpack past end of buffer");
    proc().delay(rank_->count_pack(unpack_stream(&t, count, outbuf, 0, bytes,
                                                 inbuf.data() + *position,
                                                 ff_may_move(cluster_->options().cfg, t),
                                                 rank_->copy_model())));
    *position += bytes;
    return Status::ok();
}

Result<std::span<std::byte>> Comm::alloc_mem(std::size_t bytes) {
    return cluster_->memory(rank_->node()).allocate(bytes);
}

Status Comm::free_mem(std::span<std::byte> mem) {
    return cluster_->memory(rank_->node()).free(mem);
}

bool Comm::is_shared_mem(const void* p) const {
    return cluster_->memory(rank_->node()).contains(p);
}

std::shared_ptr<Win> Comm::win_create(void* base, std::size_t size) {
    return Win::create(*this, base, size);
}

}  // namespace scimpi::mpi
