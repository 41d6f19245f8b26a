#include "workload.hpp"

#include "spans.hpp"

namespace perfbench {

void Tally::fail(std::size_t slot, const std::string& why) {
    bad.at(slot) = 1;
    if (first_error.empty()) first_error = why;
}

bool Tally::check(std::size_t slot, const scimpi::Status& st, const char* what) {
    if (st.is_ok()) return true;
    fail(slot, std::string(what) + ": " + st.to_string());
    return false;
}

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"stencil_coll", "noncontig_pack",
                                                   "osc_sparse"};
    return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        bool short_mode) {
    if (name == "stencil_coll") return make_stencil_coll(seed, short_mode);
    if (name == "noncontig_pack") return make_noncontig_pack(seed, short_mode);
    if (name == "osc_sparse") return make_osc_sparse(seed, short_mode);
    return nullptr;
}

void bootstrap_barriers(scimpi::mpi::Comm& comm) {
    traced(SpanKind::coll_bootstrap, [&] { comm.barrier(); });
    traced(SpanKind::coll_barrier, [&] { comm.barrier(); });
}

}  // namespace perfbench
