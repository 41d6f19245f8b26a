#include "mpi/req/nbc.hpp"

#include "mpi/rank.hpp"

namespace scimpi::mpi::req {

NbcSched::NbcSched(Rank& rank, std::span<const int> members, int context, int tag_base,
                   coll::Sched sched)
    : rank_(rank),
      members_(members.begin(), members.end()),
      context_(context),
      tag_base_(tag_base),
      sched_(std::move(sched)) {}

bool NbcSched::pump() {
    if (done_) return true;
    const std::vector<coll::Round>& rounds = sched_.rounds;
    for (;;) {
        bool inflight = false;
        for (const auto& s : live_s_)
            if (!s->complete) { inflight = true; break; }
        if (!inflight)
            for (const auto& r : live_r_)
                if (!r->complete) { inflight = true; break; }
        if (inflight) break;
        // Rank::wait returns immediately (everything is complete) but closes
        // the scimpi-check pending-buffer entries the round's ops opened.
        for (const auto& s : live_s_) {
            rank_.wait(*s);
            if (!s->status && status_.is_ok()) status_ = s->status;
        }
        for (const auto& r : live_r_) {
            rank_.wait(*r);
            if (!r->status && status_.is_ok()) status_ = r->status;
        }
        live_s_.clear();
        live_r_.clear();
        if (next_round_ > 0 && rounds[next_round_ - 1].post)
            rounds[next_round_ - 1].post();
        if (next_round_ >= rounds.size()) {
            done_ = true;
            break;
        }
        coll::issue_round(rank_, rounds[next_round_], members_,
                          tag_base_ - static_cast<int>(next_round_), context_, live_s_,
                          live_r_);
        ++next_round_;
        // Loop: short/eager steps may have completed synchronously, in which
        // case the next round can be issued right away.
    }
    return done_;
}

}  // namespace scimpi::mpi::req
