#include "controller/scheduler.hh"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace dsarp {

namespace {

/** Oldest requests the conflict-precharge phase looks at. */
constexpr int kConflictWindow = 16;

/** Call @p fn(rank, bank) for every bank with queued requests, in
 *  rank-major order. */
template <typename Fn>
void
forEachOccupied(const RequestQueue &queue, Fn &&fn)
{
    for (RankId r = 0; r < queue.numRanks(); ++r) {
        const std::span<const std::uint64_t> words = queue.occupied(r);
        for (std::size_t w = 0; w < words.size(); ++w) {
            for (std::uint64_t m = words[w]; m; m &= m - 1)
                fn(r, static_cast<BankId>(w * 64 + std::countr_zero(m)));
        }
    }
}

} // namespace

CmdChoice
FrFcfs::pick(const RequestQueue &queue, const Channel &channel, Tick now,
             const std::vector<std::uint8_t> &act_blocked_bank,
             const std::vector<std::uint8_t> &act_blocked_rank,
             int banks_per_rank)
{
    // Age order across the whole queue is the minimum arrival number
    // over banks: each phase takes every occupied bank's own best
    // candidate (the bank lists are oldest first) and keeps the oldest
    // of them. Phases 1 and 2 look at disjoint banks (open and closed),
    // so one walk over the occupied banks serves both.
    constexpr std::uint64_t kNone = UINT64_MAX;
    std::uint64_t hit = kNone;
    std::uint64_t act = kNone;
    Command hit_cmd;
    // With nothing issuable, the earliest tick any examined candidate
    // can become legal: until then the answer stays "nothing".
    Tick ready = kTickNever;
    // Requests older than this are among the conflict window's oldest.
    const std::uint64_t window_end =
        queue.size() > kConflictWindow ? queue.seqAt(kConflictWindow) : kNone;
    // Phase-3 candidates: plain arrays, filled only as far as used.
    RankId conflict_rank[kConflictWindow];
    BankId conflict_bank[kConflictWindow];
    std::uint64_t conflict_seq[kConflictWindow];
    int num_conflict = 0;
    RankId rank_seen = -1;
    Tick rank_act_ready = 0;
    forEachOccupied(queue, [&](RankId r, BankId b) {
        const int idx = r * banks_per_rank + b;
        const Bank &bank = channel.rank(r).bank(b);
        const std::span<const RequestQueue::Slot> list = queue.bank(idx);
        const int n = static_cast<int>(list.size());

        if (bank.isOpen()) {
            // Phase 1: row hits. The oldest request whose row is open
            // and whose column command is legal right now. Every hit in
            // one bank gets the same column-command legality per
            // direction (it depends on bank, rank and bus state, not on
            // the column, nor on auto-precharge), so only a bank's
            // oldest read hit and oldest write hit need the check, and
            // the winner's column and auto-precharge are filled in at
            // the end. An open bank with no hit is a phase-3 candidate.
            const RowId open_row = bank.openRow();
            int first = 0;
            while (first < n && list[first].row != open_row)
                ++first;
            if (first == n) {
                if (list[0].seq < window_end) {
                    conflict_rank[num_conflict] = r;
                    conflict_bank[num_conflict] = b;
                    conflict_seq[num_conflict++] = list[0].seq;
                }
                return;
            }
            if (list[first].seq >= hit)
                return;

            int legal[2] = {-1, -1};  // Per direction: unknown, no, yes.
            for (int k = first; k < n && list[k].seq < hit; ++k) {
                if (list[k].row != open_row)
                    continue;
                const bool write = list[k].isWrite;
                int &ok = legal[write];
                if (ok == 0)
                    continue;
                Command cmd;
                cmd.type = write ? CommandType::kWr : CommandType::kRd;
                cmd.rank = r;
                cmd.bank = b;
                cmd.row = open_row;
                const Tick t = channel.readyAt(cmd, now);
                ok = t <= now;
                if (ok) {
                    hit = list[k].seq;
                    hit_cmd = cmd;
                    return;
                }
                ready = std::min(ready, t);
                if (legal[0] == 0 && legal[1] == 0)
                    return;
            }
            return;
        }

        // Phase 2: the oldest request needing an ACT whose ACT is
        // legal; moot once any row hit is found. Only a bank's oldest
        // request may activate -- a younger request must not jump
        // ahead of it -- except while the bank refreshes: under SARP a
        // younger request may target a different, accessible subarray,
        // and the refresh end shrinks the candidates back to the
        // oldest. Rank-level readiness (tRRD/tFAW) is evaluated once
        // per rank; banks are visited rank-major.
        if (hit != kNone || act_blocked_rank[r] || act_blocked_bank[idx])
            return;
        if (r != rank_seen) {
            rank_seen = r;
            rank_act_ready = channel.rank(r).actRankReadyAt(now);
        }
        int tries = 1;
        if (bank.refreshing(now)) {
            tries = n;
            ready = std::min(ready, bank.refreshUntil());
        }
        for (int k = 0; k < tries && list[k].seq < act; ++k) {
            const Tick t =
                std::max(rank_act_ready, bank.actReadyAt(list[k].row));
            if (t <= now) {
                act = list[k].seq;
                return;
            }
            ready = std::min(ready, t);
        }
    });

    CmdChoice choice;
    if (hit != kNone) {
        const int i = queue.index(hit);
        const RankId r = hit_cmd.rank;
        const BankId b = hit_cmd.bank;
        // Keep the row open only if another request for it is queued;
        // otherwise auto-precharge (closed-row policy). A pending
        // blocking refresh on the bank also forces the precharge.
        const bool auto_pre = queue.rowCount(r, b, hit_cmd.row) <= 1 ||
            act_blocked_bank[r * banks_per_rank + b] || act_blocked_rank[r];
        choice.valid = true;
        choice.cmd = hit_cmd;
        if (auto_pre) {
            const bool write = hit_cmd.type == CommandType::kWr;
            choice.cmd.type = write ? CommandType::kWrA : CommandType::kRdA;
        }
        choice.cmd.column = queue.at(i).loc.column;
        choice.cmd.subarray = queue.at(i).loc.subarray;
        choice.queueIndex = i;
        return choice;
    }
    if (act != kNone) {
        const Request &req = queue.at(queue.index(act));
        choice.valid = true;
        choice.cmd.type = CommandType::kAct;
        choice.cmd.rank = req.loc.rank;
        choice.cmd.bank = req.loc.bank;
        choice.cmd.row = req.loc.row;
        choice.cmd.subarray = req.loc.subarray;
        return choice;
    }

    // Phase 3: conflict precharge. A bank can be left open for a row this
    // queue does not want -- e.g. read row hits stranded by writeback
    // mode, or a plain-RD stream whose tail was served elsewhere. Close
    // it so the waiting request can activate next cycle. Only banks
    // whose oldest request is among the queue's oldest few qualify:
    // this is a liveness path, not a throughput path.
    std::uint64_t pre = kNone;
    for (int c = 0; c < num_conflict; ++c) {
        Command cmd;
        cmd.type = CommandType::kPre;
        cmd.rank = conflict_rank[c];
        cmd.bank = conflict_bank[c];
        const Tick t = channel.readyAt(cmd, now);
        if (t > now) {
            ready = std::min(ready, t);
        } else if (conflict_seq[c] < pre) {
            pre = conflict_seq[c];
            choice.valid = true;
            choice.cmd = cmd;
        }
    }
    if (!choice.valid)
        choice.readyAt = ready;
    return choice;
}

} // namespace dsarp
