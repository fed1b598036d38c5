#include "controller/scheduler.hh"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace dsarp {

namespace {

/** Oldest requests the conflict-precharge phase looks at. */
constexpr int kConflictWindow = 16;

/** No arrival number: compares younger than every queued request. */
constexpr std::uint64_t kNoSeq = UINT64_MAX;

using Record = CandidateCache::Record;

/** Call @p fn(rank, bank) for every bank with queued requests, in
 *  rank-major order, until it returns true. */
template <typename Fn>
void
forEachOccupied(const RequestQueue &queue, Fn &&fn)
{
    for (RankId r = 0; r < queue.numRanks(); ++r) {
        const std::span<const std::uint64_t> words = queue.occupied(r);
        for (std::size_t w = 0; w < words.size(); ++w) {
            for (std::uint64_t m = words[w]; m; m &= m - 1) {
                if (fn(r, static_cast<BankId>(w * 64 + std::countr_zero(m))))
                    return;
            }
        }
    }
}

/** Requests older than this are among the conflict window's oldest. */
std::uint64_t
conflictWindowEnd(const RequestQueue &queue)
{
    return queue.size() > kConflictWindow ? queue.seqAt(kConflictWindow)
                                          : kNoSeq;
}

/**
 * FR-FCFS's per-bank candidate rules, the one copy that the pick and
 * the readiness scans share (through fill()). For the requests @p list
 * (oldest first) queued to @p bank:
 *  - an open bank offers the oldest row hit of each direction through
 *    @p hit(k): every hit of one direction in a bank shares its column
 *    legality (bank, rank and bus state, not the column, nor
 *    auto-precharge), so the oldest stands for all. An open bank with
 *    no hit offers a conflict precharge through @p conflict(); it
 *    counts only while its oldest request is among the queue's
 *    kConflictWindow oldest, which the caller tests, as the window
 *    moves with every pop in any bank.
 *  - a closed bank that is not ACT-blocked offers its oldest request
 *    through @p act(k) -- a younger request must not jump ahead of it
 *    -- except while the bank refreshes under SARP: a younger request
 *    may then target a different, accessible subarray, so every
 *    request is offered, after @p refreshEnd(t) with the refresh end
 *    t, where the set shrinks back to the oldest. Without SARP every
 *    ACT waits for the refresh end, the oldest's with the rest.
 */
template <typename Hit, typename Conflict, typename RefreshEnd, typename Act>
void
visitCandidates(std::span<const RequestQueue::Slot> list, const Bank &bank,
                Tick now, bool act_blocked, Hit &&hit, Conflict &&conflict,
                RefreshEnd &&refresh_end, Act &&act)
{
    const int n = static_cast<int>(list.size());
    if (bank.isOpen()) {
        const RowId open_row = bank.openRow();
        bool seen[2] = {false, false};
        for (int k = 0; k < n && !(seen[0] && seen[1]); ++k) {
            if (list[k].row != open_row || seen[list[k].isWrite])
                continue;
            seen[list[k].isWrite] = true;
            hit(k);
        }
        if (!seen[0] && !seen[1])
            conflict();
        return;
    }
    if (act_blocked)
        return;
    int tries = 1;
    if (bank.refreshing(now) && bank.activatesWhileRefreshing()) {
        refresh_end(bank.refreshUntil());
        tries = n;
    }
    for (int k = 0; k < tries; ++k)
        act(k);
}

/** Reduce the candidates of @p list in @p bank to their bank parts. */
void
fill(Record &rec, std::span<const RequestQueue::Slot> list, const Bank &bank,
     Tick now, bool act_blocked)
{
    rec = Record{};
    visitCandidates(
        list, bank, now, act_blocked,
        [&](int k) {
            rec.column[list[k].isWrite] = bank.colReadyAt();
            rec.hitSeq[list[k].isWrite] = list[k].seq;
        },
        [&] {
            rec.pre = bank.preReadyAt();
            rec.conflictSeq = list[0].seq;
        },
        [&](Tick end) { rec.refreshEnd = end; },
        [&](int k) {
            rec.act = std::min(rec.act, bank.actReadyAt(list[k].row));
            rec.actSeq = std::min(rec.actSeq, list[k].seq);
        });
}

/** Flat bank @p idx's record in @p cache, refilled unless everything
 *  it was filled from is unchanged. */
const Record &
record(CandidateCache &cache, const RequestQueue &queue, const Bank &bank,
       Tick now, int idx, bool act_blocked)
{
    Record &rec = cache.at(idx);
    const std::uint64_t list_version = queue.bankVersion(idx);
    const bool refreshing = bank.refreshing(now);
    if (rec.listVersion != list_version ||
        rec.bankVersion != bank.version() || rec.actBlocked != act_blocked ||
        rec.refreshing != refreshing) {
        fill(rec, queue.bank(idx), bank, now, act_blocked);
        rec.listVersion = list_version;
        rec.bankVersion = bank.version();
        rec.actBlocked = act_blocked;
        rec.refreshing = refreshing;
    }
    return rec;
}

/**
 * The shared parts of one rank's candidates (Channel::rankReadyAt()),
 * each computed at most once per command class and only when needed,
 * and, for the readiness scans, the least bank part noted per class:
 * the rank's candidates that are not legal now are ready at the later
 * of the two, so their minimum is one max per class, folded in before
 * the walk moves on.
 */
class RankFold
{
  public:
    enum Class { kRead, kWrite, kAct, kPre };

    RankFold(const Channel &channel, Tick now)
        : channel_(channel), now_(now)
    {}

    Tick
    shared(Class c)
    {
        if (!(known_ & (1u << c))) {
            static constexpr CommandType kType[] = {
                CommandType::kRd, CommandType::kWr, CommandType::kAct,
                CommandType::kPre};
            shared_[c] = channel_.rankReadyAt(rank_, kType[c], now_);
            known_ |= 1u << c;
        }
        return shared_[c];
    }

    void
    note(Class c, Tick bank_part)
    {
        least_[c] = std::min(least_[c], bank_part);
    }

    /** Fold the noted parts into @p ready and forget them. */
    void
    foldInto(Tick &ready)
    {
        for (int c = kRead; c <= kPre; ++c) {
            if (least_[c] < ready) {
                ready = std::min(ready, std::max(least_[c],
                                                 shared(Class(c))));
            }
            least_[c] = kTickNever;
        }
    }

    /** Walk rank @p r from here on (a no-op when it is the current). */
    void
    select(RankId r)
    {
        if (r != rank_) {
            rank_ = r;
            known_ = 0;
        }
    }

  private:
    const Channel &channel_;
    Tick now_;
    RankId rank_ = 0;
    unsigned known_ = 0;
    Tick shared_[4] = {};
    Tick least_[4] = {kTickNever, kTickNever, kTickNever, kTickNever};
};

/** Note the bank parts of every candidate in @p rec. */
void
noteAll(RankFold &fold, const Record &rec, std::uint64_t window_end)
{
    fold.note(RankFold::kRead, rec.column[0]);
    fold.note(RankFold::kWrite, rec.column[1]);
    fold.note(RankFold::kAct, rec.act);
    if (rec.conflictSeq < window_end)
        fold.note(RankFold::kPre, rec.pre);
}

/** Arrival number of the oldest request in @p list whose ACT is legal
 *  by its bank part at @p now (the shared part already is). */
std::uint64_t
oldestLegalAct(std::span<const RequestQueue::Slot> list, const Bank &bank,
               Tick now)
{
    for (const RequestQueue::Slot &s : list) {
        if (bank.actReadyAt(s.row) <= now)
            return s.seq;
    }
    return kNoSeq;
}

/** The oldest legal candidate of one phase so far. */
struct Best
{
    std::uint64_t seq = kNoSeq;
    RankId rank = 0;
    BankId bank = 0;
    bool write = false;

    void
    offer(std::uint64_t s, RankId r, BankId b, bool w = false)
    {
        if (s < seq)
            *this = {s, r, b, w};
    }
};

} // namespace

CmdChoice
FrFcfs::pick(const RequestQueue &queue, const Channel &channel, Tick now,
             const std::vector<std::uint8_t> &act_blocked_bank,
             const std::vector<std::uint8_t> &act_blocked_rank,
             int banks_per_rank, CandidateCache &cache)
{
    // Age order across the whole queue is the minimum arrival number
    // over banks: each phase takes every occupied bank's own best
    // candidate (the bank lists are oldest first) and keeps the oldest
    // of them. A candidate is legal once both its bank part and its
    // rank's shared part have passed.
    Best hit, act, pre;
    const std::uint64_t window_end = conflictWindowEnd(queue);
    RankFold fold(channel, now);
    const auto legal = [&](RankFold::Class c, std::uint64_t seq,
                           Tick bank_part) {
        return seq != kNoSeq && bank_part <= now && fold.shared(c) <= now;
    };
    forEachOccupied(queue, [&](RankId r, BankId b) {
        fold.select(r);
        const int idx = r * banks_per_rank + b;
        const Bank &bank = channel.rank(r).bank(b);
        const Record &rec =
            record(cache, queue, bank, now, idx,
                   act_blocked_rank[r] || act_blocked_bank[idx]);
        // Phase 1: row hits; phase 2: ACTs; phase 3: conflict PREs.
        if (legal(RankFold::kRead, rec.hitSeq[0], rec.column[0]))
            hit.offer(rec.hitSeq[0], r, b, false);
        if (legal(RankFold::kWrite, rec.hitSeq[1], rec.column[1]))
            hit.offer(rec.hitSeq[1], r, b, true);
        if (legal(RankFold::kAct, rec.actSeq, rec.act)) {
            // While a SARP bank refreshes, its earliest ACT candidate
            // need not be its oldest.
            act.offer(rec.refreshEnd == kTickNever
                          ? rec.actSeq
                          : oldestLegalAct(queue.bank(idx), bank, now),
                      r, b);
        }
        if (rec.conflictSeq < window_end &&
            legal(RankFold::kPre, rec.conflictSeq, rec.pre)) {
            pre.offer(rec.conflictSeq, r, b);
        }
        return false;
    });

    CmdChoice choice;
    if (hit.seq != kNoSeq) {
        const int i = queue.index(hit.seq);
        const RankId r = hit.rank;
        const BankId b = hit.bank;
        const RowId row = channel.rank(r).bank(b).openRow();
        // Keep the row open only if another request for it is queued;
        // otherwise auto-precharge (closed-row policy). A pending
        // blocking refresh on the bank also forces the precharge.
        const bool auto_pre = queue.rowCount(r, b, row) <= 1 ||
            act_blocked_bank[r * banks_per_rank + b] || act_blocked_rank[r];
        choice.valid = true;
        choice.cmd.type = hit.write
            ? (auto_pre ? CommandType::kWrA : CommandType::kWr)
            : (auto_pre ? CommandType::kRdA : CommandType::kRd);
        choice.cmd.rank = r;
        choice.cmd.bank = b;
        choice.cmd.row = row;
        choice.cmd.column = queue.at(i).loc.column;
        choice.cmd.subarray = queue.at(i).loc.subarray;
        choice.queueIndex = i;
        return choice;
    }
    if (act.seq != kNoSeq) {
        const Request &req = queue.at(queue.index(act.seq));
        choice.valid = true;
        choice.cmd.type = CommandType::kAct;
        choice.cmd.rank = req.loc.rank;
        choice.cmd.bank = req.loc.bank;
        choice.cmd.row = req.loc.row;
        choice.cmd.subarray = req.loc.subarray;
        return choice;
    }
    // Conflict precharge: a bank can be left open for a row this queue
    // does not want -- e.g. read row hits stranded by writeback mode,
    // or a plain-RD stream whose tail was served elsewhere. Close it so
    // the waiting request can activate next cycle. Only banks whose
    // oldest request is among the queue's oldest few qualify: this is
    // a liveness path, not a throughput path.
    if (pre.seq != kNoSeq) {
        choice.valid = true;
        choice.cmd.type = CommandType::kPre;
        choice.cmd.rank = pre.rank;
        choice.cmd.bank = pre.bank;
    }
    return choice;
}

Tick
FrFcfs::readyAt(const RequestQueue &queue, const Channel &channel, Tick now,
                Tick enough, const std::vector<std::uint8_t> &act_blocked_bank,
                const std::vector<std::uint8_t> &act_blocked_rank,
                int banks_per_rank, CandidateCache &cache)
{
    Tick ready = kTickNever;
    const std::uint64_t window_end = conflictWindowEnd(queue);
    RankId rank_seen = -1;
    RankFold fold(channel, now);
    forEachOccupied(queue, [&](RankId r, BankId b) {
        if (r != rank_seen) {
            rank_seen = r;
            fold.foldInto(ready);
            if (ready <= enough)
                return true;
            fold.select(r);
        }
        const int idx = r * banks_per_rank + b;
        const Record &rec =
            record(cache, queue, channel.rank(r).bank(b), now, idx,
                   act_blocked_rank[r] || act_blocked_bank[idx]);
        noteAll(fold, rec, window_end);
        ready = std::min(ready, rec.refreshEnd);
        return false;
    });
    fold.foldInto(ready);  // The last rank's parts.
    return ready;
}

Tick
FrFcfs::bankReadyAt(const RequestQueue &queue, const Channel &channel,
                    Tick now, RankId r, BankId b)
{
    const int idx = queue.bankIndex(r, b);
    if (queue.bank(idx).empty())
        return kTickNever;
    Record rec;
    fill(rec, queue.bank(idx), channel.rank(r).bank(b), now,
         /*act_blocked=*/false);
    Tick ready = rec.refreshEnd;
    RankFold fold(channel, now);
    fold.select(r);
    noteAll(fold, rec, conflictWindowEnd(queue));
    fold.foldInto(ready);
    return ready;
}

} // namespace dsarp
