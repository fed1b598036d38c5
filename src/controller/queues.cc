#include "controller/queues.hh"

#include <algorithm>

#include "common/log.hh"

namespace dsarp {

RequestQueue::RequestQueue(int capacity, int ranks, int banks_per_rank)
    : capacity_(capacity), ranks_(ranks), banksPerRank_(banks_per_rank),
      wordsPerRank_((banks_per_rank + 63) / 64)
{
    banks_.resize(ranks * banks_per_rank);
    versions_.assign(ranks * banks_per_rank, 0);
    occupied_.assign(ranks * wordsPerRank_, 0);
    entries_.reserve(capacity);
    seqs_.reserve(capacity);
}

void
RequestQueue::markOccupied(RankId r, BankId b, bool on)
{
    std::uint64_t &word = occupied_[r * wordsPerRank_ + b / 64];
    const std::uint64_t bit = std::uint64_t(1) << (b % 64);
    word = on ? word | bit : word & ~bit;
}

bool
RequestQueue::push(const Request &req)
{
    if (full())
        return false;
    const int idx = bankIndex(req.loc.rank, req.loc.bank);
    banks_[idx].push_back({nextSeq_, req.addr, req.loc.row, req.isWrite});
    ++versions_[idx];
    markOccupied(req.loc.rank, req.loc.bank, true);
    entries_.push_back(req);
    seqs_.push_back(nextSeq_++);
    return true;
}

Request
RequestQueue::pop(int i)
{
    DSARP_ASSERT(i >= 0 && i < size(), "queue index out of range");
    Request req = entries_[i];
    const std::uint64_t seq = seqs_[i];
    entries_.erase(entries_.begin() + i);
    seqs_.erase(seqs_.begin() + i);

    const int idx = bankIndex(req.loc.rank, req.loc.bank);
    ++versions_[idx];
    std::vector<Slot> &own = banks_[idx];
    auto it = own.begin();
    while (it != own.end() && it->seq != seq)
        ++it;
    DSARP_ASSERT(it != own.end(), "request missing from its bank list");
    own.erase(it);
    if (own.empty())
        markOccupied(req.loc.rank, req.loc.bank, false);
    return req;
}

int
RequestQueue::index(std::uint64_t seq) const
{
    const auto it = std::lower_bound(seqs_.begin(), seqs_.end(), seq);
    DSARP_ASSERT(it != seqs_.end() && *it == seq, "arrival number not queued");
    return static_cast<int>(it - seqs_.begin());
}

int
RequestQueue::rankCount(RankId r) const
{
    int total = 0;
    for (int b = 0; b < banksPerRank_; ++b)
        total += bankCount(r, b);
    return total;
}

int
RequestQueue::rowCount(RankId r, BankId b, RowId row) const
{
    int n = 0;
    for (const Slot &s : banks_[bankIndex(r, b)])
        n += s.row == row;
    return n;
}

int
RequestQueue::findAddr(RankId r, BankId b, Addr addr) const
{
    for (const Slot &s : banks_[bankIndex(r, b)]) {
        if (s.addr == addr)
            return index(s.seq);
    }
    return -1;
}

} // namespace dsarp
