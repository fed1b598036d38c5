/**
 * @file
 * Bounded request queue with a per-bank, age-ordered request index.
 *
 * Requests are kept in arrival order (index 0 is the oldest) so the
 * FR-FCFS pick can honour age. Alongside, every bank keeps a list of
 * its own requests (arrival number, row, address, direction), oldest
 * first, maintained on push and pop, plus a bitmap of the banks that
 * have any. Arrival
 * numbers never change while a request waits, so a pop touches only
 * its own bank's list. The pick walks only occupied banks instead of
 * every entry, and the per-bank counts are what DARP's out-of-order
 * refresh monitors (paper Section 4.2.1).
 */

#ifndef DSARP_CONTROLLER_QUEUES_HH
#define DSARP_CONTROLLER_QUEUES_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "controller/request.hh"

namespace dsarp {

class RequestQueue
{
  public:
    /**
     * One request in a bank's index: its arrival number and what the
     * pick and the forwarding lookup test. Arrival numbers grow with
     * every push, so comparing them compares age across banks; index()
     * turns one into a queue index.
     */
    struct Slot
    {
        std::uint64_t seq;
        Addr addr;
        RowId row;
        bool isWrite;
    };

    RequestQueue(int capacity, int ranks, int banksPerRank);

    bool full() const { return size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    int size() const { return static_cast<int>(entries_.size()); }
    int capacity() const { return capacity_; }

    /** Append a request; returns false when the queue is full. */
    bool push(const Request &req);

    /** Oldest-first access. */
    const Request &at(int i) const { return entries_[i]; }

    /** Remove and return the request at index @p i. */
    Request pop(int i);

    /** Arrival number of the request at index @p i. */
    std::uint64_t seqAt(int i) const { return seqs_[i]; }

    /** Queue index of the queued request with arrival number @p seq. */
    int index(std::uint64_t seq) const;

    /** Flat bank index (rank-major) used by the per-bank index. */
    int bankIndex(RankId r, BankId b) const { return r * banksPerRank_ + b; }

    /**
     * Banks of rank @p r with queued requests: bit (b % 64) of word
     * (b / 64) is set while bank b has any.
     */
    std::span<const std::uint64_t>
    occupied(RankId r) const
    {
        return {occupied_.data() + r * wordsPerRank_,
                static_cast<std::size_t>(wordsPerRank_)};
    }

    int numRanks() const { return ranks_; }

    /** Requests queued for flat bank @p idx, oldest first. */
    std::span<const Slot> bank(int idx) const { return banks_[idx]; }

    /** Bumped by every push and pop on flat bank @p idx: equal
     *  versions mean the same list. */
    std::uint64_t bankVersion(int idx) const { return versions_[idx]; }

    /** Queued requests targeting a bank. */
    int
    bankCount(RankId r, BankId b) const
    {
        return static_cast<int>(banks_[bankIndex(r, b)].size());
    }

    /** Queued requests targeting a rank. */
    int rankCount(RankId r) const;

    /** Queued requests for (rank, bank, row): a walk of the bank's list. */
    int rowCount(RankId r, BankId b, RowId row) const;

    /**
     * Oldest index of a request to @p addr among those queued for
     * (@p r, @p b), or -1. An address always decodes to one bank, so
     * this is the whole queue's answer at the cost of one bank's list.
     */
    int findAddr(RankId r, BankId b, Addr addr) const;

  private:
    /** Set or clear bank (r, b)'s occupancy bit. */
    void markOccupied(RankId r, BankId b, bool on);

    int capacity_;
    int ranks_;
    int banksPerRank_;
    int wordsPerRank_;
    std::uint64_t nextSeq_ = 0;
    std::vector<Request> entries_;
    std::vector<std::uint64_t> seqs_;  ///< Arrival numbers of entries_.
    std::vector<std::vector<Slot>> banks_;
    std::vector<std::uint64_t> versions_;  ///< See bankVersion().
    std::vector<std::uint64_t> occupied_;
};

} // namespace dsarp

#endif // DSARP_CONTROLLER_QUEUES_HH
