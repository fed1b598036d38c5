/**
 * @file
 * FR-FCFS command selection (Rixner et al., ISCA 2000) with the paper's
 * closed-row policy.
 *
 * Priority: (1) the oldest request whose row is already open and whose
 * column command is legal this cycle -- issued with auto-precharge when it
 * is the last queued request for that row; (2) the oldest request whose
 * bank is closed and whose ACT is legal; (3) a precharge for an open row
 * no queued request wants. ACTs to banks (or ranks) with a blocking
 * refresh pending are suppressed so the target can drain.
 */

#ifndef DSARP_CONTROLLER_SCHEDULER_HH
#define DSARP_CONTROLLER_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "controller/queues.hh"
#include "dram/channel.hh"
#include "dram/command.hh"

namespace dsarp {

/** Outcome of one FR-FCFS pick. */
struct CmdChoice
{
    bool valid = false;
    Command cmd;
    /** Queue index of the serviced request; -1 for ACT (request stays). */
    int queueIndex = -1;
};

/**
 * Each bank's FR-FCFS candidates reduced to their arrival numbers and
 * bank parts, kept between the picks and readiness scans of one queue.
 * A record stands while its bank's version, its request list's
 * version, its ACT block and its refreshing state are what they were
 * when it was filled: between two picks a command changes one bank and
 * an enqueue one list, so a pick or scan mostly reads one record per
 * occupied bank and walks no request list.
 */
class CandidateCache
{
  public:
    struct Record
    {
        std::uint64_t listVersion = UINT64_MAX;  ///< Never a live version.
        std::uint64_t bankVersion = 0;
        bool actBlocked = false;
        bool refreshing = false;
        /** Oldest read / write row hit (UINT64_MAX: none) and its bank
         *  part, the bank's column readiness. */
        std::uint64_t hitSeq[2] = {UINT64_MAX, UINT64_MAX};
        Tick column[2] = {kTickNever, kTickNever};
        /** Oldest ACT candidate, and the earliest bank part among the
         *  candidates. */
        std::uint64_t actSeq = UINT64_MAX;
        Tick act = kTickNever;
        /** An open bank without a hit: its oldest request, which must
         *  lie in the conflict window, and its precharge's bank part. */
        std::uint64_t conflictSeq = UINT64_MAX;
        Tick pre = kTickNever;
        Tick refreshEnd = kTickNever;  ///< SARP: the ACT set shrinks.
    };

    explicit CandidateCache(int banks) : records_(banks) {}

    Record &at(int idx) { return records_[idx]; }

  private:
    std::vector<Record> records_;
};

class FrFcfs
{
  public:
    /**
     * Select the next command for @p queue. Walks only the queue's
     * occupied banks through its per-bank index, reading each bank's
     * candidates from @p cache (which must be used with this queue
     * only) and refilling a record from the bank's requests only when
     * the bank or its requests changed.
     *
     * @param actBlockedBank per-(rank,bank) flags: suppress new ACTs.
     * @param actBlockedRank per-rank flags (all-bank refresh pending).
     */
    static CmdChoice pick(const RequestQueue &queue, const Channel &channel,
                          Tick now,
                          const std::vector<std::uint8_t> &actBlockedBank,
                          const std::vector<std::uint8_t> &actBlockedRank,
                          int banksPerRank, CandidateCache &cache);

    /**
     * When pick()'s answer can change on its own: the earliest tick at
     * which one of its candidates can issue if no command issues and
     * nothing is enqueued first (<= @p now: one is legal now). The
     * candidates are pick()'s, from the same @p cache -- each open
     * bank's oldest hit per direction, each ACT candidate, each
     * conflict PRE -- plus the refresh ends of refreshing SARP banks,
     * whose candidate sets shrink there. Each candidate's readiness
     * splits into its bank's part and its rank's shared part
     * (Channel::rankReadyAt()), computed once per rank and command
     * class. The scan stops at the first readiness at or before
     * @p enough and returns it: the caller only needs to know that the
     * answer can change by then.
     */
    static Tick readyAt(const RequestQueue &queue, const Channel &channel,
                        Tick now, Tick enough,
                        const std::vector<std::uint8_t> &actBlockedBank,
                        const std::vector<std::uint8_t> &actBlockedRank,
                        int banksPerRank, CandidateCache &cache);

    /**
     * readyAt() restricted to the candidates of bank (@p r, @p b), with
     * no ACT blocked: a lower bound on when that bank's answer can
     * change. An enqueue adds candidates to its own bank only.
     */
    static Tick bankReadyAt(const RequestQueue &queue,
                            const Channel &channel, Tick now, RankId r,
                            BankId b);
};

} // namespace dsarp

#endif // DSARP_CONTROLLER_SCHEDULER_HH
