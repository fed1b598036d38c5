/**
 * @file
 * Write-batching (writeback mode) hysteresis.
 *
 * Modern controllers buffer writes and drain them in batches to amortize
 * the bus-turnaround penalty (paper Section 4.2.2): the channel enters
 * writeback mode when write-queue occupancy reaches the high watermark
 * and leaves when it falls to the low watermark. While active, the
 * channel serves only writes. DARP's write-refresh parallelization keys
 * off this state.
 */

#ifndef DSARP_CONTROLLER_WRITE_DRAIN_HH
#define DSARP_CONTROLLER_WRITE_DRAIN_HH

#include <cstdint>

namespace dsarp {

class WriteDrain
{
  public:
    WriteDrain(int highWatermark, int lowWatermark);

    /** Re-evaluate the mode against the current write-queue occupancy. */
    void update(int writeQueueSize);

    bool active() const { return active_; }

    /** True when update(@p writeQueueSize) would switch the mode. */
    bool
    flipsAt(int writeQueueSize) const
    {
        return active_ ? writeQueueSize <= low_ : writeQueueSize >= high_;
    }

    /** Number of times writeback mode was entered. */
    std::uint64_t batches() const { return batches_; }

  private:
    int high_;
    int low_;
    bool active_ = false;
    std::uint64_t batches_ = 0;
};

} // namespace dsarp

#endif // DSARP_CONTROLLER_WRITE_DRAIN_HH
