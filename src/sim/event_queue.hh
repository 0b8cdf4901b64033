/**
 * @file
 * Discrete-event kernel: a single global-ordered event queue.
 *
 * All simulated hardware and software progress is expressed as callbacks
 * scheduled at absolute picosecond timestamps.  Events with equal
 * timestamps execute in scheduling order (FIFO), which together with the
 * deterministic Rng makes every run bit-reproducible for a given seed.
 *
 * The queue is the simulator's hot path: a full-system run schedules and
 * dispatches tens of millions of events.  Event state therefore lives in
 * pooled nodes organised as an intrusive 4-ary min-heap -- scheduling
 * reuses a free node instead of allocating, cancellation is O(log n)
 * with immediate removal (no tombstones), and callbacks are stored in a
 * small-buffer type so typical captures never touch the heap.
 */

#ifndef CDNA_SIM_EVENT_QUEUE_HH
#define CDNA_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inplace_function.hh"
#include "sim/time.hh"

namespace cdna::sim {

/** Opaque handle to a scheduled event, usable for cancellation. */
using EventId = std::uint64_t;

/** Sentinel returned for operations that scheduled nothing. */
inline constexpr EventId kInvalidEvent = 0;

/**
 * Min-heap event queue ordered by (time, insertion sequence).
 *
 * The queue owns the simulated clock: now() advances only as events are
 * dispatched (or explicitly via runUntil()'s horizon).  Scheduling in the
 * past is a simulator bug and panics.
 *
 * EventIds encode (generation << 32 | pool slot); freeing a node bumps
 * its generation, so a stale handle can never cancel an unrelated later
 * event that reuses the slot.
 */
class EventQueue
{
  public:
    using Callback = InplaceCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule @p fn to run @p delay after now.
     * @param delay  non-negative offset from the current time
     * @param fn     callback to invoke
     * @return a handle that can be passed to cancel()
     */
    EventId schedule(Time delay, Callback fn);

    /** Schedule @p fn at the absolute time @p when (>= now). */
    EventId scheduleAt(Time when, Callback fn);

    /**
     * Deferred scheduling in the eager position: reserveSeq() takes the
     * FIFO tie-break position an event scheduled right now would get,
     * and scheduleAtSeq() later schedules @p fn at @p when in it, so it
     * dispatches exactly where scheduleAt() would have put it.  Each
     * reservation is used once, before any event ordered after it has
     * dispatched; anything else panics.
     */
    std::uint64_t reserveSeq();
    EventId scheduleAtSeq(Time when, std::uint64_t seq, Callback fn);

    /**
     * Cancel a pending event.
     * @retval true the event was pending and is now cancelled
     * @retval false the handle was invalid, already fired, or cancelled
     */
    bool cancel(EventId id);

    /** True when no live events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of live (not-yet-fired, not-cancelled) events. */
    std::size_t pendingCount() const { return heap_.size(); }

    /** Timestamp of the next live event; horizon if none. */
    Time nextEventTime() const;

    /**
     * Dispatch the single next event, advancing the clock to it.
     * @retval true an event was dispatched
     * @retval false the queue was empty
     */
    bool runOne();

    /**
     * Dispatch all events with timestamp <= @p horizon, then advance the
     * clock to @p horizon.
     * @return the number of events dispatched
     */
    std::uint64_t runUntil(Time horizon);

    /** Dispatch events until the queue drains (or @p max_events fire). */
    std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

    /** Total number of events dispatched since construction. */
    std::uint64_t dispatchedCount() const { return dispatched_; }

  private:
    static constexpr std::uint32_t kNotInHeap = UINT32_MAX;

    /** Pooled per-event state; the ordering key lives in HeapEntry. */
    struct Node
    {
        std::uint32_t gen = 1;       //!< liveness generation (never 0)
        std::uint32_t heapIndex = kNotInHeap;
        Callback fn;
    };

    /**
     * One heap element, carrying its own (when, seq) ordering key so
     * sift comparisons stay within this contiguous array and never
     * dereference the pool (the dominant cost of an indirect heap).
     */
    struct HeapEntry
    {
        Time when;
        std::uint64_t seq;           //!< FIFO tie-break at equal times
        std::uint32_t slot;

        bool
        before(const HeapEntry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    EventId push(Time when, std::uint64_t seq, Callback &&fn);
    std::uint64_t &
    resWord(std::uint64_t w)
    {
        return resBits_[w & (resBits_.size() - 1)];
    }
    void siftUp(std::uint32_t pos);
    void siftDown(std::uint32_t pos);
    void heapRemove(std::uint32_t pos);
    void freeNode(std::uint32_t slot);

    Time now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t dispatched_ = 0;
    HeapEntry last_{0, 0, 0};          //!< key of the last dispatched event
    /** Outstanding reservations, one bit per sequence number: word
     *  seq / 64 sits in ring slot (seq / 64) % size (a power of two).
     *  Only words in [resLo_, resHi_) can be nonzero. */
    std::vector<std::uint64_t> resBits_ = std::vector<std::uint64_t>(64);
    std::uint64_t resLo_ = 0;
    std::uint64_t resHi_ = 0;
    std::vector<Node> pool_;           //!< slot-addressed node storage
    std::vector<std::uint32_t> free_;  //!< recyclable pool slots
    std::vector<HeapEntry> heap_;      //!< 4-ary min-heap
};

} // namespace cdna::sim

#endif // CDNA_SIM_EVENT_QUEUE_HH
