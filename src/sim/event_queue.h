// Cancellable priority event queue: the core data structure of the
// discrete-event engine.
//
// Events are plain data (see Event): the queue never holds code, so its
// pending set can be copied out and saved like any other state.
//
// Cancellation is lazy: cancelled entries stay in the heap and are skipped
// on pop, and liveness is one bit per id, so no operation hashes. This
// keeps Cancel() O(1) and is the standard technique for simulators whose
// I/O-completion events are frequently rescheduled when bandwidth shares
// change. To keep the heap from growing unboundedly across
// a month of rescheduled completion events, Cancel triggers a compaction
// (rebuild dropping every cancelled entry) whenever cancelled entries
// outnumber live ones; since a compaction is linear in the heap and halves
// it, the cost is amortized O(1) per Cancel.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace iosched::sim {

/// Identifier returned by Push; usable to Cancel the event later.
using EventId = std::uint64_t;

/// The component an event belongs to. The simulator hands each event to
/// the handler registered for its owner.
using Owner = std::uint8_t;

/// An owner-defined event type.
using Kind = std::uint8_t;

/// A schedulable event: firing time, FIFO tie-break id, and what the event
/// means to its owner. `key` names the subject (a job id, a fault-plan edge)
/// and `arg` carries a value (a duration); both are 0 when unused.
struct Event {
  SimTime time = 0.0;
  EventId id = 0;
  Owner owner = 0;
  Kind kind = 0;
  std::int64_t key = 0;
  double arg = 0.0;
};

class EventQueue {
 public:
  EventQueue() = default;

  /// Schedule an event at `time` under the next id. Events at equal time
  /// pop in push order.
  EventId Push(SimTime time, Owner owner, Kind kind, std::int64_t key = 0,
               double arg = 0.0);

  /// Cancel a pending event. Returns false if the event already ran, was
  /// already cancelled, or never existed. May compact the heap (see
  /// Compact) once enough lazily-cancelled entries pile up.
  bool Cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  bool Empty() const { return live_count_ == 0; }

  /// Number of live events.
  std::size_t Size() const { return live_count_; }

  /// True while event `id` is live (pushed, not yet popped or cancelled).
  bool Contains(EventId id) const {
    std::size_t word = static_cast<std::size_t>(id >> 6);
    return word < live_bits_.size() && ((live_bits_[word] >> (id & 63)) & 1u);
  }

  /// Entries physically in the heap: live plus not-yet-purged cancelled
  /// ones. Exposed so tests can assert compaction bounds the heap.
  std::size_t HeapSize() const { return heap_.size(); }

  /// Time of the next live event. Precondition: !Empty().
  SimTime PeekTime() const;

  /// Pop and return the next live event. Precondition: !Empty().
  Event Pop();

  /// Every live event in pop order, (time, id).
  std::vector<Event> Pending() const;

  /// Remove every pending event.
  void Clear();

  /// Rebuild the heap without the lazily-cancelled entries. Runs
  /// automatically from Cancel when cancelled entries outnumber live ones
  /// (and at least kCompactionMinCancelled have accumulated, so small
  /// queues aren't rebuilt constantly); public so tests and long-lived
  /// callers can force a bound. Preserves pop order exactly — the heap
  /// order is (time, id) and ids encode FIFO push order.
  void Compact();

  /// Minimum number of lazily-cancelled entries before an automatic
  /// compaction can trigger.
  static constexpr std::size_t kCompactionMinCancelled = 64;

  /// Ids are below this bound; Push and ReserveIds throw std::length_error
  /// rather than hand out more. Liveness is one bit per id, so a queue at
  /// the bound holds a 512 MB bitset (a 1M-job year hands out about 15M
  /// ids); a checkpoint naming a larger id counter is rejected on restore
  /// instead of sizing the bitset from it.
  static constexpr EventId kIdLimit = EventId{1} << 32;

  /// Hand out the next `n` ids without scheduling anything; returns the
  /// first (the range is [first, first + n)). The caller later arms each
  /// one with PushReserved, and it pops exactly where an event pushed with
  /// that id would have: this lets a producer with a long, known-in-advance
  /// schedule (the workload's arrivals) keep only its next event armed.
  EventId ReserveIds(std::size_t n);

  /// Insert `event` under its own id, handed out earlier by ReserveIds or
  /// by a saved run (checkpoint restore, after SetNextId). Pop order is
  /// (time, id) and ids encode FIFO push order, so arming an event under
  /// its reserved id reproduces the pop sequence an immediate Push would
  /// have had; on restore, recreating every live event with its saved id
  /// reproduces the pre-checkpoint sequence. Each id may be armed once.
  /// Throws if the id was never handed out or is already pending.
  void PushReserved(const Event& event);

  /// Restore the id counter so post-restore Push calls continue the saved
  /// id sequence (ids are the FIFO tie-break; reusing one would reorder
  /// same-timestamp events). Only valid while no events are pending, and
  /// for 0 < next_id <= kIdLimit.
  void SetNextId(EventId next_id);

  /// The id the next Push will assign (saved into checkpoints).
  EventId next_id() const { return next_id_; }

 private:
  // std::push_heap-style comparator; "greater" ordering yields a min-heap
  // on (time, id): earlier time first, FIFO within a timestamp. A function
  // object, so the heap algorithms inline it rather than call a pointer.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  void DropCancelledHead() const;
  /// Set `id`'s live bit (growing the bitset to cover it); false when it
  /// was set already.
  bool MarkLive(EventId id);
  /// Clear the live bit of an id that is live.
  void MarkDead(EventId id);

  /// Live and lazily-cancelled entries; an entry is live while its id's
  /// bit is set in live_bits_, so heap_.size() - live_count_ entries await
  /// purging.
  mutable std::vector<Event> heap_;
  /// Bit `id` is set while event `id` is live. Ids are dense and handed
  /// out in order, so this takes at most next_id_ / 8 bytes: about 2 MB for
  /// the ~15M ids of a `year` replay.
  std::vector<std::uint64_t> live_bits_;
  std::size_t live_count_ = 0;
  EventId next_id_ = 1;
};

}  // namespace iosched::sim
