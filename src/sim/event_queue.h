// Cancellable priority event queue: the core data structure of the
// discrete-event engine.
//
// Cancellation is lazy: cancelled entries stay in the heap and are skipped
// on pop. This keeps Cancel() O(1) and is the standard technique for
// simulators whose I/O-completion events are frequently rescheduled when
// bandwidth shares change. To keep the heap from growing unboundedly across
// a month of rescheduled completion events, Cancel triggers a compaction
// (rebuild dropping every cancelled entry) whenever cancelled entries
// outnumber live ones; since a compaction is linear in the heap and halves
// it, the cost is amortized O(1) per Cancel.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/time.h"

namespace iosched::sim {

/// Identifier returned by Push; usable to Cancel the event later.
using EventId = std::uint64_t;

/// A schedulable event: time, FIFO tie-break sequence, action.
struct Event {
  SimTime time = 0.0;
  EventId id = 0;
  std::function<void()> action;
};

class EventQueue {
 public:
  EventQueue() = default;

  /// Schedule `action` at `time`. Events at equal time pop in push order.
  EventId Push(SimTime time, std::function<void()> action);

  /// Cancel a pending event. Returns false if the event already ran, was
  /// already cancelled, or never existed. May compact the heap (see
  /// Compact) once enough lazily-cancelled entries pile up.
  bool Cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  bool Empty() const { return actions_.empty(); }

  /// Number of live events.
  std::size_t Size() const { return actions_.size(); }

  /// Entries physically in the heap: live plus not-yet-purged cancelled
  /// ones. Exposed so tests can assert compaction bounds the heap.
  std::size_t HeapSize() const { return heap_.size(); }

  /// Time of the next live event. Precondition: !Empty().
  SimTime PeekTime() const;

  /// Pop and return the next live event. Precondition: !Empty().
  Event Pop();

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

  /// Hand out the next `n` ids without scheduling anything; returns the
  /// first (the range is [first, first + n)). The caller later arms each
  /// one with PushReserved, and it pops exactly where an event pushed with
  /// that id would have: this lets a producer with a long, known-in-advance
  /// schedule (the workload's arrivals) keep only its next event armed.
  EventId ReserveIds(std::size_t n);

  /// Insert an event under an id handed out earlier, by ReserveIds or by a
  /// saved run (checkpoint restore, after SetNextId). Pop order is
  /// (time, id) and ids encode FIFO push order, so arming an event under
  /// its reserved id reproduces the pop sequence an immediate Push would
  /// have had; on restore, recreating every live event with its saved id
  /// reproduces the pre-checkpoint sequence (lazily-cancelled entries are
  /// simply not recreated). Throws if `id` was never handed out or is
  /// already pending.
  void PushReserved(SimTime time, EventId id, std::function<void()> action);

  /// Restore the id counter so post-restore Push calls continue the saved
  /// id sequence (ids are the FIFO tie-break; reusing one would reorder
  /// same-timestamp events). Only valid while no events are pending.
  void SetNextId(EventId next_id);

  /// The id the next Push will assign (saved into checkpoints).
  EventId next_id() const { return next_id_; }

 private:
  struct Entry {
    SimTime time;
    EventId id;
  };
  // std::push_heap-style comparator; "greater" ordering yields a min-heap
  // on (time, id): earlier time first, FIFO within a timestamp.
  static bool Later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.id > b.id;
  }

  void DropCancelledHead() const;

  mutable std::vector<Entry> heap_;
  mutable std::unordered_set<EventId> cancelled_;
  std::unordered_map<EventId, std::function<void()>> actions_;
  EventId next_id_ = 1;
};

}  // namespace iosched::sim
