// Deterministic discrete-event simulation core.
//
// The simulator owns a slab of intrusive event records plus one or more
// binary heaps ("shards") of small POD entries ordered by (time, sequence).
// Components schedule callbacks at future virtual times; Run() drains the
// shards in that order, so two events scheduled for the same instant fire in
// scheduling order. This total order plus a seeded PRNG makes every
// experiment in this repository exactly reproducible.
//
// Hot-path design (DESIGN.md §3c, §3g):
//  - Event callbacks live inline in slab slots (small-buffer optimization,
//    kInlineBytes of capture storage); only oversized captures fall back to
//    the heap (counted by callback_heap_spills()), so a steady-state event
//    costs zero allocations.
//  - Each shard heap holds 24-byte {when, seq, slot} PODs — sift operations
//    move trivially-copyable values, never callbacks.
//  - Slots are recycled through a free list; EventIds carry a per-slot
//    generation tag, making Cancel() an O(1) slot probe (no hash set) with
//    stale-id safety across slot reuse.
//  - Cancelled slots are discarded lazily when their heap entry surfaces at a
//    shard head, exactly once per surfacing (the single EarliestShard() path).
//  - Sharding (§3g): SetShardCount(k) splits the queue into k independent
//    heaps merged by a linear scan of the cached head keys on (when, seq).
//    Because (when, seq) is a strict total order assigned at Schedule time,
//    the executed event sequence — and with it every metric snapshot — is
//    byte-identical for ANY shard count; sharding only changes sift depth and
//    cache locality. Big topologies map per-node admission onto per-node
//    shards so a million-arrival workload never serializes on one deep heap.
//  - ScheduleBatch() admits many events in one call: equivalent to per-item
//    ScheduleAt in index order (same seq assignment), but the appended run
//    is pre-sorted into an empty shard or bulk-rebuilt bottom-up (Floyd)
//    when it dominates the shard. Pass `ids` to receive cancellable
//    EventIds for each admitted entry.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/time.h"

namespace nadino {

// Identifies a scheduled event so it can be cancelled before it fires.
// Encodes (slot index << 32 | generation); generations start at 1, so no
// valid id ever equals kInvalidEventId.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

namespace internal {

// Dispatch table for one erased callable type. Kept at namespace scope so the
// per-type instances can be inline constexpr (one per translation unit fold).
struct EventCallbackOps {
  void (*invoke)(void* storage);
  void (*move_construct)(void* dst, void* src);  // src is destroyed.
  void (*destroy)(void* storage);
};

// Fixed-capacity type-erased callable. Captures up to kInlineBytes (and
// alignment <= max_align_t, nothrow-movable) are stored inline in the event
// slot; anything bigger degrades to one heap allocation, preserving
// correctness for rare giant captures without taxing the common case.
class EventCallback {
 public:
  static constexpr size_t kInlineBytes = 96;

  EventCallback() = default;
  ~EventCallback() { Reset(); }
  EventCallback(EventCallback&& other) noexcept { MoveFrom(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  // Returns true when the capture exceeded kInlineBytes and spilled to a
  // heap allocation (the caller counts these; hot paths are pinned at zero
  // spills by tests).
  template <typename F>
  bool Emplace(F&& f);

  // Requires engaged(). The callable stays constructed after the call (the
  // destructor or Reset() releases it), matching pre-slab semantics where the
  // moved-out std::function died at end of the pop scope.
  void Invoke() { ops_->invoke(storage_); }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  bool engaged() const { return ops_ != nullptr; }

 private:
  void MoveFrom(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->move_construct(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  const EventCallbackOps* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

template <typename Fn>
struct InlineCallbackOps {
  static void Invoke(void* storage) { (*std::launder(reinterpret_cast<Fn*>(storage)))(); }
  static void MoveConstruct(void* dst, void* src) {
    Fn* from = std::launder(reinterpret_cast<Fn*>(src));
    ::new (dst) Fn(std::move(*from));
    from->~Fn();
  }
  static void Destroy(void* storage) { std::launder(reinterpret_cast<Fn*>(storage))->~Fn(); }
  inline static constexpr EventCallbackOps kOps{&Invoke, &MoveConstruct, &Destroy};
};

template <typename Fn>
struct HeapCallbackOps {
  static Fn*& Ptr(void* storage) { return *std::launder(reinterpret_cast<Fn**>(storage)); }
  static void Invoke(void* storage) { (*Ptr(storage))(); }
  static void MoveConstruct(void* dst, void* src) { std::memcpy(dst, src, sizeof(Fn*)); }
  static void Destroy(void* storage) { delete Ptr(storage); }
  inline static constexpr EventCallbackOps kOps{&Invoke, &MoveConstruct, &Destroy};
};

template <typename F>
bool EventCallback::Emplace(F&& f) {
  using Fn = std::decay_t<F>;
  static_assert(std::is_invocable_r_v<void, Fn&>, "event callbacks take no args");
  assert(ops_ == nullptr && "Emplace into an engaged callback");
  if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                std::is_nothrow_move_constructible_v<Fn>) {
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &InlineCallbackOps<Fn>::kOps;
    return false;
  } else {
    ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
    ops_ = &HeapCallbackOps<Fn>::kOps;
    return true;
  }
}

}  // namespace internal

class Simulator {
 public:
  // Upper bound on event-queue shards; one per node is the intended mapping,
  // so this matches the largest topology the benches sweep.
  static constexpr uint32_t kMaxShards = 64;

  Simulator() : shards_(1) {
    std::fill(std::begin(head_keys_), std::end(head_keys_), kEmptyHead);
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  // Current virtual time. Only advances inside Run*/Step.
  SimTime now() const { return now_; }

  // Splits the event queue into `shards` independent heaps (clamped to
  // [1, kMaxShards]) merged deterministically on (when, seq). The executed
  // order is byte-identical for any shard count; already-pending events are
  // consolidated onto shard 0. Shard indices passed to *On/ScheduleBatch are
  // taken modulo the shard count, so `node_id % anything` is always safe.
  void SetShardCount(uint32_t shards);
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }

  // Schedules `f` to run `delay` nanoseconds from now. Negative delays clamp
  // to zero (fire this instant, after already-queued same-instant events).
  // The event lands on the shard of the currently-running event (shard 0
  // outside event context): a request admitted onto its node's shard keeps
  // its whole event chain there without threading shard ids through every
  // component. Inheritance never changes the executed order — only which
  // heap carries the entry.
  template <typename F>
  EventId Schedule(SimDuration delay, F&& f) {
    return ScheduleOn(current_shard_, delay, std::forward<F>(f));
  }

  // Schedules `f` at an absolute virtual time (clamped to >= now()). Same
  // shard inheritance as Schedule().
  template <typename F>
  EventId ScheduleAt(SimTime when, F&& f) {
    return ScheduleAtOn(current_shard_, when, std::forward<F>(f));
  }

  // Shard-targeted variants: identical semantics, but the event lives on the
  // given shard's heap (per-node admission in big topologies).
  template <typename F>
  EventId ScheduleOn(uint32_t shard, SimDuration delay, F&& f) {
    if (delay < 0) {
      delay = 0;
    }
    return ScheduleAtOn(shard, now_ + delay, std::forward<F>(f));
  }

  template <typename F>
  EventId ScheduleAtOn(uint32_t shard, SimTime when, F&& f) {
    return Push(shard, when, next_seq_++, std::forward<F>(f));
  }

  // Deferred scheduling. ReserveSeq() claims the next scheduling sequence
  // number without queueing anything; ScheduleReserved(when, seq, f) later
  // queues `f` under that seq. The event then runs exactly where it would
  // have run had it been scheduled at reservation time for the same `when`:
  // after same-instant events scheduled before the reservation, before those
  // scheduled after it. A component whose events are mostly no-ops (an ACK
  // deadline that the ACK beat) reserves a seq per cause and queues only the
  // events that will do work, so eliding the rest changes no order. `when`
  // must not precede now() and the reserved (when, seq) must not precede the
  // running event; the returned id is cancellable like any other.
  uint64_t ReserveSeq() { return next_seq_++; }

  template <typename F>
  EventId ScheduleReserved(SimTime when, uint64_t seq, F&& f) {
    assert(seq < next_seq_ && "ScheduleReserved needs a seq from ReserveSeq");
    assert((when > now_ || seq > running_seq_) && "reserved slot already passed");
    return Push(current_shard_, when, seq, std::forward<F>(f));
  }

  // Bulk admission of `whens.size()` events onto one shard; `make(i)` builds
  // the i-th callback. Equivalent to calling ScheduleAtOn(shard, whens[i],
  // make(i)) in index order — same seq assignment, same total order, so runs
  // are byte-identical either way — but heap maintenance is amortized:
  //  - into an empty shard, the run is sorted once (a sorted ascending array
  //    is already a valid binary min-heap);
  //  - when the batch rivals the shard's backlog, the whole heap is rebuilt
  //    bottom-up (Floyd) in O(old + m) instead of m O(log n) sifts;
  //  - small batches fall back to per-entry sift-up.
  // Timestamps clamp to >= now(). When `ids` is non-null it receives one
  // EventId per entry (appended in index order), each individually
  // cancellable exactly like a ScheduleAtOn id.
  template <typename MakeFn>
  void ScheduleBatch(uint32_t shard, const std::vector<SimTime>& whens, MakeFn&& make,
                     std::vector<EventId>* ids = nullptr) {
    if (whens.empty()) {
      return;
    }
    std::vector<HeapEntry>& heap = shards_[ShardIndex(shard)].heap;
    const size_t old_size = heap.size();
    const size_t m = whens.size();
    heap.reserve(old_size + m);
    for (size_t i = 0; i < m; ++i) {
      SimTime when = whens[i];
      if (when < now_) {
        when = now_;
      }
      const uint32_t slot_index = AllocSlot();
      Slot& slot = SlotAt(slot_index);
      slot.state = SlotState::kLive;
      callback_heap_spills_ += slot.cb.Emplace(make(i)) ? 1 : 0;
      heap.push_back(HeapEntry{when, next_seq_++, slot_index});
      if (ids != nullptr) {
        ids->push_back(MakeId(slot_index, slot.generation));
      }
    }
    live_count_ += m;
    if (old_size == 0) {
      std::sort(heap.begin(), heap.end(),
                [](const HeapEntry& a, const HeapEntry& b) { return Earlier(a, b); });
    } else if (m >= old_size) {
      HeapRebuild(heap);
    } else {
      for (size_t i = old_size; i < heap.size(); ++i) {
        SiftUp(heap, i);
      }
    }
    SyncHead(ShardIndex(shard));
  }

  // Cancels a pending event. Returns false if the event already fired, was
  // already cancelled, or never existed. O(1): decodes the id into a slot
  // probe; the heap entry is lazily discarded when it reaches its shard head.
  bool Cancel(EventId id);

  // Runs until the event queue is empty or Stop() is called.
  void Run();

  // Runs events with timestamp <= `deadline`, then sets now() to `deadline`
  // (if the queue drained earlier the clock still advances to the deadline).
  void RunUntil(SimTime deadline);

  // Convenience: RunUntil(now() + span).
  void RunFor(SimDuration span) { RunUntil(now_ + span); }

  // Executes the single next event, if any. Returns false when idle. Clears
  // a prior Stop(), consistently with Run()/RunUntil().
  bool Step();

  // Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  // Total number of callbacks executed; useful for perf accounting and for
  // asserting determinism (equal seeds => equal event counts).
  uint64_t events_processed() const { return events_processed_; }

  // Number of live (not-yet-fired, not-cancelled) events.
  size_t pending_events() const { return live_count_; }

  // Slab occupancy introspection for tests: total slots ever allocated. A
  // steady-state workload reuses slots through the free list, so this stays
  // flat once the working set is warm (asserted by the allocation test).
  size_t slab_slots() const { return slot_count_; }

  // EventCallback captures that exceeded kInlineBytes and heap-allocated.
  // Surfaced as an accessor (not a registry metric) so default snapshots —
  // and with them every golden — stay byte-identical.
  uint64_t callback_heap_spills() const { return callback_heap_spills_; }

 private:
  enum class SlotState : uint8_t { kFree, kLive, kCancelled, kRunning };

  // One slab record. The callback's capture storage is inline, so scheduling
  // a small-capture event touches no allocator; `generation` tags recycled
  // slots so stale EventIds can never cancel an unrelated event.
  struct Slot {
    internal::EventCallback cb;
    uint32_t generation = 1;
    uint32_t next_free = 0;
    SlotState state = SlotState::kFree;
  };

  // What the binary heaps actually move: a trivially-copyable 24-byte record.
  // `seq` is the monotonic scheduling sequence — the same tie-break the old
  // priority_queue used as its event id — so the (when, seq) total order (and
  // with it every metric snapshot) is byte-identical to the pre-slab core,
  // and independent of how entries are distributed across shards.
  struct HeapEntry {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<HeapEntry>,
                "heap sifts must never run user code (the pop path mutates no "
                "const refs — the old const_cast<Event&> move is gone)");

  // One independent event queue.
  struct Shard {
    std::vector<HeapEntry> heap;
  };

  // Merge key of one shard's head, mirrored into the compact head_keys_
  // array: the scan for the global minimum reads 16 bytes per shard from one
  // contiguous block (branch-predictor- and prefetch-friendly) instead of
  // dereferencing every heap's out-of-line storage. Empty shards carry the
  // +inf sentinel so the scan needs no emptiness branch.
  struct HeadKey {
    SimTime when;
    uint64_t seq;
  };
  static constexpr HeadKey kEmptyHead{std::numeric_limits<SimTime>::max(),
                                      std::numeric_limits<uint64_t>::max()};

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.seq < b.seq;
  }

  static EventId MakeId(uint32_t slot, uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }

  static constexpr uint32_t kChunkShift = 10;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;  // Slots per slab chunk.
  static constexpr uint32_t kNoFreeSlot = 0xFFFFFFFFu;

  Slot& SlotAt(uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  uint32_t ShardIndex(uint32_t shard) const {
    return shard % static_cast<uint32_t>(shards_.size());
  }

  uint32_t AllocSlot();
  void FreeSlot(uint32_t index);

  // Queues `f` at (when, seq) on `shard`; `when` clamps to >= now().
  template <typename F>
  EventId Push(uint32_t shard, SimTime when, uint64_t seq, F&& f) {
    if (when < now_) {
      when = now_;
    }
    const uint32_t slot_index = AllocSlot();
    Slot& slot = SlotAt(slot_index);
    slot.state = SlotState::kLive;
    callback_heap_spills_ += slot.cb.Emplace(std::forward<F>(f)) ? 1 : 0;
    HeapPush(ShardIndex(shard), HeapEntry{when, seq, slot_index});
    ++live_count_;
    return MakeId(slot_index, slot.generation);
  }

  // Re-mirrors shard's heap head into head_keys_ (sentinel when empty).
  void SyncHead(uint32_t shard) {
    const std::vector<HeapEntry>& heap = shards_[shard].heap;
    head_keys_[shard] =
        heap.empty() ? kEmptyHead : HeadKey{heap.front().when, heap.front().seq};
  }

  void HeapPush(uint32_t shard, HeapEntry entry);
  void HeapPopTop(uint32_t shard);
  // Hole-based sift primitives shared by push/pop/rebuild.
  static void SiftUp(std::vector<HeapEntry>& heap, size_t i);
  static void SiftDown(std::vector<HeapEntry>& heap, size_t i);
  // Floyd bottom-up heapify of one shard heap (bulk admission).
  static void HeapRebuild(std::vector<HeapEntry>& heap);

  // The deterministic merge: scans the cached heads for the globally
  // earliest (when, seq); a cancelled entry that wins the scan is discarded
  // (the single discard path — cancelled entries buried in a heap, or at a
  // losing head, cost nothing until they surface as the global minimum) and
  // the scan repeats. Returns -1 when every shard is drained.
  int EarliestShard();

  // The single pop path: merges shard heads, then runs the next live event if
  // its timestamp is <= `deadline`. Returns false when idle or the next live
  // event is beyond the deadline.
  bool PopAndRunBefore(SimTime deadline);

  SimTime now_ = 0;
  // Shard of the event currently executing; Schedule/ScheduleAt inherit it.
  uint32_t current_shard_ = 0;
  uint64_t next_seq_ = 1;
  // Seq of the last event run at now() (0 when none has): the bound
  // ScheduleReserved checks its reserved (when, seq) against.
  uint64_t running_seq_ = 0;
  uint64_t events_processed_ = 0;
  size_t live_count_ = 0;
  bool stopped_ = false;
  std::vector<Shard> shards_;
  HeadKey head_keys_[kMaxShards] = {};  // Synced in SetShardCount and on push/pop.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t slot_count_ = 0;
  uint32_t free_head_ = kNoFreeSlot;
  uint64_t callback_heap_spills_ = 0;
};

}  // namespace nadino

#endif  // SRC_SIM_SIMULATOR_H_
