#include "src/sim/simulator.h"

#include <limits>

namespace nadino {

namespace {
constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();
}  // namespace

Simulator::~Simulator() = default;

uint32_t Simulator::AllocSlot() {
  if (free_head_ != kNoFreeSlot) {
    const uint32_t index = free_head_;
    free_head_ = SlotAt(index).next_free;
    return index;
  }
  if ((slot_count_ >> kChunkShift) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slot_count_++;
}

void Simulator::FreeSlot(uint32_t index) {
  Slot& slot = SlotAt(index);
  slot.state = SlotState::kFree;
  // Tag the next tenancy of this slot; skip 0 on wrap so MakeId(0, gen) can
  // never collide with kInvalidEventId.
  if (++slot.generation == 0) {
    slot.generation = 1;
  }
  slot.next_free = free_head_;
  free_head_ = index;
}

void Simulator::SetShardCount(uint32_t shards) {
  if (shards < 1) {
    shards = 1;
  }
  if (shards > kMaxShards) {
    shards = kMaxShards;
  }
  if (shards == shards_.size()) {
    return;
  }
  // Consolidate whatever is pending onto shard 0 of the new layout: shard
  // residency is an implementation detail (the merge order is (when, seq)),
  // so redistribution never changes the executed sequence.
  std::vector<HeapEntry> pending;
  for (Shard& shard : shards_) {
    pending.insert(pending.end(), shard.heap.begin(), shard.heap.end());
  }
  shards_.assign(shards, Shard{});
  if (!pending.empty()) {
    std::sort(pending.begin(), pending.end(),
              [](const HeapEntry& a, const HeapEntry& b) { return Earlier(a, b); });
    shards_[0].heap = std::move(pending);
  }
  std::fill(std::begin(head_keys_), std::end(head_keys_), kEmptyHead);
  SyncHead(0);
}

bool Simulator::Cancel(EventId id) {
  const uint32_t index = static_cast<uint32_t>(id >> 32);
  const uint32_t generation = static_cast<uint32_t>(id);
  if (index >= slot_count_) {
    return false;
  }
  Slot& slot = SlotAt(index);
  if (slot.state != SlotState::kLive || slot.generation != generation) {
    return false;
  }
  slot.state = SlotState::kCancelled;
  --live_count_;
  return true;
}

// Hole-based sift-up: the entry rides up in a register while parents shift
// into the hole, halving the memory traffic of swap-based sifting.
void Simulator::SiftUp(std::vector<HeapEntry>& heap, size_t i) {
  const HeapEntry entry = heap[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Earlier(entry, heap[parent])) {
      break;
    }
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = entry;
}

// Hole-based sift-down of the entry at `i`.
void Simulator::SiftDown(std::vector<HeapEntry>& heap, size_t i) {
  const size_t n = heap.size();
  const HeapEntry entry = heap[i];
  for (;;) {
    const size_t left = 2 * i + 1;
    if (left >= n) {
      break;
    }
    size_t child = left;
    const size_t right = left + 1;
    if (right < n && Earlier(heap[right], heap[left])) {
      child = right;
    }
    if (!Earlier(heap[child], entry)) {
      break;
    }
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = entry;
}

// Floyd's bottom-up heap construction: O(n) regardless of prior order, used
// when a bulk admission rivals the shard's existing backlog.
void Simulator::HeapRebuild(std::vector<HeapEntry>& heap) {
  for (size_t i = heap.size() / 2; i-- > 0;) {
    SiftDown(heap, i);
  }
}

void Simulator::HeapPush(uint32_t shard, HeapEntry entry) {
  std::vector<HeapEntry>& heap = shards_[shard].heap;
  heap.push_back(entry);
  SiftUp(heap, heap.size() - 1);
  SyncHead(shard);
}

void Simulator::HeapPopTop(uint32_t shard) {
  std::vector<HeapEntry>& heap = shards_[shard].heap;
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (!heap.empty()) {
    heap[0] = last;
    SiftDown(heap, 0);
  }
  SyncHead(shard);
}

int Simulator::EarliestShard() {
  const uint32_t count = static_cast<uint32_t>(shards_.size());
  for (;;) {
    // The merge scan reads only the compact head_keys_ array (16 bytes per
    // shard, contiguous); empty shards lose automatically via the sentinel,
    // so the loop body is a pair of compares the compiler can turn into
    // conditional moves.
    uint32_t best = 0;
    for (uint32_t s = 1; s < count; ++s) {
      const HeadKey& a = head_keys_[s];
      const HeadKey& b = head_keys_[best];
      if (a.when < b.when || (a.when == b.when && a.seq < b.seq)) {
        best = s;
      }
    }
    if (shards_[best].heap.empty()) {
      return -1;  // The minimum is the sentinel: every shard is drained.
    }
    // Lazy removal: a cancelled entry is discarded only when it surfaces as
    // the global minimum (one slab probe per executed event; cancelled
    // entries anywhere else cost nothing until they surface).
    const HeapEntry top = shards_[best].heap.front();
    Slot& slot = SlotAt(top.slot);
    if (slot.state != SlotState::kCancelled) {
      assert(slot.state == SlotState::kLive && "heap entry points at a freed slot");
      return static_cast<int>(best);
    }
    HeapPopTop(best);
    slot.cb.Reset();
    FreeSlot(top.slot);
  }
}

bool Simulator::PopAndRunBefore(SimTime deadline) {
  const int shard = EarliestShard();
  if (shard < 0) {
    return false;
  }
  // Copy the POD top out; the heap is never mutated through a const ref.
  const HeapEntry top = shards_[static_cast<uint32_t>(shard)].heap.front();
  if (top.when > deadline) {
    return false;
  }
  HeapPopTop(static_cast<uint32_t>(shard));
  // New events scheduled by this callback inherit the event's shard.
  current_shard_ = static_cast<uint32_t>(shard);
  Slot& slot = SlotAt(top.slot);
  now_ = top.when;
  running_seq_ = top.seq;
  ++events_processed_;
  --live_count_;
  // Invoke in place: kRunning keeps the slot out of the free list (a
  // callback scheduling new events can never be handed its own slot) and
  // out of Cancel's reach (cancelling an already-firing id returns false,
  // as the old pending_-erase-before-call order guaranteed).
  slot.state = SlotState::kRunning;
  slot.cb.Invoke();
  slot.cb.Reset();
  FreeSlot(top.slot);
  return true;
}

void Simulator::Run() {
  stopped_ = false;
  while (!stopped_ && PopAndRunBefore(kNoDeadline)) {
  }
}

void Simulator::RunUntil(SimTime deadline) {
  stopped_ = false;
  while (!stopped_ && PopAndRunBefore(deadline)) {
  }
  if (now_ < deadline) {
    now_ = deadline;
    running_seq_ = 0;
  }
}

bool Simulator::Step() {
  stopped_ = false;
  return PopAndRunBefore(kNoDeadline);
}

}  // namespace nadino
