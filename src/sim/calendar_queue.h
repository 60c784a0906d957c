#pragma once

// Calendar queue for the engine's unified event stream.
//
// A calendar queue (R. Brown, "Calendar queues: a fast O(1) priority queue
// implementation for the simulation event set problem", CACM 1988) hashes
// events into time buckets of a fixed width, like days on a desk calendar:
// insertion appends into the bucket of the event's "day", dequeue scans the
// current day and wraps into the next year when a bucket holds only events
// for later years. With the width kept near the average inter-event gap by
// doubling/halving the bucket count as the population grows and shrinks,
// both operations are O(1) amortized — replacing the engine's former
// sorted-release pointer + binary-heap completion queue pair with one
// structure and one ordering rule.
//
// --- Event tie-break (single source of truth) ------------------------------
//
// `event_before` below is the ONE definition of simultaneous-event order for
// the whole engine (previously implicit in two separate queue comparators):
//
//   1. time        — earlier events first;
//   2. kind        — completions before releases (matching the historical
//                    advance_to contract: machines freed at t are available
//                    to jobs arriving at t);
//   3. org         — lower organization id first;
//   4. index       — lower per-organization job index first.
//
// (time, kind, org, index) is unique per event — a job has one release and
// one completion — so the order is total and the drain sequence is fully
// deterministic regardless of insertion order; tests/test_calendar_queue.cc
// pins this. The one deliberate exception is documented in sim/engine.h:
// engines running with MachinePick::kRandomFree keep the legacy
// time-only completion heap, whose same-time pop order feeds the random
// machine draw and is therefore part of the published RNG stream.
//
// The structure itself is generic (BasicCalendarQueue): any entry type with
// a non-negative `time` field and a strict total order refining time works.
// The engine instantiates it for EngineEvent. (Note: a calendar queue wants
// a population whose times spread over many buckets — a small set of
// near-simultaneous entries degenerates into one long bucket.)
//
// Buckets are skew heaps (top-down self-adjusting min-heaps) over all nodes
// in one pooled array recycled through a free list: pushes and pops never
// touch the allocator in steady state — the pool only grows to the peak
// number of pending events. A bucket's root is its minimum, so push and pop
// cost O(log occupancy) amortized even when the population defeats the
// bucket geometry. That matters because the bucket width cannot drop below
// one time unit: an open workload with thousands of arrivals per integer
// timestamp (the serve smoke load) piles thousands of events into a handful
// of buckets, where the sorted-list buckets this replaced paid an O(occupancy)
// insertion walk per push and the heap pays ~log2(occupancy) node visits.
// With O(1) expected occupancy the heap degenerates gracefully back to a
// couple of pointer swaps per operation. The drain order is unchanged in
// every case: the comparator is a strict total order, so the bucket minimum
// is unique and the pop sequence cannot depend on the heap's internal shape
// or the insertion order. Times must be non-negative, as everywhere in the
// simulator.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.h"

namespace fairsched {

// What happened at EngineEvent::time. kCompletion must order before
// kRelease (see the tie-break above); the enum values encode that.
enum class EventKind : std::uint8_t { kCompletion = 0, kRelease = 1 };

// One entry of the engine's unified event stream.
struct EngineEvent {
  Time time = 0;
  EventKind kind = EventKind::kRelease;
  OrgId org = kNoOrg;
  std::uint32_t index = 0;  // per-organization job index
  MachineId machine = kNoMachine;  // completions only

  friend bool operator==(const EngineEvent&, const EngineEvent&) = default;
};

// THE tie-break rule. Strict total order over distinct events.
constexpr bool event_before(const EngineEvent& a, const EngineEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.org != b.org) return a.org < b.org;
  return a.index < b.index;
}

// Functor form of the tie-break, the default order of BasicCalendarQueue.
struct EngineEventOrder {
  constexpr bool operator()(const EngineEvent& a, const EngineEvent& b) const {
    return event_before(a, b);
  }
};

template <typename Event, typename Order = EngineEventOrder>
class BasicCalendarQueue {
 public:
  BasicCalendarQueue() { rebuild(kMinBuckets, /*shift=*/0); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // Pre-sizes the (empty) calendar for `expected` events spanning [lo, hi]:
  // one rebuild and one pool allocation up front instead of the O(log n)
  // cascade of doubling resizes a bulk preload would trigger. Purely a
  // performance hint — the drain order is the same total order regardless
  // of bucket geometry.
  void reserve(std::size_t expected, Time lo, Time hi) {
    assert(size_ == 0);
    std::size_t n = kMinBuckets;
    while (n < expected && n < kMaxBuckets) n <<= 1;
    Time width = 1;
    if (expected > 0 && hi > lo) {
      width = (hi - lo) / static_cast<Time>(expected);
      if (width < 1) width = 1;
    }
    pool_.reserve(expected);
    rebuild(n, shift_for(width));
    if (expected > 0 && lo >= 0) floor_time_ = lo;
  }

  void push(const Event& e) {
    assert(e.time >= 0);
    // Keep the dequeue scan's lower bound valid under out-of-order pushes
    // (the engine only pushes at or after the clock, but the structure
    // does not rely on that).
    if (e.time < floor_time_) floor_time_ = e.time;
    std::int32_t& head = head_[bucket_of(e.time)];
    head = merge(head, alloc_node(e));
    ++size_;
    top_valid_ = false;
    if (size_ > 2 * head_.size() && head_.size() < kMaxBuckets) {
      resize(2 * head_.size());
    }
  }

  // Minimum by the order. Precondition: !empty().
  const Event& top() const {
    assert(size_ > 0);
    if (!top_valid_) {
      locate_top();
      top_valid_ = true;
    }
    return pool_[head_[top_bucket_]].event;
  }

  Event pop() {
    (void)top();  // ensures top_bucket_ is current
    const std::int32_t node = head_[top_bucket_];
    const Event e = pool_[node].event;
    head_[top_bucket_] = merge(pool_[node].left, pool_[node].right);
    free_node(node);
    --size_;
    top_valid_ = false;
    floor_time_ = e.time;  // dequeues are nondecreasing in time
    if (4 * size_ < head_.size() && head_.size() > kMinBuckets) {
      resize(head_.size() / 2);
    }
    return e;
  }

  // Introspection for tests.
  std::size_t num_buckets() const { return head_.size(); }
  Time bucket_width() const { return Time{1} << shift_; }

 private:
  static constexpr std::size_t kMinBuckets = 4;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 22;
  static constexpr std::size_t kNoBucket = static_cast<std::size_t>(-1);
  static constexpr std::int32_t kNil = -1;

  struct Node {
    Event event;
    std::int32_t left = kNil;
    std::int32_t right = kNil;
  };

  // Bucket widths are powers of two and the bucket count is a power of two,
  // so the day hash is a shift and a mask — no integer division on the push
  // and dequeue paths.
  std::size_t bucket_of(Time t) const {
    return static_cast<std::size_t>(t >> shift_) & (head_.size() - 1);
  }

  // Smallest shift whose width (1 << shift) is >= `width`.
  static unsigned shift_for(Time width) {
    unsigned shift = 0;
    while ((Time{1} << shift) < width) ++shift;
    return shift;
  }

  std::int32_t alloc_node(const Event& e) {
    if (free_head_ != kNil) {
      const std::int32_t n = free_head_;
      free_head_ = pool_[n].left;
      pool_[n].event = e;
      pool_[n].left = kNil;
      pool_[n].right = kNil;
      return n;
    }
    pool_.push_back(Node{e, kNil, kNil});
    return static_cast<std::int32_t>(pool_.size() - 1);
  }

  void free_node(std::int32_t n) {
    pool_[n].left = free_head_;
    free_head_ = n;
  }

  // Top-down skew-heap merge of two bucket heaps, iterative so the merge
  // path never recurses (a skew heap's single-operation path can be long
  // even though the amortized cost is O(log n)). Walks the rightmost paths:
  // the smaller root is attached, its children are swapped, and the merge
  // continues into the (pre-swap) right child.
  std::int32_t merge(std::int32_t a, std::int32_t b) {
    std::int32_t head = kNil;
    std::int32_t* link = &head;
    while (a != kNil && b != kNil) {
      if (Order{}(pool_[b].event, pool_[a].event)) std::swap(a, b);
      const std::int32_t rest = pool_[a].right;
      *link = a;
      pool_[a].right = pool_[a].left;
      link = &pool_[a].left;
      a = rest;
    }
    *link = (a != kNil) ? a : b;
    return head;
  }

  void locate_top() const {
    // One lap over the calendar starting at the current day: a bucket's
    // minimum (its head) is taken only if it falls inside the day the lap
    // assigns to that bucket; otherwise the bucket holds only later years.
    const Time start_day = floor_time_ >> shift_;
    const std::size_t n = head_.size();
    std::size_t b = static_cast<std::size_t>(start_day) & (n - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t node = head_[b];
      if (node != kNil &&
          pool_[node].event.time >> shift_ ==
              start_day + static_cast<Time>(i)) {
        top_bucket_ = b;
        return;
      }
      b = (b + 1 == n) ? 0 : b + 1;
    }
    // Sparse population beyond one year: direct minimum search.
    std::size_t best = kNoBucket;
    for (std::size_t j = 0; j < n; ++j) {
      if (head_[j] == kNil) continue;
      if (best == kNoBucket ||
          Order{}(pool_[head_[j]].event, pool_[head_[best]].event)) {
        best = j;
      }
    }
    assert(best != kNoBucket);
    top_bucket_ = best;
  }

  void resize(std::size_t new_bucket_count) {
    // Re-estimate the width from the live population so occupancy returns
    // to O(1): the average gap between the earliest and latest pending
    // events, rounded up to a power of two (at least one time unit).
    // Collect the live nodes, re-point the bucket heads, and relink — no
    // allocation.
    scratch_.clear();
    Time lo = kTimeInfinity;
    Time hi = 0;
    for (const std::int32_t head : head_) {
      if (head != kNil) scratch_.push_back(head);
    }
    // scratch_ doubles as the traversal worklist: children of node i are
    // appended past i, so one forward sweep visits every live node.
    for (std::size_t i = 0; i < scratch_.size(); ++i) {
      const std::int32_t n = scratch_[i];
      if (pool_[n].left != kNil) scratch_.push_back(pool_[n].left);
      if (pool_[n].right != kNil) scratch_.push_back(pool_[n].right);
      const Time t = pool_[n].event.time;
      if (t < lo) lo = t;
      if (t > hi) hi = t;
    }
    Time width = 1;
    if (size_ > 0 && hi > lo) {
      width = (hi - lo) / static_cast<Time>(size_);
      if (width < 1) width = 1;
    }
    rebuild(new_bucket_count, shift_for(width));
    for (const std::int32_t n : scratch_) {
      pool_[n].left = kNil;
      pool_[n].right = kNil;
      std::int32_t& head = head_[bucket_of(pool_[n].event.time)];
      head = merge(head, n);
    }
  }

  void rebuild(std::size_t bucket_count, unsigned shift) {
    assert((bucket_count & (bucket_count - 1)) == 0);
    head_.assign(bucket_count, kNil);
    shift_ = shift;
    top_valid_ = false;
  }

  std::vector<Node> pool_;
  std::int32_t free_head_ = kNil;
  std::vector<std::int32_t> head_;  // per-bucket skew-heap roots
  std::vector<std::int32_t> scratch_;  // resize work list
  unsigned shift_ = 0;  // bucket width is 1 << shift_
  std::size_t size_ = 0;
  // Lower bound on every pending event's time; anchor of the dequeue lap.
  Time floor_time_ = 0;
  mutable std::size_t top_bucket_ = kNoBucket;
  mutable bool top_valid_ = false;
};

// The engine's unified event stream.
using CalendarQueue = BasicCalendarQueue<EngineEvent>;

}  // namespace fairsched
