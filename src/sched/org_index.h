#pragma once

// Indexed per-organization state for incremental (push-based) policies.
//
// The push lifecycle of sim/policy.h lets a policy mirror the engine state
// it ranks organizations by, instead of rescanning every organization per
// decision. A mirror pays only where an organization's key can have
// changed: a start or completion of its own jobs, its queue turning
// non-empty, or — for keys that accrue with wall time — the first decision
// at a new timestamp, and then only for the organizations that drift. A
// release into a queue that already waits moves no key, so it costs the
// mirror nothing beyond the version check. This header packages the four
// pieces every in-tree port uses:
//
//   * IncrementalPolicy — the mirror-bookkeeping base. The engine's
//     PolicyView::state_version() counts every observable state change,
//     one per notification (a same-time completion run or release run, a
//     job started); the base records the version the mirror was last
//     synchronized at. Notification handlers call track(): when the
//     notification is exactly the next unseen change, the handler
//     applies its delta (O(log n) when a key moves, O(1) when none does);
//     otherwise the mirror is stale (the policy is being driven by a loop
//     that steps the engine without attaching — see Engine::attach) and
//     select() heals itself by rebuilding from the view via
//     ensure_synced(). This keeps every port exact under BOTH drivers:
//     attached runs pay per key change, detached drivers degrade to the
//     historical O(n)-per-decision cost, never to a wrong answer.
//
//   * KeyedArgmin<Key> — a tournament tree over organization ids with an
//     explicit priority key per id. argmin() is O(1), set()/clear() are
//     O(log n), and set() of a present id with an equal (==) key is O(1):
//     the tree is already in that state. Ties on equal keys resolve to the
//     LOWER id, which is exactly the "first strict improvement wins" rule
//     of the scan loops these trees replace — so scan and tree agree
//     bit-for-bit as long as the key is computed by the same expression
//     the scan used. The tree's state is a function of the present keys
//     alone, so the order of the set()/clear() calls that produced them
//     cannot change argmin().
//
//   * OrderStatSet — a Fenwick-backed set of organization ids supporting
//     O(log n) insert/erase/count_below/kth. Backs ROUNDROBIN (first member
//     at-or-after the cursor = kth(count_below(cursor))) and RANDOM (the
//     i-th smallest member is position i of the ascending candidate vector
//     the scan used to build, so one uniform draw indexes identically).
//
//   * DenseIdList — an unordered set of organization ids with O(1)
//     insert/erase (swap-remove) and iteration over the members only.
//     Mirrors with time-drifting keys keep their drifting *waiting*
//     organizations in one, so a repair visits those and nothing else.

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/policy.h"

namespace fairsched {

// Base for policies that mirror engine state incrementally.
class IncrementalPolicy : public Policy {
 public:
  void reset(const PolicyView& view) override {
    rebuild(view);
    synced_version_ = view.state_version();
    ready_ = true;
  }

 protected:
  // True iff this notification is exactly the next unseen state change;
  // bumps the synced version. Apply the incremental delta only then —
  // otherwise skip it: the mirror is stale and select() will rebuild.
  bool track(const PolicyView& view) {
    if (ready_ && view.state_version() == synced_version_ + 1) {
      ++synced_version_;
      return true;
    }
    return false;
  }

  // Call on entry to select(): rebuilds the mirror when state changes were
  // missed (detached driver, or a policy that was never reset).
  void ensure_synced(const PolicyView& view) {
    if (!ready_ || view.state_version() != synced_version_) {
      rebuild(view);
      synced_version_ = view.state_version();
      ready_ = true;
    }
  }

  // Reconstructs the whole mirror from the view. Must be callable at any
  // time (it is the detached-driver fallback), so it cannot rely on any
  // notification having been delivered.
  virtual void rebuild(const PolicyView& view) = 0;

 private:
  std::uint64_t synced_version_ = 0;
  bool ready_ = false;
};

// Tournament (winner) tree: argmin of Key over a dense id range, ties to
// the lower id. Key needs operator<.
template <typename Key>
class KeyedArgmin {
 public:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  void init(std::uint32_t n) {
    base_ = 1;
    while (base_ < n) base_ <<= 1;
    keys_.assign(base_, Key{});
    present_.assign(base_, 0);
    win_.assign(2 * base_, kNone);
  }

  bool has(std::uint32_t i) const { return present_[i] != 0; }

  void set(std::uint32_t i, Key key) {
    // An equal key leaves the tree as it is. Mirrors re-key an org at its
    // own starts, where the fair-share and DIRECTCONTR keys, already
    // folded to that instant, do not move. A NaN never compares equal, so
    // it still updates.
    if (present_[i] && keys_[i] == key) return;
    keys_[i] = std::move(key);
    present_[i] = 1;
    win_[base_ + i] = i;
    pull_up(i);
  }

  void clear(std::uint32_t i) {
    if (!present_[i]) return;
    present_[i] = 0;
    win_[base_ + i] = kNone;
    pull_up(i);
  }

  // Id with the smallest key (lowest id on ties), kNone when empty.
  std::uint32_t argmin() const { return win_[1]; }

 private:
  bool better(std::uint32_t a, std::uint32_t b) const {
    if (b == kNone) return true;
    if (a == kNone) return false;
    if (keys_[a] < keys_[b]) return true;
    if (keys_[b] < keys_[a]) return false;
    return a < b;
  }

  void pull_up(std::uint32_t i) {
    for (std::size_t node = (base_ + i) >> 1; node >= 1; node >>= 1) {
      const std::uint32_t left = win_[2 * node];
      const std::uint32_t right = win_[2 * node + 1];
      win_[node] = better(left, right) ? left : right;
    }
  }

  std::size_t base_ = 1;
  std::vector<Key> keys_;
  std::vector<char> present_;
  std::vector<std::uint32_t> win_;
};

// Order-statistics set over a dense id range (Fenwick tree of membership).
class OrderStatSet {
 public:
  void init(std::uint32_t n) {
    n_ = n;
    log_ = 0;
    while ((std::uint32_t{1} << (log_ + 1)) <= n_) ++log_;
    tree_.assign(n_ + 1, 0);
    member_.assign(n_, 0);
    size_ = 0;
  }

  std::uint32_t size() const { return size_; }
  bool contains(std::uint32_t i) const { return member_[i] != 0; }

  void insert(std::uint32_t i) {
    if (member_[i]) return;
    member_[i] = 1;
    ++size_;
    for (std::uint32_t x = i + 1; x <= n_; x += x & (~x + 1)) tree_[x] += 1;
  }

  void erase(std::uint32_t i) {
    if (!member_[i]) return;
    member_[i] = 0;
    --size_;
    for (std::uint32_t x = i + 1; x <= n_; x += x & (~x + 1)) tree_[x] -= 1;
  }

  // Number of members with id strictly below i.
  std::uint32_t count_below(std::uint32_t i) const {
    std::uint32_t sum = 0;
    for (std::uint32_t x = i; x > 0; x -= x & (~x + 1)) sum += tree_[x];
    return sum;
  }

  // k-th smallest member id (0-based). Precondition: k < size().
  std::uint32_t kth(std::uint32_t k) const {
    std::uint32_t pos = 0;
    std::uint32_t remaining = k + 1;
    for (std::uint32_t step = std::uint32_t{1} << log_; step > 0; step >>= 1) {
      const std::uint32_t next = pos + step;
      if (next <= n_ && tree_[next] < remaining) {
        pos = next;
        remaining -= tree_[next];
      }
    }
    return pos;
  }

 private:
  std::uint32_t n_ = 0;
  std::uint32_t log_ = 0;
  std::uint32_t size_ = 0;
  std::vector<std::uint32_t> tree_;
  std::vector<char> member_;
};

// Unordered set over a dense id range: the members in a vector plus each
// id's position in it. insert/erase/contains are O(1) (erase moves the last
// member into the hole); iteration visits the members only, in an order
// that depends on the update history.
class DenseIdList {
 public:
  void init(std::uint32_t n) {
    ids_.clear();
    pos_.assign(n, kAbsent);
  }

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(ids_.size());
  }
  bool contains(std::uint32_t i) const { return pos_[i] != kAbsent; }

  void insert(std::uint32_t i) {
    if (pos_[i] != kAbsent) return;
    pos_[i] = static_cast<std::uint32_t>(ids_.size());
    ids_.push_back(i);
  }

  void erase(std::uint32_t i) {
    const std::uint32_t at = pos_[i];
    if (at == kAbsent) return;
    const std::uint32_t last = ids_.back();
    ids_[at] = last;
    pos_[last] = at;
    ids_.pop_back();
    pos_[i] = kAbsent;
  }

  std::vector<std::uint32_t>::const_iterator begin() const {
    return ids_.begin();
  }
  std::vector<std::uint32_t>::const_iterator end() const {
    return ids_.end();
  }

 private:
  static constexpr std::uint32_t kAbsent = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> ids_;
  std::vector<std::uint32_t> pos_;
};

}  // namespace fairsched
