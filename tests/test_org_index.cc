// Unit tests for the mirror kit of sched/org_index.h: KeyedArgmin,
// DenseIdList (OrderStatSet is exercised through ROUNDROBIN and RANDOM in
// tests/test_policy_equivalence.cc).

#include "sched/org_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace fairsched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNone = KeyedArgmin<double>::kNone;

// Reference argmin over an explicit key map: smallest key, lowest id on ties.
template <typename Key>
std::uint32_t scan_argmin(const std::map<std::uint32_t, Key>& keys) {
  std::uint32_t best = kNone;
  for (const auto& [id, key] : keys) {
    if (best == kNone || key < keys.at(best)) best = id;
  }
  return best;
}

TEST(KeyedArgmin, InfiniteKeysRankAfterEveryFiniteKeyAndTieToTheLowerId) {
  KeyedArgmin<double> tree;
  tree.init(6);
  EXPECT_EQ(tree.argmin(), kNone);
  tree.set(4, kInf);
  tree.set(2, kInf);
  EXPECT_EQ(tree.argmin(), 2u);  // equal +inf keys: lower id
  tree.set(5, 1e300);
  EXPECT_EQ(tree.argmin(), 5u);  // any finite key beats +inf
  tree.set(3, 1e300);
  EXPECT_EQ(tree.argmin(), 3u);  // equal finite keys: lower id
  tree.clear(3);
  tree.clear(5);
  EXPECT_EQ(tree.argmin(), 2u);
  tree.clear(2);
  EXPECT_EQ(tree.argmin(), 4u);
  tree.clear(4);
  EXPECT_EQ(tree.argmin(), kNone);
}

// set() of a present id with an equal key is a no-op; a changed key, a
// NaN, or an equal key on an id that was cleared still updates.
TEST(KeyedArgmin, EqualKeySetKeepsTheArgminAndAChangedKeyMovesIt) {
  KeyedArgmin<double> tree;
  tree.init(4);
  tree.set(0, 1.0);
  tree.set(1, 1.0);
  EXPECT_EQ(tree.argmin(), 0u);
  tree.set(0, 1.0);
  EXPECT_EQ(tree.argmin(), 0u);
  tree.set(0, 2.0);
  EXPECT_EQ(tree.argmin(), 1u);
  tree.set(0, 2.0);
  EXPECT_EQ(tree.argmin(), 1u);
  tree.set(0, 0.5);
  EXPECT_EQ(tree.argmin(), 0u);
  // A NaN key ranks level with everything, so ids break the tie.
  tree.set(2, 0.25);
  EXPECT_EQ(tree.argmin(), 2u);
  tree.set(2, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(tree.argmin(), 0u);
  tree.set(2, 0.25);
  EXPECT_EQ(tree.argmin(), 2u);
  // An id cleared and set again with its old key is present again.
  tree.clear(2);
  EXPECT_EQ(tree.argmin(), 0u);
  tree.set(2, 0.25);
  EXPECT_EQ(tree.argmin(), 2u);
  EXPECT_TRUE(tree.has(2));
}

// The fair-share mirror's scalar key (ratio, or +inf for a zero share)
// must rank exactly like the (zero-share class, ratio) pair it replaced.
TEST(KeyedArgmin, ScalarRatioKeyRanksLikeTheClassRatioPair) {
  Rng rng(0x5EED);
  for (int round = 0; round < 50; ++round) {
    const std::uint32_t n =
        1 + static_cast<std::uint32_t>(rng.uniform_u64(9));
    KeyedArgmin<double> scalar;
    KeyedArgmin<std::pair<int, double>> pair;
    scalar.init(n);
    pair.init(n);
    for (int op = 0; op < 40; ++op) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_u64(n));
      if (rng.uniform_u64(4) == 0) {
        scalar.clear(id);
        pair.clear(id);
      } else if (rng.uniform_u64(3) == 0) {
        scalar.set(id, kInf);
        pair.set(id, {1, 0.0});
      } else {
        // Few distinct ratios, so equal finite keys occur often.
        const double ratio = static_cast<double>(rng.uniform_u64(4)) / 3.0;
        scalar.set(id, ratio);
        pair.set(id, {0, ratio});
      }
      ASSERT_EQ(scalar.argmin(), pair.argmin()) << "round " << round;
    }
  }
}

// The tree's state is a function of the present keys alone: any sequence
// of set/clear calls that leaves the same keys gives the same argmin.
TEST(KeyedArgmin, ArgminDependsOnlyOnTheKeysLeft) {
  Rng rng(0xA11);
  for (int round = 0; round < 50; ++round) {
    const std::uint32_t n =
        1 + static_cast<std::uint32_t>(rng.uniform_u64(17));
    KeyedArgmin<double> history;
    history.init(n);
    std::map<std::uint32_t, double> keys;
    for (int op = 0; op < 60; ++op) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_u64(n));
      if (rng.uniform_u64(3) == 0) {
        history.clear(id);
        keys.erase(id);
      } else {
        const double key = static_cast<double>(rng.uniform_u64(5));
        history.set(id, key);
        keys[id] = key;
      }
      ASSERT_EQ(history.argmin(), scan_argmin(keys));
    }
    // Replay only the surviving keys, highest id first, after decoys that
    // are set and then cleared again.
    KeyedArgmin<double> replay;
    replay.init(n);
    for (std::uint32_t id = 0; id < n; ++id) replay.set(id, -1.0);
    for (std::uint32_t id = 0; id < n; ++id) replay.clear(id);
    for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
      replay.set(it->first, it->second);
    }
    EXPECT_EQ(replay.argmin(), history.argmin());
    for (std::uint32_t id = 0; id < n; ++id) {
      EXPECT_EQ(replay.has(id), keys.count(id) == 1);
    }
  }
}

std::vector<std::uint32_t> members(const DenseIdList& list) {
  return std::vector<std::uint32_t>(list.begin(), list.end());
}

TEST(DenseIdList, InsertEraseBySwapRemoveAndMembership) {
  DenseIdList list;
  list.init(8);
  EXPECT_EQ(list.size(), 0u);
  EXPECT_TRUE(members(list).empty());
  for (std::uint32_t id : {0u, 1u, 2u, 3u}) list.insert(id);
  list.insert(2);  // already a member: no-op
  EXPECT_EQ(members(list), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  list.erase(1);  // the last member moves into the hole
  EXPECT_EQ(members(list), (std::vector<std::uint32_t>{0, 3, 2}));
  EXPECT_FALSE(list.contains(1));
  EXPECT_TRUE(list.contains(3));
  list.erase(1);  // not a member: no-op
  list.erase(2);  // erasing the last member moves nothing
  EXPECT_EQ(members(list), (std::vector<std::uint32_t>{0, 3}));
  list.insert(7);
  list.erase(0);
  EXPECT_EQ(members(list), (std::vector<std::uint32_t>{7, 3}));
  EXPECT_EQ(list.size(), 2u);
  list.init(8);  // re-init empties the list
  EXPECT_EQ(list.size(), 0u);
  EXPECT_FALSE(list.contains(7));
}

TEST(DenseIdList, IterationVisitsExactlyTheMembersAfterInterleavedUpdates) {
  Rng rng(0xD15);
  for (int round = 0; round < 30; ++round) {
    const std::uint32_t n =
        1 + static_cast<std::uint32_t>(rng.uniform_u64(20));
    DenseIdList list;
    list.init(n);
    std::set<std::uint32_t> reference;
    for (int op = 0; op < 100; ++op) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_u64(n));
      const bool member = rng.uniform_u64(2) == 0;
      if (member) {
        list.insert(id);
        reference.insert(id);
      } else {
        list.erase(id);
        reference.erase(id);
      }
      std::vector<std::uint32_t> seen = members(list);
      ASSERT_EQ(seen.size(), list.size());
      std::sort(seen.begin(), seen.end());
      ASSERT_EQ(seen, std::vector<std::uint32_t>(reference.begin(),
                                                 reference.end()));
      for (std::uint32_t u = 0; u < n; ++u) {
        ASSERT_EQ(list.contains(u), reference.count(u) == 1);
      }
    }
  }
}

}  // namespace
}  // namespace fairsched
