#include "support/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace grasp {
namespace {

using Map = FlatMap<std::uint64_t, int>;

std::vector<std::uint64_t> keys_of(const Map& m) {
  std::vector<std::uint64_t> out;
  for (const auto& item : m) out.push_back(item.key);
  return out;
}

TEST(FlatMap, EmptyMapFindsNothing) {
  Map m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_FALSE(m.contains(7));
  EXPECT_FALSE(m.erase(7));
  EXPECT_EQ(m.begin(), m.end());
}

TEST(FlatMap, IterationFollowsInsertionAfterInterleavedRemovals) {
  Map m;
  for (std::uint64_t k = 1; k <= 6; ++k)
    m.emplace(k * 10, static_cast<int>(k));
  auto [found, value] = m.take(30);
  EXPECT_TRUE(found);
  EXPECT_EQ(value, 3);
  m.emplace(5, 50);
  EXPECT_TRUE(m.erase(10));
  m.emplace(7, 70);
  EXPECT_TRUE(m.erase(60));
  EXPECT_EQ(keys_of(m), (std::vector<std::uint64_t>{20, 40, 50, 5, 7}));
  EXPECT_EQ(m.size(), 5u);
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(*m.find(5), 50);
  EXPECT_EQ(*m.find(40), 4);
}

TEST(FlatMap, EraseIteratorMidIterationKeepsSurvivorOrder) {
  Map m;
  for (std::uint64_t k = 0; k < 10; ++k) m.emplace(k, static_cast<int>(k));
  std::vector<std::uint64_t> visited;
  for (auto it = m.begin(); it != m.end();) {
    visited.push_back(it->key);
    if (it->key % 3 == 0) {
      it = m.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(visited.size(), 10u);
  EXPECT_EQ(keys_of(m), (std::vector<std::uint64_t>{1, 2, 4, 5, 7, 8}));
  for (std::uint64_t k : {0u, 3u, 6u, 9u}) EXPECT_FALSE(m.contains(k));
  // Erasing the last item returns end().
  auto last = m.begin();
  for (std::size_t i = 0; i + 1 < m.size(); ++i) ++last;
  EXPECT_EQ(m.erase(last), m.end());
  EXPECT_EQ(keys_of(m), (std::vector<std::uint64_t>{1, 2, 4, 5, 7}));
}

TEST(FlatMap, ReinsertedKeyMovesToTheBack) {
  Map m;
  m.emplace(1, 1);
  m.emplace(2, 2);
  m.emplace(3, 3);
  EXPECT_TRUE(m.erase(1));
  m.emplace(1, 11);
  EXPECT_EQ(keys_of(m), (std::vector<std::uint64_t>{2, 3, 1}));
  EXPECT_EQ(*m.find(1), 11);
}

TEST(FlatMap, TakeOfMissingKeyLeavesTableAlone) {
  FlatMap<std::uint64_t, std::vector<int>> m;
  m.emplace(4, {1, 2, 3});
  auto [found, value] = m.take(5);
  EXPECT_FALSE(found);
  EXPECT_TRUE(value.empty());
  EXPECT_EQ(m.size(), 1u);
  auto [again, kept] = m.take(4);
  EXPECT_TRUE(again);
  EXPECT_EQ(kept, (std::vector<int>{1, 2, 3}));
  auto [twice, none] = m.take(4);
  EXPECT_FALSE(twice);
  EXPECT_TRUE(m.empty());
}

// Random emplace/take/erase/erase(iterator) against a vector model that
// erases in place: contents and order must match after every step.
TEST(FlatMap, LargeRandomWorkloadMatchesVectorModel) {
  Map m;
  std::vector<std::pair<std::uint64_t, int>> model;
  Rng rng(20260418);
  std::uint64_t next_key = 1;
  // Grow to 20k, then churn around that size, then drain.
  for (int step = 0; step < 38000; ++step) {
    const bool grow = step < 20000 || (step < 32000 && rng.uniform() < 0.5);
    if (grow) {
      // Token-shaped keys: a kind tag in the high bits, a sequence below.
      const std::uint64_t key =
          (static_cast<std::uint64_t>(step % 5) << 56) | next_key++;
      const int value = static_cast<int>(key % 100000);
      m.emplace(key, value);
      model.emplace_back(key, value);
      continue;
    }
    if (model.empty()) continue;
    const auto pick =
        static_cast<std::size_t>(rng.uniform_index(model.size()));
    const std::uint64_t key = model[pick].first;
    switch (step % 3) {
      case 0: {
        auto [found, value] = m.take(key);
        ASSERT_TRUE(found);
        ASSERT_EQ(value, model[pick].second);
        break;
      }
      case 1:
        ASSERT_TRUE(m.erase(key));
        break;
      default: {
        auto it = m.begin();
        while (it != m.end() && it->key != key) ++it;
        ASSERT_NE(it, m.end());
        const auto next = m.erase(it);
        if (pick + 1 < model.size()) {
          ASSERT_NE(next, m.end());
          ASSERT_EQ(next->key, model[pick + 1].first);
        } else {
          ASSERT_EQ(next, m.end());
        }
      }
    }
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(pick));
    ASSERT_FALSE(m.contains(key));
    ASSERT_EQ(m.size(), model.size());
    if (step % 997 == 0) {
      std::size_t i = 0;
      for (const auto& item : m) {
        ASSERT_LT(i, model.size());
        ASSERT_EQ(item.key, model[i].first);
        ASSERT_EQ(item.value, model[i].second);
        ++i;
      }
      ASSERT_EQ(i, model.size());
    }
  }
  EXPECT_GE(model.size(), 1000u);
  for (const auto& [key, value] : model) {
    const int* found = m.find(key);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, value);
  }
  EXPECT_FALSE(m.contains(0));
}

TEST(FlatMap, NodeIdKeysAndMoveOnlyValues) {
  FlatMap<NodeId, std::unique_ptr<std::string>> m;
  for (std::uint64_t n = 0; n < 40; ++n)
    m.emplace(NodeId{n}, std::make_unique<std::string>(std::to_string(n)));
  EXPECT_TRUE(m.erase(NodeId{0}));
  auto [found, owned] = m.take(NodeId{17});
  ASSERT_TRUE(found);
  EXPECT_EQ(*owned, "17");
  ASSERT_NE(m.find(NodeId{39}), nullptr);
  EXPECT_EQ(**m.find(NodeId{39}), "39");
  EXPECT_EQ(m.size(), 38u);
  EXPECT_EQ(m.begin()->key, NodeId{1});
  // Structured bindings over const iteration, as the engines use them.
  const auto& cm = m;
  std::uint64_t prev = 0;
  for (const auto& [node, value] : cm) {
    EXPECT_GT(node.value, prev);
    EXPECT_EQ(*value, std::to_string(node.value));
    prev = node.value;
  }
}

TEST(FlatMap, ClearThenReuse) {
  FlatMap<NodeId, std::vector<int>> m;
  m.reserve(64);
  for (std::uint64_t n = 0; n < 100; ++n) m.emplace(NodeId{n}, {1});
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.begin(), m.end());
  EXPECT_FALSE(m.contains(NodeId{5}));
  m.emplace(NodeId{5}, {5});
  m.emplace(NodeId{2}, {2});
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.begin()->key, NodeId{5});
  EXPECT_EQ(*m.find(NodeId{2}), std::vector<int>{2});
  EXPECT_FALSE(m.contains(NodeId{50}));
}

TEST(NodeMap, GrowsOnWriteAndReadsDefaultsElsewhere) {
  NodeMap<double> m(-1.0);
  EXPECT_EQ(m.at_or_default(NodeId{3}), -1.0);
  m[NodeId{3}] = 2.5;
  EXPECT_EQ(m.values().size(), 4u);
  EXPECT_EQ(m.at_or_default(NodeId{3}), 2.5);
  EXPECT_EQ(m.at_or_default(NodeId{1}), -1.0);  // filled with the default
  EXPECT_EQ(m.at_or_default(NodeId{100}), -1.0);
  EXPECT_EQ(m.at_or_default(NodeId::invalid()), -1.0);
  EXPECT_THROW(m[NodeId::invalid()], std::out_of_range);
  m.clear();
  EXPECT_TRUE(m.values().empty());
  EXPECT_EQ(m.at_or_default(NodeId{3}), -1.0);
}

TEST(NodeMap, MoveOnlyValuesUseValueInitializedDefault) {
  NodeMap<std::unique_ptr<int>> m;
  m[NodeId{2}] = std::make_unique<int>(9);
  EXPECT_EQ(m.at_or_default(NodeId{0}), nullptr);
  ASSERT_NE(m.at_or_default(NodeId{2}), nullptr);
  EXPECT_EQ(*m.at_or_default(NodeId{2}), 9);
}

}  // namespace
}  // namespace grasp
