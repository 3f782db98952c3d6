#include "sched/dary_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "util/rng.h"

namespace relax::sched {
namespace {

TEST(DaryHeap, PopsInSortedOrder) {
  DaryHeap<int> h;
  for (const int x : {5, 1, 9, 3, 7, 2, 8}) h.push(x);
  std::vector<int> out;
  while (!h.empty()) out.push_back(h.pop());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.size(), 7u);
}

TEST(DaryHeap, TopIsMin) {
  DaryHeap<int> h;
  h.push(4);
  EXPECT_EQ(h.top(), 4);
  h.push(2);
  EXPECT_EQ(h.top(), 2);
  h.push(3);
  EXPECT_EQ(h.top(), 2);
  h.pop();
  EXPECT_EQ(h.top(), 3);
}

TEST(DaryHeap, DuplicatesPreserved) {
  DaryHeap<int> h;
  for (int i = 0; i < 5; ++i) h.push(7);
  EXPECT_EQ(h.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(h.pop(), 7);
}

TEST(DaryHeap, CustomComparatorMaxHeap) {
  DaryHeap<int, 4, std::greater<>> h;
  for (const int x : {3, 1, 4, 1, 5}) h.push(x);
  EXPECT_EQ(h.pop(), 5);
  EXPECT_EQ(h.pop(), 4);
}

TEST(DaryHeap, BinaryArityWorks) {
  DaryHeap<int, 2> h;
  for (int i = 100; i > 0; --i) h.push(i);
  for (int i = 1; i <= 100; ++i) EXPECT_EQ(h.pop(), i);
}

TEST(DaryHeap, HighArityWorks) {
  DaryHeap<int, 8> h;
  for (int i = 100; i > 0; --i) h.push(i);
  for (int i = 1; i <= 100; ++i) EXPECT_EQ(h.pop(), i);
}

TEST(DaryHeap, RandomizedAgainstStdPriorityQueue) {
  DaryHeap<std::uint64_t> h;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      ref;
  util::Rng rng(5);
  for (int step = 0; step < 50000; ++step) {
    if (ref.empty() || util::bounded(rng, 3) != 0) {
      const std::uint64_t v = util::bounded(rng, 1u << 20);
      h.push(v);
      ref.push(v);
    } else {
      ASSERT_EQ(h.pop(), ref.top());
      ref.pop();
    }
    ASSERT_EQ(h.size(), ref.size());
  }
}

TEST(DaryHeap, ClearEmpties) {
  DaryHeap<int> h;
  h.push(1);
  h.push(2);
  h.clear();
  EXPECT_TRUE(h.empty());
  h.push(5);
  EXPECT_EQ(h.pop(), 5);
}

TEST(DaryHeap, ReleaseHandsOverEveryElementAndEmpties) {
  DaryHeap<int, 8> h;
  for (const int x : {5, 1, 9, 3, 7, 2, 8, 1}) h.push(x);
  std::vector<int> out = h.release();
  EXPECT_TRUE(h.empty());
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int>{1, 1, 2, 3, 5, 7, 8, 9}));
  h.push(4);
  EXPECT_EQ(h.pop(), 4);
}

}  // namespace
}  // namespace relax::sched
