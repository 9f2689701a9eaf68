// Tests for the in-kernel interest-set hash table (§3.1), including the
// paper's exact growth rule as a property across insertion patterns.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/core/interest_table.h"
#include "src/sim/rng.h"

namespace scio {
namespace {

TEST(InterestTableTest, InsertFindErase) {
  InterestHashTable table;
  EXPECT_EQ(table.Find(5), nullptr);
  Interest& a = table.FindOrInsert(5);
  EXPECT_EQ(table.Find(5), &a) << "a new fd is inserted";
  a.events = kPollIn;
  EXPECT_EQ(table.size(), 1u);

  Interest* found = table.Find(5);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->events, kPollIn);

  EXPECT_EQ(&table.FindOrInsert(5), &a) << "same fd resolves to the existing interest";
  EXPECT_EQ(table.size(), 1u);

  EXPECT_TRUE(table.Erase(5));
  EXPECT_FALSE(table.Erase(5));
  EXPECT_EQ(table.Find(5), nullptr);
  EXPECT_EQ(table.size(), 0u);
}

TEST(InterestTableTest, FindMissingReturnsNull) {
  InterestHashTable table;
  EXPECT_EQ(table.Find(42), nullptr);
}

TEST(InterestTableTest, GrowthRuleDoublesAtAverageChainOfTwo) {
  InterestHashTable table(8);
  // Paper: "when the average bucket size is two, the number of buckets in
  // the hash table is doubled."
  for (int fd = 0; fd < 15; ++fd) {
    table.FindOrInsert(fd);
  }
  EXPECT_EQ(table.bucket_count(), 8u) << "15 entries in 8 buckets: average < 2";
  table.FindOrInsert(15);
  EXPECT_EQ(table.bucket_count(), 16u) << "16th entry trips the doubling rule";
  EXPECT_EQ(table.resize_count(), 1u);
}

TEST(InterestTableTest, NeverShrinks) {
  InterestHashTable table(8);
  for (int fd = 0; fd < 100; ++fd) {
    table.FindOrInsert(fd);
  }
  const size_t grown = table.bucket_count();
  for (int fd = 0; fd < 100; ++fd) {
    table.Erase(fd);
  }
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.bucket_count(), grown) << "the table is never shrunk";
}

TEST(InterestTableTest, ForEachVisitsEveryEntryOnce) {
  InterestHashTable table;
  for (int fd = 0; fd < 37; ++fd) {
    table.FindOrInsert(fd);
  }
  std::set<int> seen;
  table.ForEach([&](Interest& interest) { seen.insert(interest.fd); });
  EXPECT_EQ(seen.size(), 37u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 36);
}

TEST(InterestTableTest, SurvivesRehashWithState) {
  InterestHashTable table(2);
  for (int fd = 0; fd < 64; ++fd) {
    Interest& interest = table.FindOrInsert(fd);
    interest.events = static_cast<PollEvents>(fd + 1);
    interest.hint = (fd % 2) == 0;
  }
  for (int fd = 0; fd < 64; ++fd) {
    Interest* interest = table.Find(fd);
    ASSERT_NE(interest, nullptr) << "fd " << fd << " lost in rehash";
    EXPECT_EQ(interest->events, static_cast<PollEvents>(fd + 1));
    EXPECT_EQ(interest->hint, (fd % 2) == 0);
  }
}

TEST(InterestTableTest, PointersStableAcrossGrowth) {
  InterestHashTable table(8);
  Interest& pinned = table.FindOrInsert(3);
  pinned.events = kPollIn;
  Interest* const address = &pinned;
  // Insert well past several doubling thresholds while holding the reference.
  for (int fd = 100; fd < 400; ++fd) {
    table.FindOrInsert(fd);
  }
  ASSERT_GE(table.resize_count(), 3u) << "growth must actually have happened";
  EXPECT_EQ(table.Find(3), address) << "node moved during rehash";
  EXPECT_EQ(pinned.events, kPollIn);
  pinned.hint = true;  // a write through the held reference hits live data
  EXPECT_TRUE(table.Find(3)->hint);
}

TEST(InterestTableTest, PointersStableAcrossEraseChurn) {
  InterestHashTable table(4);
  Interest* const address = &table.FindOrInsert(7);
  for (int round = 0; round < 20; ++round) {
    for (int fd = 1000; fd < 1040; ++fd) {
      table.FindOrInsert(fd);
    }
    for (int fd = 1000; fd < 1040; ++fd) {
      table.Erase(fd);
    }
  }
  EXPECT_EQ(table.Find(7), address) << "freelist recycling moved a live node";
}

TEST(InterestTableTest, ForEachOrderDeterministicAcrossIdenticalBuilds) {
  // Scan order feeds the simulated /dev/poll result order, so two tables
  // built by the same insertion/erasure sequence must scan identically.
  auto build = [](InterestHashTable& table) {
    for (int fd : {9, 1, 33, 5, 17, 2, 65, 41, 73, 12, 99, 7, 25, 49, 81, 13}) {
      table.FindOrInsert(fd);
    }
    table.Erase(33);
    table.Erase(12);
    for (int fd : {129, 161, 193, 33}) {
      table.FindOrInsert(fd);  // growth + a freelist reuse
    }
  };
  InterestHashTable a(4);
  InterestHashTable b(4);
  build(a);
  build(b);
  std::vector<int> order_a;
  std::vector<int> order_b;
  a.ForEach([&](Interest& interest) { order_a.push_back(interest.fd); });
  b.ForEach([&](Interest& interest) { order_b.push_back(interest.fd); });
  EXPECT_EQ(order_a, order_b);
  EXPECT_EQ(order_a.size(), 18u);
}

TEST(InterestTableTest, ScanIndexMarksInsertsAndEveryBucketOnGrowth) {
  InterestHashTable table(8);
  EXPECT_EQ(table.NextMarked(0), table.bucket_count()) << "an empty table is clean";
  table.FindOrInsert(3);
  table.FindOrInsert(11);  // same bucket as 3
  EXPECT_EQ(table.NextMarked(0), 3u) << "an insert marks its bucket";
  EXPECT_EQ(table.NextMarked(4), table.bucket_count());
  EXPECT_EQ(table.bucket_entries(3), 2u);
  EXPECT_EQ(table.EntriesIn(0, table.bucket_count()), 2u);

  table.Unmark(3);
  EXPECT_EQ(table.NextMarked(0), table.bucket_count());
  table.Mark(19);  // fd 19 hashes to bucket 3 too
  EXPECT_EQ(table.NextMarked(0), 3u);
  table.Unmark(3);
  table.Erase(11);
  EXPECT_EQ(table.NextMarked(0), table.bucket_count()) << "an erase leaves the bit alone";
  EXPECT_EQ(table.bucket_entries(3), 1u);

  for (int fd = 100; table.resize_count() == 0; ++fd) {
    table.FindOrInsert(fd);
  }
  ASSERT_EQ(table.bucket_count(), 16u);
  for (size_t b = 0; b < table.bucket_count(); ++b) {
    EXPECT_EQ(table.NextMarked(b), b) << "growth marks every bucket";
  }
  for (size_t b = 0; b < table.bucket_count(); ++b) {
    table.Unmark(b);
  }
  table.MarkAll();
  EXPECT_EQ(table.NextMarked(table.bucket_count() - 1), table.bucket_count() - 1);
  table.Unmark(table.bucket_count() - 1);
  EXPECT_EQ(table.NextMarked(table.bucket_count() - 1), table.bucket_count())
      << "MarkAll sets no bit past the last bucket";
}

// Property sweep: for any insertion pattern, the invariant
// size <= 2 * bucket_count holds and no entry is ever lost.
class InterestTableProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InterestTableProperty, InvariantUnderRandomChurn) {
  Rng rng(GetParam());
  Rng ranges(GetParam() + 1);  // EntriesIn probes; keeps rng's churn sequence
  InterestHashTable table;
  std::set<int> model;
  for (int step = 0; step < 5000; ++step) {
    const int fd = static_cast<int>(rng.UniformInt(0, 700));
    if (rng.Bernoulli(0.6)) {
      const bool absent = table.Find(fd) == nullptr;
      table.FindOrInsert(fd);
      EXPECT_EQ(absent, model.insert(fd).second);
    } else {
      EXPECT_EQ(table.Erase(fd), model.erase(fd) == 1);
    }
    ASSERT_EQ(table.size(), model.size());
    ASSERT_LE(table.size(), table.bucket_count() * 2) << "growth rule violated";
    // The scan index's per-bucket counts are the chain lengths.
    for (size_t b = 0; b < table.bucket_count(); ++b) {
      size_t chain = 0;
      table.ForEachInBucket(b, [&](Interest&) { ++chain; });
      ASSERT_EQ(table.bucket_entries(b), chain) << "bucket " << b << " at step " << step;
    }
    ASSERT_EQ(table.EntriesIn(0, table.bucket_count()), table.size());
    const size_t first = static_cast<size_t>(
        ranges.UniformInt(0, static_cast<int64_t>(table.bucket_count())));
    const size_t last = static_cast<size_t>(ranges.UniformInt(
        static_cast<int64_t>(first), static_cast<int64_t>(table.bucket_count())));
    size_t expected = 0;
    for (size_t b = first; b < last; ++b) {
      expected += table.bucket_entries(b);
    }
    ASSERT_EQ(table.EntriesIn(first, last), expected) << "[" << first << ", " << last << ")";
  }
  // Exhaustive final cross-check.
  for (int fd = 0; fd <= 700; ++fd) {
    EXPECT_EQ(table.Find(fd) != nullptr, model.count(fd) == 1) << "fd " << fd;
  }
}

INSTANTIATE_TEST_SUITE_P(Churn, InterestTableProperty,
                         ::testing::Values(1ull, 2ull, 3ull, 99ull, 123456ull));

}  // namespace
}  // namespace scio
