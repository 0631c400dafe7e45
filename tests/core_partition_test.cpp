// Tests for the partition lattice (Section 6.1): Table 1's worked
// examples, the coarser/finer relation, and Join's lattice properties.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/partition.hpp"

namespace vpm::core {
namespace {

// Table 1 partitions of S = {p1, p2, p3, p4} (indices 0..3).
const Partition A1{4, {0, 1, 2, 3}};      // all singletons
const Partition A2{4, {0, 2}};            // {{p1,p2},{p3,p4}}
const Partition A3{4, {0, 1, 3}};         // {{p1},{p2,p3},{p4}}
const Partition A3p{4, {0, 1, 2}};        // {{p1},{p2},{p3,p4}}
const Partition A4{4, {0}};               // {{p1..p4}}

TEST(Partition, TableOneCoarserRelations) {
  EXPECT_TRUE(A2.coarser_or_equal(A1));
  EXPECT_TRUE(A3.coarser_or_equal(A1));
  // A2 is coarser than A3' ({{p1,p2},{p3,p4}} unions {{p1},{p2},{p3,p4}}),
  // which is why Table 1 reports Join(A2, A3') = A2.
  EXPECT_TRUE(A2.coarser_or_equal(A3p));
  EXPECT_FALSE(A3p.coarser_or_equal(A2));
  EXPECT_TRUE(A4.coarser_or_equal(A2));
  EXPECT_TRUE(A4.coarser_or_equal(A3));
  // "we cannot say that A2 >= A3 nor that A3 >= A2"
  EXPECT_FALSE(A2.coarser_or_equal(A3));
  EXPECT_FALSE(A3.coarser_or_equal(A2));
}

TEST(Partition, TableOneJoins) {
  const Partition partitions_a[] = {A1, A2};
  EXPECT_EQ(Partition::join(partitions_a), A2);  // Join(A1,A2) = A2
  const Partition partitions_b[] = {A2, A3};
  EXPECT_EQ(Partition::join(partitions_b), A4);  // Join(A2,A3) = A4
  const Partition partitions_c[] = {A2, A3p};
  EXPECT_EQ(Partition::join(partitions_c), A2);  // Join(A2,A3') = A2
}

TEST(Partition, AggregatesExpandCorrectly) {
  const auto aggs = A3.aggregates();
  ASSERT_EQ(aggs.size(), 3u);
  EXPECT_EQ(aggs[0], std::make_pair(std::size_t{0}, std::size_t{1}));
  EXPECT_EQ(aggs[1], std::make_pair(std::size_t{1}, std::size_t{3}));
  EXPECT_EQ(aggs[2], std::make_pair(std::size_t{3}, std::size_t{4}));
}

TEST(Partition, TrivialAndFinestFactories) {
  EXPECT_EQ(Partition::trivial(4), A4);
  EXPECT_EQ(Partition::finest(4), A1);
  EXPECT_TRUE(Partition::trivial(4).coarser_or_equal(Partition::finest(4)));
}

TEST(Partition, Validation) {
  EXPECT_THROW(Partition(0, {0}), std::invalid_argument);
  EXPECT_THROW(Partition(4, {}), std::invalid_argument);
  EXPECT_THROW(Partition(4, {1, 2}), std::invalid_argument);   // missing 0
  EXPECT_THROW(Partition(4, {0, 2, 1}), std::invalid_argument);  // unsorted
  EXPECT_THROW(Partition(4, {0, 2, 2}), std::invalid_argument);  // dup
  EXPECT_THROW(Partition(4, {0, 4}), std::invalid_argument);     // beyond n
  EXPECT_THROW((void)A1.coarser_or_equal(Partition::trivial(5)),
               std::invalid_argument);
  const Partition mixed[] = {A1, Partition::trivial(5)};
  EXPECT_THROW((void)Partition::join(mixed), std::invalid_argument);
  EXPECT_THROW((void)Partition::join({}), std::invalid_argument);
}

// ---- Lattice properties over random partitions ---------------------------

Partition random_partition(std::size_t n, double cut_prob,
                           std::mt19937_64& rng) {
  std::vector<std::size_t> cuts = {0};
  std::bernoulli_distribution cut(cut_prob);
  for (std::size_t i = 1; i < n; ++i) {
    if (cut(rng)) cuts.push_back(i);
  }
  return Partition{n, std::move(cuts)};
}

class PartitionLatticeProperty : public ::testing::TestWithParam<int> {};

TEST_P(PartitionLatticeProperty, JoinIsCoarserThanInputsAndIdempotent) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  constexpr std::size_t n = 64;
  const Partition a = random_partition(n, 0.3, rng);
  const Partition b = random_partition(n, 0.3, rng);
  const Partition c = random_partition(n, 0.1, rng);

  const Partition parts[] = {a, b, c};
  const Partition j = Partition::join(parts);

  // Coarser than every input.
  EXPECT_TRUE(j.coarser_or_equal(a));
  EXPECT_TRUE(j.coarser_or_equal(b));
  EXPECT_TRUE(j.coarser_or_equal(c));

  // Idempotent: joining the join back in changes nothing.
  const Partition parts2[] = {a, b, c, j};
  EXPECT_EQ(Partition::join(parts2), j);

  // Commutative: order of inputs is irrelevant.
  const Partition parts3[] = {c, a, b};
  EXPECT_EQ(Partition::join(parts3), j);

  // Finest-coarser-than-all: any partition coarser than all inputs is
  // coarser than (or equal to) the join.  Check with the trivial one.
  EXPECT_TRUE(Partition::trivial(n).coarser_or_equal(j));
}

TEST_P(PartitionLatticeProperty, NestedPartitionsJoinToCoarser) {
  // If a's cuts are a subset of b's (a coarser), Join(a,b) == a — the
  // situation Section 6.2 engineers via threshold nesting.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  constexpr std::size_t n = 64;
  const Partition fine = random_partition(n, 0.4, rng);
  // Thin out fine's cuts to build a genuinely coarser partition.
  std::vector<std::size_t> coarse_cuts;
  std::bernoulli_distribution keep(0.4);
  for (const std::size_t c : fine.cuts()) {
    if (c == 0 || keep(rng)) coarse_cuts.push_back(c);
  }
  const Partition coarse{n, coarse_cuts};
  const Partition parts[] = {coarse, fine};
  EXPECT_EQ(Partition::join(parts), coarse);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionLatticeProperty,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace vpm::core
