#include "cost/what_if.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace cdpd {
namespace {

class WhatIfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two segments: one all-a queries, one all-b queries.
    for (int i = 0; i < 10; ++i) {
      statements_.push_back(BoundStatement::SelectPoint(0, 0, i));
    }
    for (int i = 0; i < 10; ++i) {
      statements_.push_back(BoundStatement::SelectPoint(1, 1, i));
    }
    segments_ = SegmentFixed(statements_.size(), 10);
    what_if_ = std::make_unique<WhatIfEngine>(&model_, statements_,
                                              segments_);
  }

  Schema schema_ = MakePaperSchema();
  CostModel model_{schema_, 100'000, 1000};
  std::vector<BoundStatement> statements_;
  std::vector<Segment> segments_;
  std::unique_ptr<WhatIfEngine> what_if_;
};

TEST_F(WhatIfTest, SegmentCostSumsStatementCosts) {
  const Configuration empty;
  const double expected =
      10 * model_.StatementCost(BoundStatement::SelectPoint(0, 0, 0), empty);
  EXPECT_DOUBLE_EQ(what_if_->SegmentCost(0, empty), expected);
}

TEST_F(WhatIfTest, SegmentCostDependsOnConfiguration) {
  const Configuration ia({IndexDef({0})});
  EXPECT_LT(what_if_->SegmentCost(0, ia),
            what_if_->SegmentCost(0, Configuration::Empty()));
  // Segment 1 queries b; I(a) does not help it.
  EXPECT_DOUBLE_EQ(what_if_->SegmentCost(1, ia),
                   what_if_->SegmentCost(1, Configuration::Empty()));
}

TEST_F(WhatIfTest, MemoizationAvoidsRecosting) {
  const Configuration empty;
  (void)what_if_->SegmentCost(0, empty);
  const int64_t after_first = what_if_->costings();
  (void)what_if_->SegmentCost(0, empty);
  EXPECT_EQ(what_if_->costings(), after_first);
}

TEST_F(WhatIfTest, ProfilesCollapseStatementsWithEqualShape) {
  // Segment 0 holds 10 queries of one shape: exactly one costing.
  (void)what_if_->SegmentCost(0, Configuration::Empty());
  EXPECT_EQ(what_if_->costings(), 1);
}

TEST_F(WhatIfTest, RangeCostSumsSegments) {
  const Configuration empty;
  EXPECT_DOUBLE_EQ(
      what_if_->RangeCost(0, 2, empty),
      what_if_->SegmentCost(0, empty) + what_if_->SegmentCost(1, empty));
  EXPECT_DOUBLE_EQ(what_if_->RangeCost(1, 1, empty), 0.0);
}

TEST_F(WhatIfTest, TransitionCostForwardsToModel) {
  const Configuration ia({IndexDef({0})});
  EXPECT_DOUBLE_EQ(what_if_->TransitionCost(Configuration::Empty(), ia),
                   model_.TransitionCost(Configuration::Empty(), ia));
}

TEST_F(WhatIfTest, DistinctShapesAreCostedSeparately) {
  std::vector<BoundStatement> mixed;
  mixed.push_back(BoundStatement::SelectPoint(0, 0, 1));
  mixed.push_back(BoundStatement::SelectPoint(1, 1, 2));
  mixed.push_back(BoundStatement::UpdatePoint(2, 3, 0, 4));
  mixed.push_back(BoundStatement::SelectPoint(0, 0, 99));  // Same shape as #1.
  const std::vector<Segment> segments = {{0, mixed.size()}};
  WhatIfEngine engine(&model_, mixed, segments);
  (void)engine.SegmentCost(0, Configuration::Empty());
  EXPECT_EQ(engine.costings(), 3);  // Three distinct shapes.
}

TEST_F(WhatIfTest, PrecomputeValidatesCellsAreFinite) {
  // A poisoned cost model (NaN page cost) must surface as a diagnosed
  // Internal error from the precompute — not as a silent NaN that a DP
  // later compares itself into garbage with.
  CostParams params;
  params.seq_page_cost = std::numeric_limits<double>::quiet_NaN();
  CostModel poisoned(schema_, 100'000, 1000, params);
  WhatIfEngine engine(&poisoned, statements_, segments_);
  const std::vector<Configuration> configs = {Configuration::Empty()};

  Result<CostMatrix> serial = engine.PrecomputeCostMatrix(configs);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().code(), StatusCode::kInternal);
  // The diagnosis names the segment (its statement range) and the
  // candidate configuration of the offending cell.
  EXPECT_NE(serial.status().ToString().find("segment 0"), std::string::npos)
      << serial.status().ToString();
  EXPECT_NE(serial.status().ToString().find("statements 0..10"),
            std::string::npos)
      << serial.status().ToString();
  EXPECT_NE(serial.status().ToString().find("configuration #0"),
            std::string::npos)
      << serial.status().ToString();

  // The parallel fill reports the identical (lowest) cell, so the
  // error message is thread-count invariant.
  WhatIfEngine fresh(&poisoned, statements_, segments_);
  ThreadPool pool(4);
  Result<CostMatrix> parallel = fresh.PrecomputeCostMatrix(configs, &pool);
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().ToString(), serial.status().ToString());
}

TEST_F(WhatIfTest, PrecomputeValidatesTransitionsAreFinite) {
  // Poison only the write path: point-select EXEC cells stay finite,
  // but building an index (a transition) goes through write_page_cost,
  // so the TRANS matrix is where the NaN lands.
  CostParams params;
  params.write_page_cost = std::numeric_limits<double>::infinity();
  CostModel poisoned(schema_, 100'000, 1000, params);
  WhatIfEngine engine(&poisoned, statements_, segments_);
  const std::vector<Configuration> configs = {
      Configuration::Empty(), Configuration({IndexDef({0})})};

  Result<CostMatrix> matrix = engine.PrecomputeCostMatrix(configs);
  ASSERT_FALSE(matrix.ok());
  EXPECT_EQ(matrix.status().code(), StatusCode::kInternal);
  EXPECT_NE(matrix.status().ToString().find("TRANS"), std::string::npos)
      << matrix.status().ToString();
}

// ---------------------------------------------------------------------------
// Profile build against a reference.

/// The profile the engine must build, computed the straightforward
/// way: a std::map from shape to workload slot, and a linear find over
/// the current segment's shapes.
struct ReferenceProfile {
  std::vector<WorkloadShape> shapes;
  // Per segment: (workload slot, count), first appearance first.
  std::vector<std::vector<std::pair<size_t, int64_t>>> terms;
};

ReferenceProfile BuildReference(std::span<const BoundStatement> statements,
                                const std::vector<Segment>& segments) {
  ReferenceProfile ref;
  std::map<StatementShape, size_t> slot_of;
  for (const Segment& segment : segments) {
    std::vector<std::pair<size_t, int64_t>>& terms = ref.terms.emplace_back();
    std::vector<StatementShape> local;
    for (size_t i = segment.begin; i < segment.end; ++i) {
      const StatementShape shape = StatementShape::Of(statements[i]);
      const auto seen = std::find(local.begin(), local.end(), shape);
      if (seen != local.end()) {
        ++terms[static_cast<size_t>(seen - local.begin())].second;
        continue;
      }
      const auto [slot, fresh] = slot_of.try_emplace(shape, ref.shapes.size());
      if (fresh) ref.shapes.push_back(WorkloadShape{shape, 0});
      local.push_back(shape);
      terms.emplace_back(slot->second, 1);
    }
    for (const auto& [slot, count] : terms) ref.shapes[slot].count += count;
  }
  return ref;
}

/// `distinct` statements of pairwise-distinct shapes, in four families
/// whose neighbours differ in a single shape field: where_lo on point
/// selects, the range width, set_column on updates (where_lo breaks the
/// tie every four) and insert_arity on inserts (likewise every eight).
std::vector<BoundStatement> DistinctShapes(size_t distinct, Rng* rng) {
  std::vector<BoundStatement> pool;
  for (size_t j = 0; j < distinct; ++j) {
    const auto n = static_cast<int64_t>(j / 4);
    BoundStatement statement;
    switch (j % 4) {
      case 0:
        statement = BoundStatement::SelectPoint(0, 1, rng->UniformInt(0, 99));
        statement.where_lo = n;
        break;
      case 1: {
        const int64_t lo = rng->UniformInt(0, 999);
        statement = BoundStatement::SelectRange(2, 0, lo, lo + n);
        break;
      }
      case 2:
        statement = BoundStatement::UpdatePoint(static_cast<ColumnId>(n % 4),
                                                rng->UniformInt(0, 99), 3,
                                                rng->UniformInt(0, 99));
        statement.where_lo = n / 4;
        break;
      default:
        statement = BoundStatement::Insert(
            std::vector<Value>(static_cast<size_t>(1 + n % 8), 7));
        statement.where_lo = n / 8;
        break;
    }
    pool.push_back(statement);
  }
  return pool;
}

/// A seeded random sequence over `distinct` shapes, cut into uneven
/// segments of which about one in eight is empty.
struct ProfileCase {
  std::vector<BoundStatement> statements;
  std::vector<Segment> segments;
};

ProfileCase RandomCase(uint64_t seed, size_t distinct, size_t length) {
  Rng rng(seed);
  const std::vector<BoundStatement> pool = DistinctShapes(distinct, &rng);
  ProfileCase c;
  for (size_t i = 0; i < length; ++i) {
    c.statements.push_back(pool[rng.NextBounded(pool.size())]);
  }
  size_t begin = 0;
  while (begin < length) {
    const size_t size =
        rng.NextBounded(8) == 0
            ? 0
            : static_cast<size_t>(rng.UniformInt(1, 2 * (distinct + 40)));
    const size_t end = std::min(length, begin + size);
    c.segments.push_back(Segment{begin, end});
    begin = end;
  }
  c.segments.push_back(Segment{length, length});  // A trailing empty one.
  return c;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

class WhatIfProfileTest : public ::testing::Test {
 protected:
  /// Builds an engine over `c` and checks it against the reference:
  /// the workload profile slot by slot, and every segment's EXEC (and a
  /// few ranges) bit for bit against a count-weighted sum over the
  /// reference terms in first-appearance order.
  void ExpectMatchesReference(const ProfileCase& c) {
    const WhatIfEngine engine(&model_, c.statements, c.segments);
    const ReferenceProfile ref = BuildReference(c.statements, c.segments);

    const std::vector<WorkloadShape>& profile = engine.workload_profile();
    ASSERT_EQ(profile.size(), ref.shapes.size());
    for (size_t slot = 0; slot < profile.size(); ++slot) {
      ASSERT_TRUE(profile[slot].shape == ref.shapes[slot].shape)
          << "slot " << slot;
      ASSERT_EQ(profile[slot].count, ref.shapes[slot].count)
          << "slot " << slot;
    }

    const std::vector<Configuration> configs = {
        Configuration::Empty(), Configuration({IndexDef({0, 1})}),
        Configuration({IndexDef({2}), IndexDef({1, 3})})};
    for (const Configuration& config : configs) {
      std::vector<double> price(ref.shapes.size());
      for (size_t slot = 0; slot < price.size(); ++slot) {
        price[slot] = model_.StatementCost(
            ref.shapes[slot].shape.Representative(), config);
      }
      std::vector<double> exec(c.segments.size(), 0.0);
      for (size_t s = 0; s < c.segments.size(); ++s) {
        for (const auto& [slot, count] : ref.terms[s]) {
          exec[s] += static_cast<double>(count) * price[slot];
        }
        ASSERT_EQ(Bits(engine.SegmentCost(s, config)), Bits(exec[s]))
            << "segment " << s << " of " << c.segments.size();
      }
      const size_t n = c.segments.size();
      const std::vector<std::pair<size_t, size_t>> ranges = {
          {0, n},
          {n / 3, 2 * n / 3},
          {std::min<size_t>(1, n), std::min<size_t>(2, n)}};
      for (const auto& [begin, end] : ranges) {
        double range = 0.0;
        for (size_t s = begin; s < end; ++s) range += exec[s];
        EXPECT_EQ(Bits(engine.RangeCost(begin, end, config)), Bits(range))
            << "range [" << begin << ", " << end << ")";
      }
    }
  }

  Schema schema_ = MakePaperSchema();
  CostModel model_{schema_, 100'000, 100'000};
};

TEST_F(WhatIfProfileTest, PoolShapesArePairwiseDistinct) {
  Rng rng(1);
  const std::vector<BoundStatement> pool = DistinctShapes(3000, &rng);
  std::set<StatementShape> shapes;
  for (const BoundStatement& statement : pool) {
    shapes.insert(StatementShape::Of(statement));
  }
  EXPECT_EQ(shapes.size(), pool.size());
}

TEST_F(WhatIfProfileTest, MatchesReferenceForFewShapes) {
  for (const uint64_t seed : {11u, 12u, 13u}) {
    for (const size_t distinct : {2u, 4u, 5u}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", " << distinct << " shapes");
      ExpectMatchesReference(RandomCase(seed, distinct, 5'000));
    }
  }
}

TEST_F(WhatIfProfileTest, MatchesReferenceAcrossTableGrowth) {
  // 3000 shapes grow the index from its initial capacity many times.
  for (const uint64_t seed : {21u, 22u}) {
    for (const size_t distinct : {37u, 600u, 3000u}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", " << distinct << " shapes");
      ExpectMatchesReference(RandomCase(seed, distinct, 4 * distinct + 2'000));
    }
  }
}

TEST_F(WhatIfProfileTest, EmptyWorkloadAndEmptySegments) {
  ExpectMatchesReference(ProfileCase{});
  ProfileCase c = RandomCase(31, 3, 10);
  c.segments = {{0, 0}, {0, 10}, {10, 10}, {10, 10}};
  ExpectMatchesReference(c);
}

}  // namespace
}  // namespace cdpd
