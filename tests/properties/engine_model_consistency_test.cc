// Engine/model consistency properties (DESIGN.md §6, invariant 5):
// for every statement shape and configuration, (a) the executor runs
// exactly the access path the cost model priced, (b) all access paths
// return identical result sets, and (c) the measured physical work,
// converted to cost units, tracks the estimate.

#include <algorithm>
#include <ostream>
#include <tuple>

#include <gtest/gtest.h>

#include "engine/database.h"

namespace cdpd {
namespace {

// (configuration label, where column, select column)
struct Case {
  const char* config_name;
  std::vector<IndexDef> indexes;
  ColumnId where_column;
  ColumnId select_column;
};

// Without this, gtest prints a case as its raw bytes, pointers included,
// and the discovered ctest names change with every build and load address.
void PrintTo(const Case& c, std::ostream* os) { *os << c.config_name; }

class EngineModelConsistencyTest : public ::testing::TestWithParam<Case> {
 protected:
  static void SetUpTestSuite() {
    db_ = Database::Create(MakePaperSchema(), 30'000, 300, /*seed=*/77)
              .value()
              .release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* EngineModelConsistencyTest::db_ = nullptr;

TEST_P(EngineModelConsistencyTest, PlanMatchesModelAndResultsAgree) {
  const Case& c = GetParam();
  AccessStats apply_stats;
  ASSERT_TRUE(
      db_->ApplyConfiguration(Configuration(c.indexes), &apply_stats).ok());

  const Configuration active = db_->current_configuration();
  for (Value v : {0, 17, 299}) {
    const BoundStatement statement =
        BoundStatement::SelectPoint(c.select_column, c.where_column, v);

    // (a) The executed plan is the priced plan.
    const AccessPathChoice priced =
        db_->cost_model().ChooseAccessPath(statement, active);
    AccessStats stats;
    auto result = db_->Execute(statement, &stats);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->plan.kind, priced.kind);

    // (b) Result set equals the reference table scan.
    std::vector<Value> reference;
    const Table& table = db_->table();
    for (RowId row = 0; row < table.num_rows(); ++row) {
      if (table.GetValue(row, c.where_column) == v) {
        reference.push_back(table.GetValue(row, c.select_column));
      }
    }
    std::vector<Value> got = result->values;
    std::sort(got.begin(), got.end());
    std::sort(reference.begin(), reference.end());
    EXPECT_EQ(got, reference);

    // (c) Measured work tracks the estimate within a generous factor
    // (the estimate uses expected match counts; reality fluctuates).
    const double measured = db_->cost_model().StatsToCost(stats);
    const double estimated = priced.cost;
    EXPECT_GT(measured, 0.1 * estimated);
    EXPECT_LT(measured, 10.0 * estimated + 50.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigsAndShapes, EngineModelConsistencyTest,
    ::testing::Values(
        Case{"empty", {}, 0, 0},
        Case{"ia_seek", {IndexDef({0})}, 0, 0},
        Case{"ia_fetch", {IndexDef({0})}, 0, 3},
        Case{"ia_unrelated", {IndexDef({0})}, 2, 2},
        Case{"iab_seek", {IndexDef({0, 1})}, 0, 0},
        Case{"iab_covering", {IndexDef({0, 1})}, 1, 1},
        Case{"iab_covering_cross", {IndexDef({0, 1})}, 1, 0},
        Case{"icd_covering", {IndexDef({2, 3})}, 3, 3},
        Case{"two_indexes", {IndexDef({0}), IndexDef({2, 3})}, 2, 2},
        Case{"full_paper_pair", {IndexDef({0, 1}), IndexDef({2, 3})}, 3, 2}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.config_name;
    });

TEST(EngineModelUpdateConsistencyTest, UpdateEstimateCoversMaintenance) {
  auto db = Database::Create(MakePaperSchema(), 20'000, 200, 5).value();
  AccessStats apply_stats;
  ASSERT_TRUE(db->ApplyConfiguration(
                    Configuration({IndexDef({0, 1}), IndexDef({1})}),
                    &apply_stats)
                  .ok());
  const Configuration active = db->current_configuration();
  const BoundStatement update = BoundStatement::UpdatePoint(1, 42, 0, 17);
  AccessStats stats;
  auto result = db->Execute(update, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->rows_affected, 0);
  const double measured = db->cost_model().StatsToCost(stats);
  const double estimated = db->cost_model().StatementCost(update, active);
  EXPECT_GT(measured, 0.05 * estimated);
  EXPECT_LT(measured, 20.0 * estimated + 100.0);
  // Both affected trees stay structurally sound.
  EXPECT_TRUE(db->catalog()
                  .GetIndex("t", IndexDef({0, 1}))
                  .value()
                  ->CheckInvariants());
  EXPECT_TRUE(
      db->catalog().GetIndex("t", IndexDef({1})).value()->CheckInvariants());
}

TEST(EngineModelInsertConsistencyTest, InsertKeepsIndexesConsistent) {
  auto db = Database::Create(MakePaperSchema(), 5'000, 100, 6).value();
  AccessStats apply_stats;
  ASSERT_TRUE(
      db->ApplyConfiguration(Configuration({IndexDef({2, 3})}), &apply_stats)
          .ok());
  for (int i = 0; i < 500; ++i) {
    AccessStats stats;
    ASSERT_TRUE(
        db->Execute(BoundStatement::Insert({i, i, i % 7, i % 11}), &stats)
            .ok());
  }
  const BTree* tree = db->catalog().GetIndex("t", IndexDef({2, 3})).value();
  EXPECT_EQ(tree->num_entries(), 5'500);
  EXPECT_TRUE(tree->CheckInvariants());
}

}  // namespace
}  // namespace cdpd
