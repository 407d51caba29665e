// Correctness of the anytime degraded mode: whenever a traversal stops
// early with NncOptions::degraded_superset set, the returned candidate set
// must be a duplicate-free superset of the exact serial answer (the
// no-false-dismissal contract of Theorems 4 and 9), for all four
// operators, under both deadline and cancellation terminations, at the
// search layer (over a plain dataset and over a mutated snapshot) and
// through the engine.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/nnc_search.h"
#include "datagen/generators.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"
#include "object/versioned_dataset.h"

namespace osd {
namespace {

Dataset SmallDataset(int num_objects = 300, uint64_t seed = 7) {
  SyntheticParams p;
  p.dim = 2;
  p.num_objects = num_objects;
  p.instances_per_object = 5;
  p.seed = seed;
  return GenerateSynthetic(p);
}

QueryWorkloadEntry OneQuery(const Dataset& dataset, uint64_t seed = 13) {
  WorkloadParams wp;
  wp.num_queries = 1;
  wp.query_instances = 4;
  wp.seed = seed;
  return GenerateWorkload(dataset, wp)[0];
}

/// The degraded contract: duplicate-free, and every exact member present.
void ExpectCertifiedSuperset(const NncResult& degraded,
                             const std::vector<int>& exact) {
  ASSERT_TRUE(degraded.degraded);
  std::vector<int> got = degraded.candidates;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
      << "degraded candidate set contains duplicates";
  std::vector<int> want = exact;
  std::sort(want.begin(), want.end());
  EXPECT_TRUE(std::includes(got.begin(), got.end(), want.begin(), want.end()))
      << "degraded set of " << got.size() << " is not a superset of the "
      << want.size() << "-member exact answer";
}

constexpr Operator kAllOps[] = {Operator::kSSd, Operator::kSsSd,
                                Operator::kPSd, Operator::kFSd};

TEST(DegradedModeTest, ExpiredDeadlineYieldsSupersetForEveryOperator) {
  const Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);

  for (Operator op : kAllOps) {
    SCOPED_TRACE(OperatorName(op));
    NncOptions options;
    options.op = op;
    options.exclude_id = entry.seeded_from;
    const NncResult exact = NncSearch(dataset, options).Run(entry.query);
    ASSERT_EQ(exact.termination, NncTermination::kComplete);

    // A deadline that expired before the first pop: nothing is confirmed,
    // the entire tree drains into the frontier.
    QueryControl control;
    control.deadline = std::chrono::steady_clock::now();
    options.control = &control;
    options.degraded_superset = true;
    const NncResult degraded = NncSearch(dataset, options).Run(entry.query);

    EXPECT_EQ(degraded.termination, NncTermination::kDeadlineExceeded);
    ExpectCertifiedSuperset(degraded, exact.candidates);
    EXPECT_GT(degraded.frontier_objects, 0);
    EXPECT_GT(degraded.frontier_nodes, 0);
    EXPECT_EQ(static_cast<long>(degraded.candidates.size()),
              degraded.frontier_objects)
        << "with nothing confirmed, every candidate comes from the frontier";
    // The excluded query object must not ride in via the frontier drain.
    EXPECT_EQ(std::count(degraded.candidates.begin(),
                         degraded.candidates.end(), entry.seeded_from),
              0);
  }
}

TEST(DegradedModeTest, MidTraversalCancellationYieldsSuperset) {
  const Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);

  for (Operator op : kAllOps) {
    SCOPED_TRACE(OperatorName(op));
    NncOptions options;
    options.op = op;
    options.exclude_id = entry.seeded_from;
    const NncResult exact = NncSearch(dataset, options).Run(entry.query);

    // Cancel from inside the traversal, after the first emission: part of
    // the tree is confirmed, the rest drains as frontier.
    QueryControl control;
    options.control = &control;
    options.degraded_superset = true;
    const NncResult degraded =
        NncSearch(dataset, options)
            .Run(entry.query, [&control](int, double) {
              control.cancel.store(true, std::memory_order_relaxed);
            });

    EXPECT_EQ(degraded.termination, NncTermination::kCancelled);
    ExpectCertifiedSuperset(degraded, exact.candidates);
    // The first emission happened, so at least one candidate was confirmed
    // ahead of the frontier.
    EXPECT_GT(static_cast<long>(degraded.candidates.size()),
              degraded.frontier_objects);
  }
}

TEST(DegradedModeTest, DrainOverAMutatedSnapshotSkipsDeadAndExcludedSlots) {
  VersionedDataset store{SmallDataset()};
  const QueryWorkloadEntry entry = OneQuery(SmallDataset());
  const Mbr& box = entry.query.mbr();
  // Delta objects placed around the query, where they compete for the
  // answer: fresh inserts, and updates that tombstone their base slot.
  auto near = [&](int id, double dx) {
    const double x = box.Center(0) + dx;
    const double y = box.Center(1) - dx;
    return std::make_shared<const UncertainObject>(
        UncertainObject::Uniform(id, 2, {x, y, x + 40.0, y + 25.0}));
  };
  std::vector<Mutation> ops;
  for (int i = 0; i < 4; ++i) {
    ops.push_back(
        {Mutation::Kind::kInsert, 1000 + i, near(1000 + i, 30.0 * i)});
  }
  for (int id : {2, 9, 21}) {
    ops.push_back({Mutation::Kind::kUpdate, id, near(id, -35.0 * id)});
  }
  for (int id : {5, 17, 33, 101, 64}) {
    ops.push_back({Mutation::Kind::kDelete, id, nullptr});
  }
  std::string error;
  ASSERT_TRUE(store.Apply(std::move(ops), &error)) << error;
  const VersionedDataset::Snapshot snap = store.Acquire();
  ASSERT_GT(snap.size(), snap.base_size());
  ASSERT_LT(snap.live_size(), snap.size());

  // Exclude a live base slot (the drain's leaf scan) and a delta slot
  // (the frontier seeding).
  for (int exclude : {snap.IndexOf(entry.seeded_from), snap.base_size() + 1}) {
    for (Operator op : kAllOps) {
      SCOPED_TRACE(std::string(OperatorName(op)) + " exclude " +
                   std::to_string(exclude));
      NncOptions options;
      options.op = op;
      options.exclude_id = exclude;
      const NncResult exact = NncSearch(snap, options).Run(entry.query);
      ASSERT_EQ(exact.termination, NncTermination::kComplete);
      ASSERT_TRUE(std::any_of(
          exact.candidates.begin(), exact.candidates.end(),
          [&](int idx) { return idx >= snap.base_size(); }))
          << "the delta should reach the exact answer";

      QueryControl control;
      control.deadline = std::chrono::steady_clock::now();
      options.control = &control;
      options.degraded_superset = true;
      const NncResult degraded = NncSearch(snap, options).Run(entry.query);

      EXPECT_EQ(degraded.termination, NncTermination::kDeadlineExceeded);
      EXPECT_EQ(degraded.epoch, snap.epoch());
      ExpectCertifiedSuperset(degraded, exact.candidates);
      for (int idx : degraded.candidates) {
        EXPECT_FALSE(snap.deleted(idx)) << "tombstoned slot " << idx;
        EXPECT_NE(idx, exclude);
      }
      // Every live slot but the excluded one drains: nothing was examined.
      EXPECT_EQ(static_cast<int>(degraded.candidates.size()),
                snap.live_size() - 1);
    }
  }
}

TEST(DegradedModeTest, WithoutTheFlagEarlyTerminationStaysPartial) {
  const Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);

  NncOptions options;
  options.op = Operator::kSSd;
  options.exclude_id = entry.seeded_from;
  QueryControl control;
  control.deadline = std::chrono::steady_clock::now();
  options.control = &control;
  const NncResult partial = NncSearch(dataset, options).Run(entry.query);

  EXPECT_EQ(partial.termination, NncTermination::kDeadlineExceeded);
  EXPECT_FALSE(partial.degraded);
  EXPECT_EQ(partial.frontier_objects, 0);
  EXPECT_EQ(partial.frontier_nodes, 0);
  EXPECT_TRUE(partial.candidates.empty());
}

TEST(DegradedModeTest, CompleteTraversalIgnoresTheFlag) {
  const Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);

  NncOptions options;
  options.op = Operator::kSSd;
  options.exclude_id = entry.seeded_from;
  const NncResult exact = NncSearch(dataset, options).Run(entry.query);

  options.degraded_superset = true;
  const NncResult flagged = NncSearch(dataset, options).Run(entry.query);
  EXPECT_EQ(flagged.termination, NncTermination::kComplete);
  EXPECT_FALSE(flagged.degraded);
  EXPECT_EQ(flagged.candidates, exact.candidates);
}

TEST(DegradedModeTest, EngineReportsOkDegradedWithStats) {
  Dataset dataset = SmallDataset();
  const QueryWorkloadEntry entry = OneQuery(dataset);

  NncOptions options;
  options.op = Operator::kSSd;
  options.exclude_id = entry.seeded_from;
  const NncResult exact = NncSearch(dataset, options).Run(entry.query);

  QueryEngine engine(std::move(dataset), {.num_threads = 1});
  options.degraded_superset = true;
  QuerySpec spec;
  spec.query = entry.query;
  spec.options = options;
  spec.deadline_seconds = 1e-9;
  auto ticket = engine.Submit(std::move(spec));

  ASSERT_EQ(ticket->Wait(), QueryStatus::kOkDegraded);
  EXPECT_TRUE(ticket->result().degraded);
  EXPECT_TRUE(ticket->error().empty());
  EXPECT_EQ(ticket->attempts(), 1);
  ExpectCertifiedSuperset(ticket->result(), exact.candidates);

  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.ok_degraded, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.frontier_objects, ticket->result().frontier_objects);
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"ok_degraded\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"frontier_objects\":"), std::string::npos) << json;
}

TEST(DegradedModeTest, StatusNamesCoverNewStates) {
  EXPECT_STREQ(QueryStatusName(QueryStatus::kOkDegraded), "OK_DEGRADED");
  EXPECT_STREQ(QueryStatusName(QueryStatus::kRejected), "REJECTED");
}

}  // namespace
}  // namespace osd
