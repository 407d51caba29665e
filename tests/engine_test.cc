// Functional tests of the engine layer: thread pool semantics, ticket
// lifecycle, deadlines, cancellation, error isolation, and stats export.

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "datagen/generators.h"
#include "datagen/workload.h"
#include "engine/query_engine.h"
#include "engine/thread_pool.h"

namespace osd {
namespace {

Dataset SmallDataset(int num_objects = 600, uint64_t seed = 11) {
  SyntheticParams p;
  p.dim = 2;
  p.num_objects = num_objects;
  p.instances_per_object = 6;
  p.seed = seed;
  return GenerateSynthetic(p);
}

std::vector<QueryWorkloadEntry> SmallWorkload(const Dataset& dataset, int n,
                                              uint64_t seed = 21) {
  WorkloadParams wp;
  wp.num_queries = n;
  wp.query_instances = 5;
  wp.seed = seed;
  return GenerateWorkload(dataset, wp);
}

QuerySpec MakeSpec(const UncertainObject& query, const NncOptions& options,
                   double deadline_seconds) {
  QuerySpec spec;
  spec.query = query;
  spec.options = options;
  spec.deadline_seconds = deadline_seconds;
  return spec;
}

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  ThreadPool pool(4, 16);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 100);
  const ThreadPool::Counters c = pool.counters();
  EXPECT_EQ(c.submitted, 100);
  EXPECT_EQ(c.executed, 100);
  EXPECT_EQ(c.task_exceptions, 0);
}

TEST(ThreadPoolTest, TrySubmitRejectsWhenFull) {
  ThreadPool pool(1, 1);
  std::atomic<bool> release{false};
  // Occupy the single worker, then fill the single queue slot.
  ASSERT_TRUE(pool.Submit([&release] {
    while (!release.load()) std::this_thread::yield();
  }));
  while (pool.counters().submitted < 1) std::this_thread::yield();
  // The worker may not have dequeued yet; wait until the queue has space,
  // fill it, and check that one more TrySubmit bounces.
  while (!pool.TrySubmit([] {})) std::this_thread::yield();
  bool saw_rejection = false;
  for (int i = 0; i < 3 && !saw_rejection; ++i) {
    saw_rejection = !pool.TrySubmit([] {});
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_GE(pool.counters().rejected, 1);
  release.store(true);
  pool.WaitIdle();
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotKillWorkers) {
  ThreadPool pool(2, 8);
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.Submit([] { throw std::runtime_error("boom"); }));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(pool.counters().task_exceptions, 1);
}

TEST(QueryEngineTest, SingleQueryMatchesSerialRun) {
  Dataset dataset = SmallDataset();
  const auto workload = SmallWorkload(dataset, 1);

  NncOptions options;
  options.op = Operator::kSSd;
  options.exclude_id = workload[0].seeded_from;
  const NncResult serial = NncSearch(dataset, options).Run(workload[0].query);

  QueryEngine engine(std::move(dataset), {.num_threads = 2});
  auto ticket = engine.Submit(MakeSpec(workload[0].query, options, 0.0));
  EXPECT_EQ(ticket->Wait(), QueryStatus::kOk);
  EXPECT_EQ(ticket->result().candidates, serial.candidates);
  EXPECT_EQ(ticket->result().termination, NncTermination::kComplete);
  EXPECT_GT(ticket->latency_seconds(), 0.0);
}

TEST(QueryEngineTest, ZeroBudgetDeadlineExpiresWithoutKillingPool) {
  Dataset dataset = SmallDataset();
  const auto workload = SmallWorkload(dataset, 2);
  NncOptions options;
  options.op = Operator::kPSd;

  QueryEngine engine(std::move(dataset), {.num_threads = 2});
  QuerySpec doomed = MakeSpec(workload[0].query, options, 1e-9);
  auto t1 = engine.Submit(std::move(doomed));
  EXPECT_EQ(t1->Wait(), QueryStatus::kDeadlineExceeded);

  // The pool must still serve queries afterwards.
  auto t2 = engine.Submit(MakeSpec(workload[1].query, options, 0.0));
  EXPECT_EQ(t2->Wait(), QueryStatus::kOk);
  EXPECT_FALSE(t2->result().candidates.empty());

  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.ok, 1);
}

TEST(QueryEngineTest, CancelledTicketTerminatesCleanly) {
  Dataset dataset = SmallDataset();
  const auto workload = SmallWorkload(dataset, 8);
  NncOptions options;
  options.op = Operator::kSSd;

  // One worker: later queries sit in the queue long enough for Cancel to
  // land before execution in the common case; either way the ticket must
  // reach a clean terminal state and the pool must survive.
  QueryEngine engine(std::move(dataset), {.num_threads = 1});
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (const auto& entry : workload) {
    tickets.push_back(engine.Submit(MakeSpec(entry.query, options, 0.0)));
  }
  tickets.back()->Cancel();
  const QueryStatus last = tickets.back()->Wait();
  EXPECT_TRUE(last == QueryStatus::kCancelled || last == QueryStatus::kOk);
  for (auto& t : tickets) {
    const QueryStatus s = t->Wait();
    EXPECT_TRUE(s == QueryStatus::kOk || s == QueryStatus::kCancelled);
  }
  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.completed, static_cast<long>(tickets.size()));
  EXPECT_EQ(stats.errors, 0);
}

TEST(QueryEngineTest, MismatchedQueryDimensionIsIsolatedAsError) {
  Dataset dataset = SmallDataset();  // dim 2
  const auto workload = SmallWorkload(dataset, 1);
  NncOptions options;

  QueryEngine engine(std::move(dataset), {.num_threads = 2});
  const UncertainObject bad =
      UncertainObject::Uniform(-7, 3, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  auto t_bad = engine.Submit(MakeSpec(bad, options, 0.0));
  EXPECT_EQ(t_bad->Wait(), QueryStatus::kError);
  EXPECT_FALSE(t_bad->error().empty());

  auto t_ok = engine.Submit(MakeSpec(workload[0].query, options, 0.0));
  EXPECT_EQ(t_ok->Wait(), QueryStatus::kOk);

  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.ok, 1);
}

TEST(QueryEngineTest, SnapshotAggregatesAndSerializes) {
  Dataset dataset = SmallDataset();
  const auto workload = SmallWorkload(dataset, 12);
  NncOptions options;
  options.op = Operator::kSsSd;

  QueryEngine engine(std::move(dataset), {.num_threads = 4});
  std::vector<QuerySpec> specs;
  for (const auto& entry : workload) {
    NncOptions per_query = options;
    per_query.exclude_id = entry.seeded_from;
    specs.push_back(MakeSpec(entry.query, per_query, 0.0));
  }
  auto tickets = engine.SubmitBatch(std::move(specs));
  engine.Drain();

  const EngineStats stats = engine.Snapshot();
  EXPECT_EQ(stats.submitted, 12);
  EXPECT_EQ(stats.completed, 12);
  EXPECT_EQ(stats.ok, 12);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GT(stats.filters.dominance_checks, 0);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p95_ms);
  EXPECT_LE(stats.latency_p95_ms, stats.latency_p99_ms);
  EXPECT_LE(stats.latency_p99_ms, stats.latency_max_ms + 1e-9);
  const OperatorStats& op =
      stats.per_operator[static_cast<int>(Operator::kSsSd)];
  EXPECT_EQ(op.queries, 12);
  EXPECT_GT(op.busy_seconds, 0.0);

  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"submitted\":12"), std::string::npos);
  EXPECT_NE(json.find("\"latency_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"SSSD\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

/// Every sample line of a Prometheus text exposition, name (labels
/// included) -> value.
std::map<std::string, double> ParseExposition(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    out[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return out;
}

// EngineStats is a read of the engine's metrics registry, so once Drain()
// returns every counter it reports must equal the value the Prometheus
// exposition carries for it. One engine (one worker, a one-slot queue,
// shedding and the profile cache on) drives every terminal status that can
// be reached deterministically, plus a retried transient fault when the
// failpoint sites are compiled in.
TEST(QueryEngineTest, SnapshotMatchesExportedMetricsForEveryStatus) {
  failpoint::Clear();
  Dataset dataset = SmallDataset();
  const auto workload = SmallWorkload(dataset, 1);
  NncOptions options;
  options.exclude_id = workload[0].seeded_from;
  QueryEngine engine(std::move(dataset),
                     {.num_threads = 1,
                      .queue_capacity = 1,
                      .shed_on_overload = true,
                      .profile_cache_bytes = 16 << 20});

  // Hold the only worker inside a terminal hook so one query waits in the
  // queue (then is cancelled there) and the next finds the queue full.
  std::promise<void> entered, release;
  std::shared_future<void> released = release.get_future().share();
  QuerySpec blocker = MakeSpec(workload[0].query, options, 0.0);
  blocker.on_finish = [&entered, released](const QueryTicket&) {
    entered.set_value();
    released.wait();
  };
  auto t_blocker = engine.Submit(std::move(blocker));
  entered.get_future().wait();
  auto t_cancelled = engine.Submit(MakeSpec(workload[0].query, options, 0.0));
  t_cancelled->Cancel();
  auto t_rejected = engine.Submit(MakeSpec(workload[0].query, options, 0.0));
  EXPECT_EQ(t_rejected->Wait(), QueryStatus::kRejected);
  release.set_value();
  EXPECT_EQ(t_blocker->Wait(), QueryStatus::kOk);
  EXPECT_EQ(t_cancelled->Wait(), QueryStatus::kCancelled);

  // One query per operator over one query object: they share profiles, so
  // the cache both misses and hits.
  for (Operator op : {Operator::kSSd, Operator::kSsSd, Operator::kPSd,
                      Operator::kFSd, Operator::kFPlusSd}) {
    NncOptions per_op = options;
    per_op.op = op;
    EXPECT_EQ(engine.Submit(MakeSpec(workload[0].query, per_op, 0.0))->Wait(),
              QueryStatus::kOk);
  }
  EXPECT_EQ(engine.Submit(MakeSpec(workload[0].query, options, 1e-9))->Wait(),
            QueryStatus::kDeadlineExceeded);
  NncOptions degraded = options;
  degraded.degraded_superset = true;
  EXPECT_EQ(engine.Submit(MakeSpec(workload[0].query, degraded, 1e-9))->Wait(),
            QueryStatus::kOkDegraded);
  const UncertainObject wrong_dim =
      UncertainObject::Uniform(-7, 3, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  EXPECT_EQ(engine.Submit(MakeSpec(wrong_dim, options, 0.0))->Wait(),
            QueryStatus::kError);
  long expected_retries = 0;
  if (failpoint::Enabled()) {
    ASSERT_TRUE(failpoint::Configure("engine.execute=1xthrow"));
    QuerySpec retried = MakeSpec(workload[0].query, options, 0.0);
    retried.retry.max_attempts = 2;
    retried.retry.initial_backoff_ms = 0.1;
    EXPECT_EQ(engine.Submit(std::move(retried))->Wait(), QueryStatus::kOk);
    failpoint::Clear();
    expected_retries = 1;
  }
  engine.Drain();

  const EngineStats s = engine.Snapshot();
  const std::map<std::string, double> exported =
      ParseExposition(engine.MetricsText());
  auto expect_exported = [&exported](const std::string& name, long value) {
    const auto it = exported.find(name);
    ASSERT_NE(it, exported.end()) << name << " is not exported";
    EXPECT_EQ(it->second, static_cast<double>(value)) << name;
  };

  EXPECT_EQ(s.ok, 6 + expected_retries);
  EXPECT_EQ(s.ok_degraded, 1);
  EXPECT_EQ(s.deadline_exceeded, 1);
  EXPECT_EQ(s.cancelled, 1);
  EXPECT_EQ(s.errors, 1);
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.retries, expected_retries);
  EXPECT_EQ(s.submitted, s.completed);
  EXPECT_GT(s.profile_cache_hits, 0);
  EXPECT_GT(s.frontier_objects, 0);

  expect_exported("osd_queries_submitted_total", s.submitted);
  expect_exported("osd_queries_total{status=\"ok\"}", s.ok);
  expect_exported("osd_queries_total{status=\"ok_degraded\"}", s.ok_degraded);
  expect_exported("osd_queries_total{status=\"deadline_exceeded\"}",
                  s.deadline_exceeded);
  expect_exported("osd_queries_total{status=\"cancelled\"}", s.cancelled);
  expect_exported("osd_queries_total{status=\"error\"}", s.errors);
  expect_exported("osd_queries_total{status=\"rejected\"}", s.rejected);
  expect_exported("osd_queries_total{status=\"stalled\"}", s.stalled);
  expect_exported("osd_workers_poisoned_total", s.workers_poisoned);
  expect_exported("osd_retries_total", s.retries);

  expect_exported("osd_query_latency_seconds_count", s.executed);
  // The invalid-observation side counter is exported only once nonzero.
  EXPECT_EQ(s.latency_invalid, 0);
  EXPECT_EQ(exported.count("osd_query_latency_seconds_invalid_total"), 0u);
  long bucketed = 0;
  for (long n : s.latency_histogram) bucketed += n;
  EXPECT_EQ(bucketed, s.executed);
  EXPECT_NEAR(s.latency_mean_ms * s.executed,
              exported.at("osd_query_latency_seconds_sum") * 1e3,
              1e-4 * s.latency_mean_ms * s.executed);

  const std::pair<const char*, long> filters[] = {
      {"dist_evals", s.filters.dist_evals},
      {"scan_steps", s.filters.scan_steps},
      {"pair_tests", s.filters.pair_tests},
      {"node_ops", s.filters.node_ops},
      {"flow_runs", s.filters.flow_runs},
      {"mbr_validations", s.filters.mbr_validations},
      {"stat_prunes", s.filters.stat_prunes},
      {"cover_prunes", s.filters.cover_prunes},
      {"level_decisions", s.filters.level_decisions},
      {"exact_checks", s.filters.exact_checks},
      {"dominance_checks", s.filters.dominance_checks},
  };
  for (const auto& [kind, value] : filters) {
    expect_exported(std::string("osd_filter_events_total{kind=\"") + kind + "\"}",
                    value);
  }
  expect_exported("osd_dominance_checks_total", s.filters.dominance_checks);
  expect_exported("osd_flow_runs_total", s.filters.flow_runs);
  expect_exported("osd_instance_comparisons_total",
                  s.filters.InstanceComparisons());
  expect_exported("osd_objects_examined_total", s.objects_examined);
  expect_exported("osd_entries_pruned_total", s.entries_pruned);
  expect_exported("osd_frontier_objects_total", s.frontier_objects);

  expect_exported("osd_mem_breaches_total", s.mem_breaches);
  expect_exported("osd_mem_admission_rejected_total", s.mem_admission_rejected);
  expect_exported("osd_bad_allocs_total", s.bad_allocs);
  expect_exported("osd_mem_scratch_reuse_bytes_total",
                  s.mem_scratch_reuse_bytes);
  expect_exported("osd_mem_engine_bytes", s.mem_current_bytes);
  expect_exported("osd_mem_engine_peak_bytes", s.mem_peak_bytes);

  long candidates = 0;
  for (int op = 0; op < 5; ++op) {
    const OperatorStats& per_op = s.per_operator[op];
    const std::string label = std::string("{op=\"") +
                              OperatorName(static_cast<Operator>(op)) + "\"}";
    EXPECT_GE(per_op.queries, 1) << label;
    expect_exported("osd_operator_queries_total" + label, per_op.queries);
    expect_exported("osd_operator_candidates_total" + label,
                    per_op.candidates);
    expect_exported("osd_operator_busy_microseconds_total" + label,
                    std::lround(per_op.busy_seconds * 1e6));
    candidates += per_op.candidates;
  }
  expect_exported("osd_candidates_total", candidates);

  expect_exported("osd_profile_cache_hits_total", s.profile_cache_hits);
  expect_exported("osd_profile_cache_misses_total", s.profile_cache_misses);
  expect_exported("osd_profile_cache_evictions_total",
                  s.profile_cache_evictions);
  expect_exported("osd_profile_cache_stale_evictions_total",
                  s.profile_cache_stale_evictions);
  expect_exported("osd_profile_cache_stale_serves_averted_total",
                  s.profile_cache_stale_serves_averted);
  expect_exported("osd_profile_cache_bytes", s.profile_cache_bytes);
}

}  // namespace
}  // namespace osd
