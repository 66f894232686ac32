#include "workloads.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "b2w/procedures.h"
#include "b2w/workload.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/time_series.h"
#include "controller/predictive_controller.h"
#include "engine/cluster.h"
#include "engine/event_loop.h"
#include "engine/metrics.h"
#include "engine/sharded_loop.h"
#include "engine/txn_executor.h"
#include "engine/workload_driver.h"
#include "fleet/fleet_simulator.h"
#include "fleet/tenant.h"
#include "layer_trace.h"
#include "migration/squall_migrator.h"
#include "obs/tracer.h"
#include "planner/move_model.h"
#include "prediction/naive_models.h"
#include "prediction/online_predictor.h"
#include "prediction/predictor_spec.h"
#include "prediction/spar_model.h"
#include "sim/capacity_simulator.h"
#include "sim/run_spec.h"
#include "trace/b2w_trace_generator.h"
#include "ycsb/ycsb_workload.h"

namespace pstore {
namespace perfbench {
namespace {

void Check(UnitResult* result, bool ok, const std::string& name) {
  if (!ok) result->failed_checks.push_back(name);
}

void CheckOk(UnitResult* result, const Status& status,
             const std::string& name) {
  if (!status.ok()) {
    result->failed_checks.push_back(name + ": " + status.ToString());
  }
}

// 64-bit FNV-1a, folded to 52 bits so the digest survives the trip
// through a double in the outcome map.
double Digest(const std::string& text) {
  uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return static_cast<double>(hash & ((1ULL << 52) - 1));
}

// Every bucket maps to an active partition, and its owner holds all of
// its rows: the bytes found under each bucket's owner add up to the
// cluster's total, so no other partition holds any (every row these
// workloads load has a payload). Skipped while a reconfiguration is
// still moving data, when buckets in flight live on two partitions.
bool BucketsOwnedOnce(const Cluster& cluster) {
  const int active = cluster.total_active_partitions();
  int64_t owned_bytes = 0;
  for (int b = 0; b < cluster.num_buckets(); ++b) {
    const BucketId bucket = static_cast<BucketId>(b);
    const int owner = cluster.PartitionOfBucket(bucket);
    if (owner < 0 || owner >= active) return false;
    owned_bytes += cluster.partition(owner).BucketBytes(bucket);
  }
  return owned_bytes == cluster.TotalDataBytes();
}

// Steps the control loop to `end` in `step_seconds` slices, timing each
// (step_seconds == 0: one RunUntil call, one sample).
std::vector<double> StepUntil(EventLoop* loop, SimTime end, int step_seconds) {
  std::vector<double> step_ms;
  const SimTime step = step_seconds > 0 ? FromSeconds(step_seconds) : end;
  for (SimTime t = std::min(step, end);; t = std::min(t + step, end)) {
    const Clock::time_point start = Clock::now();
    loop->RunUntil(t);
    step_ms.push_back(SecondsSince(start) * 1e3);
    if (t >= end) break;
  }
  return step_ms;
}

// A traced unit's tracer and its in-memory sink; get() is null for an
// untraced unit, which then runs with no tracer installed.
struct UnitTracer {
  explicit UnitTracer(bool traced) {
    if (!traced) return;
    auto owned = std::make_unique<LayerTraceSink>();
    sink = owned.get();
    tracer.SetSink(std::move(owned));
  }
  obs::Tracer* get() { return sink != nullptr ? &tracer : nullptr; }

  obs::Tracer tracer;
  LayerTraceSink* sink = nullptr;
};

// Appends the part of the simulation phase no segment covers, so the
// segments add up to sim_s.
void CloseSegments(UnitResult* result) {
  double covered = 0.0;
  for (const double s : result->segment_s) covered += s;
  result->segment_s.push_back(std::max(0.0, result->sim_s - covered));
}

void StepSegments(UnitResult* result) {
  for (const double ms : result->step_ms) {
    result->segment_s.push_back(ms / 1e3);
  }
  CloseSegments(result);
}

// Conservation checks shared by the engine workloads, plus the outcome
// counters every engine unit reports.
void EngineOutcome(const TxnExecutor& executor,
                   const WorkloadDriver& driver,
                   const std::vector<WindowStats>& windows,
                   UnitResult* result) {
  const int64_t submitted = executor.submitted_count();
  const int64_t committed = executor.committed_count();
  const int64_t aborted = executor.aborted_count();
  const int64_t unavailable = executor.unavailable_count();
  // TxnExecutor counts an unavailable transaction as aborted too, so the
  // balance is submitted = committed + aborted, unavailable <= aborted.
  Check(result, submitted == committed + aborted,
        "engine: submitted == committed + aborted");
  Check(result, unavailable >= 0 && unavailable <= aborted,
        "engine: unavailable <= aborted");
  Check(result, unavailable == 0, "engine: no unavailable txns (no faults)");
  Check(result, driver.arrivals_generated() == submitted,
        "engine: every driver arrival submitted");
  Check(result, submitted > 0, "engine: transactions submitted");
  result->outcome["submitted"] = static_cast<double>(submitted);
  result->outcome["committed"] = static_cast<double>(committed);
  result->outcome["aborted"] = static_cast<double>(aborted);
  result->outcome["unavailable"] = static_cast<double>(unavailable);
  result->outcome["distributed"] =
      static_cast<double>(executor.distributed_count());
  result->outcome["sla_violation_windows"] = static_cast<double>(
      MetricsCollector::CountViolations(windows).p99);
  result->outcome["failed_share"] =
      static_cast<double>(aborted) / static_cast<double>(submitted);
  result->attempted = submitted;
  result->failed = unavailable;
  result->work = static_cast<double>(submitted);
}

// Per-layer metrics derived from the in-memory trace of an engine unit.
void EngineLayers(const LayerTraceSink& sink, const TxnExecutor& executor,
                  const Cluster& cluster, UnitResult* result) {
  std::map<std::string, double>& layers = result->layers;
  layers["engine.submitted"] = static_cast<double>(executor.submitted_count());
  layers["engine.committed"] = static_cast<double>(executor.committed_count());
  layers["engine.aborted"] = static_cast<double>(executor.aborted_count());
  layers["engine.unavailable"] =
      static_cast<double>(executor.unavailable_count());
  layers["engine.distributed"] =
      static_cast<double>(executor.distributed_count());
  layers["storage.rows"] = static_cast<double>(cluster.TotalRowCount());
  layers["storage.bytes"] = static_cast<double>(cluster.TotalDataBytes());
  layers["obs.trace_events"] = static_cast<double>(sink.total_events());
}

}  // namespace

UnitResult RunB2wElastic(const UnitOptions& options,
                         const B2wElasticConfig& config) {
  constexpr int kTrainingDays = 28;
  constexpr int kInitialNodes = 4;
  UnitResult result;
  const bool traced = options.traced;
  UnitTracer unit_tracer(traced);
  obs::Tracer* tracing = unit_tracer.get();
  LayerTraceSink* sink = unit_tracer.sink;

  const Clock::time_point setup_start = Clock::now();
  // The fig09 P-Store configuration (bench_util's RunEngineExperiment):
  // B2W at ~1500 txn/s peak replayed at 10x, one trace minute per 6
  // simulated seconds. The load trace is fig09's (seed 42), so every
  // seed replays the paper's day; the seed draws the transaction stream
  // (arrivals, procedure mix, keys, service times). A seeded trace would
  // move the day's machine-hours by about 10% from seed to seed.
  const int replay_days = (config.sim_seconds + 8639) / 8640;
  B2wTraceOptions trace_options;
  trace_options.days = kTrainingDays + replay_days;
  trace_options.peak_requests_per_min = 9000.0;
  trace_options.seed = 42;
  WorkloadSpec workload_spec;
  workload_spec.kind = WorkloadSpec::Kind::kB2wSynthetic;
  workload_spec.b2w = trace_options;
  workload_spec.scale = 10.0 / 60.0;
  Clock::time_point phase = Clock::now();
  StatusOr<TimeSeries> built = BuildWorkloadTrace(workload_spec);
  const double trace_build_s = SecondsSince(phase);
  CheckOk(&result, built.status(), "b2w: trace built");
  if (!built.ok()) return result;
  const TimeSeries trace = *std::move(built);
  const size_t replay_begin =
      static_cast<size_t>(kTrainingDays) * 1440;

  ClusterOptions cluster_options;
  cluster_options.partitions_per_node = 6;
  cluster_options.max_nodes = 16;
  cluster_options.initial_nodes = kInitialNodes;
  cluster_options.num_buckets = 3600;
  Cluster cluster(cluster_options);
  MetricsCollector metrics(1.0);
  ExecutorOptions executor_options;
  executor_options.seed = options.seed * 6151 + 99;
  TxnExecutor executor(&cluster, &metrics, executor_options);
  CheckOk(&result, b2w::RegisterProcedures(&executor), "b2w: procedures");
  b2w::B2wWorkloadOptions workload_options;
  workload_options.cart_pool = 300000;
  workload_options.checkout_pool = 120000;
  workload_options.seed = options.seed * 104729 + 17;
  b2w::Workload workload(workload_options);
  phase = Clock::now();
  CheckOk(&result, workload.LoadInitialData(&cluster), "b2w: data loaded");
  const double load_s = SecondsSince(phase);

  EventLoop loop;
  MigrationOptions migration_options;
  migration_options.net_rate_bytes_per_sec = 500e3;
  migration_options.chunk_spacing_seconds = 2.0;
  migration_options.chunk_bytes = 1000 * 1000;
  migration_options.extract_rate_bytes_per_sec = 20e6;
  MigrationManager migration(&loop, &cluster, &metrics, migration_options);
  executor.set_tracer(tracing);
  migration.set_tracer(tracing);
  metrics.RecordMachines(0, kInitialNodes);

  TimedFactory timed_factory(
      [&workload](Rng& rng) { return workload.NextTransaction(rng); });
  WorkloadDriver::TxnFactory factory =
      [&workload](Rng& rng) { return workload.NextTransaction(rng); };
  if (traced) factory = timed_factory.Wrap();
  DriverOptions driver_options;
  driver_options.slot_sim_seconds = 6.0;
  driver_options.rate_factor = 1.0;
  driver_options.start_slot = replay_begin;
  driver_options.seed = options.seed * 7919 + 13;
  WorkloadDriver driver(&loop, &executor, trace, factory, driver_options);
  driver.set_tracer(tracing);

  PlannerParams planner_params;
  planner_params.target_rate_per_node = 285.0;
  planner_params.max_rate_per_node = 350.0;
  planner_params.partitions_per_node = 6;
  planner_params.d_slots =
      SingleThreadFullMigrationSeconds(cluster.TotalDataBytes(),
                                       migration_options) /
      30.0;  // planning slot = 5 trace minutes = 30 simulated seconds

  OnlinePredictorOptions online_options;
  online_options.inflation = 1.15;
  online_options.training_window =
      static_cast<size_t>(kTrainingDays) * 1440;
  online_options.refit_interval = 7 * 1440;
  SparOptions spar_options;
  spar_options.period = 1440;
  spar_options.num_periods = 7;
  spar_options.num_recent = 30;
  spar_options.max_tau = 240;
  spar_options.tau_stride = 5;
  std::unique_ptr<LoadPredictor> model =
      std::make_unique<SparPredictor>(spar_options);
  TimedPredictor* timed_model = nullptr;
  if (traced) {
    auto wrapped = std::make_unique<TimedPredictor>(std::move(model));
    timed_model = wrapped.get();
    model = std::move(wrapped);
  }
  OnlinePredictor predictor(std::move(model), online_options);
  predictor.set_tracer(tracing, [&loop] { return loop.now(); });
  CheckOk(&result, predictor.Warmup(trace.Slice(0, replay_begin)),
          "b2w: predictor warm-up");

  PredictiveControllerOptions controller_options;
  controller_options.slot_sim_seconds = 6.0;
  controller_options.plan_slot_factor = 5;
  controller_options.horizon_plan_slots = 48;
  controller_options.planner_params = planner_params;
  PredictiveController controller(&loop, &cluster, &executor, &migration,
                                  &predictor, controller_options);
  controller.set_tracer(tracing);
  controller.Start();
  const SimTime end = FromSeconds(config.sim_seconds);
  driver.Start(end);
  result.setup_s = SecondsSince(setup_start);
  if (options.setup_only) return result;

  const double predictor_s_before = traced ? timed_model->total_s() : 0.0;
  const Clock::time_point sim_start = Clock::now();
  result.step_ms = StepUntil(&loop, end, config.step_seconds);
  phase = Clock::now();
  const std::vector<WindowStats> windows = metrics.Finalize(end);
  const double finalize_s = SecondsSince(phase);
  result.sim_s = SecondsSince(sim_start);
  StepSegments(&result);

  EngineOutcome(executor, driver, windows, &result);
  Check(&result, migration.InProgress() || BucketsOwnedOnce(cluster),
        "b2w: every bucket owned by exactly one active partition");
  Check(&result, migration.reconfigurations_failed() == 0,
        "b2w: no failed reconfiguration");
  const double avg_machines = metrics.AverageMachines(end);
  // Cost in trace time: one simulated second replays ten trace seconds.
  result.outcome["machine_hours"] =
      avg_machines * config.sim_seconds * 10.0 / 3600.0;
  result.outcome["reconfigurations"] =
      static_cast<double>(migration.reconfigurations_completed());
  result.outcome["bytes_moved"] =
      static_cast<double>(migration.total_bytes_moved());
  result.outcome["final_nodes"] = cluster.active_nodes();

  if (!traced) return result;
  std::map<std::string, double>& layers = result.layers;
  EngineLayers(*sink, executor, cluster, &result);
  const EventAggregate& plans = sink->Get("planner.plan");
  const double plan_s = plans.field_sums.count("wall_us") != 0
                            ? plans.field_sums.at("wall_us") / 1e6
                            : 0.0;
  const double predictor_s = timed_model->total_s() - predictor_s_before;
  double step_s = 0.0;
  for (const double ms : result.step_ms) step_s += ms / 1e3;
  const double submitted = static_cast<double>(executor.submitted_count());
  layers["trace.build_s"] = trace_build_s;
  layers["b2w.load_s"] = load_s;
  layers["predictor.fit_s"] = timed_model->fit_s();
  layers["b2w.gen_ns_per_txn"] =
      timed_factory.calls() > 0
          ? timed_factory.estimated_s() * 1e9 /
                static_cast<double>(timed_factory.calls())
          : 0.0;
  layers["engine.control_ns_per_txn"] =
      (step_s - timed_factory.estimated_s() - predictor_s - plan_s) * 1e9 /
      submitted;
  layers["engine.finalize_s"] = finalize_s;
  layers["migration.reconfigs"] =
      static_cast<double>(migration.reconfigurations_completed());
  layers["migration.chunks"] =
      static_cast<double>(sink->Get("migration.chunk").count);
  layers["migration.bytes_moved"] =
      static_cast<double>(migration.total_bytes_moved());
  layers["migration.chunk_retries"] =
      static_cast<double>(migration.chunk_retries().value());
  layers["controller.infeasible_plans"] =
      static_cast<double>(controller.infeasible_plans());
  layers["controller.reconfigs_started"] =
      static_cast<double>(controller.reconfigurations_started());
  layers["predictor.calls"] =
      static_cast<double>(timed_model->call_us().size());
  layers["predictor.us_per_call_p50"] = Quantile(timed_model->call_us(), 0.5);
  layers["predictor.us_per_call_p99"] =
      Quantile(timed_model->call_us(), 0.99);
  layers["planner.plans"] = static_cast<double>(plans.count);
  layers["planner.plan_us_p50"] = Quantile(plans.wall_us, 0.5);
  layers["planner.plan_us_p95"] = Quantile(plans.wall_us, 0.95);
  const auto feasible = plans.true_counts.find("feasible");
  layers["planner.feasible_ratio"] =
      plans.count == 0 || feasible == plans.true_counts.end()
          ? 0.0
          : static_cast<double>(feasible->second) /
                static_cast<double>(plans.count);
  return result;
}

UnitResult RunYcsbSharded(const UnitOptions& options,
                          const YcsbShardedConfig& config) {
  UnitResult result;
  const bool traced = options.traced;
  UnitTracer unit_tracer(traced);
  obs::Tracer* tracing = unit_tracer.get();
  LayerTraceSink* sink = unit_tracer.sink;

  const Clock::time_point setup_start = Clock::now();
  Clock::time_point phase = Clock::now();
  const TimeSeries flat(
      1.0, std::vector<double>(static_cast<size_t>(config.sim_seconds),
                               config.rate));
  const double trace_build_s = SecondsSince(phase);

  ClusterOptions cluster_options;
  cluster_options.partitions_per_node = 6;
  cluster_options.max_nodes = config.nodes;
  cluster_options.initial_nodes = config.nodes;
  cluster_options.num_buckets = 20 * 6 * config.nodes;
  Cluster cluster(cluster_options);
  MetricsCollector metrics(1.0);
  ExecutorOptions executor_options;
  executor_options.seed = options.seed * 6151 + 99;
  TxnExecutor executor(&cluster, &metrics, executor_options);
  CheckOk(&result, ycsb::Workload::RegisterProcedures(&executor),
          "ycsb: procedures");
  ycsb::YcsbWorkloadOptions workload_options;
  workload_options.record_count = config.records;
  workload_options.record_bytes = 100;
  workload_options.mix = ycsb::Mix::kA;
  workload_options.zipf_theta = 0.6;
  workload_options.multi_key_fraction = 0.01;
  workload_options.seed = options.seed * 104729 + 31;
  ycsb::Workload workload(workload_options);
  phase = Clock::now();
  CheckOk(&result, workload.LoadInitialData(&cluster), "ycsb: data loaded");
  const double load_s = SecondsSince(phase);
  metrics.RecordMachines(0, config.nodes);

  EventLoop loop;
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<FlushTimer> flush_timer;
  if (config.engine_threads > 1) {
    engine = std::make_unique<ShardedEngine>(&loop, config.nodes,
                                             config.engine_threads);
    executor.EnableSharding(engine.get());
    if (traced) {
      flush_timer = std::make_unique<FlushTimer>(&loop, engine.get());
    } else {
      engine->InstallBarrierHook();
    }
  }
  executor.set_tracer(tracing);

  TimedFactory timed_factory(
      [&workload](Rng& rng) { return workload.NextTransaction(rng); });
  WorkloadDriver::TxnFactory factory =
      [&workload](Rng& rng) { return workload.NextTransaction(rng); };
  if (traced) factory = timed_factory.Wrap();
  if (flush_timer != nullptr) {
    // Transfers whose two keys live on different nodes make the executor
    // flush every shard inline before running them.
    const Cluster* routing = &cluster;
    factory = flush_timer->Watch(
        std::move(factory), [routing](const TxnRequest& request) {
          return request.procedure == ycsb::kMultiTransfer &&
                 request.num_extra_keys == 1 &&
                 routing->NodeOfPartition(
                     routing->PartitionForKey(request.key)) !=
                     routing->NodeOfPartition(
                         routing->PartitionForKey(request.extra_keys[0]));
        });
  }
  DriverOptions driver_options;
  driver_options.slot_sim_seconds = 1.0;
  driver_options.rate_factor = 1.0;
  driver_options.seed = options.seed * 7919 + 17;
  WorkloadDriver driver(&loop, &executor, flat, factory, driver_options);
  driver.set_tracer(tracing);
  const SimTime end = FromSeconds(config.sim_seconds);
  driver.Start(end);
  result.setup_s = SecondsSince(setup_start);
  if (options.setup_only) return result;

  const Clock::time_point sim_start = Clock::now();
  result.step_ms = StepUntil(&loop, end, config.step_seconds);
  if (engine != nullptr) {
    // The tail of the final window, then per-shard stats folded so the
    // counters read exactly as a serial run's would.
    const Clock::time_point flush_start = Clock::now();
    if (flush_timer != nullptr) {
      flush_timer->FinalFlush();
    } else {
      engine->Flush();
    }
    result.step_ms.back() += SecondsSince(flush_start) * 1e3;
    executor.FoldShardStats();
    Check(&result, engine->idle(), "ycsb: shards drained");
  }
  phase = Clock::now();
  const std::vector<WindowStats> windows = metrics.Finalize(end);
  const double finalize_s = SecondsSince(phase);
  result.sim_s = SecondsSince(sim_start);
  StepSegments(&result);

  EngineOutcome(executor, driver, windows, &result);
  Check(&result, BucketsOwnedOnce(cluster),
        "ycsb: every bucket owned by exactly one active partition");
  result.outcome["machine_hours"] =
      static_cast<double>(config.nodes) * config.sim_seconds / 3600.0;
  const int64_t barriers = engine != nullptr ? engine->barriers() : 0;
  const int64_t tasks = engine != nullptr ? engine->tasks_run() : 0;
  const int64_t messages =
      engine != nullptr ? engine->messages_delivered() : 0;
  if (!traced) return result;

  std::map<std::string, double>& layers = result.layers;
  EngineLayers(*sink, executor, cluster, &result);
  double step_s = 0.0;
  for (const double ms : result.step_ms) step_s += ms / 1e3;
  const double flush_s = flush_timer != nullptr ? flush_timer->flush_s() : 0.0;
  layers["trace.build_s"] = trace_build_s;
  layers["ycsb.load_s"] = load_s;
  layers["ycsb.gen_ns_per_txn"] =
      timed_factory.calls() > 0
          ? timed_factory.estimated_s() * 1e9 /
                static_cast<double>(timed_factory.calls())
          : 0.0;
  layers["engine.control_ns_per_txn"] =
      (step_s - timed_factory.estimated_s() - flush_s) * 1e9 /
      static_cast<double>(executor.submitted_count());
  layers["engine.finalize_s"] = finalize_s;
  layers["sharded.flush_s"] = flush_s;
  layers["sharded.flush_share"] = step_s > 0.0 ? flush_s / step_s : 0.0;
  layers["sharded.inline_flushes"] = static_cast<double>(
      flush_timer != nullptr ? flush_timer->inline_flushes() : 0);
  layers["sharded.barriers"] = static_cast<double>(barriers);
  layers["sharded.tasks"] = static_cast<double>(tasks);
  layers["sharded.messages"] = static_cast<double>(messages);
  layers["sharded.tasks_per_barrier"] =
      barriers > 0 ? static_cast<double>(tasks) / static_cast<double>(barriers)
                   : 0.0;
  return result;
}

UnitResult RunCapacitySweep(const UnitOptions& options) {
  // The Fig. 12 grid (bench/fig12_cost_capacity.cc): 11 weeks of B2W
  // with Black Friday in week 10, four weeks of training.
  constexpr int kDays = 77;
  constexpr int kTrainDays = 28;
  constexpr int kBlackFriday = 70;
  UnitResult result;
  const bool traced = options.traced;
  UnitTracer unit_tracer(traced);
  LayerTraceSink* sink = unit_tracer.sink;

  const Clock::time_point setup_start = Clock::now();
  B2wTraceOptions trace_options;
  trace_options.days = kDays;
  trace_options.seed = options.seed;
  trace_options.peak_requests_per_min = 10500.0;
  trace_options.black_friday_day = kBlackFriday;
  Clock::time_point phase = Clock::now();
  const TimeSeries trace =
      GenerateB2wTrace(trace_options).Scaled(10.0 / 60.0);
  const TimeSeries coarse = trace.DownsampleMean(5);
  const double trace_build_s = SecondsSince(phase);

  PredictorContext context;
  context.period = 1440 / 5;
  context.max_tau = 36;
  StatusOr<std::unique_ptr<LoadPredictor>> made =
      MakePredictor("spar(n=7,m=6)", context);
  CheckOk(&result, made.status(), "capacity: predictor built");
  if (!made.ok()) return result;
  LoadPredictor& spar = **made;
  phase = Clock::now();
  CheckOk(&result, spar.Fit(coarse.Slice(0, kTrainDays * 288)),
          "capacity: SPAR fitted");
  const double fit_s = SecondsSince(phase);
  OraclePredictor oracle(coarse);
  TimedPredictor timed_spar(&spar);
  TimedPredictor timed_oracle(&oracle);

  SimOptions sim;
  sim.plan_slot_factor = 5;
  sim.horizon_plan_slots = 36;
  sim.q = 285.0;
  sim.q_hat = 350.0;
  sim.d_fine_slots = 77.0;
  sim.partitions_per_node = 6;
  sim.initial_nodes = 4;
  sim.max_nodes = 60;
  sim.eval_begin = kTrainDays * 1440;
  RunSpec base;
  base.workload.kind = WorkloadSpec::Kind::kProvided;
  base.workload.provided = &trace;
  base.sim = sim;
  base.tracer = unit_tracer.get();
  const LoadPredictor* spar_model = traced ? &timed_spar : &spar;
  const LoadPredictor* oracle_model =
      traced ? static_cast<const LoadPredictor*>(&timed_oracle) : &oracle;

  // Spec order and labels follow the figure; `kinds` names each spec's
  // strategy family for the per-strategy timings.
  std::vector<RunSpec> specs;
  std::vector<std::string> kinds;
  for (const double q : {200.0, 240.0, 285.0, 320.0, 340.0}) {
    RunSpec spec = base;
    spec.label = "Q=" + std::to_string(static_cast<int>(q));
    spec.strategy = Strategy::kPredictive;
    spec.sim.q = q;
    spec.predictor = spar_model;
    specs.push_back(spec);
    kinds.push_back("pstore");
    spec.sim.inflation = 1.0;
    spec.predictor = oracle_model;
    specs.push_back(spec);
    kinds.push_back("oracle");
  }
  for (const double watermark : {1.1, 1.0, 0.9, 0.8, 0.7}) {
    RunSpec spec = base;
    spec.label = "watermark=" + std::to_string(watermark);
    spec.strategy = Strategy::kReactive;
    spec.reactive.high_watermark = watermark;
    specs.push_back(spec);
    kinds.push_back("reactive");
  }
  for (const int day_nodes : {8, 10, 12, 16, 20}) {
    RunSpec spec = base;
    spec.label = "day=" + std::to_string(day_nodes);
    spec.strategy = Strategy::kSimple;
    spec.simple.day_nodes = day_nodes;
    spec.simple.night_nodes = 3;
    specs.push_back(spec);
    kinds.push_back("simple");
  }
  for (const int nodes : {4, 6, 8, 10, 14, 20}) {
    RunSpec spec = base;
    spec.label = std::to_string(nodes) + " machines";
    spec.strategy = Strategy::kStatic;
    spec.static_nodes = nodes;
    specs.push_back(spec);
    kinds.push_back("static");
  }
  result.setup_s = SecondsSince(setup_start);
  if (options.setup_only) return result;

  SweepResult sweep;
  std::map<std::string, double> run_s;
  const Clock::time_point sim_start = Clock::now();
  for (size_t i = 0; i < specs.size(); ++i) {
    phase = Clock::now();
    StatusOr<SimResult> run = RunOne(specs[i]);
    result.segment_s.push_back(SecondsSince(phase));
    run_s[kinds[i]] += result.segment_s.back();
    ++result.attempted;
    if (!run.ok()) {
      ++result.failed;
      CheckOk(&result, run.status(), "capacity: RunOne " + specs[i].label);
      sweep.results.emplace_back();
      continue;
    }
    sweep.results.push_back(*std::move(run));
  }
  result.sim_s = SecondsSince(sim_start);
  CloseSegments(&result);

  const double eval_days = static_cast<double>(kDays - kTrainDays);
  result.work = eval_days * static_cast<double>(specs.size());
  // Headline row: P-Store SPAR at the default Q = 285 (spec index 4).
  const SimResult& headline = sweep.results[4];
  Check(&result, specs[4].label == "Q=285" && kinds[4] == "pstore",
        "capacity: headline row is P-Store SPAR Q=285");
  result.outcome["machine_hours"] = headline.machine_slots / 60.0;
  result.outcome["insufficient_pct"] = 100.0 * headline.insufficient_fraction;
  result.outcome["failed_share"] = static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted);
  double reconfigurations = 0.0;
  for (const SimResult& run : sweep.results) {
    reconfigurations += run.reconfigurations;
  }
  result.outcome["reconfigurations"] = reconfigurations;
  result.outcome["sweep_csv_digest"] = Digest(SweepCsvRows(specs, sweep));
  if (!traced) return result;

  std::map<std::string, double>& layers = result.layers;
  const double predictor_s = timed_spar.predict_s() + timed_oracle.predict_s();
  std::vector<double> call_us = timed_spar.call_us();
  call_us.insert(call_us.end(), timed_oracle.call_us().begin(),
                 timed_oracle.call_us().end());
  layers["trace.build_s"] = trace_build_s;
  layers["predictor.fit_s"] = fit_s;
  layers["predictor.calls"] = static_cast<double>(call_us.size());
  layers["predictor.us_per_call_p50"] = Quantile(call_us, 0.5);
  layers["predictor.us_per_call_p99"] = Quantile(call_us, 0.99);
  for (const char* kind : {"pstore", "oracle", "reactive", "simple", "static"}) {
    layers[std::string("capacity.run_s.") + kind] = run_s[kind];
  }
  layers["capacity.cycles"] =
      static_cast<double>(sink->Get("sim.cycle").count);
  layers["capacity.plan_step_s"] =
      run_s["pstore"] + run_s["oracle"] - predictor_s;
  layers["obs.trace_events"] = static_cast<double>(sink->total_events());
  return result;
}

UnitResult RunFleet1000(const UnitOptions& options) {
  UnitResult result;
  const bool traced = options.traced;
  UnitTracer unit_tracer(traced);
  LayerTraceSink* sink = unit_tracer.sink;

  // pstore_fleet's defaults for --tenants=1000 --mode=fleet.
  const Clock::time_point setup_start = Clock::now();
  fleet::TenantMixOptions mix;
  mix.b2w_tenants = 400;
  mix.wikipedia_tenants = 200;
  mix.ycsb_tenants = 200;
  mix.step_tenants = 200;
  mix.days = 4;
  mix.seed = options.seed;
  mix.partitions_per_tenant = 2;
  fleet::FleetOptions fleet_options;
  fleet_options.controller.placement.machine_capacity = 285.0;
  fleet_options.controller.placement.interference_per_tenant = 0.02;
  fleet_options.controller.inflation = 1.15;
  fleet_options.machine_serve_capacity = 350.0;
  fleet_options.planner.target_rate_per_node = 285.0;
  fleet_options.planner.max_rate_per_node = 350.0;
  fleet_options.eval_begin = 1440;
  fleet::FleetSimulator simulator(fleet_options, fleet::MakeTenantMix(mix));
  simulator.set_tracer(unit_tracer.get());
  result.setup_s = SecondsSince(setup_start);
  if (options.setup_only) return result;

  const Clock::time_point sim_start = Clock::now();
  StatusOr<fleet::FleetResult> run =
      simulator.Simulate(fleet::FleetMode::kFleet, nullptr);
  result.sim_s = SecondsSince(sim_start);
  CloseSegments(&result);
  result.attempted = 1;
  CheckOk(&result, run.status(), "fleet: Simulate");
  if (!run.ok()) {
    result.failed = 1;
    return result;
  }
  const fleet::FleetResult& fleet = *run;
  const int64_t expected_cycles = static_cast<int64_t>(
      fleet.eval_fine_slots / static_cast<size_t>(fleet_options.plan_slot_factor));
  Check(&result, fleet.cycles >= expected_cycles && fleet.cycles > 0,
        "fleet: every evaluation cycle ran");
  Check(&result, fleet.tenants == fleet::TotalTenants(mix),
        "fleet: every tenant simulated");
  result.attempted = fleet.cycles;
  const double eval_days =
      static_cast<double>(fleet.eval_fine_slots) / 1440.0;
  result.work = eval_days * fleet.tenants;
  result.outcome["machine_hours"] =
      (fleet.machine_slots + fleet.move_machine_slots) *
      fleet_options.fine_slot_seconds / 3600.0;
  result.outcome["insufficient_pct"] = 100.0 * fleet.tenant_violation_fraction;
  result.outcome["failed_share"] = 0.0;
  result.outcome["cycles"] = static_cast<double>(fleet.cycles);
  result.outcome["repacks"] = static_cast<double>(fleet.repacks);
  result.outcome["partition_moves"] = static_cast<double>(fleet.partition_moves);
  result.outcome["peak_machines"] = fleet.peak_machines;
  result.outcome["fleet_csv_digest"] = Digest(fleet::FleetCsvRows(fleet));
  if (!traced) return result;

  std::map<std::string, double>& layers = result.layers;
  const EventAggregate& cycles = sink->Get("fleet.cycle");
  layers["trace.build_s"] = 0.0;
  layers["fleet.cycles"] = static_cast<double>(fleet.cycles);
  layers["fleet.repacks"] = static_cast<double>(fleet.repacks);
  layers["fleet.spike_replans"] = static_cast<double>(fleet.spike_replans);
  layers["fleet.partition_moves"] = static_cast<double>(fleet.partition_moves);
  std::vector<double> cycle_ms;
  for (const double us : cycles.gap_us) cycle_ms.push_back(us / 1e3);
  layers["fleet.cycle_ms_p50"] = Quantile(cycle_ms, 0.5);
  layers["fleet.cycle_ms_p99"] = Quantile(cycle_ms, 0.99);
  layers["obs.trace_events"] = static_cast<double>(sink->total_events());
  return result;
}

void AppendScenario(const std::string& prefix, const UnitResult& part,
                    UnitResult* unit) {
  unit->setup_s += part.setup_s;
  unit->sim_s += part.sim_s;
  unit->work += part.work;
  unit->segment_s.insert(unit->segment_s.end(), part.segment_s.begin(),
                         part.segment_s.end());
  unit->step_ms.insert(unit->step_ms.end(), part.step_ms.begin(),
                       part.step_ms.end());
  for (const auto& [key, value] : part.outcome) {
    unit->outcome[prefix + "." + key] = value;
  }
  unit->failed_checks.insert(unit->failed_checks.end(),
                             part.failed_checks.begin(),
                             part.failed_checks.end());
  unit->attempted += part.attempted;
  unit->failed += part.failed;
  auto submitted = [](const UnitResult& result) {
    const auto it = result.layers.find("engine.submitted");
    return it == result.layers.end() ? 0.0 : it->second;
  };
  const double txns_before = submitted(*unit);
  const double txns_part = submitted(part);
  for (const auto& [key, value] : part.layers) {
    const auto it = unit->layers.find(key);
    if (it == unit->layers.end()) {
      unit->layers[key] = value;
    } else if (key == "engine.control_ns_per_txn") {
      const double txns = txns_before + txns_part;
      it->second =
          txns > 0.0
              ? (it->second * txns_before + value * txns_part) / txns
              : 0.0;
    } else {
      it->second += value;
    }
  }
}

namespace {

double OutcomeOr0(const UnitResult& unit, const std::string& key) {
  const auto it = unit.outcome.find(key);
  return it == unit.outcome.end() ? 0.0 : it->second;
}

}  // namespace

UnitResult RunEngine(const UnitOptions& options) {
  UnitResult unit;
  AppendScenario("b2w", RunB2wElastic(options), &unit);
  AppendScenario("ycsb", RunYcsbSharded(options), &unit);
  if (options.setup_only) return unit;
  const double submitted =
      OutcomeOr0(unit, "b2w.submitted") + OutcomeOr0(unit, "ycsb.submitted");
  const double aborted =
      OutcomeOr0(unit, "b2w.aborted") + OutcomeOr0(unit, "ycsb.aborted");
  unit.outcome["machine_hours"] = OutcomeOr0(unit, "b2w.machine_hours") +
                                  OutcomeOr0(unit, "ycsb.machine_hours");
  unit.outcome["sla_violation_windows"] =
      OutcomeOr0(unit, "b2w.sla_violation_windows") +
      OutcomeOr0(unit, "ycsb.sla_violation_windows");
  unit.outcome["failed_share"] = submitted > 0.0 ? aborted / submitted : 0.0;
  return unit;
}

UnitResult RunProvisioning(const UnitOptions& options) {
  UnitResult unit;
  AppendScenario("capacity", RunCapacitySweep(options), &unit);
  AppendScenario("fleet", RunFleet1000(options), &unit);
  if (options.setup_only) return unit;
  unit.outcome["machine_hours"] = OutcomeOr0(unit, "capacity.machine_hours") +
                                  OutcomeOr0(unit, "fleet.machine_hours");
  unit.outcome["insufficient_pct"] =
      OutcomeOr0(unit, "capacity.insufficient_pct");
  unit.outcome["failed_share"] =
      unit.attempted > 0 ? static_cast<double>(unit.failed) /
                               static_cast<double>(unit.attempted)
                         : 0.0;
  return unit;
}

}  // namespace perfbench
}  // namespace pstore
