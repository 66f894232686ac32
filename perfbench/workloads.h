#ifndef PSTORE_PERFBENCH_WORKLOADS_H_
#define PSTORE_PERFBENCH_WORKLOADS_H_

// The benchmark's four scenarios and the two workloads built from them.
// Each function runs one *unit* — set-up followed by the simulation — and
// returns the host times, the deterministic simulated outcome and the
// correctness checks. With `traced` set, the unit runs with an in-memory
// tracer and the out-of-tree timers of layer_trace.h installed, and
// fills `layers`.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pstore {
namespace perfbench {

struct UnitResult {
  double setup_s = 0.0;
  // Host time of the simulation phase (set-up excluded).
  double sim_s = 0.0;
  // Work done in the simulation phase, in the workload's unit
  // (submitted transactions, simulated days, tenant-days).
  double work = 0.0;
  // Host seconds of the simulation phase split into segments that do
  // the same work in every unit of the same seed (engine steps, sweep
  // runs), plus the unsegmented rest; they add up to sim_s.
  std::vector<double> segment_s;
  // Engine workloads: host ms per simulated second, one per step.
  std::vector<double> step_ms;
  // Deterministic simulated outputs; equal seeds must give equal maps.
  std::map<std::string, double> outcome;
  // Names of failed correctness checks (empty = all passed).
  std::vector<std::string> failed_checks;
  // Operations attempted and failed (transactions, runs, cycles).
  int64_t attempted = 0;
  int64_t failed = 0;
  // Traced units only: per-layer metrics, by name.
  std::map<std::string, double> layers;
};

struct UnitOptions {
  uint64_t seed = 1;
  bool traced = false;
  // Stop after set-up (the benchmark repeats set-up to take its median).
  bool setup_only = false;
};

// Paper-scale B2W replay under the P-Store predictive controller with
// Squall migration, on the serial engine.
struct B2wElasticConfig {
  // Simulated seconds replayed: one trace day at 10x is 8640.
  int sim_seconds = 8640;
  // Host-timed RunUntil step in simulated seconds; 0 = one RunUntil call.
  int step_seconds = 1;
};
UnitResult RunB2wElastic(const UnitOptions& options,
                         const B2wElasticConfig& config = {});

// Flat-rate YCSB-A on a static cluster with the node-sharded engine.
struct YcsbShardedConfig {
  int nodes = 100;
  double rate = 25000.0;
  int sim_seconds = 120;
  uint64_t records = 1000000;
  // 1 = the classic serial engine (no ShardedEngine).
  int engine_threads = 2;
  // Host-timed RunUntil step in simulated seconds; 0 = one RunUntil call.
  int step_seconds = 1;
};
UnitResult RunYcsbSharded(const UnitOptions& options,
                          const YcsbShardedConfig& config = {});

// The Fig. 12 strategy sweep on the capacity simulator, run serially.
UnitResult RunCapacitySweep(const UnitOptions& options);

// The 1000-tenant shared-pool fleet, run serially.
UnitResult RunFleet1000(const UnitOptions& options);

// Appends `part`, one scenario of a workload's unit, to `unit`. Times,
// work, counts, segments and steps add up, and outcome keys get
// `prefix` and a dot. A per-layer metric both hold adds up, except
// engine.control_ns_per_txn, which is weighted by engine.submitted.
void AppendScenario(const std::string& prefix, const UnitResult& part,
                    UnitResult* unit);

// The `engine` workload: b2w_elastic, then ycsb_sharded. Outcome keys
// carry the prefixes "b2w." and "ycsb."; machine_hours,
// sla_violation_windows and failed_share (aborted / submitted) cover
// both scenarios.
UnitResult RunEngine(const UnitOptions& options);

// The `provisioning` workload: the capacity sweep, then fleet_1000.
// Outcome keys carry the prefixes "capacity." and "fleet.";
// machine_hours is their sum, failed_share failed / attempted
// operations (sweep runs and fleet cycles), and insufficient_pct the
// sweep's P-Store SPAR Q = 285 row.
UnitResult RunProvisioning(const UnitOptions& options);

}  // namespace perfbench
}  // namespace pstore

#endif  // PSTORE_PERFBENCH_WORKLOADS_H_
