// pstore_perfbench: runs one benchmark workload and prints its result as
// one JSON line. perfbench/run.py builds this binary and wraps its output
// in the benchmark's result format; see perfbench/README.md.
//
// Usage:
//   pstore_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Untraced (--trace 0): repeats the workload's unit (set-up + simulation)
// while another unit still fits into S seconds, at least kBestOf times,
// then repeats set-up alone until it has been timed kMinSetups times and
// for kMinSetupTotalS seconds in all. Traced (--trace 1): one untraced unit,
// then one unit with the in-memory tracer and the out-of-tree timers
// installed; the two must produce the same simulated outputs.
//
// Flags are parsed strictly: unknown flags, repeated flags, unknown
// workloads and malformed values are errors (exit code 2).

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "layer_trace.h"
#include "obs/trace_event.h"
#include "workloads.h"

namespace {

using namespace pstore;
using namespace pstore::perfbench;

// Repetitions each segment's fastest time is taken over (see
// ExpectedBestSimSeconds), and so the fewest units an untraced run makes.
constexpr size_t kBestOf = 2;
constexpr int kMinSetups = 3;
constexpr double kMinSetupTotalS = 0.5;
constexpr size_t kMaxSetups = 2000;

struct Workload {
  const char* name;
  // Name and unit of the workload's throughput in the report.
  const char* throughput_name;
  const char* throughput_unit;
  bool engine;
  std::function<UnitResult(const UnitOptions&)> run;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"engine", "txn_per_s", "txn/s", true, RunEngine},
      {"provisioning", "tenant_days_per_s", "tenant-days/s", false,
       RunProvisioning},
  };
  return kWorkloads;
}

// Every per-layer metric, in report order. Metrics a workload does not
// exercise read 0.
const std::vector<std::string>& LayerNames() {
  static const std::vector<std::string> kNames = {
      "trace.build_s",
      "b2w.load_s",
      "ycsb.load_s",
      "predictor.fit_s",
      "b2w.gen_ns_per_txn",
      "ycsb.gen_ns_per_txn",
      "engine.submitted",
      "engine.committed",
      "engine.aborted",
      "engine.unavailable",
      "engine.distributed",
      "engine.control_ns_per_txn",
      "engine.finalize_s",
      "engine.step_ms_p50",
      "engine.step_ms_tail",
      "engine.step_tail_pct",
      "storage.rows",
      "storage.bytes",
      "sharded.flush_s",
      "sharded.flush_share",
      "sharded.barriers",
      "sharded.tasks",
      "sharded.messages",
      "sharded.tasks_per_barrier",
      "sharded.inline_flushes",
      "migration.reconfigs",
      "migration.chunks",
      "migration.bytes_moved",
      "migration.chunk_retries",
      "controller.infeasible_plans",
      "controller.reconfigs_started",
      "predictor.calls",
      "predictor.us_per_call_p50",
      "predictor.us_per_call_p99",
      "planner.plans",
      "planner.plan_us_p50",
      "planner.plan_us_p95",
      "planner.feasible_ratio",
      "capacity.run_s.pstore",
      "capacity.run_s.oracle",
      "capacity.run_s.reactive",
      "capacity.run_s.simple",
      "capacity.run_s.static",
      "capacity.cycles",
      "capacity.plan_step_s",
      "fleet.cycles",
      "fleet.repacks",
      "fleet.spike_replans",
      "fleet.partition_moves",
      "fleet.cycle_ms_p50",
      "fleet.cycle_ms_p99",
      "obs.trace_events",
      "obs.trace_overhead_pct",
      "outcome.failed_share",
      "outcome.sla_violation_windows",
      "outcome.insufficient_pct",
  };
  return kNames;
}

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: pstore_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               message.c_str());
  std::exit(2);
}

long long ParseInt(const std::string& flag, const std::string& text,
                   long long lo, long long hi) {
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || value < lo || value > hi) {
    UsageError("--" + flag + " must be an integer in [" + std::to_string(lo) +
               ", " + std::to_string(hi) + "], got '" + text + "'");
  }
  return value;
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
};

Args ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) UsageError("unexpected argument '" + arg + "'");
    arg = arg.substr(2);
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else {
      if (i + 1 >= argc) UsageError("--" + arg + " needs a value");
      value = argv[++i];
    }
    if (arg != "workload" && arg != "seed" && arg != "seconds" &&
        arg != "trace") {
      UsageError("unknown flag --" + arg);
    }
    if (!values.emplace(arg, value).second) {
      UsageError("--" + arg + " given twice");
    }
  }
  Args args;
  if (values.count("workload") == 0) UsageError("--workload is required");
  for (const Workload& workload : Workloads()) {
    if (values["workload"] == workload.name) args.workload = &workload;
  }
  if (args.workload == nullptr) {
    UsageError("unknown workload '" + values["workload"] + "'");
  }
  if (values.count("seed") != 0) {
    args.seed = static_cast<uint64_t>(
        ParseInt("seed", values["seed"], 0, (1LL << 40)));
  }
  if (values.count("seconds") != 0) {
    args.seconds =
        static_cast<double>(ParseInt("seconds", values["seconds"], 1, 600));
  }
  if (values.count("trace") != 0) {
    args.traced = ParseInt("trace", values["trace"], 0, 1) == 1;
  }
  return args;
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string String(const std::string& text) {
  std::string out = "\"";
  obs::AppendJsonEscaped(text, &out);
  return out + "\"";
}

std::string Object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ",";
    out += String(key) + ":" + Number(value);
  }
  return out + "}";
}

std::string Array(const std::vector<double>& values) {
  std::string out = "[";
  for (const double value : values) {
    if (out.size() > 1) out += ",";
    out += Number(value);
  }
  return out + "]";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is kB
}

double Throughput(const UnitResult& unit) {
  return unit.sim_s > 0.0 ? unit.work / unit.sim_s : 0.0;
}

// Host time of the simulation phase with each segment at the fastest of
// kBestOf repetitions, averaged over every kBestOf-subset of `units`.
// Units of one seed do identical work segment by segment, so the
// minimum strips the slowdowns a shared host adds in bursts of a few
// seconds. The fastest of *all* units would fall as units are added,
// and their number follows the host's speed through --seconds; the
// mean over subsets of a fixed size has the same expectation for any
// number of units, and the more units, the less variance. The fastest
// of a random kBestOf-subset is the r-th fastest of all n units (from
// 0) with probability C(n-1-r, kBestOf-1) / C(n, kBestOf). Fewer than
// kBestOf units (a traced run) use them all.
double ExpectedBestSimSeconds(const std::vector<UnitResult>& units) {
  const size_t n = units.size();
  const size_t segments = units.front().segment_s.size();
  for (const UnitResult& unit : units) {
    if (unit.segment_s.size() != segments) return units.front().sim_s;
  }
  const size_t k = std::min(kBestOf, n);
  auto choose = [](size_t a, size_t b) {
    if (a < b) return 0.0;
    double c = 1.0;
    for (size_t i = 0; i < b; ++i) {
      c = c * static_cast<double>(a - i) / static_cast<double>(i + 1);
    }
    return c;
  };
  std::vector<double> weight(n);
  for (size_t r = 0; r < n; ++r) {
    weight[r] = choose(n - 1 - r, k - 1) / choose(n, k);
  }
  double total = 0.0;
  std::vector<double> times(n);
  for (size_t j = 0; j < segments; ++j) {
    for (size_t i = 0; i < n; ++i) times[i] = units[i].segment_s[j];
    std::sort(times.begin(), times.end());
    for (size_t r = 0; r < n; ++r) total += weight[r] * times[r];
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "error: built as '%s'; the benchmark reports only from a "
                 "Release build\n",
                 build_type.c_str());
    return 3;
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
#if defined(PSTORE_TRACE_DISABLED)
  const bool tracing_compiled = false;
#else
  const bool tracing_compiled = true;
#endif
  if (args.traced && !tracing_compiled) {
    std::fprintf(stderr, "error: --trace 1 needs PSTORE_TRACING=ON\n");
    return 3;
  }
  const Workload& workload = *args.workload;

  // Untraced units; the traced mode runs exactly one of each.
  std::vector<UnitResult> units;
  std::vector<double> unit_wall_s;
  const Clock::time_point start = Clock::now();
  while (true) {
    const Clock::time_point unit_start = Clock::now();
    units.push_back(workload.run(UnitOptions{args.seed, false, false}));
    unit_wall_s.push_back(SecondsSince(unit_start));
    if (args.traced) break;
    if (units.size() >= kBestOf &&
        SecondsSince(start) + Median(unit_wall_s) > args.seconds) {
      break;
    }
  }
  std::vector<double> setup_s;
  for (const UnitResult& unit : units) setup_s.push_back(unit.setup_s);
  // Short set-ups are repeated until they add up to kMinSetupTotalS, so
  // their median is not one cold, noisy sample.
  double setup_total_s = 0.0;
  for (const double s : setup_s) setup_total_s += s;
  while (!args.traced && (static_cast<int>(setup_s.size()) < kMinSetups ||
                          (setup_total_s < kMinSetupTotalS &&
                           setup_s.size() < kMaxSetups))) {
    setup_s.push_back(
        workload.run(UnitOptions{args.seed, false, true}).setup_s);
    setup_total_s += setup_s.back();
  }
  UnitResult traced;
  if (args.traced) traced = workload.run(UnitOptions{args.seed, true, false});

  // Correctness: every unit's own checks, and identical simulated
  // outputs across the units of this process (traced one included).
  std::vector<std::string> failed_checks;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<const UnitResult*> all;
  for (const UnitResult& unit : units) all.push_back(&unit);
  if (args.traced) all.push_back(&traced);
  for (const UnitResult* unit : all) {
    failed_checks.insert(failed_checks.end(), unit->failed_checks.begin(),
                         unit->failed_checks.end());
    attempted += unit->attempted;
    failed += unit->failed;
    if (unit->outcome != units.front().outcome) {
      failed_checks.push_back(
          "outcome differs between units of the same seed" +
          std::string(unit == &traced ? " (traced vs untraced)" : ""));
    }
  }

  const UnitResult& first = units.front();
  auto outcome = [&first](const char* key) {
    const auto it = first.outcome.find(key);
    return it == first.outcome.end() ? 0.0 : it->second;
  };
  std::vector<double> unit_throughput;
  for (const UnitResult& unit : units) {
    unit_throughput.push_back(Throughput(unit));
  }
  std::vector<double> step_ms;
  for (const UnitResult& unit : units) {
    step_ms.insert(step_ms.end(), unit.step_ms.begin(), unit.step_ms.end());
  }
  double tail_pct = 0.0;
  const double step_tail = TailValue(step_ms, 10, &tail_pct);

  std::map<std::string, double> metrics;
  std::map<std::string, double> report;
  report["setup_s"] = Median(setup_s);
  const double best_sim_s = ExpectedBestSimSeconds(units);
  report[workload.throughput_name] =
      best_sim_s > 0.0 ? first.work / best_sim_s : 0.0;
  report["peak_rss_mb"] = PeakRssMb();
  report["failed_share"] = outcome("failed_share");
  if (workload.engine) {
    report["step_ms_p50"] = Median(step_ms);
    report["step_ms_tail"] = step_tail;
    report["step_tail_pct"] = tail_pct;
    report["steps"] = static_cast<double>(step_ms.size());
    report["sla_violation_windows"] = outcome("sla_violation_windows");
  }
  report["machine_hours"] = outcome("machine_hours");
  if (!workload.engine) {
    report["insufficient_pct"] = outcome("insufficient_pct");
  }

  if (!args.traced) {
    metrics["setup_s"] = report["setup_s"];
    metrics["throughput"] = report[workload.throughput_name];
    metrics["peak_rss_mb"] = report["peak_rss_mb"];
    metrics["machine_hours"] = report["machine_hours"];
  } else {
    for (const std::string& name : LayerNames()) metrics[name] = 0.0;
    for (const auto& [name, value] : traced.layers) {
      if (metrics.count(name) == 0) {
        failed_checks.push_back("undeclared layer metric " + name);
      }
      metrics[name] = value;
    }
    if (workload.engine) {
      metrics["engine.step_ms_p50"] = report["step_ms_p50"];
      metrics["engine.step_ms_tail"] = step_tail;
      metrics["engine.step_tail_pct"] = tail_pct;
    }
    const double traced_throughput = Throughput(traced);
    metrics["obs.trace_overhead_pct"] =
        traced_throughput > 0.0
            ? 100.0 * (Throughput(first) / traced_throughput - 1.0)
            : 0.0;
    metrics["outcome.failed_share"] = outcome("failed_share");
    metrics["outcome.sla_violation_windows"] =
        outcome("sla_violation_windows");
    metrics["outcome.insufficient_pct"] = outcome("insufficient_pct");
  }

  std::string checks = "[";
  for (const std::string& check : failed_checks) {
    if (checks.size() > 1) checks += ",";
    checks += String(check);
  }
  checks += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"traced\":%s,\"build_type\":%s,"
      "\"tracing_compiled\":%s,\"compiler\":%s,\"units\":%zu,"
      "\"unit_wall_s\":%s,\"unit_throughput\":%s,\"setup_s\":%s,"
      "\"throughput_name\":%s,\"throughput_unit\":%s,\"report\":%s,"
      "\"outcome\":%s,\"metrics\":%s,\"failed_checks\":%s,"
      "\"attempted\":%lld,\"failed\":%lld}\n",
      String(workload.name).c_str(),
      static_cast<unsigned long long>(args.seed),
      args.traced ? "true" : "false", String(build_type).c_str(),
      tracing_compiled ? "true" : "false", String(compiler).c_str(),
      units.size(), Array(unit_wall_s).c_str(), Array(unit_throughput).c_str(),
      Array(setup_s).c_str(), String(workload.throughput_name).c_str(),
      String(workload.throughput_unit).c_str(), Object(report).c_str(),
      Object(first.outcome).c_str(), Object(metrics).c_str(), checks.c_str(),
      static_cast<long long>(attempted), static_cast<long long>(failed));
  return failed_checks.empty() ? 0 : 1;
}
