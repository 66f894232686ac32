// The benchmark's own equivalence tests, on scaled-down configurations of
// its engine workloads:
//  * stepping EventLoop::RunUntil one simulated second at a time (how the
//    benchmark times steps) reproduces a single RunUntil call exactly;
//  * the 2-thread sharded YCSB run reproduces the serial engine's counts;
//  * a traced unit reproduces the untraced unit's simulated outputs;
//  * appending scenarios into one workload unit keeps every value.

#include <gtest/gtest.h>

#include "workloads.h"

namespace pstore {
namespace perfbench {
namespace {

B2wElasticConfig SmallB2w() {
  B2wElasticConfig config;
  config.sim_seconds = 1800;  // five trace hours at 10x
  return config;
}

YcsbShardedConfig SmallYcsb() {
  YcsbShardedConfig config;
  config.nodes = 20;
  config.rate = 5000.0;
  config.sim_seconds = 20;
  config.records = 100000;
  return config;
}

void ExpectClean(const UnitResult& result) {
  EXPECT_TRUE(result.failed_checks.empty())
      << "first failed check: " << result.failed_checks.front();
}

TEST(PerfbenchTest, SteppedRunUntilMatchesSingleCall) {
  B2wElasticConfig stepped = SmallB2w();
  B2wElasticConfig single = SmallB2w();
  single.step_seconds = 0;
  const UnitResult a = RunB2wElastic(UnitOptions{7, false, false}, stepped);
  const UnitResult b = RunB2wElastic(UnitOptions{7, false, false}, single);
  ExpectClean(a);
  ExpectClean(b);
  EXPECT_EQ(a.step_ms.size(), 1800u);
  EXPECT_EQ(b.step_ms.size(), 1u);
  EXPECT_GT(a.outcome.at("submitted"), 0.0);
  EXPECT_EQ(a.outcome, b.outcome);
}

TEST(PerfbenchTest, SteppedShardedRunMatchesSingleCall) {
  YcsbShardedConfig single = SmallYcsb();
  single.step_seconds = 0;
  const UnitResult a = RunYcsbSharded(UnitOptions{7, false, false}, SmallYcsb());
  const UnitResult b = RunYcsbSharded(UnitOptions{7, false, false}, single);
  ExpectClean(a);
  ExpectClean(b);
  EXPECT_EQ(a.outcome, b.outcome);
}

TEST(PerfbenchTest, TwoThreadYcsbCountsEqualSerial) {
  YcsbShardedConfig serial = SmallYcsb();
  serial.engine_threads = 1;
  const UnitResult sharded =
      RunYcsbSharded(UnitOptions{7, false, false}, SmallYcsb());
  const UnitResult reference =
      RunYcsbSharded(UnitOptions{7, false, false}, serial);
  ExpectClean(sharded);
  ExpectClean(reference);
  EXPECT_GT(sharded.outcome.at("distributed"), 0.0);
  EXPECT_EQ(sharded.outcome, reference.outcome);
}

TEST(PerfbenchTest, TracedUnitsReproduceUntracedOutputs) {
  const UnitResult b2w = RunB2wElastic(UnitOptions{7, false, false}, SmallB2w());
  const UnitResult b2w_traced =
      RunB2wElastic(UnitOptions{7, true, false}, SmallB2w());
  ExpectClean(b2w_traced);
  EXPECT_EQ(b2w.outcome, b2w_traced.outcome);
  EXPECT_GT(b2w_traced.layers.at("planner.plans"), 0.0);

  const UnitResult ycsb =
      RunYcsbSharded(UnitOptions{7, false, false}, SmallYcsb());
  const UnitResult ycsb_traced =
      RunYcsbSharded(UnitOptions{7, true, false}, SmallYcsb());
  ExpectClean(ycsb_traced);
  EXPECT_EQ(ycsb.outcome, ycsb_traced.outcome);
  EXPECT_GT(ycsb_traced.layers.at("sharded.barriers"), 0.0);
}

TEST(PerfbenchTest, AppendScenarioKeepsEveryValue) {
  UnitResult a;
  a.setup_s = 1.0;
  a.sim_s = 2.0;
  a.work = 100.0;
  a.segment_s = {0.5, 1.5};
  a.step_ms = {500.0};
  a.outcome = {{"machine_hours", 3.0}};
  a.attempted = 100;
  a.failed = 1;
  a.layers = {{"engine.submitted", 100.0},
              {"engine.control_ns_per_txn", 10.0},
              {"b2w.load_s", 0.25}};
  UnitResult b = a;
  b.work = 300.0;
  b.failed_checks = {"b failed"};
  b.layers = {{"engine.submitted", 300.0},
              {"engine.control_ns_per_txn", 30.0},
              {"sharded.barriers", 7.0}};

  UnitResult unit;
  AppendScenario("a", a, &unit);
  AppendScenario("b", b, &unit);
  EXPECT_DOUBLE_EQ(unit.setup_s, 2.0);
  EXPECT_DOUBLE_EQ(unit.sim_s, 4.0);
  EXPECT_DOUBLE_EQ(unit.work, 400.0);
  EXPECT_EQ(unit.segment_s, (std::vector<double>{0.5, 1.5, 0.5, 1.5}));
  EXPECT_EQ(unit.step_ms.size(), 2u);
  EXPECT_EQ(unit.outcome, (std::map<std::string, double>{
                              {"a.machine_hours", 3.0},
                              {"b.machine_hours", 3.0}}));
  EXPECT_EQ(unit.failed_checks, std::vector<std::string>{"b failed"});
  EXPECT_EQ(unit.attempted, 200);
  EXPECT_EQ(unit.failed, 2);
  EXPECT_DOUBLE_EQ(unit.layers.at("engine.submitted"), 400.0);
  // (10 * 100 + 30 * 300) / 400 ns per transaction.
  EXPECT_DOUBLE_EQ(unit.layers.at("engine.control_ns_per_txn"), 25.0);
  EXPECT_DOUBLE_EQ(unit.layers.at("b2w.load_s"), 0.25);
  EXPECT_DOUBLE_EQ(unit.layers.at("sharded.barriers"), 7.0);
}

}  // namespace
}  // namespace perfbench
}  // namespace pstore
