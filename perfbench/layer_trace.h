#ifndef PSTORE_PERFBENCH_LAYER_TRACE_H_
#define PSTORE_PERFBENCH_LAYER_TRACE_H_

// Out-of-tree instrumentation for the benchmark's traced run. Nothing
// here changes the platform: the sink plugs into the existing obs::Tracer,
// the predictor decorator and the timed factory wrap objects the
// benchmark constructs itself, and the flush timer replaces
// ShardedEngine::InstallBarrierHook with an equivalent timed hook.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/time_series.h"
#include "engine/event_loop.h"
#include "engine/sharded_loop.h"
#include "engine/transaction.h"
#include "engine/workload_driver.h"
#include "obs/tracer.h"
#include "prediction/predictor.h"

namespace pstore {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Value at quantile q (0..1) of `samples` by nearest rank; 0 when empty.
double Quantile(std::vector<double> samples, double q);

// Median of `samples`; 0 when empty.
double Median(const std::vector<double>& samples);

// The step-time tail: the highest percentile that still has at least
// `beyond` samples above it. `percentile` receives that percentile
// (0 when there are too few samples, and the maximum is returned).
double TailValue(std::vector<double> samples, int beyond, double* percentile);

// Aggregate of one event name, filled as events arrive.
struct EventAggregate {
  int64_t count = 0;
  // Sums of every integer and double field, by key.
  std::map<std::string, double> field_sums;
  // Events whose boolean field is true, by key.
  std::map<std::string, int64_t> true_counts;
  // wall_us field values, for events that carry one.
  std::vector<double> wall_us;
  // Host-time gaps between consecutive arrivals, in microseconds.
  std::vector<double> gap_us;
  Clock::time_point last_arrival;
};

// In-memory trace sink: stamps each event with host time on arrival,
// aggregates it under its name and keeps nothing else. The benchmark
// reads the aggregates once, after the run; no file is written.
class LayerTraceSink : public obs::TraceSink {
 public:
  void Write(const obs::TraceEvent& event) override;
  Status Close() override { return Status::OK(); }

  const EventAggregate& Get(const std::string& name) const;
  int64_t total_events() const { return total_events_; }

 private:
  std::map<std::string, EventAggregate> events_;
  int64_t total_events_ = 0;
};

// LoadPredictor decorator that times every call into the wrapped model.
// Prediction is const in the interface, so the counters are mutable; one
// instance must be driven from one thread (the benchmark is serial).
class TimedPredictor : public LoadPredictor {
 public:
  // Owns `model`.
  explicit TimedPredictor(std::unique_ptr<LoadPredictor> model);
  // Borrows `model`, which must outlive this decorator.
  explicit TimedPredictor(LoadPredictor* model);

  Status Fit(const TimeSeries& training) override;
  StatusOr<double> PredictAhead(const TimeSeries& history,
                                size_t tau) const override;
  StatusOr<std::vector<double>> PredictHorizon(
      const TimeSeries& history, size_t horizon) const override;
  StatusOr<bool> Update(const TimeSeries& history) override;
  std::string name() const override { return model_->name(); }
  std::string active_name() const override { return model_->active_name(); }

  // Prediction calls (PredictAhead + PredictHorizon) and their host
  // times in microseconds.
  const std::vector<double>& call_us() const { return call_us_; }
  double predict_s() const { return predict_s_; }
  double fit_s() const { return fit_s_; }
  double total_s() const { return predict_s_ + fit_s_ + update_s_; }

 private:
  std::unique_ptr<LoadPredictor> owned_;
  LoadPredictor* model_;
  mutable std::vector<double> call_us_;
  mutable double predict_s_ = 0.0;
  double fit_s_ = 0.0;
  double update_s_ = 0.0;
};

// Wraps a driver TxnFactory and estimates the time spent inside it by
// timing every `kSampleEvery`-th call: the per-call clock reads would
// otherwise cost as much as the generator itself.
class TimedFactory {
 public:
  static constexpr int64_t kSampleEvery = 8;

  explicit TimedFactory(WorkloadDriver::TxnFactory inner)
      : inner_(std::move(inner)) {}

  WorkloadDriver::TxnFactory Wrap();

  int64_t calls() const { return calls_; }
  // Estimated total seconds inside the wrapped factory.
  double estimated_s() const;

 private:
  WorkloadDriver::TxnFactory inner_;
  int64_t calls_ = 0;
  int64_t sampled_ = 0;
  double sampled_s_ = 0.0;
};

// Times the sharded engine's barriers from outside. It installs a
// pre-event hook on `loop` that calls engine->Flush() — what
// ShardedEngine::InstallBarrierHook installs — and times each call. The
// executor also flushes inline when a transaction spans nodes; Watch()
// wraps the driver's factory to time those: from the return of a request
// `forces_flush` accepts to the next factory call or control event,
// which is that request's submission.
class FlushTimer {
 public:
  using Predicate = std::function<bool(const TxnRequest&)>;

  FlushTimer(EventLoop* loop, ShardedEngine* engine);

  WorkloadDriver::TxnFactory Watch(WorkloadDriver::TxnFactory inner,
                                   Predicate forces_flush);

  // Runs and times one final flush (the tail of the last window).
  void FinalFlush();

  double flush_s() const { return flush_s_; }
  int64_t inline_flushes() const { return inline_flushes_; }

 private:
  void TimedFlush();
  // Closes the interval of a pending inline flush, if any.
  void EndPending(Clock::time_point now);

  ShardedEngine* engine_;
  double flush_s_ = 0.0;
  int64_t inline_flushes_ = 0;
  bool pending_ = false;
  Clock::time_point pending_start_;
};

}  // namespace perfbench
}  // namespace pstore

#endif  // PSTORE_PERFBENCH_LAYER_TRACE_H_
