#include "layer_trace.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace pstore {
namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank, samples.size()) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double Median(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double TailValue(std::vector<double> samples, int beyond,
                 double* percentile) {
  *percentile = 0.0;
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const size_t keep = static_cast<size_t>(beyond);
  if (n <= keep) return samples.back();
  *percentile = 100.0 * static_cast<double>(n - keep) / static_cast<double>(n);
  return samples[n - keep - 1];
}

void LayerTraceSink::Write(const obs::TraceEvent& event) {
  const Clock::time_point arrival = Clock::now();
  ++total_events_;
  EventAggregate& agg = events_[event.name()];
  if (agg.count > 0) {
    agg.gap_us.push_back(
        std::chrono::duration<double, std::micro>(arrival - agg.last_arrival)
            .count());
  }
  agg.last_arrival = arrival;
  ++agg.count;
  for (const obs::TraceEvent::Field& field : event.fields()) {
    switch (field.kind) {
      case obs::TraceEvent::FieldKind::kInt:
        agg.field_sums[field.key] += static_cast<double>(field.int_value);
        if (std::string(field.key) == "wall_us") {
          agg.wall_us.push_back(static_cast<double>(field.int_value));
        }
        break;
      case obs::TraceEvent::FieldKind::kDouble:
        agg.field_sums[field.key] += field.double_value;
        break;
      case obs::TraceEvent::FieldKind::kBool:
        if (field.bool_value) ++agg.true_counts[field.key];
        break;
      case obs::TraceEvent::FieldKind::kString:
        break;
    }
  }
}

const EventAggregate& LayerTraceSink::Get(const std::string& name) const {
  static const EventAggregate kEmpty;
  const auto it = events_.find(name);
  return it == events_.end() ? kEmpty : it->second;
}

TimedPredictor::TimedPredictor(std::unique_ptr<LoadPredictor> model)
    : owned_(std::move(model)), model_(owned_.get()) {}

TimedPredictor::TimedPredictor(LoadPredictor* model) : model_(model) {}

Status TimedPredictor::Fit(const TimeSeries& training) {
  const Clock::time_point start = Clock::now();
  Status status = model_->Fit(training);
  fit_s_ += SecondsSince(start);
  return status;
}

StatusOr<double> TimedPredictor::PredictAhead(const TimeSeries& history,
                                              size_t tau) const {
  const Clock::time_point start = Clock::now();
  StatusOr<double> out = model_->PredictAhead(history, tau);
  const double seconds = SecondsSince(start);
  predict_s_ += seconds;
  call_us_.push_back(seconds * 1e6);
  return out;
}

StatusOr<std::vector<double>> TimedPredictor::PredictHorizon(
    const TimeSeries& history, size_t horizon) const {
  const Clock::time_point start = Clock::now();
  StatusOr<std::vector<double>> out = model_->PredictHorizon(history, horizon);
  const double seconds = SecondsSince(start);
  predict_s_ += seconds;
  call_us_.push_back(seconds * 1e6);
  return out;
}

StatusOr<bool> TimedPredictor::Update(const TimeSeries& history) {
  const Clock::time_point start = Clock::now();
  StatusOr<bool> out = model_->Update(history);
  update_s_ += SecondsSince(start);
  return out;
}

WorkloadDriver::TxnFactory TimedFactory::Wrap() {
  return [this](Rng& rng) {
    if (calls_++ % kSampleEvery != 0) return inner_(rng);
    const Clock::time_point start = Clock::now();
    TxnRequest request = inner_(rng);
    sampled_s_ += SecondsSince(start);
    ++sampled_;
    return request;
  };
}

double TimedFactory::estimated_s() const {
  if (sampled_ == 0) return 0.0;
  return sampled_s_ / static_cast<double>(sampled_) *
         static_cast<double>(calls_);
}

FlushTimer::FlushTimer(EventLoop* loop, ShardedEngine* engine)
    : engine_(engine) {
  loop->set_pre_event_hook([this] { TimedFlush(); });
}

WorkloadDriver::TxnFactory FlushTimer::Watch(WorkloadDriver::TxnFactory inner,
                                             Predicate forces_flush) {
  return [this, inner = std::move(inner),
          forces_flush = std::move(forces_flush)](Rng& rng) {
    EndPending(Clock::now());
    TxnRequest request = inner(rng);
    if (forces_flush(request)) {
      pending_ = true;
      pending_start_ = Clock::now();
    }
    return request;
  };
}

void FlushTimer::FinalFlush() { TimedFlush(); }

void FlushTimer::TimedFlush() {
  const Clock::time_point start = Clock::now();
  EndPending(start);
  engine_->Flush();
  flush_s_ += SecondsSince(start);
}

void FlushTimer::EndPending(Clock::time_point now) {
  if (!pending_) return;
  pending_ = false;
  flush_s_ += std::chrono::duration<double>(now - pending_start_).count();
  ++inline_flushes_;
}

}  // namespace perfbench
}  // namespace pstore
