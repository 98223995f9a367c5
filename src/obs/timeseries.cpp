#include "obs/timeseries.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace rt3 {

TimeSeries::TimeSeries(std::int64_t capacity)
    : capacity_(capacity < 2 ? 2 : capacity) {
  t_.reserve(static_cast<std::size_t>(capacity_));
  v_.reserve(static_cast<std::size_t>(capacity_));
}

void TimeSeries::record(double t_ms, double value) {
  const std::int64_t i = offered_++;
  last_value_ = value;
  if (i % stride_ != 0) return;
  if (static_cast<std::int64_t>(t_.size()) == capacity_) {
    // Compact: keep even stored indices (offered indices 0, 2s, 4s, ...)
    // and double the stride.
    std::size_t w = 0;
    for (std::size_t r = 0; r < t_.size(); r += 2, ++w) {
      t_[w] = t_[r];
      v_[w] = v_[r];
    }
    t_.resize(w);
    v_.resize(w);
    stride_ *= 2;
    if (i % stride_ != 0) return;  // no longer on the widened stride
  }
  t_.push_back(t_ms);
  v_.push_back(value);
}

TelemetrySampler::TelemetrySampler(TelemetryConfig config)
    : config_(config) {
  if (config_.sample_every_batches < 1) config_.sample_every_batches = 1;
  if (config_.series_capacity < 2) config_.series_capacity = 2;
  if (config_.ewma_alpha <= 0.0 || config_.ewma_alpha > 1.0) {
    config_.ewma_alpha = 0.2;
  }
}

TimeSeries& TelemetrySampler::series_for(const std::string& name,
                                         std::int64_t lane) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_
             .emplace(std::piecewise_construct, std::forward_as_tuple(name),
                      std::forward_as_tuple(config_.series_capacity, lane))
             .first;
  }
  return it->second.ts;
}

void TelemetrySampler::on_batch(const BatchOutcome& sample) {
  const double alpha = config_.ewma_alpha;
  const double n = sample.batch_size > 0
                       ? static_cast<double>(sample.batch_size)
                       : 1.0;
  const double miss_frac = static_cast<double>(sample.misses) / n;
  const double mean_latency = sample.latency_sum_ms / n;
  auto ewma_update = [alpha](std::map<std::int64_t, double>& m,
                             std::int64_t id, double x) {
    auto it = m.find(id);
    if (it == m.end()) {
      m.emplace(id, x);  // seed with the first observation (no zero bias)
    } else {
      it->second += alpha * (x - it->second);
    }
  };
  ewma_update(miss_ewma_, sample.model_id, miss_frac);
  ewma_update(latency_ewma_, sample.model_id, mean_latency);

  const std::int64_t k = batches_++;
  if (k % config_.sample_every_batches != 0) return;

  const double t = sample.end_ms;
  const std::int64_t lane = sample.model_id + 1;
  const std::string m = "m" + std::to_string(sample.model_id);
  series_for("node.battery_fraction", 0).record(t, sample.battery_fraction);
  series_for("node.level", 0)
      .record(t, static_cast<double>(sample.level_pos));
  series_for("node.queue_depth", 0)
      .record(t, static_cast<double>(sample.node_queue_depth));
  series_for("node.unroutable", 0)
      .record(t, static_cast<double>(unroutable_));
  series_for(m + ".queue_depth", lane)
      .record(t, static_cast<double>(sample.queue_depth));
  series_for(m + ".batch_size", lane)
      .record(t, static_cast<double>(sample.batch_size));
  series_for(m + ".energy_mj", lane).record(t, sample.energy_mj);
  series_for(m + ".miss_ewma", lane).record(t, miss_ewma_[sample.model_id]);
  series_for(m + ".latency_ewma_ms", lane)
      .record(t, latency_ewma_[sample.model_id]);
  series_for(m + ".shed", lane)
      .record(t, static_cast<double>(shed_[sample.model_id]));
  series_for(m + ".rejected", lane)
      .record(t, static_cast<double>(rejected_[sample.model_id]));
}

void TelemetrySampler::count_shed(std::int64_t model_id, std::int64_t n) {
  shed_[model_id] += n;
}

void TelemetrySampler::count_reject(std::int64_t model_id, std::int64_t n) {
  rejected_[model_id] += n;
}

void TelemetrySampler::count_unroutable(std::int64_t n) {
  unroutable_ += n;
}

void TelemetrySampler::record_switch(double t_ms, double duration_ms) {
  series_for("node.switch_ms", 0).record(t_ms, duration_ms);
}

void TelemetrySampler::record_swap_bytes(double t_ms, double bytes) {
  series_for("node.swap_bytes", 0).record(t_ms, bytes);
}

double TelemetrySampler::miss_ewma(std::int64_t model_id) const {
  auto it = miss_ewma_.find(model_id);
  return it == miss_ewma_.end() ? 0.0 : it->second;
}

double TelemetrySampler::latency_ewma_ms(std::int64_t model_id) const {
  auto it = latency_ewma_.find(model_id);
  return it == latency_ewma_.end() ? 0.0 : it->second;
}

std::int64_t TelemetrySampler::num_points() const {
  std::int64_t total = 0;
  for (const auto& [name, entry] : series_) total += entry.ts.size();
  return total;
}

const TimeSeries* TelemetrySampler::series(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second.ts;
}

void TelemetrySampler::export_counters(TraceRecorder& trace) const {
  for (const auto& [name, entry] : series_) {
    const TimeSeries& ts = entry.ts;
    for (std::int64_t i = 0; i < ts.size(); ++i) {
      TraceEvent ev(name, "telemetry",
                    ts.times()[static_cast<std::size_t>(i)], entry.lane);
      ev.ph = 'C';
      ev.arg("value", ts.values()[static_cast<std::size_t>(i)]);
      trace.record(std::move(ev));
    }
  }
}

std::string TelemetrySampler::to_json() const {
  std::string out;
  out += "{\"sample_every\": ";
  out += std::to_string(config_.sample_every_batches);
  out += ", \"capacity\": ";
  out += std::to_string(config_.series_capacity);
  out += ", \"batches\": ";
  out += std::to_string(batches_);
  out += ", \"series\": {";
  bool first = true;
  for (const auto& [name, entry] : series_) {
    if (!first) out += ", ";
    first = false;
    const TimeSeries& ts = entry.ts;
    out += "\"" + trace_json_escape(name) + "\": {\"lane\": ";
    out += std::to_string(entry.lane);
    out += ", \"stride\": ";
    out += std::to_string(ts.stride());
    out += ", \"offered\": ";
    out += std::to_string(ts.offered());
    out += ", \"t\": [";
    for (std::int64_t i = 0; i < ts.size(); ++i) {
      if (i > 0) out += ", ";
      out += trace_json_num(ts.times()[static_cast<std::size_t>(i)]);
    }
    out += "], \"v\": [";
    for (std::int64_t i = 0; i < ts.size(); ++i) {
      if (i > 0) out += ", ";
      out += trace_json_num(ts.values()[static_cast<std::size_t>(i)]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace rt3
