#include "obs/profiler.hpp"

#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace nbx::obs {

StageTimes::StageTimes(const MetricHistogram::Data& us)
    : count(us.count),
      total_seconds(us.sum * 1e-6),
      min_seconds(us.min * 1e-6),
      max_seconds(us.max * 1e-6),
      us_(us) {}

double StageTimes::mean_seconds() const {
  return count == 0 ? 0.0 : total_seconds / static_cast<double>(count);
}

double StageTimes::p50_seconds() const { return us_.quantile(0.50) * 1e-6; }
double StageTimes::p95_seconds() const { return us_.quantile(0.95) * 1e-6; }
double StageTimes::p99_seconds() const { return us_.quantile(0.99) * 1e-6; }

Profiler::Profiler(bool capture_events)
    : capture_events_(capture_events),
      epoch_(std::chrono::steady_clock::now()) {}

std::size_t Profiler::stage_index(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  if (names_.size() == kMaxStages) {
    throw std::length_error("obs::Profiler: more than " +
                            std::to_string(kMaxStages) + " stages");
  }
  // The stage name rides as a label: labels are kept verbatim, so two
  // names cannot sanitize onto one histogram.
  MetricHistogram& h =
      registry_.histogram("stage_duration_us", {{"stage", std::string(name)}});
  hists_[names_.size()].store(&h, std::memory_order_release);
  names_.emplace_back(name);
  return names_.size() - 1;
}

double Profiler::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::uint32_t Profiler::tid_of(std::thread::id id) {
  for (const auto& [tid, idx] : tids_) {
    if (tid == id) return idx;
  }
  const auto idx = static_cast<std::uint32_t>(tids_.size());
  tids_.emplace_back(id, idx);
  return idx;
}

void Profiler::record(std::size_t stage, double start_seconds,
                      double dur_seconds) {
  MetricHistogram* h = stage < kMaxStages
                           ? hists_[stage].load(std::memory_order_acquire)
                           : nullptr;
  if (h == nullptr) return;
  h->observe(dur_seconds * 1e6);
  if (capture_events_) {
    const std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(Event{static_cast<std::uint32_t>(stage),
                            tid_of(std::this_thread::get_id()),
                            start_seconds * 1e6, dur_seconds * 1e6});
  }
}

std::vector<StageProfile> Profiler::stages() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<StageProfile> out;
  out.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out.push_back(StageProfile{
        names_[i],
        StageTimes(hists_[i].load(std::memory_order_relaxed)->data())});
  }
  return out;
}

void Profiler::write_summary(std::ostream& os) const {
  const auto snapshot = stages();
  os << "stage                 count      total_s       mean_s        "
        "min_s        max_s\n";
  for (const StageProfile& s : snapshot) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "%-18s %8llu %12.6f %12.9f %12.9f %12.9f\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.hist.count),
                  s.hist.total_seconds, s.hist.mean_seconds(),
                  s.hist.min_seconds, s.hist.max_seconds);
    os << line;
  }
}

void Profiler::write_profile_json(std::ostream& os) const {
  const auto snapshot = stages();
  os << "{\"stages\":[";
  bool first = true;
  for (const StageProfile& s : snapshot) {
    if (!first) os << ",";
    first = false;
    const StageTimes& h = s.hist;
    os << "{\"name\":\"" << json_escape(s.name) << "\",\"count\":" << h.count
       << ",\"total_seconds\":" << json_double(h.total_seconds)
       << ",\"mean_seconds\":" << json_double(h.mean_seconds())
       << ",\"min_seconds\":" << json_double(h.min_seconds)
       << ",\"max_seconds\":" << json_double(h.max_seconds)
       << ",\"p50_seconds\":" << json_double(h.p50_seconds())
       << ",\"p95_seconds\":" << json_double(h.p95_seconds())
       << ",\"p99_seconds\":" << json_double(h.p99_seconds()) << "}";
  }
  os << "]}\n";
}

void Profiler::write_chrome_trace(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const Event& e : events_) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"" << json_escape(names_[e.stage])
       << "\", \"cat\": \"sweep\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << e.tid << ", \"ts\": " << json_double(e.start_us)
       << ", \"dur\": " << json_double(e.dur_us) << "}";
  }
  os << "\n]}\n";
}

}  // namespace nbx::obs
