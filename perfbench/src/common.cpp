#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "telemetry/metrics.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double heap_in_use_kb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

Tracer::Tracer(std::uint64_t run_id) : run_id_(run_id), origin_(Clock::now()) {}

double Tracer::us_of(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

std::int64_t Tracer::open(std::string name) {
  const double now = us_of(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({std::move(name), now, now, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  const double now = us_of(Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_us = now;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::record(std::string name, Clock::time_point start, Clock::time_point end,
                    std::int64_t parent) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), us_of(start), us_of(end), parent});
}

std::int64_t Tracer::current() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stack_.empty() ? -1 : stack_.back();
}

std::map<std::string, Tracer::Totals> Tracer::totals_by_name() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us, s.end_us);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Children of one parent may overlap (worker threads), so subtract the
    // union of their intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_us;
    for (const auto& [start, end] : kids) {
      const double a = std::max(start, reach);
      const double b = std::min(end, s.end_us);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(end, s.end_us));
    }
    Totals& t = out[s.name];
    t.count += 1;
    t.wall_us += s.end_us - s.start_us;
    t.self_us += (s.end_us - s.start_us) - covered;
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, totals] : totals_by_name()) {
    out[name.substr(0, name.find('.'))] += totals.self_us / 1000.0;
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"run_id\":" << run_id_ << ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\""
        << rh::telemetry::json_escape(s.name) << "\",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.end_us << ",\"parent\":" << s.parent
        << ",\"run_id\":" << run_id_ << "}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
