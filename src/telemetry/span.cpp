#include "telemetry/span.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace rh::telemetry {

namespace {

/// Chrome event name: the phase name for host-phase spans, else the kind.
std::string_view span_name(const Span& s) {
  return s.kind == SpanKind::kPhase ? to_string(s.phase) : to_string(s.kind);
}

/// Wall milliseconds -> microsecond timestamp text (Chrome ts unit).
std::string ts_text(double wall_ms) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", wall_ms * 1000.0);
  return buf;
}

}  // namespace

std::size_t SpanSheet::add(const Span& span) {
  spans_.push_back(span);
  return spans_.size() - 1;
}

void SpanSheet::merge_from(const SpanSheet& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  dropped_ += other.dropped_;
}

void SpanSheet::sort_canonical() {
  std::stable_sort(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
    if (a.id != b.id) return a.id < b.id;
    // Marks share the enclosing attempt's id space only via seq, so ties
    // (never expected) fall back to open time.
    return a.begin_cycle < b.begin_cycle;
  });
}

void SpanSheet::clear() {
  spans_.clear();
  dropped_ = 0;
}

TraceContext::TraceContext(SpanSheet& sheet, std::uint64_t shard, Clock::time_point epoch,
                           std::uint64_t parent)
    : sheet_(&sheet), shard_(shard), parent_(parent), epoch_(epoch) {}

double TraceContext::wall_ms(Clock::time_point at) const {
  return std::chrono::duration<double, std::milli>(at - epoch_).count();
}

Span TraceContext::make_span(SpanKind kind, std::uint64_t cycle, Clock::time_point at) {
  Span span;
  span.id = span_id(shard_, attempt_, seq_++);
  span.parent = stack_.empty() ? parent_ : sheet_->at(stack_.back()).id;
  span.shard = shard_;
  span.attempt = attempt_;
  span.kind = kind;
  span.begin_cycle = cycle;
  span.end_cycle = cycle;
  span.begin_wall_ms = wall_ms(at);
  span.end_wall_ms = span.begin_wall_ms;
  return span;
}

std::uint64_t TraceContext::push(Span span) {
  span.open = true;
  stack_.push_back(sheet_->add(span));
  return span.id;
}

std::uint64_t TraceContext::open(SpanKind kind, std::uint64_t cycle) {
  return push(make_span(kind, cycle, Clock::now()));
}

std::uint64_t TraceContext::open(Phase phase, std::uint64_t cycle, Clock::time_point at) {
  // Only host phases are budgeted: without the structural spans the tree
  // loses its spine and the retained phase spans dangle.
  if (budget_ == 0) {
    sheet_->note_dropped();
    return 0;
  }
  --budget_;
  Span span = make_span(SpanKind::kPhase, cycle, at);
  span.phase = phase;
  return push(span);
}

double TraceContext::close(std::uint64_t id, std::uint64_t cycle, Clock::time_point at) {
  if (id == 0) return 0.0;  // budget-dropped span
  const double wall = wall_ms(at);
  while (!stack_.empty()) {
    Span& span = sheet_->at(stack_.back());
    stack_.pop_back();
    span.end_cycle = cycle;
    span.end_wall_ms = wall;
    span.open = false;
    if (span.id == id) return span.end_wall_ms - span.begin_wall_ms;
    // An out-of-order close (exception unwound past inner scopes): the
    // skipped spans close at the same instant rather than staying open.
  }
  return 0.0;
}

void TraceContext::mark(SpanKind kind, std::uint64_t cycle, std::uint32_t arg) {
  Span span = make_span(kind, cycle, Clock::now());
  span.arg = arg;
  sheet_->add(span);
}

void TraceContext::set_attempt(std::uint32_t attempt) {
  attempt_ = attempt;
  seq_ = 0;
  budget_ = kSpanBudgetPerAttempt;
}

void write_chrome_span_events(std::ostream& os, const std::vector<Span>& spans, bool& first) {
  if (spans.empty()) return;
  // One pseudo-process groups the span tree away from the per-channel
  // command lanes; tid = shard keeps one timeline row per shard.
  constexpr unsigned kSpanPid = 1000;
  if (!first) os << ',';
  first = false;
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kSpanPid
     << ",\"args\":{\"name\":\"campaign spans\"}}";
  for (const Span& s : spans) {
    const char* id_fmt = "0x%llx";
    char id_buf[32];
    std::snprintf(id_buf, sizeof id_buf, id_fmt, static_cast<unsigned long long>(s.id));
    char parent_buf[32];
    std::snprintf(parent_buf, sizeof parent_buf, id_fmt,
                  static_cast<unsigned long long>(s.parent));
    const std::uint64_t cycles = s.end_cycle - s.begin_cycle;
    const bool is_mark = s.kind == SpanKind::kFault || s.kind == SpanKind::kRecovery;
    if (is_mark) {
      os << ",{\"name\":\"" << to_string(s.kind) << "\",\"cat\":\"span\",\"ph\":\"n\",\"id\":\""
         << id_buf << "\",\"pid\":" << kSpanPid << ",\"tid\":" << s.shard
         << ",\"ts\":" << ts_text(s.begin_wall_ms) << ",\"args\":{\"arg\":" << s.arg
         << ",\"attempt\":" << s.attempt << ",\"cycle\":" << s.begin_cycle
         << ",\"parent\":\"" << parent_buf << "\",\"shard\":" << s.shard << "}}";
      continue;
    }
    os << ",{\"name\":\"" << span_name(s) << "\",\"cat\":\"span\",\"ph\":\"b\",\"id\":\""
       << id_buf << "\",\"pid\":" << kSpanPid << ",\"tid\":" << s.shard
       << ",\"ts\":" << ts_text(s.begin_wall_ms) << ",\"args\":{\"attempt\":" << s.attempt
       << ",\"cycles\":" << cycles << ",\"open\":" << (s.open ? "true" : "false")
       << ",\"parent\":\"" << parent_buf << "\",\"shard\":" << s.shard << "}}";
    os << ",{\"name\":\"" << span_name(s) << "\",\"cat\":\"span\",\"ph\":\"e\",\"id\":\""
       << id_buf << "\",\"pid\":" << kSpanPid << ",\"tid\":" << s.shard
       << ",\"ts\":" << ts_text(s.end_wall_ms) << "}";
  }
}

void write_chrome_spans(std::ostream& os, const SpanSheet& sheet) {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  write_chrome_span_events(os, sheet.spans(), first);
  os << "]}";
}

}  // namespace rh::telemetry
