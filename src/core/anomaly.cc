#include "src/core/anomaly.h"

#include <algorithm>
#include <string>

#include "src/core/compiled_projector.h"
#include "src/core/eval.h"
#include "src/core/exec_session.h"

namespace aiql {
namespace {

// SMA/WMA over a series given newest-first: at(0) is the most recent value.
// Sums run oldest to newest (WMA: newest to oldest), the order every caller
// must share for bit-identical results.
template <typename At>
double SmaOf(size_t size, size_t n, const At& at) {
  if (size == 0 || n == 0) {
    return 0;
  }
  size_t take = std::min(n, size);
  double sum = 0;
  for (size_t k = take; k-- > 0;) {
    sum += at(k);
  }
  return sum / static_cast<double>(take);
}

template <typename At>
double WmaOf(size_t size, size_t n, const At& at) {
  if (size == 0 || n == 0) {
    return 0;
  }
  size_t take = std::min(n, size);
  double num = 0, den = 0;
  // Linear weights: the most recent value weighs `take`.
  for (size_t k = 0; k < take; ++k) {
    double w = static_cast<double>(take - k);
    num += w * at(k);
    den += w;
  }
  return num / den;
}

}  // namespace

double Sma(const std::vector<double>& series, size_t n) {
  return SmaOf(series.size(), n, [&](size_t k) { return series[series.size() - 1 - k]; });
}

double Cma(const std::vector<double>& series) {
  CmaFold fold;
  for (double x : series) {
    fold.Append(x);
  }
  return fold.Get();
}

double Wma(const std::vector<double>& series, size_t n) {
  return WmaOf(series.size(), n, [&](size_t k) { return series[series.size() - 1 - k]; });
}

double Ewma(const std::vector<double>& series, double alpha) {
  // S_0 = x_0 ; S_t = alpha * S_{t-1} + (1 - alpha) * x_t. With alpha = 0.9
  // the history dominates, matching the paper's EWMA(freq, 0.9) usage.
  EwmaFold fold(alpha);
  for (double x : series) {
    fold.Append(x);
  }
  return fold.Get();
}

double SeriesRing::Sma(size_t n, const double* cur) const {
  if (cur == nullptr) {
    return SmaOf(size_, n, [&](size_t k) { return Back(k + 1); });
  }
  return SmaOf(size_ + 1, n, [&](size_t k) { return k == 0 ? *cur : Back(k); });
}

double SeriesRing::Wma(size_t n, const double* cur) const {
  if (cur == nullptr) {
    return WmaOf(size_, n, [&](size_t k) { return Back(k + 1); });
  }
  return WmaOf(size_ + 1, n, [&](size_t k) { return k == 0 ? *cur : Back(k); });
}

Result<ResultTable> ExecuteAnomaly(const EventStore& db, const QueryContext& ctx,
                                   const ExecOptions& options, ThreadPool* pool,
                                   ExecutionSession* session) {
  if (ctx.patterns.size() != 1 || !ctx.window.has_value()) {
    return Result<ResultTable>::Error("not an anomaly query context");
  }
  const DurationMs window = *ctx.window;
  const DurationMs step = ctx.step.value_or(window);
  if (window <= 0 || step <= 0) {
    return Result<ResultTable>::Error("window and step must be positive");
  }

  ExecutionSession local;
  if (session == nullptr) {
    session = &local;
  }
  ExecStats* st = &session->stats;
  st->pattern_matches.assign(1, 0);
  ScanContext scan_ctx;
  scan_ctx.cancel = &session->cancelled;
  scan_ctx.ArmDeadline(options.time_budget_ms);
  scan_ctx.pins = &session->pins;
  std::vector<EventView> events =
      FetchDataQuery(db, ctx.patterns[0].query, options, pool, session, &scan_ctx);
  if (Status s = scan_ctx.StopStatus(); !s.ok()) {
    return Result<ResultTable>(s);
  }
  st->pattern_matches[0] = events.size();
  // Intra-pattern attribute relationships filter single events.
  for (const AttrRelation& rel : ctx.attr_rels) {
    if (rel.IsIntraPattern()) {
      size_t w = 0;
      for (size_t i = 0; i < events.size(); ++i) {
        if (CheckAttrRel(rel, events[i], events[i], db.catalog())) {
          events[w++] = events[i];
        }
      }
      events.resize(w);
    }
  }

  // Windows are anchored at the query's declared time window (inference
  // guarantees it is bounded); anchoring at the data's first event would make
  // window alignment depend on unrelated events. Events outside it fall in no
  // window. Events are sorted by start_time.
  const TimeRange range = ctx.global_time;
  auto by_time = [](const EventView& e, TimestampMs t) { return e.start_time() < t; };
  events.erase(std::lower_bound(events.begin(), events.end(), range.end, by_time),
               events.end());
  events.erase(events.begin(),
               std::lower_bound(events.begin(), events.end(), range.begin, by_time));
  std::vector<TimestampMs> times(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    times[i] = events[i].start_time();
  }

  std::vector<std::string> columns{"window"};
  for (const OutputItem& item : ctx.items) {
    columns.push_back(item.name);
  }
  ResultTable table(columns);

  const uint64_t span = static_cast<uint64_t>(range.end) - static_cast<uint64_t>(range.begin);
  const size_t num_windows =
      range.end > range.begin ? (span - 1) / static_cast<uint64_t>(step) + 1 : 0;
  CompiledProjector projector(ctx, db.catalog(), RowSource(events),
                              CompiledProjector::Mode::kWindows, num_windows);

  size_t first = 0, last = 0;
  uint32_t w = 0;
  for (TimestampMs ws = range.begin; ws < range.end; ws += step, ++w) {
    if (Status s = scan_ctx.StopStatus(); !s.ok()) {
      return Result<ResultTable>(s);
    }
    const TimestampMs we = std::min<TimestampMs>(ws + window, range.end);
    while (first < times.size() && times[first] < ws) {
      ++first;
    }
    last = std::max(last, first);
    while (last < times.size() && times[last] < we) {
      ++last;
    }
    projector.RunWindow(w, ws, first, last, /*stop=*/nullptr, &table);  // checked above
  }
  return FinishResults(ctx, std::move(table));
}

}  // namespace aiql
