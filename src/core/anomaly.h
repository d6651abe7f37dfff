// Anomaly (sliding-window) query execution — paper §4.3 and §5.1.
//
// The single event pattern is fetched once; windows of length `window`
// advance by `step` across the query's time range. Per window and per group
// (the group-by key), aggregates are computed and recorded as *history
// states*; the having clause can reference the current value (`freq`),
// historical values (`freq[1]` = one window back), and the moving-average
// builtins SMA/CMA/WMA/EWMA over the state series.
//
// The windows run on the compiled projector (src/core/compiled_projector.h,
// ARCHITECTURE.md "Projection"), the evaluator multievent projection uses
// too: every fetched event gets its dense group id and its aggregate inputs
// once, each window sums its events into per-group accumulators, the return
// items and having clause run as slot-resolved programs, and history lives
// in per-group rings sized to the deepest lookback. EWMA/CMA keep a running
// fold per group instead of re-folding the whole series per window. The
// folds below perform the same floating-point operations in the same order
// as the full-series functions, so the results are bit-identical.
//
// When the having clause cannot pass for a group without events in the
// window (a top-level `&&` conjunct that reads only aggregates, constants and
// such items is false or null on the zero state), and no item of such a
// group reads history, the windows run sparse: only windows holding an event
// are visited, and in them only the groups with events. A group that returns after k windows without events is
// caught up first: its absent items are evaluated once, and their values are
// appended k times (SeriesRing::AppendRepeated, and k fold steps each, so
// every double matches the dense loop's). Any other query visits every known
// group in every window.
#ifndef AIQL_SRC_CORE_ANOMALY_H_
#define AIQL_SRC_CORE_ANOMALY_H_

#include <algorithm>
#include <bit>
#include <vector>

#include "src/core/executor.h"
#include "src/core/result_table.h"
#include "src/lang/query_context.h"
#include "src/storage/event_store.h"

namespace aiql {

// Moving averages over a value series (most recent value last). `n` is the
// lookback for SMA/WMA; `alpha` the smoothing factor for EWMA.
double Sma(const std::vector<double>& series, size_t n);
double Cma(const std::vector<double>& series);
double Wma(const std::vector<double>& series, size_t n);
double Ewma(const std::vector<double>& series, double alpha);

// Running EWMA of a growing series: after appending x_0..x_k, Get() equals
// Ewma({x_0..x_k}, alpha) and With(c) equals Ewma({x_0..x_k, c}, alpha).
class EwmaFold {
 public:
  explicit EwmaFold(double alpha = 0.9) : alpha_(alpha) {}
  void Append(double x) {
    s_ = empty_ ? x : Step(s_, x);
    empty_ = false;
  }
  double Get() const { return empty_ ? 0 : s_; }
  double With(double cur) const { return empty_ ? cur : Step(s_, cur); }

 private:
  // S_t = alpha * S_{t-1} + (1 - alpha) * x_t.
  double Step(double s, double x) const { return alpha_ * s + (1 - alpha_) * x; }

  double alpha_;
  double s_ = 0;
  bool empty_ = true;
};

// Running cumulative average: Get() equals Cma(series), With(c) equals
// Cma(series + {c}).
class CmaFold {
 public:
  void Append(double x) {
    sum_ += x;
    ++n_;
  }
  double Get() const { return n_ == 0 ? 0 : sum_ / static_cast<double>(n_); }
  double With(double cur) const { return (sum_ + cur) / static_cast<double>(n_ + 1); }

 private:
  double sum_ = 0;
  size_t n_ = 0;
};

// The most recent `capacity` values of a growing series, kept in place. SMA
// and WMA over the series (optionally followed by a current value) read the
// ring directly and equal Sma/Wma over the full series whenever
// n <= capacity + 1 (with a current value) or n <= capacity (without).
class SeriesRing {
 public:
  // Rounds the capacity up to a power of two so positions are a mask away.
  explicit SeriesRing(size_t capacity = 0)
      : ring_(capacity == 0 ? 0 : std::bit_ceil(capacity)), mask_(ring_.size() - 1) {}

  void Append(double x) {
    if (!ring_.empty()) {
      ring_[size_ & mask_] = x;
    }
    ++size_;
  }
  // The same as `k` calls to Append(x): only the last min(k, ring size)
  // appends are written, and the size advances by `k`.
  void AppendRepeated(double x, size_t k) {
    for (size_t i = k - std::min(k, ring_.size()); i < k; ++i) {
      ring_[(size_ + i) & mask_] = x;
    }
    size_ += k;
  }
  // Number of values appended so far (not capped by the capacity).
  size_t size() const { return size_; }
  // The value `back` appends ago (1 = most recent); `back` <= capacity.
  double Back(size_t back) const { return ring_[(size_ - back) & mask_]; }

  double Sma(size_t n, const double* cur) const;
  double Wma(size_t n, const double* cur) const;

 private:
  std::vector<double> ring_;
  size_t mask_;
  size_t size_ = 0;
};

// Executes an anomaly query context. The result table carries a leading
// "window" column (window start, formatted) followed by the return items;
// one row per (window, group) passing the having filter. The rows finish
// with the multievent result tail (FinishResults: distinct, return count,
// sort by, top); without a sort clause they sort lexicographically, so
// windows stay chronological and rows inside a window sort by value.
// `session` carries the execution's stats, plan cache, and cancellation
// flag; cancellation and the time budget (`options.time_budget_ms`) are
// checked during the fetch and once per visited window (sparse: once per
// visited window or jump over windows without events).
// `ExecStats::window_group_evals` counts the (window, group) evaluations of
// the items and having clause.
Result<ResultTable> ExecuteAnomaly(const EventStore& db, const QueryContext& ctx,
                                   const ExecOptions& options, ThreadPool* pool,
                                   ExecutionSession* session);

}  // namespace aiql

#endif  // AIQL_SRC_CORE_ANOMALY_H_
