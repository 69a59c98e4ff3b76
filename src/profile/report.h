// Human-readable and machine-readable renderings of a
// CriticalPathProfiler's aggregates: the top-k blame table, per-phase blame
// histograms, the wait-edge DAG expansion ("where the 3% goes"), a
// flame-style JSON dump for external viewers, and the one machine-readable
// profile document (ccnvme-perf-v2) that carries blame, the what-if
// frontier and the tail forensics together.
#ifndef SRC_PROFILE_REPORT_H_
#define SRC_PROFILE_REPORT_H_

#include <cstddef>
#include <string>

#include "src/profile/critical_path.h"
#include "src/profile/whatif.h"

namespace ccnvme {

class TailForensics;

struct BlameReportOptions {
  size_t top_k = 10;             // rows in the blame table
  size_t wait_detail_k = 5;      // sub-rows per expanded wait edge
  bool show_histograms = true;   // per-key blame distribution summaries
};

// Aggregate text report: total blame table (run + wait keys, descending),
// each wait edge expanded into its causal sub-attribution, and optional
// per-key histograms. The slowest request's exact critical path is the
// tail report's exemplar [0] (FormatTailReport).
std::string FormatBlameReport(const CriticalPathProfiler& profiler,
                              const BlameReportOptions& options = {});

// Flame-style JSON: {"name":"root","value":<total ns>,"children":[
//   {"name":"<key>","value":ns,"children":[... wait detail ...]}]}
// Deterministic ordering (descending value, then packed key).
std::string FlameJson(const CriticalPathProfiler& profiler, bool pretty = true);

// One line naming the dominant critical-path contributor, e.g.
//   "dominant: wait.commit_barrier (41.3% of 12345678 ns total latency)"
std::string FormatDominantLine(const CriticalPathProfiler& profiler);

// The optimization frontier: every registered wait edge ranked by predicted
// causal gain, with its blame share beside the virtual-speedup curve so the
// divergence ("blame says 28%, causal re-simulation says 3%") is the point
// of the table. One row per edge in AllWaitEdges(), frontier order.
std::string FormatFrontierTable(const WhatIfEngine& engine);

// Single-edge virtual-speedup curve, one line per factor.
std::string FormatWhatIfCurve(const WhatIfEngine& engine, WaitEdge edge);

// Schema identity (name and version) of the machine-readable profile
// document below.
inline constexpr const char* kPerfReportSchema = "ccnvme-perf-v2";

struct PerfReportInfo {
  std::string stack;  // "mqfs" | "nvlog"
  std::string mode;   // "fsync" | "fatomic"
  int iters = 0;
  int warmup = 0;
  int threads = 0;
  int queues = 0;
};

// The one machine-readable profile document, always written in full:
//   * header — schema, workload echo, request count, total/mean latency;
//   * blame — one row per key: overall total/share beside the tail
//     (TailForensics::TailDiff) total/share;
//   * whatif — factors and the optimization frontier;
//   * tail — latency quantiles and tail threshold, window rows, the
//     signature registry with counts, and the captured exemplars.
// |whatif| and |tail| must observe |profiler|.
std::string PerfReportJson(const CriticalPathProfiler& profiler, const WhatIfEngine& whatif,
                           const TailForensics& tail, const PerfReportInfo& info,
                           bool pretty = true);

struct JsonValue;

// Structural validation of a parsed ccnvme-perf-v2 document (`metrics_report
// --check`): the schema matches, requests > 0; overall blame shares
// sum to ~1 and tail shares to ~1 or 0; the frontier names every registered
// wait edge exactly once, every curve is monotone (predicted mean
// non-decreasing in f, gains within [0,1] and non-increasing in f) and
// max_gain equals the most aggressive curve point; the signature section
// names every registered pathology once with its registry culprit; window
// bookkeeping adds up; exemplars are sorted by latency and each one's blame
// vector sums EXACTLY to its latency. On failure returns false with a
// one-line diagnostic in |error|.
bool ValidatePerfReportJson(const JsonValue& doc, std::string* error);

}  // namespace ccnvme

#endif  // SRC_PROFILE_REPORT_H_
