// Tail-latency forensics: the always-on layer that answers "why was THIS
// request 40x slower?" after the trace ring has long overwritten it.
//
// TailForensics is a CriticalPathProfiler::RequestObserver composing three
// pieces (attach alongside the what-if engine — the profiler fans its
// per-request profiles out to every registered observer):
//
//   * WindowedAggregator — streaming per-epoch blame vectors + histograms,
//     O(1) memory per window (src/profile/tail/windowed.h). Whole-run
//     totals (request count, latency histogram, per-key blame) are not
//     copied: they are read from the attached profiler.
//   * ExemplarReservoir — bounded top-k outliers by end-to-end latency,
//     globally and per workload phase, each frozen with its complete span
//     tree, wait edges, counter/monitor snapshot and verdicts
//     (src/profile/tail/reservoir.h).
//   * Pathology signature classifier — every finished request matched
//     against the named bench/core_pathologies rules; per-signature counts
//     stream, verdicts ride captured exemplars
//     (src/profile/tail/signature.h).
//
// The observer contract holds throughout: this layer never touches the
// Simulator, so a run with tail forensics attached is byte-identical in
// virtual time (proven by tests/tail_test.cc fingerprints).
//
// Surfaces: FormatTailReport (the `perf_report --tail` text — median-vs-
// p99.9 blame diff, per-signature counts, exemplar drill-down) and the
// `tail` section plus per-key tail blame of the one perf document
// (PerfReportJson, src/profile/report.h).
#ifndef SRC_PROFILE_TAIL_TAIL_H_
#define SRC_PROFILE_TAIL_TAIL_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/profile/tail/reservoir.h"
#include "src/profile/tail/signature.h"
#include "src/profile/tail/windowed.h"

namespace ccnvme {

class Metrics;
struct JsonValue;
struct JsonWriter;

struct TailOptions {
  WindowedOptions window;
  ReservoirOptions reservoir;
};

class TailForensics : public CriticalPathProfiler::RequestObserver {
 public:
  // Latency quantile that defines "the tail" for the blame-diff table.
  static constexpr double kTailQuantile = 0.999;

  explicit TailForensics(TailOptions options = {});

  // Registers this layer as |profiler|'s request observer. The profiler
  // must outlive this object; its whole-run totals back requests(),
  // TailThresholdNs(), TailDiff() and the reports.
  void Attach(CriticalPathProfiler* profiler);
  // Optional snapshot source frozen into captured exemplars.
  void set_metrics(const Metrics* metrics) { metrics_ = metrics; }

  // Labels requests finishing from now on (exemplars bucket per phase).
  void BeginPhase(const std::string& name) { phase_ = name; }
  const std::string& phase() const { return phase_; }

  // RequestObserver.
  void OnRequestProfile(const CriticalPathProfiler::RequestProfile& profile,
                        const std::vector<TraceEvent>& events) override;
  void OnResetAggregation() override;

  // --- Results --------------------------------------------------------------

  const WindowedAggregator& windows() const { return windows_; }
  const ExemplarReservoir& reservoir() const { return reservoir_; }
  // The attached profiler (Attach must have been called).
  const CriticalPathProfiler& profiler() const;
  uint64_t requests() const { return profiler().finished_requests(); }

  // Requests matching each pathology (streaming, over ALL requests, not
  // just captured exemplars). Index = Pathology enum value.
  const std::array<uint64_t, kNumPathologies>& signature_counts() const {
    return signature_counts_;
  }
  uint64_t total_signatures() const;

  // Latency at kTailQuantile over the profiler's latency histogram — the
  // "p99.9" boundary of the blame-diff table.
  uint64_t TailThresholdNs() const;

  // Median-vs-tail blame decomposition. The tail column aggregates the
  // captured global exemplars at/above TailThresholdNs() — each of whose
  // blame vectors sums exactly to its latency — so tail shares sum to 1
  // whenever any exemplar qualifies. One row per key that got blame
  // anywhere, ranked by tail share desc, then overall, then packed key.
  struct TailDiffRow {
    uint32_t packed_key = 0;
    uint64_t overall_ns = 0;
    double overall_share = 0.0;
    uint64_t tail_ns = 0;
    double tail_share = 0.0;
  };
  std::vector<TailDiffRow> TailDiff() const;
  // Exemplars the tail column aggregates (latency >= threshold).
  std::vector<const Exemplar*> TailExemplars() const;

  const TailOptions& options() const { return options_; }

 private:
  TailOptions options_;
  WindowedAggregator windows_;
  ExemplarReservoir reservoir_;
  std::array<uint64_t, kNumPathologies> signature_counts_{};
  uint64_t next_seq_ = 0;
  std::string phase_ = "main";
  const CriticalPathProfiler* profiler_ = nullptr;
  const Metrics* metrics_ = nullptr;
};

// --- Reports ----------------------------------------------------------------

// The `perf_report --tail` text: headline quantiles, window summary,
// median-vs-p99.9 blame diff, per-signature counts and the exemplar
// drill-down (top outliers with blame vector + verdicts + critical path).
std::string FormatTailReport(const TailForensics& tail);

// One exemplar as a self-contained JSON object (everything the reservoir
// froze: profile, blame, critical path, raw events, metric counters,
// verdicts).
std::string ExemplarJson(const Exemplar& exemplar, bool pretty = true);
// The same object written into an enclosing document at |w|'s position.
void WriteExemplarInto(JsonWriter& w, const Exemplar& exemplar);

// Reconstructs an exemplar from a parsed ExemplarJson document (the
// round-trip tests/tail_test.cc asserts). On failure returns false with a
// one-line diagnostic in |error|.
bool ParseExemplarJson(const JsonValue& doc, Exemplar* out, std::string* error);

}  // namespace ccnvme

#endif  // SRC_PROFILE_TAIL_TAIL_H_
