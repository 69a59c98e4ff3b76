#include "src/profile/report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/profile/tail/tail.h"

namespace ccnvme {
namespace {

double Pct(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

std::string Row(const char* name, uint64_t ns, uint64_t total, uint64_t requests) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-28s %14llu ns  %6.2f%%  (%llu reqs)\n", name,
                static_cast<unsigned long long>(ns), Pct(ns, total),
                static_cast<unsigned long long>(requests));
  return buf;
}

// Sorted (descending ns, ascending packed key) view of a detail map.
std::vector<std::pair<uint32_t, uint64_t>> SortedDetail(
    const std::map<uint32_t, uint64_t>& detail) {
  std::vector<std::pair<uint32_t, uint64_t>> rows(detail.begin(), detail.end());
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return rows;
}

}  // namespace

std::string FormatDominantLine(const CriticalPathProfiler& profiler) {
  std::ostringstream os;
  if (profiler.finished_requests() == 0) {
    os << "dominant: (no finished requests)";
    return os.str();
  }
  const BlameKey key = profiler.DominantKey();
  const auto& blame = profiler.blame();
  uint64_t ns = 0;
  auto it = blame.find(key.packed());
  if (it != blame.end()) ns = it->second.total_ns;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "dominant: %s (%.1f%% of %llu ns total latency, %llu requests)",
                key.name(), Pct(ns, profiler.total_latency_ns()),
                static_cast<unsigned long long>(profiler.total_latency_ns()),
                static_cast<unsigned long long>(profiler.finished_requests()));
  os << buf;
  return os.str();
}

std::string FormatBlameReport(const CriticalPathProfiler& profiler,
                              const BlameReportOptions& options) {
  std::ostringstream os;
  const uint64_t total = profiler.total_latency_ns();
  os << "=== critical-path blame report ===\n";
  os << "requests: " << profiler.finished_requests() << "  total latency: " << total
     << " ns";
  if (profiler.finished_requests() > 0) {
    os << "  mean: "
       << total / profiler.finished_requests() << " ns";
  }
  os << "\n";
  if (profiler.finished_requests() == 0) {
    return os.str();
  }
  os << FormatDominantLine(profiler) << "\n";

  os << "\n-- top blame keys --\n";
  const auto& blame = profiler.blame();
  for (const auto& [key, ns] : profiler.TopKeys(options.top_k)) {
    uint64_t requests = 0;
    auto it = blame.find(key.packed());
    if (it != blame.end()) requests = it->second.requests;
    os << Row(key.name(), ns, total, requests);
  }

  const auto& detail = profiler.wait_detail();
  if (!detail.empty()) {
    os << "\n-- wait-edge expansion (what the blocked time was spent on) --\n";
    for (const auto& [wait_packed, ns] : profiler.TopWaitEdges(options.top_k)) {
      os << "  " << BlameKey::FromPacked(wait_packed.packed()).name() << " = " << ns
         << " ns\n";
      auto dit = detail.find(wait_packed.packed());
      if (dit == detail.end()) continue;
      size_t shown = 0;
      for (const auto& [sub_packed, sub_ns] : SortedDetail(dit->second)) {
        if (shown++ >= options.wait_detail_k) break;
        char buf[160];
        std::snprintf(buf, sizeof(buf), "    -> %-26s %14llu ns  %6.2f%%\n",
                      BlameKey::FromPacked(sub_packed).name(),
                      static_cast<unsigned long long>(sub_ns), Pct(sub_ns, ns));
        os << buf;
      }
    }
  }

  if (options.show_histograms) {
    os << "\n-- per-request blame distribution --\n";
    for (const auto& [key, ns] : profiler.TopKeys(options.top_k)) {
      (void)ns;
      auto it = blame.find(key.packed());
      if (it == blame.end()) continue;
      os << "  " << key.name() << ": " << it->second.per_request_ns.Summary() << "\n";
    }
    os << "  latency: " << profiler.latency_ns().Summary() << "\n";
  }

  return os.str();
}

std::string FormatWhatIfCurve(const WhatIfEngine& engine, WaitEdge edge) {
  std::ostringstream os;
  os << "what-if " << WaitEdgeName(edge) << " (" << engine.requests()
     << " requests, baseline mean " << engine.baseline_mean_ns() << " ns, p99 "
     << engine.BaselineQuantileNs(0.99) << " ns)\n";
  for (double f : WhatIfEngine::kFactors) {
    const WhatIfEngine::Prediction p = engine.Predict(edge, f);
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  f=%.2f  predicted mean %10llu ns  gain %6.2f%%  speedup %5.3fx  "
                  "p99 %10llu ns  tail gain %6.2f%%\n",
                  f,
                  static_cast<unsigned long long>(
                      p.requests == 0 ? 0 : p.predicted_total_ns / p.requests),
                  100.0 * p.mean_gain(), p.speedup(),
                  static_cast<unsigned long long>(p.predicted_p99_ns),
                  100.0 * p.tail_gain());
    os << buf;
  }
  return os.str();
}

std::string FormatFrontierTable(const WhatIfEngine& engine) {
  std::ostringstream os;
  os << "=== optimization frontier (virtual speedup per wait edge) ===\n";
  os << "requests: " << engine.requests() << "  baseline mean: " << engine.baseline_mean_ns()
     << " ns  p99: " << engine.BaselineQuantileNs(0.99) << " ns\n";
  const auto& factors = WhatIfEngine::kFactors;
  {
    std::ostringstream head;
    head << "  " << std::left;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%-24s %8s", "edge", "blame%");
    head << buf;
    for (double f : factors) {
      std::snprintf(buf, sizeof(buf), "  gain@f=%.2f", f);
      head << buf;
    }
    os << head.str() << "  tail-gain@f=" << factors.front() << "\n";
  }
  for (const WhatIfEngine::FrontierRow& row : engine.Frontier()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "  %-24s %7.2f%%", WaitEdgeName(row.edge),
                  100.0 * row.blame_share);
    os << buf;
    for (const WhatIfEngine::Prediction& p : row.curve) {
      std::snprintf(buf, sizeof(buf), "  %10.2f%%", 100.0 * p.mean_gain());
      os << buf;
    }
    std::snprintf(buf, sizeof(buf), "  %12.2f%%\n",
                  row.curve.empty() ? 0.0 : 100.0 * row.curve.front().tail_gain());
    os << buf;
  }
  return os.str();
}

namespace {

void WriteWhatIf(JsonWriter& w, const CriticalPathProfiler& profiler,
                 const WhatIfEngine& engine) {
  w.Open('{');
  w.Key("requests", true);
  w.os << engine.requests();
  w.Key("baseline_mean_ns", false);
  w.os << engine.baseline_mean_ns();
  w.Key("baseline_p99_ns", false);
  w.os << engine.BaselineQuantileNs(0.99);
  w.Key("factors", false);
  w.Open('[');
  bool first = true;
  for (double f : WhatIfEngine::kFactors) {
    if (!first) w.os << ',';
    w.os << f;
    first = false;
  }
  w.Close(']');
  w.Key("frontier", false);
  w.Open('[');
  first = true;
  for (const WhatIfEngine::FrontierRow& row : engine.Frontier()) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    w.Open('{');
    w.Key("edge", true);
    w.String(WaitEdgeName(row.edge));
    w.Key("blame_ns", false);
    w.os << row.blame_ns;
    w.Key("blame_share", false);
    w.os << row.blame_share;
    // Per-request blame distribution of this edge, so the what-if curve
    // can be read against TAIL blame, not just the mean: an edge with a
    // modest mean share but a fat p99.9 is a tail lever.
    {
      const auto bit = profiler.blame().find(BlameKey::Wait(row.edge).packed());
      const Histogram* h =
          bit == profiler.blame().end() ? nullptr : &bit->second.per_request_ns;
      w.Key("blame_mean_ns", false);
      w.os << (h == nullptr || h->count() == 0
                   ? 0
                   : static_cast<uint64_t>(h->Mean()));
      w.Key("blame_p99_ns", false);
      w.os << (h == nullptr ? 0 : h->Percentile(0.99));
      w.Key("blame_p999_ns", false);
      w.os << (h == nullptr ? 0 : h->Percentile(0.999));
    }
    w.Key("max_gain", false);
    w.os << row.max_gain();
    w.Key("curve", false);
    w.Open('[');
    bool cfirst = true;
    for (const WhatIfEngine::Prediction& p : row.curve) {
      if (!cfirst) w.os << ',';
      w.NewlineIndent();
      w.Open('{');
      w.Key("factor", true);
      w.os << p.factor;
      w.Key("predicted_mean_ns", false);
      w.os << (p.requests == 0 ? 0 : p.predicted_total_ns / p.requests);
      w.Key("predicted_p99_ns", false);
      w.os << p.predicted_p99_ns;
      w.Key("gain", false);
      w.os << p.mean_gain();
      w.Key("tail_gain", false);
      w.os << p.tail_gain();
      w.Close('}');
      cfirst = false;
    }
    w.Close(']');
    w.Close('}');
    first = false;
  }
  w.Close(']');
  w.Close('}');
}

void WriteTail(JsonWriter& w, const TailForensics& tail) {
  const WindowedAggregator& win = tail.windows();
  const Histogram& lat = tail.profiler().latency_ns();
  w.Open('{');
  w.Key("p50_ns", true);
  w.os << lat.Percentile(0.5);
  w.Key("p99_ns", false);
  w.os << lat.Percentile(0.99);
  w.Key("max_ns", false);
  w.os << lat.max();
  w.Key("tail_quantile", false);
  w.os << TailForensics::kTailQuantile;
  w.Key("tail_threshold_ns", false);
  w.os << tail.TailThresholdNs();

  w.Key("windows", false);
  w.Open('{');
  w.Key("window_ns", true);
  w.os << win.options().window_ns;
  w.Key("started", false);
  w.os << win.windows_started();
  w.Key("retained", false);
  w.os << win.windows().size();
  w.Key("evicted", false);
  w.os << win.windows_evicted();
  w.Key("rows", false);
  w.Open('[');
  bool first = true;
  for (const WindowedAggregator::Window& row : win.windows()) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    w.Open('{');
    w.Key("index", true);
    w.os << row.index;
    w.Key("begin_ns", false);
    w.os << row.begin_ns(win.options().window_ns);
    w.Key("requests", false);
    w.os << row.requests;
    w.Key("total_latency_ns", false);
    w.os << row.total_latency_ns;
    w.Key("p50_ns", false);
    w.os << row.latency_ns.Percentile(0.5);
    w.Key("p99_ns", false);
    w.os << row.latency_ns.Percentile(0.99);
    w.Key("max_ns", false);
    w.os << row.latency_ns.max();
    w.Key("dominant", false);
    w.String(row.DominantKey().name());
    w.Close('}');
    first = false;
  }
  w.Close(']');
  w.Close('}');

  w.Key("signatures", false);
  w.Open('[');
  first = true;
  for (const SignatureRule& rule : AllSignatureRules()) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    w.Open('{');
    w.Key("pathology", true);
    w.String(PathologyName(rule.pathology));
    w.Key("culprit", false);
    w.String(WaitEdgeName(rule.culprit));
    w.Key("min_share", false);
    w.os << rule.min_share;
    w.Key("min_events", false);
    w.os << rule.min_events;
    w.Key("count", false);
    w.os << tail.signature_counts()[static_cast<size_t>(rule.pathology)];
    w.Close('}');
    first = false;
  }
  w.Close(']');

  w.Key("exemplars", false);
  w.Open('[');
  first = true;
  for (const Exemplar& ex : tail.reservoir().global()) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    WriteExemplarInto(w, ex);
    first = false;
  }
  w.Close(']');
  w.Close('}');
}

}  // namespace

std::string PerfReportJson(const CriticalPathProfiler& profiler, const WhatIfEngine& whatif,
                           const TailForensics& tail, const PerfReportInfo& info,
                           bool pretty) {
  CCNVME_CHECK(&tail.profiler() == &profiler)
      << "tail forensics observes a different profiler";
  const uint64_t requests = profiler.finished_requests();
  JsonWriter w(pretty);
  w.Open('{');
  w.Key("schema", true);
  w.String(kPerfReportSchema);
  w.Key("workload", false);
  w.Open('{');
  w.Key("stack", true);
  w.String(info.stack);
  w.Key("mode", false);
  w.String(info.mode);
  w.Key("iters", false);
  w.os << info.iters;
  w.Key("warmup", false);
  w.os << info.warmup;
  w.Key("threads", false);
  w.os << info.threads;
  w.Key("queues", false);
  w.os << info.queues;
  w.Close('}');
  w.Key("requests", false);
  w.os << requests;
  w.Key("total_latency_ns", false);
  w.os << profiler.total_latency_ns();
  w.Key("mean_ns", false);
  w.os << (requests == 0 ? 0 : profiler.total_latency_ns() / requests);

  w.Key("blame", false);
  w.Open('[');
  bool first = true;
  for (const TailForensics::TailDiffRow& row : tail.TailDiff()) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    w.Open('{');
    w.Key("key", true);
    w.String(BlameKey::FromPacked(row.packed_key).name());
    w.Key("total_ns", false);
    w.os << row.overall_ns;
    w.Key("share", false);
    w.os << row.overall_share;
    w.Key("tail_ns", false);
    w.os << row.tail_ns;
    w.Key("tail_share", false);
    w.os << row.tail_share;
    w.Close('}');
    first = false;
  }
  w.Close(']');

  w.Key("whatif", false);
  WriteWhatIf(w, profiler, whatif);
  w.Key("tail", false);
  WriteTail(w, tail);
  w.Close('}');
  if (pretty) w.os << '\n';
  return w.os.str();
}

namespace {

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

constexpr double kEps = 1e-6;

// Overall shares tile the total latency exactly; tail shares tile the tail
// exemplar set, or are all zero when that set is empty.
bool ValidateBlame(const JsonValue& doc, std::string* error) {
  const JsonValue* blame = doc.Find("blame");
  if (blame == nullptr || blame->type != JsonValue::Type::kArray || blame->arr.empty()) {
    return Fail(error, "missing/empty blame array");
  }
  double share_sum = 0.0;
  double tail_sum = 0.0;
  for (const JsonValue& row : blame->arr) {
    const double share = row.Num("share", -1.0);
    const double tail_share = row.Num("tail_share", -1.0);
    if (share < -kEps || share > 1.0 + kEps || tail_share < -kEps ||
        tail_share > 1.0 + kEps) {
      return Fail(error, "blame share out of [0,1] for '" + row.Str("key") + "'");
    }
    share_sum += share;
    tail_sum += tail_share;
  }
  if (share_sum < 1.0 - 1e-3 || share_sum > 1.0 + 1e-3) {
    return Fail(error, "blame shares sum to " + std::to_string(share_sum) + ", want 1");
  }
  if (tail_sum > kEps && (tail_sum < 1.0 - 1e-3 || tail_sum > 1.0 + 1e-3)) {
    return Fail(error,
                "tail blame shares sum to " + std::to_string(tail_sum) + ", want 0 or 1");
  }
  return true;
}

// The frontier names every registered wait edge exactly once, and every
// curve is monotone in the factor with max_gain at its most aggressive point.
bool ValidateWhatIf(const JsonValue& doc, std::string* error) {
  const JsonValue* whatif = doc.Find("whatif");
  if (whatif == nullptr || whatif->type != JsonValue::Type::kObject) {
    return Fail(error, "missing whatif section");
  }
  if (whatif->U64("requests") == 0) {
    return Fail(error, "whatif.requests == 0");
  }
  const JsonValue* factors = whatif->Find("factors");
  if (factors == nullptr || factors->type != JsonValue::Type::kArray || factors->arr.empty()) {
    return Fail(error, "missing/empty whatif.factors");
  }
  const JsonValue* frontier = whatif->Find("frontier");
  if (frontier == nullptr || frontier->type != JsonValue::Type::kArray) {
    return Fail(error, "missing whatif.frontier");
  }
  std::map<std::string, int> seen;
  for (const JsonValue& row : frontier->arr) {
    const std::string name = row.Str("edge");
    if (WaitEdgeFromName(name) == WaitEdge::kNumEdges) {
      return Fail(error, "frontier names unregistered edge '" + name + "'");
    }
    if (++seen[name] > 1) {
      return Fail(error, "frontier names edge '" + name + "' twice");
    }
    // Per-edge tail blame columns: present, non-negative, p99 <= p99.9.
    const double blame_mean = row.Num("blame_mean_ns", -1.0);
    const double blame_p99 = row.Num("blame_p99_ns", -1.0);
    const double blame_p999 = row.Num("blame_p999_ns", -1.0);
    if (blame_mean < 0 || blame_p99 < 0 || blame_p999 < 0) {
      return Fail(error, "edge '" + name + "': missing/negative blame percentile fields");
    }
    if (blame_p99 > blame_p999 + kEps) {
      return Fail(error, "edge '" + name + "': blame_p99_ns > blame_p999_ns");
    }
    const JsonValue* curve = row.Find("curve");
    if (curve == nullptr || curve->type != JsonValue::Type::kArray ||
        curve->arr.size() != factors->arr.size()) {
      return Fail(error, "edge '" + name + "': curve does not cover the factors");
    }
    double prev_factor = -1.0;
    double prev_mean = -1.0;
    double prev_gain = 2.0;
    for (const JsonValue& p : curve->arr) {
      const double f = p.Num("factor", -1.0);
      const double mean = p.Num("predicted_mean_ns", -1.0);
      const double gain = p.Num("gain", -1.0);
      if (f < prev_factor - kEps) {
        return Fail(error, "edge '" + name + "': curve factors not ascending");
      }
      if (mean < prev_mean - kEps) {
        return Fail(error,
                    "edge '" + name + "': predicted mean not monotone in the factor");
      }
      if (gain < -kEps || gain > 1.0 + kEps || gain > prev_gain + kEps) {
        return Fail(error, "edge '" + name + "': gain outside [0,1] or not monotone");
      }
      prev_factor = f;
      prev_mean = mean;
      prev_gain = gain;
    }
    const double max_gain = row.Num("max_gain", -1.0);
    const double front_gain = curve->arr.front().Num("gain", -2.0);
    if (max_gain < front_gain - kEps || max_gain > front_gain + kEps) {
      return Fail(error, "edge '" + name + "': max_gain != most aggressive curve point");
    }
  }
  if (seen.size() != kNumWaitEdges) {
    return Fail(error, "frontier covers " + std::to_string(seen.size()) + " of " +
                           std::to_string(kNumWaitEdges) + " registered edges");
  }
  return true;
}

// The signature registry appears whole with its culprits, window
// bookkeeping adds up, and every exemplar's blame vector sums EXACTLY to
// its end-to-end latency — the acceptance invariant of the tail layer.
bool ValidateTail(const JsonValue& doc, std::string* error) {
  const uint64_t requests = doc.U64("requests");
  const JsonValue* tail = doc.Find("tail");
  if (tail == nullptr || tail->type != JsonValue::Type::kObject) {
    return Fail(error, "missing tail section");
  }

  const JsonValue* sigs = tail->Find("signatures");
  if (sigs == nullptr || sigs->type != JsonValue::Type::kArray) {
    return Fail(error, "missing tail.signatures");
  }
  std::map<std::string, int> seen;
  for (const JsonValue& row : sigs->arr) {
    const std::string name = row.Str("pathology");
    const Pathology p = PathologyFromName(name);
    if (p == Pathology::kNumPathologies) {
      return Fail(error, "signatures name unregistered pathology '" + name + "'");
    }
    if (++seen[name] > 1) {
      return Fail(error, "signatures name pathology '" + name + "' twice");
    }
    if (row.Str("culprit") != WaitEdgeName(RuleFor(p).culprit)) {
      return Fail(error, "pathology '" + name + "' culprit '" + row.Str("culprit") +
                             "' != registry culprit");
    }
    if (row.U64("count") > requests) {
      return Fail(error, "pathology '" + name + "' count exceeds request count");
    }
  }
  if (seen.size() != kNumPathologies) {
    return Fail(error, "signatures cover " + std::to_string(seen.size()) + " of " +
                           std::to_string(kNumPathologies) + " registered pathologies");
  }

  // No retained epoch is empty and retained + evicted == started.
  const JsonValue* windows = tail->Find("windows");
  if (windows == nullptr || windows->type != JsonValue::Type::kObject) {
    return Fail(error, "missing tail.windows");
  }
  const JsonValue* rows = windows->Find("rows");
  if (rows == nullptr || rows->type != JsonValue::Type::kArray) {
    return Fail(error, "missing tail.windows.rows");
  }
  if (windows->U64("retained") != rows->arr.size()) {
    return Fail(error, "windows.retained != rows length");
  }
  if (windows->U64("started") != windows->U64("retained") + windows->U64("evicted")) {
    return Fail(error, "windows.started != retained + evicted");
  }
  uint64_t window_requests = 0;
  uint64_t prev_index = 0;
  bool first_row = true;
  for (const JsonValue& row : rows->arr) {
    if (row.U64("requests") == 0) {
      return Fail(error, "retained window with zero requests");
    }
    const uint64_t index = row.U64("index");
    if (!first_row && index <= prev_index) {
      return Fail(error, "window indices not strictly increasing");
    }
    prev_index = index;
    first_row = false;
    window_requests += row.U64("requests");
  }
  if (window_requests > requests) {
    return Fail(error, "retained windows hold more requests than the run finished");
  }

  const JsonValue* exemplars = tail->Find("exemplars");
  if (exemplars == nullptr || exemplars->type != JsonValue::Type::kArray) {
    return Fail(error, "missing tail.exemplars");
  }
  double prev_latency = -1.0;
  bool first_ex = true;
  for (const JsonValue& ex : exemplars->arr) {
    Exemplar parsed;
    std::string ex_error;
    if (!ParseExemplarJson(ex, &parsed, &ex_error)) {
      return Fail(error, "exemplar: " + ex_error);
    }
    if (parsed.events.empty()) {
      return Fail(error, "exemplar req " + std::to_string(parsed.profile.req_id) +
                             " has no frozen events");
    }
    if (parsed.profile.TotalBlame() != parsed.profile.latency_ns()) {
      return Fail(error, "exemplar req " + std::to_string(parsed.profile.req_id) +
                             ": blame sums to " +
                             std::to_string(parsed.profile.TotalBlame()) +
                             " ns != latency " +
                             std::to_string(parsed.profile.latency_ns()) + " ns");
    }
    const double latency = ex.Num("latency_ns", -1.0);
    if (!first_ex && latency > prev_latency + kEps) {
      return Fail(error, "exemplars not sorted by latency descending");
    }
    prev_latency = latency;
    first_ex = false;
  }
  return true;
}

}  // namespace

bool ValidatePerfReportJson(const JsonValue& doc, std::string* error) {
  if (doc.type != JsonValue::Type::kObject) {
    return Fail(error, "perf document is not a JSON object");
  }
  if (doc.Str("schema") != kPerfReportSchema) {
    return Fail(error, "unknown schema '" + doc.Str("schema") + "'");
  }
  if (doc.U64("requests") == 0) {
    return Fail(error, "requests == 0 (empty profile)");
  }
  return ValidateBlame(doc, error) && ValidateWhatIf(doc, error) && ValidateTail(doc, error);
}

std::string FlameJson(const CriticalPathProfiler& profiler, bool pretty) {
  JsonWriter w(pretty);
  w.Open('{');
  w.Key("name", true);
  w.String("root");
  w.Key("value", false);
  w.os << profiler.total_latency_ns();
  w.Key("requests", false);
  w.os << profiler.finished_requests();
  w.Key("children", false);
  w.Open('[');
  const auto& detail = profiler.wait_detail();
  bool first = true;
  for (const auto& [key, ns] : profiler.TopKeys(profiler.blame().size())) {
    if (!first) w.os << ',';
    w.NewlineIndent();
    w.Open('{');
    w.Key("name", true);
    w.String(key.name());
    w.Key("value", false);
    w.os << ns;
    auto dit = detail.find(key.packed());
    if (dit != detail.end() && !dit->second.empty()) {
      w.Key("children", false);
      w.Open('[');
      bool sub_first = true;
      for (const auto& [sub_packed, sub_ns] : SortedDetail(dit->second)) {
        if (!sub_first) w.os << ',';
        w.NewlineIndent();
        w.Open('{');
        w.Key("name", true);
        w.String(BlameKey::FromPacked(sub_packed).name());
        w.Key("value", false);
        w.os << sub_ns;
        w.Close('}');
        sub_first = false;
      }
      w.Close(']');
    }
    w.Close('}');
    first = false;
  }
  w.Close(']');
  w.Close('}');
  if (pretty) w.os << '\n';
  return w.os.str();
}

}  // namespace ccnvme
