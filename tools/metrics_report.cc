// metrics_report: inspect and diff exported metrics snapshots.
//
//   metrics_report <snapshot.json> [--prom] [--check]
//   metrics_report <before.json> <after.json> [--check]
//
// With one file, prints a human-readable report of every snapshot in it
// (a file may be a single JSON document or JSONL, one compact snapshot per
// line as the CCNVME_METRICS auto-dump appends); --prom re-exports the last
// snapshot as Prometheus text instead. With two files, diffs the last
// snapshot of each: counter deltas, gauge deltas, histogram count/sum
// deltas and quantile movement. --check exits 1 if any monitor recorded a
// nonzero violation count (across every snapshot read) — this is what CI
// runs against clean-run dumps.
//
// A file whose top-level object carries a "schema" key is a perf_report
// --json document instead (only "ccnvme-perf-v2" is known; any other
// schema is rejected); it gets the structural validation
// of ValidatePerfReportJson (blame and tail shares summing to 1, frontier
// covering every registered wait edge with monotone virtual-speedup curves,
// signature section covering every registered pathology, window
// bookkeeping, every exemplar's blame vector summing exactly to its
// end-to-end latency), and --check exits 1 on any violation.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/metrics/export.h"
#include "src/profile/report.h"

using namespace ccnvme;

namespace {

bool ReadFileInto(const char* path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

void PrintSnapshot(const SnapshotStats& s) {
  std::printf("snapshot @ %llu ns\n", static_cast<unsigned long long>(s.taken_at_ns));
  if (!s.counters.empty()) {
    std::printf("  counters:\n");
    for (const auto& [name, v] : s.counters) {
      std::printf("    %-32s %llu\n", name.c_str(), static_cast<unsigned long long>(v));
    }
  }
  if (!s.gauges.empty()) {
    std::printf("  gauges:\n");
    for (const auto& [name, v] : s.gauges) {
      std::printf("    %-32s %lld\n", name.c_str(), static_cast<long long>(v));
    }
  }
  if (!s.histograms.empty()) {
    std::printf("  histograms:\n");
    for (const auto& [name, h] : s.histograms) {
      if (h.count == 0) {
        continue;
      }
      std::printf("    %-32s n=%-8llu mean=%-10.1f p50=%-8llu p99=%-8llu max=%llu\n",
                  name.c_str(), static_cast<unsigned long long>(h.count), h.mean,
                  static_cast<unsigned long long>(h.p50),
                  static_cast<unsigned long long>(h.p99),
                  static_cast<unsigned long long>(h.max));
    }
  }
  std::printf("  monitors:\n");
  for (const auto& [name, m] : s.monitors) {
    if (m.violations == 0) {
      std::printf("    %-32s ok\n", name.c_str());
    } else {
      std::printf("    %-32s %llu violation(s), first @%llu ns: %s\n", name.c_str(),
                  static_cast<unsigned long long>(m.violations),
                  static_cast<unsigned long long>(m.first_ns), m.detail.c_str());
    }
  }
}

void PrintDiff(const SnapshotStats& before, const SnapshotStats& after) {
  std::printf("diff: %llu ns -> %llu ns\n",
              static_cast<unsigned long long>(before.taken_at_ns),
              static_cast<unsigned long long>(after.taken_at_ns));
  std::printf("  counters (delta):\n");
  for (const auto& [name, v] : after.counters) {
    auto it = before.counters.find(name);
    const uint64_t prev = it == before.counters.end() ? 0 : it->second;
    const long long delta =
        static_cast<long long>(v) - static_cast<long long>(prev);
    if (delta != 0) {
      std::printf("    %-32s %+lld (%llu -> %llu)\n", name.c_str(), delta,
                  static_cast<unsigned long long>(prev),
                  static_cast<unsigned long long>(v));
    }
  }
  std::printf("  gauges (delta):\n");
  for (const auto& [name, v] : after.gauges) {
    auto it = before.gauges.find(name);
    const int64_t prev = it == before.gauges.end() ? 0 : it->second;
    if (v != prev) {
      std::printf("    %-32s %+lld (%lld -> %lld)\n", name.c_str(),
                  static_cast<long long>(v - prev), static_cast<long long>(prev),
                  static_cast<long long>(v));
    }
  }
  std::printf("  histograms (count delta, quantile movement):\n");
  for (const auto& [name, h] : after.histograms) {
    auto it = before.histograms.find(name);
    const HistogramStat empty;
    const HistogramStat& prev = it == before.histograms.end() ? empty : it->second;
    if (h.count == prev.count) {
      continue;
    }
    std::printf("    %-32s n %+lld  mean %.1f -> %.1f  p50 %lld -> %lld  p99 %lld -> %lld\n",
                name.c_str(),
                static_cast<long long>(h.count) - static_cast<long long>(prev.count),
                prev.mean, h.mean, static_cast<long long>(prev.p50),
                static_cast<long long>(h.p50), static_cast<long long>(prev.p99),
                static_cast<long long>(h.p99));
  }
  std::printf("  monitors (violation delta):\n");
  bool any = false;
  for (const auto& [name, m] : after.monitors) {
    auto it = before.monitors.find(name);
    const uint64_t prev = it == before.monitors.end() ? 0 : it->second.violations;
    if (m.violations != prev) {
      std::printf("    %-32s %+lld: %s\n", name.c_str(),
                  static_cast<long long>(m.violations) - static_cast<long long>(prev),
                  m.detail.c_str());
      any = true;
    }
  }
  if (!any) {
    std::printf("    (no change)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> files;
  bool prom = false;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--prom") == 0) {
      prom = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.empty() || files.size() > 2) {
    std::fprintf(stderr,
                 "usage: metrics_report <snapshot.json> [--prom] [--check]\n"
                 "       metrics_report <before.json> <after.json> [--check]\n");
    return 2;
  }

  std::vector<std::vector<SnapshotStats>> parsed;
  uint64_t violations = 0;
  for (const char* path : files) {
    std::string text;
    if (!ReadFileInto(path, &text)) {
      std::fprintf(stderr, "metrics_report: cannot read %s\n", path);
      return 2;
    }
    // Metrics snapshots carry no "schema" key, so any document that names
    // one is a perf_report document; a retired or unknown schema fails the
    // validation instead of reading as an empty snapshot.
    JsonValue doc;
    if (JsonParse(text, &doc, nullptr) && doc.type == JsonValue::Type::kObject &&
        !doc.Str("schema").empty()) {
      if (files.size() != 1) {
        std::fprintf(stderr, "metrics_report: cannot diff a %s document\n",
                     kPerfReportSchema);
        return 2;
      }
      std::string perr;
      if (!ValidatePerfReportJson(doc, &perr)) {
        std::fprintf(stderr, "metrics_report: %s: invalid %s document: %s\n", path,
                     kPerfReportSchema, perr.c_str());
        return check ? 1 : 2;
      }
      const JsonValue& tail = doc.obj.at("tail");
      uint64_t signature_total = 0;
      for (const JsonValue& row : tail.obj.at("signatures").arr) {
        signature_total += row.U64("count");
      }
      std::printf(
          "%s: valid %s document (%llu requests, frontier over %zu edges, %zu "
          "exemplar(s), %llu signature match(es))\n",
          path, kPerfReportSchema, static_cast<unsigned long long>(doc.U64("requests")),
          doc.obj.at("whatif").obj.at("frontier").arr.size(),
          tail.obj.at("exemplars").arr.size(),
          static_cast<unsigned long long>(signature_total));
      return 0;
    }
    std::vector<SnapshotStats> snaps;
    std::string error;
    if (!ParseSnapshotFile(text, &snaps, &error)) {
      std::fprintf(stderr, "metrics_report: %s: %s\n", path, error.c_str());
      return 2;
    }
    for (const SnapshotStats& s : snaps) {
      violations += s.TotalViolations();
    }
    parsed.push_back(std::move(snaps));
  }

  if (files.size() == 2) {
    PrintDiff(parsed[0].back(), parsed[1].back());
  } else if (prom) {
    std::fputs(ExportPrometheusText(parsed[0].back()).c_str(), stdout);
  } else {
    for (size_t i = 0; i < parsed[0].size(); ++i) {
      if (i > 0) {
        std::printf("\n");
      }
      PrintSnapshot(parsed[0][i]);
    }
  }

  if (check && violations != 0) {
    std::fprintf(stderr, "metrics_report: %llu monitor violation(s) recorded\n",
                 static_cast<unsigned long long>(violations));
    return 1;
  }
  return 0;
}
