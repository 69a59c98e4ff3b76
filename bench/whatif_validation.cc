// What-if validation: the causal virtual-speedup predictions of
// src/profile/whatif are checked against REAL protocol knobs.
//
// Protocol per knob: run the workload once at the baseline knob setting with
// the what-if engine recording, and once at the changed setting with only
// the profiler. The changed run's residual RAW edge time (the tracer's
// per-edge aggregate, before critical-path attribution collapses overlaps),
// as a per-request fraction of the baseline's, is the scale factor f the
// knob actually achieved; the engine then re-simulates the BASELINE
// recordings with the edge scaled by that f. The claim under test is that
// this causal replay reproduces the changed run's measured mean latency —
// asserted here to within kPredictionErrorBound (relative). The prediction
// never sees the changed run's latency, only its raw edge time, so the
// comparison is not circular.
//
// Knobs exercised:
//   * CcNvmeOptions::doorbell_coalesce_limit — bounds the tx-aware MMIO
//     coalescing window (wait.doorbell_coalesce). The interesting case: the
//     host keeps running under the window, so naive blame-reclaim predicts
//     nothing — the measurable payoff is downstream (the device starts on
//     the early-rung commands while the host stages, pulling tx_durable
//     in), which is exactly the causal propagation the engine's pipeline
//     model exists to capture.
//   * ExtFsOptions::nvlog_drainers — NVLog checkpoint drainer pool
//     (wait.nvlog_drain backpressure on a deliberately tiny NVM ring).
//   * KvSsdConfig::gc_free_blocks_low — FTL GC reserve (wait.ftl_gc
//     foreground stalls on the KV-SSD put path).
//
// whatif_frontier additionally publishes the optimization frontier of the
// Fig. 14 fsync workload as gate metrics: CI's --inject negative control
// inflates the doorbell MMIO cost, which must move these predictions and
// trip the zero-tolerance compare.
#include <algorithm>
#include <cmath>
#include <string>

#include "bench/bench_runner.h"
#include "src/harness/stack.h"
#include "src/profile/report.h"
#include "src/profile/whatif.h"
#include "src/workload/minikv.h"

namespace ccnvme {
namespace {

// Relative error bound asserted on every predicted-vs-measured mean latency
// comparison below (|predicted - measured| / measured).
constexpr double kPredictionErrorBound = 0.15;

struct RunResult {
  double mean_ns = 0;          // measured mean request latency (profiler)
  uint64_t edge_blame_ns = 0;  // critical-path blame of the edge under study
  uint64_t edge_raw_ns = 0;    // raw tracer edge time (pre-attribution)
  uint64_t requests = 0;
};

uint64_t EdgeBlameNs(const CriticalPathProfiler& profiler, WaitEdge edge) {
  const auto it = profiler.blame().find(BlameKey::Wait(edge).packed());
  return it == profiler.blame().end() ? 0 : it->second.total_ns;
}

RunResult Summarize(StorageStack& stack, const CriticalPathProfiler& profiler,
                    WaitEdge edge) {
  RunResult out;
  out.requests = profiler.finished_requests();
  CCNVME_CHECK_GT(out.requests, 0u);
  out.mean_ns = static_cast<double>(profiler.total_latency_ns()) /
                static_cast<double>(out.requests);
  out.edge_blame_ns = EdgeBlameNs(profiler, edge);
  out.edge_raw_ns = stack.tracer()->edge_agg(edge).total_ns;
  return out;
}

// The achieved scale factor: what fraction of the baseline's RAW edge time
// the knobbed run still spends there (per request, so different request
// counts compare fairly). Raw tracer time, not critical-path blame: blame
// is attribution under overlap and shifts to the next-innermost wait when a
// knob shrinks an edge, which would understate how far the knob actually
// moved the edge itself. Clamped to [0, 1] — a knob cannot grow the edge
// past its recorded baseline in the replay model.
double MeasuredFactor(const RunResult& base, const RunResult& knobbed) {
  if (base.edge_raw_ns == 0) {
    return 1.0;
  }
  const double per_req_base = static_cast<double>(base.edge_raw_ns) /
                              static_cast<double>(base.requests);
  const double per_req_knob = static_cast<double>(knobbed.edge_raw_ns) /
                              static_cast<double>(knobbed.requests);
  return std::clamp(per_req_knob / per_req_base, 0.0, 1.0);
}

double PredictedMeanNs(const WhatIfEngine& engine, WaitEdge edge, double f) {
  const WhatIfEngine::Prediction pred = engine.Predict(edge, f);
  return pred.requests == 0 ? 0.0
                            : static_cast<double>(pred.predicted_total_ns) /
                                  static_cast<double>(pred.requests);
}

double CheckPrediction(BenchContext& ctx, const char* knob, const WhatIfEngine& engine,
                       WaitEdge edge, const RunResult& base, const RunResult& knobbed) {
  const double f = MeasuredFactor(base, knobbed);
  const double predicted_mean = PredictedMeanNs(engine, edge, f);
  const double err = std::abs(predicted_mean - knobbed.mean_ns) / knobbed.mean_ns;
  ctx.Log("  %-22s f_measured=%.3f  baseline %8.0f ns  predicted %8.0f ns  "
          "measured %8.0f ns  err %.1f%%\n",
          knob, f, base.mean_ns, predicted_mean, knobbed.mean_ns, 100.0 * err);
  CCNVME_CHECK_LE(err, kPredictionErrorBound)
      << knob << ": predicted " << predicted_mean << " ns vs measured "
      << knobbed.mean_ns << " ns for " << WaitEdgeName(edge) << " at f=" << f;
  ctx.Metric(std::string("whatif_") + knob + "_predicted_ns", predicted_mean);
  ctx.Metric(std::string("whatif_") + knob + "_measured_ns", knobbed.mean_ns);
  return err;
}

// For knob settings whose own cost is NOT negligible (the intervention is
// not pure), the free replay is an optimistic bound, not a point estimate:
// it must predict at most the measured latency (within the bound), never
// claim the knob helps less than it does.
void CheckOptimisticBound(BenchContext& ctx, const char* knob, const WhatIfEngine& engine,
                          WaitEdge edge, const RunResult& base, const RunResult& knobbed) {
  const double f = MeasuredFactor(base, knobbed);
  const double predicted_mean = PredictedMeanNs(engine, edge, f);
  ctx.Log("  %-22s f_measured=%.3f  baseline %8.0f ns  predicted %8.0f ns  "
          "measured %8.0f ns  (optimistic bound: knob cost not modeled)\n",
          knob, f, base.mean_ns, predicted_mean, knobbed.mean_ns);
  CCNVME_CHECK_LE(predicted_mean, knobbed.mean_ns * (1.0 + kPredictionErrorBound))
      << knob << ": optimistic replay bound violated — predicted " << predicted_mean
      << " ns exceeds measured " << knobbed.mean_ns << " ns for " << WaitEdgeName(edge);
  ctx.Metric(std::string("whatif_") + knob + "_predicted_ns", predicted_mean);
  ctx.Metric(std::string("whatif_") + knob + "_measured_ns", knobbed.mean_ns);
}

// Strips the "wait." prefix for metric names (metric charset convention).
std::string EdgeMetricName(WaitEdge edge) {
  std::string name = WaitEdgeName(edge);
  const std::string prefix = "wait.";
  if (name.rfind(prefix, 0) == 0) {
    name = name.substr(prefix.size());
  }
  return name;
}

// --- MQFS fsync runs (doorbell window + frontier) --------------------------

RunResult RunMqfsFsync(BenchContext& ctx, uint16_t coalesce_limit, WhatIfEngine* engine) {
  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  ctx.ApplyInjections(&cfg);
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = 4096;
  cfg.cc_options.doorbell_coalesce_limit = coalesce_limit;
  StorageStack stack(cfg);
  CriticalPathProfiler& profiler = stack.EnableProfiling();
  if (engine != nullptr) {
    engine->Attach(&profiler);
  }
  Status st = stack.MkfsAndMount();
  CCNVME_CHECK(st.ok()) << st.ToString();

  const int warmup = ctx.warmup_or(10);
  stack.Run([&] {
    for (int i = 0; i < 120; ++i) {
      if (i == warmup) {
        profiler.ResetAggregation();
        stack.tracer()->ResetAggregation();
      }
      auto ino = stack.fs().Create("/wi_" + std::to_string(i));
      CCNVME_CHECK(ino.ok());
      Buffer data(kFsBlockSize, static_cast<uint8_t>(i));
      CCNVME_CHECK(stack.fs().Write(*ino, 0, data).ok());
      CCNVME_CHECK(stack.fs().Fsync(*ino).ok());
    }
  });
  return Summarize(stack, profiler, WaitEdge::kDoorbellCoalesce);
}

void RunWhatIfFrontier(BenchContext& ctx) {
  ctx.Log("Optimization frontier of the Fig. 14 MQFS fsync workload\n"
          "(blame share vs predicted causal gain, per registered wait edge)\n\n");
  WhatIfEngine engine;
  const RunResult base = RunMqfsFsync(ctx, /*coalesce_limit=*/0, &engine);
  (void)base;

  const std::vector<WhatIfEngine::FrontierRow> frontier = engine.Frontier();
  CCNVME_CHECK_EQ(frontier.size(), kNumWaitEdges)
      << "frontier must rank every registered wait edge";
  ctx.Log("%s\n", FormatFrontierTable(engine).c_str());

  for (const WhatIfEngine::FrontierRow& row : frontier) {
    // Negative control, in-bench: an edge that never appeared on any
    // critical path must predict (exactly) zero gain.
    if (row.blame_ns == 0) {
      CCNVME_CHECK_EQ(row.max_gain(), 0.0)
          << WaitEdgeName(row.edge) << ": zero-blame edge predicts nonzero gain";
    }
    ctx.Metric("whatif_gain_pct_" + EdgeMetricName(row.edge), 100.0 * row.max_gain());
  }
  ctx.Metric("whatif_baseline_mean_ns", static_cast<double>(engine.baseline_mean_ns()));
  ctx.Metric("whatif_baseline_p99_ns",
             static_cast<double>(engine.BaselineQuantileNs(0.99)));
}

void RunWhatIfDoorbellWindow(BenchContext& ctx) {
  ctx.Log("Knob sweep: CcNvmeOptions::doorbell_coalesce_limit vs predicted gain for\n"
          "wait.doorbell_coalesce (MQFS fsync). The payoff is causal, not local:\n"
          "early rings overlap device execution with host staging, pulling\n"
          "wait.tx_durable in — the knob referees the pipeline model.\n\n");
  WhatIfEngine engine;
  const RunResult base = RunMqfsFsync(ctx, /*coalesce_limit=*/0, &engine);
  CCNVME_CHECK_GT(base.edge_blame_ns, 0u)
      << "baseline produced no doorbell-coalescing window";

  double worst_err = 0;
  for (uint16_t limit : {4, 2}) {
    const RunResult knobbed = RunMqfsFsync(ctx, limit, nullptr);
    const std::string knob = "doorbell_limit" + std::to_string(limit);
    worst_err = std::max(
        worst_err, CheckPrediction(ctx, knob.c_str(), engine, WaitEdge::kDoorbellCoalesce,
                                   base, knobbed));
  }
  // limit=1 rings every command individually: the knob's own cost (one MMIO
  // ring + flush per command, measurably slower than limit=2) dominates, so
  // the free replay can only bound it from below.
  const RunResult limit1 = RunMqfsFsync(ctx, /*coalesce_limit=*/1, nullptr);
  CheckOptimisticBound(ctx, "doorbell_limit1", engine, WaitEdge::kDoorbellCoalesce, base,
                       limit1);
  ctx.Log("\npure-intervention predictions within %.0f%% of measurement (worst %.1f%%);\n"
          "limit=1 held as an optimistic bound (per-command ring cost unmodeled)\n",
          100.0 * kPredictionErrorBound, 100.0 * worst_err);
}

// --- NVLog drainer pool ----------------------------------------------------

RunResult RunNvlogBackpressure(BenchContext& ctx, uint32_t drainers, WhatIfEngine* engine) {
  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  ctx.ApplyInjections(&cfg);
  cfg.fs.journal = JournalKind::kNvlog;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = 4096;
  // A deliberately tiny ring (vs the 16 MB default): the absorb path must
  // run into the drainer, or there is no wait.nvlog_drain edge to predict.
  cfg.nvm.enabled = true;
  cfg.nvm.size_bytes = 96 * 1024;
  // One entry per batch: a batch claim conflicts on ANY shared home block,
  // so multi-entry batches spanning both inode-block groups would
  // re-serialize the pool.
  cfg.fs.nvlog_drain_batch = 1;
  cfg.fs.nvlog_drainers = drainers;
  StorageStack stack(cfg);
  CriticalPathProfiler& profiler = stack.EnableProfiling();
  if (engine != nullptr) {
    engine->Attach(&profiler);
  }
  Status st = stack.MkfsAndMount();
  CCNVME_CHECK(st.ok()) << st.ToString();

  // Pre-allocate the working set, then overwrite round-robin across groups
  // of 16 inodes (= one inode-table block each): consecutive log entries
  // touch disjoint home blocks, so a drainer pool can checkpoint them
  // concurrently. Serial creates would put the shared inode-table block in
  // every entry and silently serialize any pool size.
  constexpr int kFiles = 64;
  constexpr int kGroups = 4;
  constexpr int kPerGroup = kFiles / kGroups;
  const int warmup = ctx.warmup_or(10);
  stack.Run([&] {
    std::vector<InodeNum> inos;
    for (int i = 0; i < kFiles; ++i) {
      auto ino = stack.fs().Create("/nv_" + std::to_string(i));
      CCNVME_CHECK(ino.ok());
      Buffer data(kFsBlockSize, static_cast<uint8_t>(i));
      CCNVME_CHECK(stack.fs().Write(*ino, 0, data).ok());
      CCNVME_CHECK(stack.fs().Fsync(*ino).ok());
      inos.push_back(*ino);
    }
    for (int i = 0; i < 200; ++i) {
      if (i == warmup) {
        profiler.ResetAggregation();
        stack.tracer()->ResetAggregation();
      }
      const int idx = (i % kGroups) * kPerGroup + (i / kGroups) % kPerGroup;
      Buffer data(kFsBlockSize, static_cast<uint8_t>(i + 1));
      CCNVME_CHECK(stack.fs().Write(inos[idx], 0, data).ok());
      CCNVME_CHECK(stack.fs().Fsync(inos[idx]).ok());
    }
  });
  return Summarize(stack, profiler, WaitEdge::kNvlogDrain);
}

void RunWhatIfNvlogDrainers(BenchContext& ctx) {
  ctx.Log("Knob sweep: ExtFsOptions::nvlog_drainers vs predicted gain for\n"
          "wait.nvlog_drain (extfs-on-NVLog fsync, 96 KB ring forcing backpressure)\n\n");
  WhatIfEngine engine;
  const RunResult base = RunNvlogBackpressure(ctx, /*drainers=*/1, &engine);
  CCNVME_CHECK_GT(base.edge_blame_ns, 0u)
      << "tiny ring produced no drain backpressure; nothing to validate";

  double worst_err = 0;
  for (uint32_t drainers : {2u, 4u}) {
    const RunResult knobbed = RunNvlogBackpressure(ctx, drainers, nullptr);
    const std::string knob = "nvlog_drainers" + std::to_string(drainers);
    worst_err = std::max(
        worst_err,
        CheckPrediction(ctx, knob.c_str(), engine, WaitEdge::kNvlogDrain, base, knobbed));
  }
  ctx.Log("\nall drainer-pool predictions within %.0f%% of measurement (worst %.1f%%)\n",
          100.0 * kPredictionErrorBound, 100.0 * worst_err);
}

// --- FTL GC reserve --------------------------------------------------------

RunResult RunKvGcPressure(BenchContext& ctx, uint32_t gc_free_blocks_low,
                          WhatIfEngine* engine) {
  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  ctx.ApplyInjections(&cfg);
  cfg.num_queues = 4;
  cfg.enable_ccnvme = false;
  cfg.kv.enabled = true;
  cfg.kv.dir_slots = 2048;
  cfg.kv.flash_pages = 896;
  cfg.kv.pages_per_block = 32;
  cfg.kv.total_lpns = 1024;
  cfg.kv.map_cache_segments = 1;
  cfg.kv.gc_free_blocks_low = gc_free_blocks_low;
  StorageStack stack(cfg);
  ProfilerOptions popts;
  popts.root = TracePoint::kKvTotal;
  CriticalPathProfiler& profiler = stack.EnableProfiling(popts);
  if (engine != nullptr) {
    engine->Attach(&profiler);
  }
  Status st = stack.KvFormat();
  CCNVME_CHECK(st.ok()) << st.ToString();

  FillsyncOptions opts;
  opts.num_threads = 4;
  opts.duration_ns = 10'000'000;
  opts.seed = ctx.seed() - 42 + 7;
  opts.key_space = 900;
  opts.kv.backend = MiniKvBackend::kKvSsd;
  RunFillsync(stack, opts);
  return Summarize(stack, profiler, WaitEdge::kFtlGc);
}

void RunWhatIfFtlGcReserve(BenchContext& ctx) {
  ctx.Log("Knob sweep: KvSsdConfig::gc_free_blocks_low vs predicted gain for\n"
          "wait.ftl_gc (MiniKV fillsync on the KV-SSD; a large reserve GCs early\n"
          "and often, a small one stalls rarely)\n\n");
  // Baseline = the GC-heavy setting; the knob under test RELIEVES the edge.
  WhatIfEngine engine;
  const RunResult base = RunKvGcPressure(ctx, /*gc_free_blocks_low=*/8, &engine);
  CCNVME_CHECK_GT(base.edge_blame_ns, 0u) << "GC-heavy baseline produced no GC stalls";

  const RunResult knobbed = RunKvGcPressure(ctx, /*gc_free_blocks_low=*/2, nullptr);
  const double err = CheckPrediction(ctx, "gc_reserve2", engine, WaitEdge::kFtlGc, base,
                                     knobbed);
  ctx.Log("\nGC-reserve prediction within %.0f%% of measurement (%.1f%%)\n",
          100.0 * kPredictionErrorBound, 100.0 * err);
}

CCNVME_REGISTER_BENCH("whatif_frontier",
                      "optimization frontier of the fsync workload",
                      RunWhatIfFrontier);
CCNVME_REGISTER_BENCH("whatif_doorbell_window",
                      "what-if prediction vs real doorbell_coalesce_limit sweep",
                      RunWhatIfDoorbellWindow);
CCNVME_REGISTER_BENCH("whatif_nvlog_drainers",
                      "what-if prediction vs real NVLog drainer-pool sweep",
                      RunWhatIfNvlogDrainers);
CCNVME_REGISTER_BENCH("whatif_ftl_gc_reserve",
                      "what-if prediction vs real FTL GC-reserve sweep",
                      RunWhatIfFtlGcReserve);

}  // namespace
}  // namespace ccnvme
