// Causal what-if engine (src/profile/whatif): predictions are EXACT on
// hand-built synthetic DAGs (chain, straggler fan-in, diamond, downstream
// pipeline), zero-blame edges predict exactly zero gain (negative control),
// the frontier ranks every registered edge, attaching the engine never
// perturbs virtual time, a real doorbell/NVLog knob sweep lands within the
// stated prediction error bound, and the perf document's frontier validates
// (and tampered frontiers do not).
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/harness/stack.h"
#include "src/profile/critical_path.h"
#include "src/profile/report.h"
#include "src/profile/tail/tail.h"
#include "src/profile/whatif.h"

namespace ccnvme {
namespace {

// Mirrors bench/whatif_validation.cc: every predicted-vs-measured mean
// latency comparison on a real knob must land within this relative error.
constexpr double kPredictionErrorBound = 0.15;

TraceEvent Span(TracePoint p, uint64_t begin, uint64_t dur, uint64_t req) {
  TraceEvent ev;
  ev.ts_ns = begin;
  ev.dur_ns = dur;
  ev.req_id = req;
  ev.point = p;
  ev.is_span = true;
  return ev;
}

TraceEvent Wait(WaitEdge e, uint64_t begin, uint64_t dur, uint64_t req,
                uint16_t device = 0) {
  TraceEvent ev;
  ev.ts_ns = begin;
  ev.dur_ns = dur;
  ev.req_id = req;
  ev.edge = e;
  ev.device = device;
  return ev;
}

// Feeds |events| then the finalizing root span for |req|.
void FeedRequest(CriticalPathProfiler& profiler, const std::vector<TraceEvent>& events,
                 uint64_t root_begin, uint64_t root_dur, uint64_t req = 1) {
  for (const TraceEvent& ev : events) {
    profiler.OnTraceEvent(ev);
  }
  profiler.OnTraceEvent(Span(TracePoint::kSyncTotal, root_begin, root_dur, req));
}

// --- Synthetic DAGs: predictions must be exact ----------------------------

// Chain: root [0,100), run fs.submit_data [0,30), wait tx_durable [30,80),
// run journal.wait_durable [80,95). Scaling the lone blocking wait by f
// moves the release to 30 + f*50 and nothing else holds the request there.
TEST(WhatIfSyntheticTest, ChainExact) {
  CriticalPathProfiler profiler;
  WhatIfEngine engine;
  engine.Attach(&profiler);
  FeedRequest(profiler,
              {Span(TracePoint::kSyncSubmitData, 0, 30, 1),
               Wait(WaitEdge::kTxDurable, 30, 50, 1),
               Span(TracePoint::kSyncWaitDurable, 80, 15, 1)},
              0, 100);
  ASSERT_EQ(engine.requests(), 1u);
  EXPECT_EQ(engine.baseline_total_ns(), 100u);
  EXPECT_EQ(engine.Predict(WaitEdge::kTxDurable, 1.0).predicted_total_ns, 100u);
  EXPECT_EQ(engine.Predict(WaitEdge::kTxDurable, 0.5).predicted_total_ns, 75u);
  // llround(0.25 * 50) = 13: release 43, reclaim [43,80).
  EXPECT_EQ(engine.Predict(WaitEdge::kTxDurable, 0.25).predicted_total_ns, 63u);
  EXPECT_EQ(engine.Predict(WaitEdge::kTxDurable, 0.0).predicted_total_ns, 50u);
}

// Straggler fan-in: removing tx_durable [20,90) only helps until the
// volume_fanout straggler [60,95) — blame shifts to the next-innermost
// wait, so f=0 reclaims [20,60) and not a nanosecond more.
TEST(WhatIfSyntheticTest, StragglerHeldByFanout) {
  CriticalPathProfiler profiler;
  WhatIfEngine engine;
  engine.Attach(&profiler);
  FeedRequest(profiler,
              {Wait(WaitEdge::kTxDurable, 20, 70, 1),
               Wait(WaitEdge::kVolumeFanout, 60, 35, 1)},
              0, 100);
  EXPECT_EQ(engine.Predict(WaitEdge::kTxDurable, 0.0).predicted_total_ns, 60u);
  // The fanout edge is itself only exposed where tx_durable does not cover.
  EXPECT_EQ(engine.Predict(WaitEdge::kVolumeFanout, 0.0).predicted_total_ns, 95u);
}

// Diamond: the doorbell window [40,70) is a non-blocking (retroactive)
// attribution and the host's own run fs.submit_data [10,60) covers its
// head. Only [60,70) is reclaimable — identically for f=0.5 (release 55)
// and f=0 (release 40), because the run span holds everything before 60.
TEST(WhatIfSyntheticTest, DiamondRunSpanHoldsNonBlockingEdge) {
  CriticalPathProfiler profiler;
  WhatIfEngine engine;
  engine.Attach(&profiler);
  FeedRequest(profiler,
              {Span(TracePoint::kSyncSubmitData, 10, 50, 1),
               Wait(WaitEdge::kDoorbellCoalesce, 40, 30, 1)},
              0, 100);
  EXPECT_EQ(engine.Predict(WaitEdge::kDoorbellCoalesce, 0.5).predicted_total_ns, 90u);
  EXPECT_EQ(engine.Predict(WaitEdge::kDoorbellCoalesce, 0.0).predicted_total_ns, 90u);
}

// Downstream pipeline: the doorbell window [0,40) is fully covered by the
// host's staging run [0,45), so the direct reclaim is zero — but ringing at
// f*40 lets the device start the command that the blocking tx_durable wait
// [50,90) (same device) is waiting on. per-item service = (90-40)/1 = 50,
// so the wait's completion shifts in by exactly the release shift.
TEST(WhatIfSyntheticTest, DownstreamPipelinePullsBlockingWaitIn) {
  CriticalPathProfiler profiler;
  WhatIfEngine engine;
  engine.Attach(&profiler);
  FeedRequest(profiler,
              {Span(TracePoint::kSyncSubmitData, 0, 45, 1),
               Wait(WaitEdge::kDoorbellCoalesce, 0, 40, 1, /*device=*/0),
               Wait(WaitEdge::kTxDurable, 50, 40, 1, /*device=*/0)},
              0, 100);
  // f=1 reproduces the recording (calibration is a no-op by construction).
  EXPECT_EQ(engine.Predict(WaitEdge::kDoorbellCoalesce, 1.0).predicted_total_ns, 100u);
  // f=0.5: release 20, replayed completion 70, reclaims [70,90).
  EXPECT_EQ(engine.Predict(WaitEdge::kDoorbellCoalesce, 0.5).predicted_total_ns, 80u);
  // f=0: release 0, replayed completion max(begin,50), reclaims [50,90).
  EXPECT_EQ(engine.Predict(WaitEdge::kDoorbellCoalesce, 0.0).predicted_total_ns, 60u);
}

// Two members ringing at the same instant drain through the calibrated
// serial server: per-item = (65-20)/2 = 22.5, original arrivals land on the
// observed completion 65 exactly; at f=0 the replayed finish is 45.
TEST(WhatIfSyntheticTest, DownstreamPipelineMultiItemCalibration) {
  CriticalPathProfiler profiler;
  WhatIfEngine engine;
  engine.Attach(&profiler);
  FeedRequest(profiler,
              {Span(TracePoint::kSyncSubmitData, 0, 25, 1),
               Wait(WaitEdge::kDoorbellCoalesce, 0, 20, 1, /*device=*/0),
               Wait(WaitEdge::kDoorbellCoalesce, 5, 15, 1, /*device=*/0),
               Wait(WaitEdge::kTxDurable, 25, 40, 1, /*device=*/0)},
              0, 70);
  EXPECT_EQ(engine.Predict(WaitEdge::kDoorbellCoalesce, 1.0).predicted_total_ns, 70u);
  // f=0: releases {0,5} -> finish 45 vs 65 -> reclaims [45,65).
  EXPECT_EQ(engine.Predict(WaitEdge::kDoorbellCoalesce, 0.0).predicted_total_ns, 50u);
}

// A pipeline shift on device 0 must not touch a blocking wait on device 1.
TEST(WhatIfSyntheticTest, DownstreamPipelineIsPerDevice) {
  CriticalPathProfiler profiler;
  WhatIfEngine engine;
  engine.Attach(&profiler);
  FeedRequest(profiler,
              {Span(TracePoint::kSyncSubmitData, 0, 45, 1),
               Wait(WaitEdge::kDoorbellCoalesce, 0, 40, 1, /*device=*/0),
               Wait(WaitEdge::kTxDurable, 50, 40, 1, /*device=*/1)},
              0, 100);
  EXPECT_EQ(engine.Predict(WaitEdge::kDoorbellCoalesce, 0.0).predicted_total_ns, 100u);
}

// Batched edge across requests: both tx_durable members share one release
// (same end, same device), so the group is anchored at the LATEST member's
// begin (40) — the straggler — and neither request can be released earlier.
TEST(WhatIfSyntheticTest, BatchedSharedReleaseAnchoredAtStraggler) {
  CriticalPathProfiler profiler;
  WhatIfEngine engine;
  engine.Attach(&profiler);
  FeedRequest(profiler, {Wait(WaitEdge::kTxDurable, 10, 90, 1)}, 0, 110, 1);
  FeedRequest(profiler, {Wait(WaitEdge::kTxDurable, 40, 60, 2)}, 30, 80, 2);
  ASSERT_EQ(engine.requests(), 2u);
  EXPECT_EQ(engine.baseline_total_ns(), 190u);
  // f=0: release snaps to the anchor 40; req1 saves [40,100), req2 too.
  EXPECT_EQ(engine.Predict(WaitEdge::kTxDurable, 0.0).predicted_total_ns, 70u);
  // f=0.5: release 40 + 0.5*60 = 70; each request saves [70,100).
  EXPECT_EQ(engine.Predict(WaitEdge::kTxDurable, 0.5).predicted_total_ns, 130u);
}

// --- Negative control + frontier ------------------------------------------

TEST(WhatIfSyntheticTest, ZeroBlameEdgePredictsExactlyZeroGain) {
  CriticalPathProfiler profiler;
  WhatIfEngine engine;
  engine.Attach(&profiler);
  FeedRequest(profiler,
              {Span(TracePoint::kSyncSubmitData, 0, 30, 1),
               Wait(WaitEdge::kTxDurable, 30, 50, 1)},
              0, 100);
  // Edges that never appeared cannot promise anything.
  EXPECT_EQ(engine.Predict(WaitEdge::kFtlGc, 0.0).predicted_total_ns, 100u);
  EXPECT_EQ(engine.Predict(WaitEdge::kNvlogDrain, 0.0).predicted_total_ns, 100u);

  const auto frontier = engine.Frontier();
  ASSERT_EQ(frontier.size(), kNumWaitEdges);
  // Ranked: the one edge with blame first, every zero-blame edge flat.
  EXPECT_EQ(frontier.front().edge, WaitEdge::kTxDurable);
  EXPECT_GT(frontier.front().max_gain(), 0.0);
  for (const auto& row : frontier) {
    if (row.blame_ns == 0) {
      EXPECT_EQ(row.max_gain(), 0.0)
          << WaitEdgeName(row.edge) << ": zero-blame edge predicts nonzero gain";
    }
  }
  // Gains are monotone in f along every curve (factors ascend, gains fall).
  for (const auto& row : frontier) {
    for (size_t i = 1; i < row.curve.size(); ++i) {
      EXPECT_GE(row.curve[i - 1].mean_gain(), row.curve[i].mean_gain() - 1e-12);
    }
  }
}

TEST(WhatIfTest, WaitEdgeNameRoundTrip) {
  for (WaitEdge e : AllWaitEdges()) {
    EXPECT_EQ(WaitEdgeFromName(WaitEdgeName(e)), e);
  }
  EXPECT_EQ(WaitEdgeFromName("wait.tx_durable"), WaitEdge::kTxDurable);
  EXPECT_EQ(WaitEdgeFromName("no.such.edge"), WaitEdge::kNumEdges);
}

// --- Real workload: observer contract + knob validation -------------------

StackConfig MqfsFsyncConfig(uint16_t doorbell_coalesce_limit = 0) {
  StackConfig cfg;
  cfg.ssd = SsdConfig::Optane905P();
  cfg.enable_ccnvme = true;
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = 4096;
  cfg.cc_options.doorbell_coalesce_limit = doorbell_coalesce_limit;
  return cfg;
}

uint64_t RunFsyncWorkload(StorageStack& stack, int iters) {
  Status st = stack.MkfsAndMount();
  EXPECT_TRUE(st.ok()) << st.ToString();
  stack.Run([&] {
    for (int i = 0; i < iters; ++i) {
      auto ino = stack.fs().Create("/w_" + std::to_string(i));
      ASSERT_TRUE(ino.ok());
      Buffer data(kFsBlockSize, static_cast<uint8_t>(i));
      ASSERT_TRUE(stack.fs().Write(*ino, 0, data).ok());
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    }
  });
  return stack.sim().now();
}

// The engine is a pure observer: attaching it must not move a single
// virtual-time event, and two identical recorded runs must produce
// identical frontiers.
TEST(WhatIfWorkloadTest, EngineDoesNotPerturbVirtualTimeAndIsDeterministic) {
  uint64_t now_profiled;
  {
    StorageStack stack(MqfsFsyncConfig());
    stack.EnableProfiling();
    now_profiled = RunFsyncWorkload(stack, 30);
  }
  auto run = [](std::vector<uint64_t>* curve) -> uint64_t {
    StorageStack stack(MqfsFsyncConfig());
    CriticalPathProfiler& profiler = stack.EnableProfiling();
    WhatIfEngine engine;
    engine.Attach(&profiler);
    const uint64_t end = RunFsyncWorkload(stack, 30);
    EXPECT_GT(engine.requests(), 0u);
    for (const auto& row : engine.Frontier()) {
      for (const auto& pred : row.curve) {
        curve->push_back(pred.predicted_total_ns);
      }
    }
    return end;
  };
  std::vector<uint64_t> curve_a, curve_b;
  const uint64_t end_a = run(&curve_a);
  const uint64_t end_b = run(&curve_b);
  EXPECT_EQ(end_a, now_profiled) << "attaching the engine perturbed virtual time";
  EXPECT_EQ(end_a, end_b);
  EXPECT_EQ(curve_a, curve_b);
  EXPECT_FALSE(curve_a.empty());
}

// End-to-end knob validation (the small in-tree version of
// bench/whatif_validation.cc): predict the doorbell_coalesce_limit=2 run
// from the baseline recording and the knobbed run's raw edge time only.
TEST(WhatIfWorkloadTest, DoorbellKnobPredictionWithinBound) {
  struct Run {
    double mean_ns = 0;
    uint64_t raw_edge_ns = 0;
    uint64_t requests = 0;
  };
  WhatIfEngine engine;
  auto measure = [&](uint16_t limit, bool attach) {
    StorageStack stack(MqfsFsyncConfig(limit));
    CriticalPathProfiler& profiler = stack.EnableProfiling();
    if (attach) {
      engine.Attach(&profiler);
    }
    RunFsyncWorkload(stack, 60);
    Run out;
    out.requests = profiler.finished_requests();
    EXPECT_GT(out.requests, 0u);
    out.mean_ns = static_cast<double>(profiler.total_latency_ns()) /
                  static_cast<double>(out.requests);
    out.raw_edge_ns = stack.tracer()->edge_agg(WaitEdge::kDoorbellCoalesce).total_ns;
    return out;
  };
  const Run base = measure(0, /*attach=*/true);
  const Run knobbed = measure(2, /*attach=*/false);
  ASSERT_GT(base.raw_edge_ns, 0u);

  const double f = std::min(
      1.0, (static_cast<double>(knobbed.raw_edge_ns) / knobbed.requests) /
               (static_cast<double>(base.raw_edge_ns) / base.requests));
  const WhatIfEngine::Prediction pred = engine.Predict(WaitEdge::kDoorbellCoalesce, f);
  const double predicted_mean = static_cast<double>(pred.predicted_total_ns) /
                                static_cast<double>(pred.requests);
  const double err = std::abs(predicted_mean - knobbed.mean_ns) / knobbed.mean_ns;
  EXPECT_LE(err, kPredictionErrorBound)
      << "predicted " << predicted_mean << " ns vs measured " << knobbed.mean_ns
      << " ns at f=" << f;
  // And the knob must have actually moved the workload (no vacuous pass).
  EXPECT_LT(knobbed.mean_ns, base.mean_ns);
}

// --- perf_report JSON round trip ------------------------------------------

TEST(WhatIfTest, PerfReportJsonValidates) {
  StorageStack stack(MqfsFsyncConfig());
  CriticalPathProfiler& profiler = stack.EnableProfiling();
  WhatIfEngine engine;
  engine.Attach(&profiler);
  TailForensics tail;
  tail.Attach(&profiler);
  RunFsyncWorkload(stack, 30);

  PerfReportInfo info;
  info.stack = "mqfs";
  info.mode = "fsync";
  info.iters = 30;
  const std::string json = PerfReportJson(profiler, engine, tail, info);
  JsonValue doc;
  std::string perr;
  ASSERT_TRUE(JsonParse(json, &doc, &perr)) << perr;
  std::string verr;
  EXPECT_TRUE(ValidatePerfReportJson(doc, &verr)) << verr;

  // Tampering with the frontier must be caught: hide the whole section...
  const size_t cut = json.find("\"frontier\"");
  ASSERT_NE(cut, std::string::npos);
  std::string broken = json;
  broken.replace(cut, std::strlen("\"frontier\""), "\"frontxer\"");
  JsonValue bad;
  ASSERT_TRUE(JsonParse(broken, &bad, &perr)) << perr;
  EXPECT_FALSE(ValidatePerfReportJson(bad, &verr));

  // ...or drop one edge's row.
  JsonValue short_frontier = doc;
  std::vector<JsonValue>& rows = short_frontier.obj.at("whatif").obj.at("frontier").arr;
  ASSERT_EQ(rows.size(), kNumWaitEdges);
  rows.pop_back();
  EXPECT_FALSE(ValidatePerfReportJson(short_frontier, &verr));
  EXPECT_NE(verr.find("frontier covers"), std::string::npos) << verr;
}

}  // namespace
}  // namespace ccnvme
