// The pathology signature registry: the bench/core_pathologies vocabulary,
// made machine-checkable.
//
// Each named pathology the bench suite can provoke (doorbell herd, SQ-full
// storm, commit convoy, FTL GC stall, NVLog drain backpressure, map-miss
// thrash) is declared exactly once in CCNVME_PATHOLOGY_LIST below as a rule
// over a finished request's blame vector: a culprit wait edge, the minimum
// share of end-to-end latency that edge must be blamed for, and the minimum
// number of distinct wait intervals of that edge the request must have
// suffered (distinguishes a herd/thrash — repeated stalls — from one
// unlucky wait). The enum, the report names, the per-rule thresholds and
// the AllSignatureRules() iteration helper are all generated from the one
// list, mirroring the wait-edge registry idiom, so `perf_report --tail`,
// the ccnvme-perf-v2 schema validation and tests/tail_test.cc always agree
// on the vocabulary.
//
// Thresholds are calibrated against the clean fig14 workloads (negative
// control in tests/tail_test.cc): none of the culprit edges receives any
// blame on a healthy run — wc_drain only fires past the MMIO backlog
// ceiling, sq_full only on queue exhaustion, fsync_leader only when a
// follower parks behind a cross-core leader, ftl_gc/ftl_map_miss/nvlog_drain
// only under reserve/cache/ring pressure — so a clean run yields zero
// signatures by construction, and an injected pathology clears its
// threshold by a wide margin.
#ifndef SRC_PROFILE_TAIL_SIGNATURE_H_
#define SRC_PROFILE_TAIL_SIGNATURE_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/profile/critical_path.h"

namespace ccnvme {

// X(symbol, "report name", culprit edge, min blame share, min edge events)
#define CCNVME_PATHOLOGY_LIST(X)                                             \
  /* naive per-SQE doorbells amplify MMIO until the WC drain backlogs */     \
  X(kDoorbellHerd, "doorbell_herd", kWcDrain, 0.20, 2)                       \
  /* more in-flight syncs than SQ slots; submission parks on a free slot */  \
  X(kSqFullStorm, "sq_full_storm", kSqFull, 0.25, 1)                         \
  /* cross-core fsyncs convoy behind one committing leader */                \
  X(kCommitConvoy, "commit_convoy", kFsyncLeader, 0.40, 1)                   \
  /* foreground KV command stalled behind a synchronous GC pass */           \
  X(kFtlGcStall, "ftl_gc_stall", kFtlGc, 0.25, 1)                           \
  /* appends park on a full NVM log ring until the drainer frees space */    \
  X(kNvlogDrainBackpressure, "nvlog_drain_backpressure", kNvlogDrain, 0.25, 1) \
  /* L2P map cache too small for the working set; repeated demand paging */  \
  X(kMapMissThrash, "map_miss_thrash", kFtlMapMiss, 0.20, 2)

enum class Pathology : uint16_t {
#define CCNVME_PATHOLOGY_ENUM(sym, name, edge, share, events) sym,
  CCNVME_PATHOLOGY_LIST(CCNVME_PATHOLOGY_ENUM)
#undef CCNVME_PATHOLOGY_ENUM
      kNumPathologies,
};

inline constexpr size_t kNumPathologies =
    static_cast<size_t>(Pathology::kNumPathologies);

constexpr const char* PathologyName(Pathology p) {
  switch (p) {
#define CCNVME_PATHOLOGY_NAME(sym, name, edge, share, events) \
  case Pathology::sym:                                        \
    return name;
    CCNVME_PATHOLOGY_LIST(CCNVME_PATHOLOGY_NAME)
#undef CCNVME_PATHOLOGY_NAME
    case Pathology::kNumPathologies:
      break;
  }
  return "?";
}

// One classifier rule; see the file comment for the semantics.
struct SignatureRule {
  Pathology pathology = Pathology::kNumPathologies;
  WaitEdge culprit = WaitEdge::kNumEdges;
  double min_share = 0.0;
  uint64_t min_events = 1;
};

// Every registered rule, in declaration (= enum) order.
constexpr std::array<SignatureRule, kNumPathologies> AllSignatureRules() {
  return {{
#define CCNVME_PATHOLOGY_RULE(sym, name, edge, share, events) \
  SignatureRule{Pathology::sym, WaitEdge::edge, share, events},
      CCNVME_PATHOLOGY_LIST(CCNVME_PATHOLOGY_RULE)
#undef CCNVME_PATHOLOGY_RULE
  }};
}

// The rule for one pathology (registry lookup for reports/validation).
constexpr SignatureRule RuleFor(Pathology p) {
  return AllSignatureRules()[static_cast<size_t>(p)];
}

// Reverse lookup for CLI flags / schema validation; kNumPathologies when
// unknown.
inline Pathology PathologyFromName(std::string_view name) {
  for (const SignatureRule& r : AllSignatureRules()) {
    if (name == PathologyName(r.pathology)) return r.pathology;
  }
  return Pathology::kNumPathologies;
}

// One matched signature on one finished request.
struct Verdict {
  Pathology pathology = Pathology::kNumPathologies;
  WaitEdge culprit = WaitEdge::kNumEdges;
  uint64_t blame_ns = 0;   // culprit blame on this request
  double share = 0.0;      // blame_ns / end-to-end latency
  uint64_t events = 0;     // distinct culprit wait intervals on the request
};

// Matches one finished request against every registered rule. |events| is
// the request's raw buffered event stream (the RequestObserver payload);
// only culprit wait-edge occurrences are counted from it. Deterministic:
// verdicts come out in rule declaration order.
std::vector<Verdict> ClassifySignatures(
    const CriticalPathProfiler::RequestProfile& profile,
    const std::vector<TraceEvent>& events);

}  // namespace ccnvme

#endif  // SRC_PROFILE_TAIL_SIGNATURE_H_
