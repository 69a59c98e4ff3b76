#include "src/profile/whatif.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace ccnvme {
namespace {

// Retained per-request records; the oldest is evicted first
// (deterministic).
constexpr size_t kMaxRequests = 1 << 16;

double Clamp01(double f) { return f < 0.0 ? 0.0 : (f > 1.0 ? 1.0 : f); }

// Nearest-rank quantile over an unsorted copy (exact, deterministic).
uint64_t QuantileNs(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(Clamp01(q) * static_cast<double>(v.size()));
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

}  // namespace

void WhatIfEngine::Attach(CriticalPathProfiler* profiler) {
  CCNVME_CHECK(profiler != nullptr);
  profiler->AddRequestObserver(this);
}

void WhatIfEngine::OnRequestProfile(const CriticalPathProfiler::RequestProfile& profile,
                                    const std::vector<TraceEvent>& events) {
  RequestRecord rec;
  rec.begin = profile.begin_ns;
  rec.end = profile.end_ns;
  for (const TraceEvent& ev : events) {
    const uint64_t b = std::max(ev.ts_ns, rec.begin);
    const uint64_t e = std::min(ev.ts_ns + ev.dur_ns, rec.end);
    if (e <= b) continue;
    if (ev.is_wait_edge()) {
      rec.waits.push_back(WaitIv{b, e, ev.edge, ev.device});
    } else if (ev.is_span) {
      rec.runs.push_back(RunIv{b, e});
    }
  }
  rec.blame.assign(profile.blame_ns.begin(), profile.blame_ns.end());
  baseline_total_ns_ += rec.latency();
  records_.push_back(std::move(rec));
  while (records_.size() > kMaxRequests) {
    baseline_total_ns_ -= records_.front().latency();
    records_.pop_front();
  }
}

void WhatIfEngine::OnResetAggregation() {
  records_.clear();
  baseline_total_ns_ = 0;
}

uint64_t WhatIfEngine::BaselineQuantileNs(double q) const {
  std::vector<uint64_t> lat;
  lat.reserve(records_.size());
  for (const RequestRecord& r : records_) lat.push_back(r.latency());
  return QuantileNs(std::move(lat), q);
}

uint64_t WhatIfEngine::PredictOne(
    const RequestRecord& r, WaitEdge edge, double factor,
    const std::map<std::pair<uint64_t, uint16_t>, uint64_t>& release) const {
  struct Target {
    uint64_t begin;
    uint64_t end;
    uint64_t trunc_end;  // re-simulated release of this interval
    uint16_t device;
  };
  std::vector<Target> targets;
  std::vector<const WaitIv*> others;
  for (const WaitIv& w : r.waits) {
    if (w.edge != edge) {
      others.push_back(&w);
      continue;
    }
    Target t{w.begin, w.end, w.end, w.device};
    if (!release.empty()) {
      auto it = release.find({w.end, w.device});
      // The group anchor L is a max over begins including this one, so the
      // shared release can never precede this member's begin.
      t.trunc_end = it != release.end() ? std::max(w.begin, it->second) : w.end;
    } else {
      t.trunc_end =
          w.begin + static_cast<uint64_t>(std::llround(factor * static_cast<double>(w.end - w.begin)));
    }
    targets.push_back(t);
  }
  if (targets.empty()) {
    return r.latency();
  }
  // Non-blocking edges cover windows where the host kept doing its own
  // timed work; that work still has to happen, so run-span cover blocks
  // the reclaim. Blocking edges parked the actor — only other waits hold it.
  const bool runs_block = !WaitEdgeBlocking(edge);

  std::vector<uint64_t> bounds;
  bounds.reserve(targets.size() * 3 + others.size() * 2 + (runs_block ? r.runs.size() * 2 : 0));
  auto add_bound = [&](uint64_t t) {
    if (t > r.begin && t < r.end) bounds.push_back(t);
  };
  for (const Target& t : targets) {
    add_bound(t.begin);
    add_bound(t.end);
    add_bound(t.trunc_end);
  }
  for (const WaitIv* w : others) {
    add_bound(w->begin);
    add_bound(w->end);
  }
  if (runs_block) {
    for (const RunIv& run : r.runs) {
      add_bound(run.begin);
      add_bound(run.end);
    }
  }
  bounds.push_back(r.begin);
  bounds.push_back(r.end);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  uint64_t saved = 0;
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    const uint64_t s = bounds[i];
    const uint64_t e = bounds[i + 1];
    bool was_edge = false;   // covered by an original target interval
    bool still_edge = false;  // covered by a re-simulated target interval
    for (const Target& t : targets) {
      if (t.begin <= s && t.end >= e) was_edge = true;
      if (t.begin <= s && t.trunc_end >= e) still_edge = true;
    }
    if (!was_edge || still_edge) continue;
    bool held = false;  // something else still pins the request here
    for (const WaitIv* w : others) {
      if (w->begin <= s && w->end >= e) {
        held = true;
        break;
      }
    }
    if (!held && runs_block) {
      for (const RunIv& run : r.runs) {
        if (run.begin <= s && run.end >= e) {
          held = true;
          break;
        }
      }
    }
    if (!held) saved += e - s;
  }

  // Downstream device-pipeline model: a non-blocking edge's real payoff is
  // that the device sees the early-released work sooner. For each blocking
  // wait the request later spends parked on the same device, replay the
  // scaled-edge releases that preceded it through a serial server whose
  // per-item service time is calibrated so the ORIGINAL arrivals land
  // exactly on the observed completion (factor == 1 is a no-op by
  // construction), and shift the wait's end in by the replayed difference.
  // Slices parked under the original wait but past its shifted end are
  // reclaimed; run spans do not hold them (the host was parked, not
  // working), only other non-blocking attribution windows do.
  if (!WaitEdgeBlocking(edge)) {
    struct Shifted {
      uint64_t begin;
      uint64_t end;
      uint64_t new_end;
    };
    std::vector<Shifted> parked;
    std::vector<const WaitIv*> nb_others;
    for (const WaitIv* w : others) {
      if (!WaitEdgeBlocking(w->edge)) {
        nb_others.push_back(w);
        continue;
      }
      uint64_t new_end = w->end;
      std::vector<uint64_t> ends, trunc_ends;
      for (const Target& t : targets) {
        // Only releases the device had seen before the park began can have
        // been draining toward this wait's completion.
        if (t.device == w->device && t.end <= w->begin) {
          ends.push_back(t.end);
          trunc_ends.push_back(t.trunc_end);
        }
      }
      if (!ends.empty()) {
        const uint64_t r_last = *std::max_element(ends.begin(), ends.end());
        if (w->end > r_last) {
          const double per_item =
              static_cast<double>(w->end - r_last) / static_cast<double>(ends.size());
          auto finish = [per_item](std::vector<uint64_t> arrivals) {
            std::sort(arrivals.begin(), arrivals.end());
            double busy = 0.0;
            for (uint64_t a : arrivals) {
              busy = std::max(busy, static_cast<double>(a)) + per_item;
            }
            return busy;
          };
          const double delta = finish(ends) - finish(trunc_ends);
          if (delta > 0.0) {
            const uint64_t d = static_cast<uint64_t>(std::llround(delta));
            new_end = std::max(w->begin, w->end > d ? w->end - d : w->begin);
          }
        }
      }
      parked.push_back(Shifted{w->begin, w->end, new_end});
    }

    std::vector<uint64_t> db;
    db.reserve(parked.size() * 3 + nb_others.size() * 2 + 2);
    auto add_db = [&](uint64_t t) {
      if (t > r.begin && t < r.end) db.push_back(t);
    };
    for (const Shifted& b : parked) {
      add_db(b.begin);
      add_db(b.end);
      add_db(b.new_end);
    }
    for (const WaitIv* w : nb_others) {
      add_db(w->begin);
      add_db(w->end);
    }
    db.push_back(r.begin);
    db.push_back(r.end);
    std::sort(db.begin(), db.end());
    db.erase(std::unique(db.begin(), db.end()), db.end());
    // Disjoint from the direct sweep above: direct savings require the slice
    // NOT be covered by any other wait, downstream savings require it be
    // covered by a blocking one.
    for (size_t i = 0; i + 1 < db.size(); ++i) {
      const uint64_t s = db[i];
      const uint64_t e = db[i + 1];
      bool was_parked = false;    // under an original blocking wait
      bool still_parked = false;  // still under its shifted copy
      for (const Shifted& b : parked) {
        if (b.begin <= s && b.end >= e) was_parked = true;
        if (b.begin <= s && b.new_end >= e) still_parked = true;
      }
      if (!was_parked || still_parked) continue;
      bool held = false;
      for (const WaitIv* w : nb_others) {
        if (w->begin <= s && w->end >= e) {
          held = true;
          break;
        }
      }
      if (!held) saved += e - s;
    }
  }
  return r.latency() - saved;
}

WhatIfEngine::Prediction WhatIfEngine::Predict(WaitEdge edge, double factor) const {
  factor = Clamp01(factor);
  Prediction p;
  p.edge = edge;
  p.factor = factor;
  p.requests = records_.size();

  // Batched edges: member intervals sharing one release instant (same end,
  // same device — one doorbell ring / commit / gate release) are re-simulated
  // as one group anchored at the latest member's begin. Built across ALL
  // records because a shared release spans requests.
  std::map<std::pair<uint64_t, uint16_t>, uint64_t> release;
  if (WaitEdgeBatched(edge)) {
    std::map<std::pair<uint64_t, uint16_t>, uint64_t> latest_begin;
    for (const RequestRecord& r : records_) {
      for (const WaitIv& w : r.waits) {
        if (w.edge != edge) continue;
        uint64_t& L = latest_begin[{w.end, w.device}];
        L = std::max(L, w.begin);
      }
    }
    for (const auto& [key, L] : latest_begin) {
      release[key] =
          L + static_cast<uint64_t>(std::llround(factor * static_cast<double>(key.first - L)));
    }
  }

  std::vector<uint64_t> base_lat, pred_lat;
  base_lat.reserve(records_.size());
  pred_lat.reserve(records_.size());
  for (const RequestRecord& r : records_) {
    const uint64_t predicted = PredictOne(r, edge, factor, release);
    base_lat.push_back(r.latency());
    pred_lat.push_back(predicted);
    p.baseline_total_ns += r.latency();
    p.predicted_total_ns += predicted;
  }
  p.baseline_p50_ns = QuantileNs(base_lat, 0.5);
  p.predicted_p50_ns = QuantileNs(pred_lat, 0.5);
  p.baseline_p99_ns = QuantileNs(std::move(base_lat), 0.99);
  p.predicted_p99_ns = QuantileNs(std::move(pred_lat), 0.99);
  return p;
}

std::vector<WhatIfEngine::FrontierRow> WhatIfEngine::Frontier() const {
  std::map<uint32_t, uint64_t> edge_blame;
  for (const RequestRecord& r : records_) {
    for (const auto& [packed, ns] : r.blame) {
      edge_blame[packed] += ns;
    }
  }
  std::vector<FrontierRow> rows;
  rows.reserve(kNumWaitEdges);
  for (WaitEdge e : AllWaitEdges()) {
    FrontierRow row;
    row.edge = e;
    auto it = edge_blame.find(BlameKey::Wait(e).packed());
    if (it != edge_blame.end()) row.blame_ns = it->second;
    row.blame_share = baseline_total_ns_ == 0
                          ? 0.0
                          : static_cast<double>(row.blame_ns) /
                                static_cast<double>(baseline_total_ns_);
    for (double f : kFactors) {
      row.curve.push_back(Predict(e, f));
    }
    rows.push_back(std::move(row));
  }
  std::stable_sort(rows.begin(), rows.end(), [](const FrontierRow& a, const FrontierRow& b) {
    if (a.max_gain() != b.max_gain()) return a.max_gain() > b.max_gain();
    if (a.blame_ns != b.blame_ns) return a.blame_ns > b.blame_ns;
    return static_cast<uint16_t>(a.edge) < static_cast<uint16_t>(b.edge);
  });
  return rows;
}

}  // namespace ccnvme
