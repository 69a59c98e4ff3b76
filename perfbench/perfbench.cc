// perfbench: the repository's two-clock benchmark.
//
//   perfbench --workload <mqfs_fsync|mqfs_varmail|nvlog_varmail|crash_explore>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// Every workload is a closed loop driven only through public entry points
// (StorageStack, HostModel, ExtFs, RecordWorkload/ExploreRecording/
// BuildCrashState/CheckCrashState). The benchmark times those calls itself,
// on two clocks: virtual time (the simulator's, deterministic for a seed)
// and host time (std::chrono::steady_clock on this process).
//
// A run repeats the workload until --seconds of host time have passed and
// reports medians over the repetitions. With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it also runs traced repetitions (the
// program's profiler + metrics engine on, benchmark spans recorded around
// every ExtFs call) and prints the per-layer metrics. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. Any
// failed correctness check makes the exit code non-zero.
//
// See perfbench/README.md for the workloads, metrics and checks.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <condition_variable>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/crashtest/crash_explorer.h"
#include "src/crashtest/crash_state.h"
#include "src/crashtest/crash_workloads.h"
#include "src/harness/host_model.h"
#include "src/harness/stack.h"
#include "src/metrics/metrics.h"
#include "src/profile/critical_path.h"
#include "src/profile/wait_edges.h"
#include "src/trace/trace_point.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace ccnvme {
namespace {

using HostClock = std::chrono::steady_clock;

double SecondsSince(HostClock::time_point start) {
  return std::chrono::duration<double>(HostClock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Host environment: CPU set, pinning, rusage.

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  if (cpus.empty()) {
    cpus.push_back(0);
  }
  return cpus;
}

std::string CpuList(const std::vector<int>& cpus) {
  std::string out;
  for (int c : cpus) {
    out += (out.empty() ? "" : ",") + std::to_string(c);
  }
  return out;
}

// Pins the calling thread, and so every thread it creates afterwards (each
// simulator actor is an OS thread), to |cpu|.
bool PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

// The CPU a simulation is pinned to: the one the scheduler runs this thread
// on at start-up (likely the least busy), if it is in the allowed set.
int SimulationCpu(const std::vector<int>& cpus) {
  const int current = sched_getcpu();
  return std::find(cpus.begin(), cpus.end(), current) != cpus.end() ? current : cpus.back();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

uint64_t VoluntarySwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_nvcsw);
}

// ---------------------------------------------------------------------------
// Host speed. A shared machine's speed swings with the other tenants' load:
// on a 4-vCPU VM the median of ten mqfs_varmail runs was 4.4 s in one half
// hour and 2.9 s in the next, in CPU time as much as in wall time. That is
// more than any host-time bound can allow, so the gated host times are
// scaled to a reference speed: the median measured seconds x
// kProbeNominalS / the median probe seconds of the run. The probe is timed
// just before and just after each measured phase and does a fixed amount
// of the two kinds of work the simulator's host time is made of: handoffs
// between two threads on one CPU through a condition variable, as between
// simulator actors, and cache-resident integer work. The probe is benchmark
// code, so a change to the program under test does not move it.

// About the probe's time on the machine BASELINE.md describes, in its slower
// phase, so that reference-speed seconds read close to measured ones there.
constexpr double kProbeNominalS = 0.05;

double SpeedProbeSeconds() {
  constexpr int kHandoffs = 5000;
  constexpr int kIntegerSteps = 3'000'000;
  const auto t = HostClock::now();
  std::mutex mu;
  std::condition_variable cv;
  bool peer_turn = false;
  std::thread peer([&] {
    std::unique_lock<std::mutex> lock(mu);
    for (int i = 0; i < kHandoffs; ++i) {
      cv.wait(lock, [&] { return peer_turn; });
      peer_turn = false;
      cv.notify_one();
    }
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    for (int i = 0; i < kHandoffs; ++i) {
      peer_turn = true;
      cv.notify_one();
      cv.wait(lock, [&] { return !peer_turn; });
    }
  }
  peer.join();
  std::vector<uint64_t> table(1 << 17);  // 1 MiB: stays in L2
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < kIntegerSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & (table.size() - 1)] += x;
  }
  volatile uint64_t sink = table[x & (table.size() - 1)];
  (void)sink;
  return SecondsSince(t);
}

// |seconds| measured in a run whose median probe took |probe_s|, at
// reference speed.
double AtReferenceSpeed(double seconds, double probe_s) {
  return seconds * kProbeNominalS / probe_s;
}

// ---------------------------------------------------------------------------
// Statistics: exact order statistics over every recorded sample.

// Nearest-rank percentile (q in (0, 1]) of |v|; 0 when empty.
uint64_t Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// Samples ranked above the nearest-rank q-th percentile.
size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void PrintSamples(const char* name, const std::vector<double>& v) {
  std::printf("  %s samples:", name);
  for (double x : v) {
    std::printf(" %.4f", x);
  }
  std::printf("\n");
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double PerOp(uint64_t count, uint64_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(ops);
}

double Pct(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

// FNV-1a over 64-bit words: the virtual-time fingerprint of a repetition.
struct Fingerprint {
  uint64_t h = 1469598103934665603ull;
  void Add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void AddBytes(const std::vector<uint8_t>& bytes) {
    for (uint8_t b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
};

// ---------------------------------------------------------------------------
// Report: metrics, checks and the final JSON line.

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> end_to_end;  // kEndToEnd name -> value
  std::map<std::string, double> per_layer;   // kPerLayer name -> value

  // A failed correctness check: counted, printed, and fatal to the run.
  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) {
      failures.push_back(why);
    }
  }
  // A check counts as one attempted operation.
  void Check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
      Fail(why);
    }
  }
  void E2e(const std::string& name, double value) { end_to_end[name] = value; }
  void Layer(const std::string& name, double value) { per_layer[name] = value; }
};

// The metric sets BENCHMARK.json declares. Every run reports each metric of
// its set; a per-layer metric of a layer the workload does not use is 0.
struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},          {"host_wall_s", "s"},    {"host_peak_rss_mb", "MB"},
    {"vthroughput_kops", "kops"}, {"vlat_mean_us", "us"},
};

constexpr MetricName kPerLayer[] = {
    {"vlat_p50_us", "us"},
    {"vlat_p99_us", "us"},
    {"host.probe_ms", "ms"},
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.os_switches", "count"},
    {"sim.switches_per_event", "ratio"},
    {"harness.build_ms", "ms"},
    {"harness.teardown_ms", "ms"},
    {"harness.recover_ms", "ms"},
    {"harness.recover_vus", "us"},
    {"crashtest.states", "count"},
    {"crashtest.boundaries", "count"},
    {"crashtest.sampled_boundaries", "count"},
    {"crashtest.record_ms", "ms"},
    {"crashtest.build_state_ms", "ms"},
    {"crashtest.check_state_ms", "ms"},
    {"extfs.write_p50_us", "us"},
    {"extfs.create_p50_us", "us"},
    {"extfs.unlink_p50_us", "us"},
    {"extfs.lookup_p50_us", "us"},
    {"extfs.read_p50_us", "us"},
    {"vfs.blame_pct", "%"},
    {"journal.blame_pct", "%"},
    {"wait.journal_handle_pct", "%"},
    {"wait.commit_barrier_pct", "%"},
    {"wait.fsync_leader_pct", "%"},
    {"ccnvme.tx_per_op", "ratio"},
    {"ccnvme.blame_pct", "%"},
    {"wait.tx_durable_pct", "%"},
    {"wait.doorbell_coalesce_pct", "%"},
    {"pcie.mmio_writes_per_op", "ratio"},
    {"pcie.mmio_reads_per_op", "ratio"},
    {"pcie.dma_queue_ops_per_op", "ratio"},
    {"pcie.irqs_per_op", "ratio"},
    {"pcie.blame_pct", "%"},
    {"driver.blame_pct", "%"},
    {"wait.sq_full_pct", "%"},
    {"nvme.commands_per_op", "ratio"},
    {"ssd.writes_per_op", "ratio"},
    {"ssd.flushes_per_op", "ratio"},
    {"nvme.blame_pct", "%"},
    {"block.bios_per_op", "ratio"},
    {"block.flushes_per_op", "ratio"},
    {"block.blame_pct", "%"},
    {"nvm.stores_per_op", "ratio"},
    {"nvm.fences_per_op", "ratio"},
    {"nvm.blame_pct", "%"},
    {"wait.nvlog_drain_pct", "%"},
    {"trace.host_overhead_pct", "%"},
    {"trace.dropped_open_req", "count"},
    {"metrics.monitor_violations", "count"},
};

// Prints the metric table, then the final JSON line.
template <size_t N>
void PrintResult(const Report& r, const MetricName (&names)[N],
                 const std::map<std::string, double>& values) {
  std::string json = std::string("{\"correct\": ") + (r.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<uint64_t>(r.attempted, 1)) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < N; ++i) {
    auto it = values.find(names[i].name);
    const double value = it == values.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    std::printf("  %-30s %16.6f %s\n", names[i].name, value, names[i].unit);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    json += std::string(i == 0 ? "" : ", ") + "\"" + names[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + names[i].unit + "\"}";
  }
  std::printf("%s}}\n", json.c_str());
}

// Set-up samples per run; setup_s is their median.
constexpr size_t kSetupSamples = 15;

// ---------------------------------------------------------------------------
// Benchmark-side spans (traced repetitions only): one span per workload
// operation (the parent) and one per ExtFs call inside it, on the virtual
// clock. Kept in memory, folded into self times, written out at the end.

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t parent = 0;  // index + 1 of the parent span; 0 = root
  uint64_t req = 0;     // workload operation id shared by a parent and its calls
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Returns the span's handle (index + 1), 0 when spans are off.
  uint32_t Add(const char* name, uint64_t start_ns, uint64_t end_ns, uint32_t parent,
               uint64_t req) {
    if (!enabled_) {
      return 0;
    }
    spans_.push_back(Span{name, start_ns, end_ns, parent, req});
    return static_cast<uint32_t>(spans_.size());
  }
  void SetEnd(uint32_t handle, uint64_t end_ns) {
    if (handle != 0) {
      spans_[handle - 1].end_ns = end_ns;
    }
  }

  // Self time per span name: duration minus the part covered by children.
  // Children of one parent never overlap (one actor runs them in sequence).
  std::map<std::string, std::pair<uint64_t, uint64_t>> SelfTimes() const {
    std::vector<uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != 0) {
        child_ns[s.parent - 1] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, std::pair<uint64_t, uint64_t>> out;  // name -> (count, self ns)
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& slot = out[spans_[i].name];
      slot.first++;
      slot.second += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    }
    return out;
  }

  bool WriteTsv(const std::string& path) const {
    std::ofstream f(path);
    if (!f) {
      return false;
    }
    f << "id\tname\tstart_ns\tend_ns\tparent\treq\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << i + 1 << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.parent
        << '\t' << s.req << '\n';
    }
    return static_cast<bool>(f);
  }
  size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Folds every finished fsync's blame vector (from the critical-path
// profiler) into per-key totals, for requests that began inside the
// measured window.
class BlameFold : public CriticalPathProfiler::RequestObserver {
 public:
  explicit BlameFold(uint64_t window_start_ns) : window_start_ns_(window_start_ns) {}
  void OnRequestProfile(const CriticalPathProfiler::RequestProfile& p,
                        const std::vector<TraceEvent>&) override {
    if (p.begin_ns < window_start_ns_) {
      return;
    }
    ++requests;
    latency_ns += p.latency_ns();
    for (const auto& [key, ns] : p.blame_ns) {
      by_key[key] += ns;
    }
  }

  uint64_t requests = 0;
  uint64_t latency_ns = 0;
  std::map<uint32_t, uint64_t> by_key;  // packed BlameKey -> ns

 private:
  uint64_t window_start_ns_;
};

// ---------------------------------------------------------------------------
// File-system workloads (mqfs_fsync, mqfs_varmail, nvlog_varmail).


// Work counters of the layers under the file system, read from the stack.
struct LayerCounts {
  uint64_t mmio_writes = 0, mmio_reads = 0, dma_queue_ops = 0, irqs = 0;
  uint64_t nvme_commands = 0, ssd_writes = 0, ssd_flushes = 0;
  uint64_t cc_tx = 0, nvm_stores = 0, nvm_fences = 0;

  static LayerCounts Of(StorageStack& s) {
    LayerCounts c;
    const TrafficStats& t = s.link().traffic();
    c.mmio_writes = t.mmio_writes;
    c.mmio_reads = t.mmio_reads;
    c.dma_queue_ops = t.dma_queue_ops;
    c.irqs = t.irqs;
    c.nvme_commands = s.controller().commands_executed();
    c.ssd_writes = s.ssd().writes_served();
    c.ssd_flushes = s.ssd().flushes_served();
    c.cc_tx = s.ccnvme() != nullptr ? s.ccnvme()->transactions_completed() : 0;
    c.nvm_stores = s.nvm_device() != nullptr ? s.nvm_device()->stores() : 0;
    c.nvm_fences = s.nvm_device() != nullptr ? s.nvm_device()->fences() : 0;
    return c;
  }
  LayerCounts Minus(const LayerCounts& o) const {
    return {mmio_writes - o.mmio_writes, mmio_reads - o.mmio_reads,
            dma_queue_ops - o.dma_queue_ops, irqs - o.irqs,
            nvme_commands - o.nvme_commands, ssd_writes - o.ssd_writes,
            ssd_flushes - o.ssd_flushes, cc_tx - o.cc_tx,
            nvm_stores - o.nvm_stores, nvm_fences - o.nvm_fences};
  }
};

// Everything one repetition of a file-system workload measured.
struct FsRep {
  double setup_s = 0;     // stack build + mkfs + mount + prefill
  double run_s = 0;       // the simulated run (warm-up + window), host time
  double probe_s = 0;     // mean of the speed probes just before and after it
  double build_s = 0;     // StorageStack constructor + MkfsAndMount
  double teardown_s = 0;  // ~StorageStack of the measured stack
  double recover_s = 0;   // MountExisting on the captured crash image
  uint64_t recover_vns = 0;
  uint64_t sim_events = 0;
  uint64_t os_switches = 0;

  // Virtual-time results (identical across repetitions of one seed).
  uint64_t window_ns = 0;
  uint64_t ops_window = 0;  // durable ops completed inside the window
  uint64_t ops_first_half = 0;
  uint64_t ops_second_half = 0;
  uint64_t ops_run = 0;     // durable ops completed in the whole run phase
  std::vector<uint64_t> fsync_ns;                       // fsyncs begun in the window
  std::map<std::string, std::vector<uint64_t>> call_ns;  // span name -> latencies
  Fingerprint fingerprint;

  // Per-layer counters over the run phase (totals; divide by ops_run).
  LayerCounts counts;
  // Traced repetitions only.
  uint64_t bios = 0, bio_flushes = 0, monitor_violations = 0, dropped_open_req = 0;
  std::map<uint32_t, uint64_t> blame_by_key;
  uint64_t blame_requests = 0, blame_latency_ns = 0;
};

// The state a workload's clients share during one repetition.
struct FsRun {
  StorageStack* stack = nullptr;
  SpanLog* spans = nullptr;
  uint64_t window_start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t half_ns = 0;
  uint64_t next_req = 1;
  FsRep* rep = nullptr;
  Report* report = nullptr;

  uint64_t now() const { return stack->sim().now(); }
  bool in_window(uint64_t start_ns) const { return start_ns >= window_start_ns; }

  // Times one ExtFs call. Traced repetitions record a span and, inside
  // the window, the call's latency.
  template <typename F>
  auto Call(const char* name, uint32_t parent, uint64_t req, F&& fn) {
    const uint64_t t0 = now();
    auto result = fn();
    if (spans->enabled()) {
      const uint64_t t1 = now();
      if (in_window(t0)) {
        rep->call_ns[name].push_back(t1 - t0);
      }
      spans->Add(name, t0, t1, parent, req);
    }
    return result;
  }

  // One durable workload operation finished at |done_ns|.
  void OpDone(uint64_t done_ns) {
    rep->ops_run++;
    rep->fingerprint.Add(done_ns);
    if (done_ns >= window_start_ns && done_ns < end_ns) {
      rep->ops_window++;
      (done_ns < half_ns ? rep->ops_first_half : rep->ops_second_half)++;
    }
  }

  // Counts an operation and its status; a failure is a correctness failure.
  bool Ok(const Status& s, const char* what) {
    report->attempted++;
    if (!s.ok()) {
      report->Fail(std::string(what) + ": " + s.ToString());
      return false;
    }
    return true;
  }
};

// A file-system workload: its stack, host model, prefill, client loop and
// post-crash durability check.
class FsWorkload {
 public:
  virtual ~FsWorkload() = default;
  virtual const char* name() const = 0;
  virtual StackConfig Config() const = 0;
  virtual HostModelConfig Host() const = 0;
  virtual uint64_t warmup_ns() const = 0;
  virtual uint64_t window_ns() const = 0;
  // Creates the working set (runs inside an actor; part of set-up).
  virtual void Prefill(StorageStack& stack, Report& report) = 0;
  // Registers the clients for one run.
  virtual void AddClients(HostModel& host, FsRun& run) = 0;
  // After the crash: every acknowledged byte of every live file reads back.
  virtual void Verify(ExtFs& fs, Report& report) = 0;
};

// Deterministic 4 KB-block payload: a 16-byte header naming the writer and
// the write, then a fill byte derived from both.
void FillBlock(uint8_t* p, size_t len, uint64_t owner, uint64_t tag) {
  std::memcpy(p, &owner, sizeof(owner));
  std::memcpy(p + 8, &tag, sizeof(tag));
  std::memset(p + 16, static_cast<int>((owner * 131 + tag * 7) & 0xff), len - 16);
}

// mqfs_fsync: 32 clients on 8 simulated cores (2 contexts, 4 clients per
// core), each appending 4 KB to a private file and fsyncing, on MQFS over
// ccNVMe on the Optane 905P model. The seed sets each client's think time
// before every append (0-2 us) and the payload bytes. Without think time
// the clients lock into one commit cycle and every fsync takes the same
// time, whatever the seed.
class MqfsFsync : public FsWorkload {
 public:
  static constexpr uint16_t kCores = 8;
  static constexpr uint32_t kClients = 32;
  static constexpr uint32_t kWriteBytes = 4096;
  static constexpr uint64_t kMaxFileBytes = 4ull << 20;
  static constexpr uint64_t kMaxThinkNs = 2000;

  explicit MqfsFsync(uint64_t seed) : seed_(seed) {}
  const char* name() const override { return "mqfs_fsync"; }
  StackConfig Config() const override {
    StackConfig cfg;
    cfg.ssd = SsdConfig::Optane905P();
    cfg.num_queues = kCores;
    cfg.enable_ccnvme = true;
    cfg.fs.journal = JournalKind::kMultiQueue;
    cfg.fs.journal_areas = kCores;
    cfg.fs.journal_blocks = 4096 * kCores;
    return cfg;
  }
  HostModelConfig Host() const override {
    HostModelConfig h;
    h.num_cores = kCores;
    h.contexts_per_core = 2;
    return h;
  }
  uint64_t warmup_ns() const override { return 20'000'000; }
  uint64_t window_ns() const override { return 20'000'000; }

  void Prefill(StorageStack& stack, Report& report) override {
    clients_.assign(kClients, Client{});
    Rng rng(seed_);
    for (uint32_t i = 0; i < kClients; ++i) {
      clients_[i].rng = Rng(rng.Next());
      clients_[i].owner = seed_ * 1000 + i;
    }
    stack.Run([&] {
      for (uint32_t i = 0; i < kClients; ++i) {
        auto ino = stack.fs().Create(Path(i));
        report.Check(ino.ok(), "create " + Path(i) + ": " + ino.status().ToString());
        clients_[i].ino = ino.ok() ? *ino : kInvalidInode;
      }
    });
  }

  void AddClients(HostModel& host, FsRun& run) override {
    for (uint32_t i = 0; i < kClients; ++i) {
      host.AddClient("fsync" + std::to_string(i), [this, &run, i] { return Step(run, i); },
                     static_cast<uint16_t>(i % kCores));
    }
  }

  void Verify(ExtFs& fs, Report& report) override {
    Buffer got(kWriteBytes), want(kWriteBytes);
    for (uint32_t i = 0; i < kClients; ++i) {
      const Client& c = clients_[i];
      auto ino = fs.Lookup(Path(i));
      bool ok = ino.ok();
      for (size_t b = 0; ok && b < c.acked_tags.size(); ++b) {
        ok = fs.Read(*ino, b * kWriteBytes, got).ok();
        FillBlock(want.data(), want.size(), c.owner, c.acked_tags[b]);
        ok = ok && got == want;
      }
      report.Check(ok, std::string(name()) + ": acknowledged data of " + Path(i) +
                           " did not survive the crash");
    }
  }

 private:
  struct Client {
    InodeNum ino = kInvalidInode;
    uint64_t owner = 0;
    Rng rng{1};
    uint64_t offset = 0;
    uint64_t seq = 0;
    std::vector<uint64_t> acked_tags;  // per 4 KB block: last acknowledged write
    Buffer data = Buffer(kWriteBytes);
  };

  static std::string Path(uint32_t i) { return "/fsync_" + std::to_string(i); }

  bool Step(FsRun& run, uint32_t i) {
    Client& c = clients_[i];
    if (run.now() >= run.end_ns || c.ino == kInvalidInode) {
      return false;
    }
    Simulator::Sleep(c.rng.Uniform(kMaxThinkNs));
    const uint64_t req = run.next_req++;
    const uint64_t t0 = run.now();
    const uint32_t op = run.spans->Add("op.append_fsync", t0, t0, 0, req);
    const uint64_t tag = ++c.seq;
    FillBlock(c.data.data(), c.data.size(), c.owner, tag);
    ExtFs& fs = run.stack->fs();
    const Status w =
        run.Call("extfs.write", op, req, [&] { return fs.Write(c.ino, c.offset, c.data); });
    if (run.Ok(w, "write")) {
      const uint64_t f0 = run.now();
      const Status s = run.Call("extfs.fsync", op, req, [&] { return fs.Fsync(c.ino); });
      if (run.Ok(s, "fsync")) {
        const uint64_t f1 = run.now();
        if (run.in_window(f0)) {
          run.rep->fsync_ns.push_back(f1 - f0);
        }
        const size_t block = c.offset / kWriteBytes;
        if (c.acked_tags.size() <= block) {
          c.acked_tags.resize(block + 1);
        }
        c.acked_tags[block] = tag;
        run.OpDone(f1);
      }
    }
    run.spans->SetEnd(op, run.now());
    c.offset += kWriteBytes;
    if (c.offset + kWriteBytes > kMaxFileBytes) {
      c.offset = 0;
    }
    return true;
  }

  uint64_t seed_;
  std::vector<Client> clients_;
};

// The filebench varmail flow (delete; create+append+fsync; read+append+fsync;
// read), 16 threads on 8 queues, on extfs on the Optane 905P model. The seed
// drives file choice and append sizes. Victims and readers are drawn from
// the thread's own live files, so no operation is expected to fail.
//   mqfs_varmail:  MQFS over ccNVMe (the paper's stack).
//   nvlog_varmail: the NVLog journal, ccNVMe off. Not in BENCHMARK.json:
//                  its durability check fails on some seeds (see README.md).
class Varmail : public FsWorkload {
 public:
  static constexpr uint16_t kQueues = 8;
  static constexpr uint32_t kThreads = 16;
  static constexpr int kFilesPerThread = 200 / kThreads;
  static constexpr uint32_t kMeanAppend = 8192;

  Varmail(uint64_t seed, JournalKind journal) : seed_(seed), journal_(journal) {}
  const char* name() const override {
    return journal_ == JournalKind::kNvlog ? "nvlog_varmail" : "mqfs_varmail";
  }
  StackConfig Config() const override {
    StackConfig cfg;
    cfg.ssd = SsdConfig::Optane905P();
    cfg.num_queues = kQueues;
    cfg.fs.journal = journal_;
    if (journal_ == JournalKind::kNvlog) {
      cfg.enable_ccnvme = false;
      cfg.fs.journal_areas = 1;
      cfg.fs.journal_blocks = 4096;
    } else {
      cfg.enable_ccnvme = true;
      cfg.fs.journal_areas = kQueues;
      cfg.fs.journal_blocks = 4096 * kQueues;
    }
    return cfg;
  }
  HostModelConfig Host() const override {
    HostModelConfig h;
    h.num_cores = kQueues;
    h.total_contexts = kThreads;
    return h;
  }
  // Both windows hold some 3,000 fsyncs; MQFS commits about 6x faster.
  uint64_t warmup_ns() const override {
    return journal_ == JournalKind::kNvlog ? 40'000'000 : 10'000'000;
  }
  uint64_t window_ns() const override {
    return journal_ == JournalKind::kNvlog ? 300'000'000 : 50'000'000;
  }

  void Prefill(StorageStack& stack, Report& report) override {
    threads_.assign(kThreads, Thread{});
    for (uint32_t t = 0; t < kThreads; ++t) {
      threads_[t].rng = Rng(seed_ * 7919 + t);
      threads_[t].owner = seed_ * 1000 + t;
    }
    stack.Run([&] {
      for (uint32_t t = 0; t < kThreads; ++t) {
        Thread& th = threads_[t];
        for (int i = 0; i < kFilesPerThread; ++i) {
          const std::string path = Path(t, th.next_index++);
          auto ino = stack.fs().Create(path);
          Buffer body(AppendSize(th.rng));
          FillBlock(body.data(), body.size(), th.owner, th.next_index);
          bool ok = ino.ok() && stack.fs().Write(*ino, 0, body).ok() &&
                    stack.fs().Fsync(*ino).ok();
          report.Check(ok, "prefill " + path);
          if (ok) {
            th.live.push_back(File{path, *ino, body});
          }
        }
      }
    });
  }

  void AddClients(HostModel& host, FsRun& run) override {
    for (uint32_t t = 0; t < kThreads; ++t) {
      host.AddClient("varmail" + std::to_string(t), [this, &run, t] { return Flow(run, t); });
    }
  }

  void Verify(ExtFs& fs, Report& report) override {
    for (uint32_t t = 0; t < kThreads; ++t) {
      for (const File& f : threads_[t].live) {
        const std::string lost = Lost(fs, f);
        report.Check(lost.empty(), std::string(name()) + ": " + f.path +
                                       " lost acknowledged data in the crash: " + lost);
      }
    }
  }

 private:
  struct File {
    std::string path;
    InodeNum ino = kInvalidInode;
    Buffer acked;  // the bytes the last fsync made durable
  };
  struct Thread {
    Rng rng{1};
    uint64_t owner = 0;
    int next_index = 0;
    std::vector<File> live;
  };

  static std::string Path(uint32_t t, int i) {
    return "/mail_t" + std::to_string(t) + "_" + std::to_string(i);
  }
  // Why |f|'s acknowledged bytes did not survive the crash; "" when they did.
  static std::string Lost(ExtFs& fs, const File& f) {
    auto ino = fs.Lookup(f.path);
    if (!ino.ok()) {
      return "lookup: " + ino.status().ToString();
    }
    auto size = fs.FileSize(*ino);
    if (!size.ok() || *size < f.acked.size()) {
      return "size " + (size.ok() ? std::to_string(*size) : size.status().ToString()) +
             " < acknowledged " + std::to_string(f.acked.size());
    }
    Buffer got(f.acked.size());
    if (!fs.Read(*ino, 0, got).ok() || got != f.acked) {
      return "content differs from the acknowledged bytes";
    }
    return "";
  }
  static uint32_t AppendSize(Rng& rng) {
    return kMeanAppend / 2 + static_cast<uint32_t>(rng.Uniform(kMeanAppend));
  }

  // Reads file |f| whole (size, then contents) inside operation |op|.
  bool ReadWhole(FsRun& run, const File& f, uint32_t op, uint64_t req) {
    ExtFs& fs = run.stack->fs();
    auto ino = run.Call("extfs.lookup", op, req, [&] { return fs.Lookup(f.path); });
    if (!run.Ok(ino.status(), "lookup")) {
      return false;
    }
    auto size = run.Call("extfs.stat", op, req, [&] { return fs.FileSize(*ino); });
    if (!run.Ok(size.status(), "stat")) {
      return false;
    }
    Buffer content(*size);
    return run.Ok(run.Call("extfs.read", op, req, [&] { return fs.Read(*ino, 0, content); }),
                  "read");
  }

  // Appends |extra| to |f| and fsyncs it; on success |f.acked| grows.
  bool AppendFsync(FsRun& run, File& f, const Buffer& extra, uint32_t op, uint64_t req) {
    ExtFs& fs = run.stack->fs();
    if (!run.Ok(run.Call("extfs.write", op, req, [&] { return fs.Append(f.ino, extra); }),
                "append")) {
      return false;
    }
    const uint64_t f0 = run.now();
    if (!run.Ok(run.Call("extfs.fsync", op, req, [&] { return fs.Fsync(f.ino); }), "fsync")) {
      return false;
    }
    if (run.in_window(f0)) {
      run.rep->fsync_ns.push_back(run.now() - f0);
    }
    f.acked.insert(f.acked.end(), extra.begin(), extra.end());
    return true;
  }

  // One flow op: opens a parent span, runs |body|, counts it when it succeeds.
  template <typename F>
  void FlowOp(FsRun& run, const char* name, F&& body) {
    const uint64_t req = run.next_req++;
    const uint32_t op = run.spans->Add(name, run.now(), run.now(), 0, req);
    const bool ok = body(op, req);
    run.spans->SetEnd(op, run.now());
    if (ok) {
      run.OpDone(run.now());
    }
  }

  bool Flow(FsRun& run, uint32_t t) {
    if (run.now() >= run.end_ns) {
      return false;
    }
    Thread& th = threads_[t];
    ExtFs& fs = run.stack->fs();

    // 1. delete a random live file.
    FlowOp(run, "op.delete", [&](uint32_t op, uint64_t req) {
      if (th.live.empty()) {
        return true;
      }
      const size_t victim = th.rng.Uniform(th.live.size());
      const std::string path = th.live[victim].path;
      th.live.erase(th.live.begin() + static_cast<std::ptrdiff_t>(victim));
      return run.Ok(run.Call("extfs.unlink", op, req, [&] { return fs.Unlink(path); }), "unlink");
    });

    // 2. create a new file, append, fsync.
    FlowOp(run, "op.create_append_fsync", [&](uint32_t op, uint64_t req) {
      const std::string path = Path(t, th.next_index++);
      auto ino = run.Call("extfs.create", op, req, [&] { return fs.Create(path); });
      if (!run.Ok(ino.status(), "create")) {
        return false;
      }
      th.live.push_back(File{path, *ino, {}});
      Buffer body(AppendSize(th.rng));
      FillBlock(body.data(), body.size(), th.owner, static_cast<uint64_t>(th.next_index));
      return AppendFsync(run, th.live.back(), body, op, req);
    });

    // 3. read a random live file whole, append, fsync.
    FlowOp(run, "op.read_append_fsync", [&](uint32_t op, uint64_t req) {
      if (th.live.empty()) {
        return false;
      }
      File& f = th.live[th.rng.Uniform(th.live.size())];
      if (!ReadWhole(run, f, op, req)) {
        return false;
      }
      Buffer extra(kMeanAppend / 2);
      FillBlock(extra.data(), extra.size(), th.owner, f.acked.size());
      return AppendFsync(run, f, extra, op, req);
    });

    // 4. read a random live file whole.
    FlowOp(run, "op.read", [&](uint32_t op, uint64_t req) {
      return !th.live.empty() &&
             ReadWhole(run, th.live[th.rng.Uniform(th.live.size())], op, req);
    });
    return true;
  }

  uint64_t seed_;
  JournalKind journal_;
  std::vector<Thread> threads_;
};

// Set-up: build the stack, mkfs + mount, prefill. Returns the mounted stack
// with its profiler and metrics engine on when |traced|.
std::unique_ptr<StorageStack> SetUp(FsWorkload& w, bool traced, Report& report,
                                    double* setup_s, double* build_s) {
  const auto t = HostClock::now();
  auto stack = std::make_unique<StorageStack>(w.Config());
  if (traced) {
    stack->EnableProfiling();
    stack->EnableMetrics();
  }
  report.Check(stack->MkfsAndMount().ok(), std::string(w.name()) + ": mkfs+mount failed");
  *build_s = SecondsSince(t);
  w.Prefill(*stack, report);
  *setup_s = SecondsSince(t);
  return stack;
}

// One repetition: set up, run warm-up + window, tear down. With
// |check_durability|, capture what a power cut at the end leaves, remount it
// (recovery) and verify every acknowledged byte. The run is a deterministic
// function of the seed, so one check covers every repetition of it.
FsRep RunFsRep(FsWorkload& w, bool traced, bool check_durability, SpanLog& spans,
               Report& report) {
  FsRep rep;
  auto stack = SetUp(w, traced, report, &rep.setup_s, &rep.build_s);
  CriticalPathProfiler* profiler = stack->profiler();

  FsRun run;
  run.stack = stack.get();
  run.spans = &spans;
  run.rep = &rep;
  run.report = &report;
  const uint64_t t0 = stack->sim().now();
  run.window_start_ns = t0 + w.warmup_ns();
  run.end_ns = run.window_start_ns + w.window_ns();
  run.half_ns = run.window_start_ns + w.window_ns() / 2;
  rep.window_ns = w.window_ns();

  BlameFold blame(run.window_start_ns);
  if (profiler != nullptr) {
    profiler->AddRequestObserver(&blame);
  }
  MetricsSnapshot before;
  if (traced) {
    before = stack->metrics()->TakeSnapshot();
  }
  const LayerCounts counts0 = LayerCounts::Of(*stack);
  const uint64_t events0 = stack->sim().events_processed();
  const uint64_t switches0 = VoluntarySwitches();

  const double probe0_s = SpeedProbeSeconds();
  auto t = HostClock::now();
  {
    HostModel host(stack.get(), w.Host());
    w.AddClients(host, run);
    host.Run();
  }
  rep.run_s = SecondsSince(t);
  rep.probe_s = (probe0_s + SpeedProbeSeconds()) / 2;

  rep.os_switches = VoluntarySwitches() - switches0;
  rep.sim_events = stack->sim().events_processed() - events0;
  rep.counts = LayerCounts::Of(*stack).Minus(counts0);
  rep.fingerprint.Add(stack->sim().now());
  rep.fingerprint.Add(rep.sim_events);
  rep.fingerprint.Add(rep.ops_run);

  if (traced) {
    profiler->RemoveRequestObserver(&blame);
    const MetricsSnapshot delta = stack->metrics()->TakeSnapshot().DeltaSince(before);
    rep.bios = delta.Counter(std::string("event.") + TracePointName(TracePoint::kBioSubmit));
    rep.bio_flushes = delta.Counter(std::string("event.") + TracePointName(TracePoint::kBioFlush));
    rep.monitor_violations = stack->metrics()->TakeSnapshot().TotalViolations();
    rep.dropped_open_req = stack->tracer()->dropped_open_req();
    rep.blame_by_key = blame.by_key;
    rep.blame_requests = blame.requests;
    rep.blame_latency_ns = blame.latency_ns;
  }

  CrashImage image;
  if (check_durability) {
    image = stack->CaptureCrashImage();
  }
  t = HostClock::now();
  stack.reset();
  rep.teardown_s = SecondsSince(t);
  if (!check_durability) {
    return rep;
  }

  StorageStack post(w.Config(), image);
  t = HostClock::now();
  const uint64_t v0 = post.sim().now();
  report.Check(post.MountExisting().ok(), std::string(w.name()) + ": recovery mount failed");
  rep.recover_vns = post.sim().now() - v0;
  rep.recover_s = SecondsSince(t);
  post.Run([&] { w.Verify(post.fs(), report); });
  return rep;
}

// Virtual-time results of a repetition; equal across every repetition of a
// seed, traced or not.
struct VirtualResult {
  double kops = 0, first_half_kops = 0, second_half_kops = 0;
  double mean_ns = 0;
  uint64_t p50_ns = 0, p99_ns = 0;
  size_t samples = 0, beyond_p99 = 0;
  uint64_t fingerprint = 0;
};

VirtualResult Virtual(const FsRep& r) {
  VirtualResult v;
  const double window_s = static_cast<double>(r.window_ns) / 1e9;
  v.kops = static_cast<double>(r.ops_window) / window_s / 1e3;
  v.first_half_kops = static_cast<double>(r.ops_first_half) / (window_s / 2) / 1e3;
  v.second_half_kops = static_cast<double>(r.ops_second_half) / (window_s / 2) / 1e3;
  v.p50_ns = Percentile(r.fsync_ns, 0.50);
  v.p99_ns = Percentile(r.fsync_ns, 0.99);
  v.samples = r.fsync_ns.size();
  v.beyond_p99 = SamplesBeyond(r.fsync_ns.size(), 0.99);
  Fingerprint f = r.fingerprint;
  uint64_t total_ns = 0;
  for (uint64_t ns : r.fsync_ns) {
    f.Add(ns);
    total_ns += ns;
  }
  v.fingerprint = f.h;
  v.mean_ns = static_cast<double>(total_ns) / static_cast<double>(std::max<size_t>(v.samples, 1));
  return v;
}

// Repeats |rep| until |seconds| of host time are spent: at least |min_reps|
// times, and no more once the next repetition, expected to last as long as
// the previous one, would overrun.
template <typename Rep, typename F>
std::vector<Rep> Repeat(double seconds, size_t min_reps, F&& rep) {
  std::vector<Rep> reps;
  const auto start = HostClock::now();
  double last = 0;
  while (reps.size() < min_reps || SecondsSince(start) + last < seconds) {
    const auto t = HostClock::now();
    reps.push_back(rep());
    last = SecondsSince(t);
  }
  return reps;
}

const char* LayerOfKey(uint32_t packed) {
  const BlameKey key = BlameKey::FromPacked(packed);
  const TraceLayer layer = key.is_wait() ? WaitEdgeLayer(static_cast<WaitEdge>(key.index))
                                         : TracePointLayer(static_cast<TracePoint>(key.index));
  return TraceLayerName(layer);
}

void RunFsWorkload(FsWorkload& w, double seconds, bool traced, const std::string& span_path,
                   Report& report) {
  SpanLog no_spans(false);
  bool first = true;
  auto untraced = [&] {
    const bool check = std::exchange(first, false);
    return RunFsRep(w, false, check, no_spans, report);
  };

  // Untraced repetitions give every end-to-end metric. The first one is a
  // warm-up for host time (cold heap, first thread creations) and carries
  // the durability check; the host-time medians use the others. A traced
  // run spends about a third of its time on one traced repetition and the
  // rest on untraced ones, whose host time is the tracing-overhead baseline.
  const std::vector<FsRep> reps =
      Repeat<FsRep>(traced ? seconds * 0.6 : seconds, 4, untraced);
  const VirtualResult v = Virtual(reps.front());
  for (const FsRep& r : reps) {
    report.Check(Virtual(r).fingerprint == v.fingerprint,
                 std::string(w.name()) + ": virtual time differs between repeats of one seed");
  }

  std::vector<double> setup, run, speed_probe, build, teardown, ns_per_event, switches;
  for (const FsRep& r : std::vector<FsRep>(reps.begin() + 1, reps.end())) {
    setup.push_back(r.setup_s);
    run.push_back(r.run_s);
    speed_probe.push_back(r.probe_s);
    build.push_back(r.build_s);
    teardown.push_back(r.teardown_s);
    ns_per_event.push_back(r.run_s * 1e9 /
                           static_cast<double>(std::max<uint64_t>(r.sim_events, 1)));
    switches.push_back(static_cast<double>(r.os_switches));
  }
  // Set-up is short and noisy: top up its samples with set-up-only rounds.
  while (setup.size() < kSetupSamples) {
    double setup_s = 0, build_s = 0;
    SetUp(w, false, report, &setup_s, &build_s).reset();
    setup.push_back(setup_s);
    build.push_back(build_s);
  }
  const FsRep& r0 = reps.front();

  std::printf("workload %s: %zu repetitions, warm-up %.0f ms + window %.0f ms simulated\n",
              w.name(), reps.size(), static_cast<double>(w.warmup_ns()) / 1e6,
              static_cast<double>(w.window_ns()) / 1e6);
  PrintSamples("host_wall_s (measured)", run);
  PrintSamples("setup_s (measured)", setup);
  PrintSamples("speed probe", speed_probe);
  std::printf("  reference speed: measured seconds x %.4f\n",
              AtReferenceSpeed(1.0, Median(speed_probe)));
  std::printf("  steady state: first-half %.2f kops, second-half %.2f kops\n", v.first_half_kops,
              v.second_half_kops);
  std::printf("  fsync_mean_us %.3f us, fsync_p50_us %.3f us, fsync_p99_us %.3f us (%zu samples, "
              "%zu beyond p99)\n",
              v.mean_ns / 1e3, static_cast<double>(v.p50_ns) / 1e3,
              static_cast<double>(v.p99_ns) / 1e3, v.samples, v.beyond_p99);
  report.Check(v.beyond_p99 >= 10, std::string(w.name()) + ": fewer than 10 fsyncs beyond p99");

  report.E2e("setup_s", AtReferenceSpeed(Median(setup), Median(speed_probe)));
  report.E2e("host_wall_s", AtReferenceSpeed(Median(run), Median(speed_probe)));
  report.E2e("host_peak_rss_mb", PeakRssMb());
  report.E2e("vthroughput_kops", v.kops);
  report.E2e("vlat_mean_us", v.mean_ns / 1e3);
  if (!traced) {
    return;
  }

  // Traced repetition: profiler + metrics engine on, spans recorded.
  SpanLog spans(true);
  FsRep tr = RunFsRep(w, true, /*check_durability=*/false, spans, report);
  const VirtualResult tv = Virtual(tr);
  report.Check(tv.fingerprint == v.fingerprint,
               std::string(w.name()) + ": virtual time differs between traced and untraced runs");
  report.Check(tr.monitor_violations == 0,
               std::string(w.name()) + ": " + std::to_string(tr.monitor_violations) +
                   " online-monitor violations");

  // Blame: the profiler's per-request decomposition of every fsync begun in
  // the window must sum exactly to the fsync latency the benchmark timed.
  uint64_t blame_total = 0;
  std::map<std::string, uint64_t> by_layer;
  std::map<std::string, uint64_t> by_name;
  for (const auto& [key, ns] : tr.blame_by_key) {
    blame_total += ns;
    by_layer[LayerOfKey(key)] += ns;
    by_name[BlameKey::FromPacked(key).name()] += ns;
  }
  uint64_t fsync_total = 0;
  for (uint64_t ns : tr.fsync_ns) {
    fsync_total += ns;
  }
  report.Check(blame_total == fsync_total && tr.blame_latency_ns == fsync_total &&
                   tr.blame_requests == tr.fsync_ns.size(),
               std::string(w.name()) + ": blame " + std::to_string(blame_total) + " ns over " +
                   std::to_string(tr.blame_requests) + " fsyncs != timed " +
                   std::to_string(fsync_total) + " ns over " +
                   std::to_string(tr.fsync_ns.size()));
  std::printf("  blame: %" PRIu64 " ns over %" PRIu64 " fsyncs = timed fsync latency %" PRIu64
              " ns\n",
              blame_total, tr.blame_requests, fsync_total);
  for (const auto& [layer, ns] : by_layer) {
    std::printf("    %-8s %6.2f%%\n", layer.c_str(), Pct(ns, blame_total));
  }

  const uint64_t ops = tr.ops_run;
  auto layer_pct = [&](const char* layer) { return Pct(by_layer[layer], blame_total); };
  auto wait_pct = [&](WaitEdge e) { return Pct(by_name[WaitEdgeName(e)], blame_total); };
  auto call_p50 = [&](const char* name) {
    return static_cast<double>(Percentile(tr.call_ns[name], 0.5)) / 1e3;
  };

  report.Layer("vlat_p50_us", static_cast<double>(v.p50_ns) / 1e3);
  report.Layer("vlat_p99_us", static_cast<double>(v.p99_ns) / 1e3);
  report.Layer("sim.events", static_cast<double>(r0.sim_events));
  report.Layer("sim.host_ns_per_event", Median(ns_per_event));
  report.Layer("sim.os_switches", Median(switches));
  report.Layer("sim.switches_per_event",
               Median(switches) / static_cast<double>(std::max<uint64_t>(r0.sim_events, 1)));
  report.Layer("harness.build_ms", Median(build) * 1e3);
  report.Layer("harness.teardown_ms", Median(teardown) * 1e3);
  report.Layer("harness.recover_ms", r0.recover_s * 1e3);
  report.Layer("harness.recover_vus", static_cast<double>(r0.recover_vns) / 1e3);
  report.Layer("extfs.write_p50_us", call_p50("extfs.write"));
  report.Layer("extfs.create_p50_us", call_p50("extfs.create"));
  report.Layer("extfs.unlink_p50_us", call_p50("extfs.unlink"));
  report.Layer("extfs.lookup_p50_us", call_p50("extfs.lookup"));
  report.Layer("extfs.read_p50_us", call_p50("extfs.read"));
  report.Layer("vfs.blame_pct", layer_pct("vfs"));
  report.Layer("journal.blame_pct", layer_pct("journal"));
  report.Layer("wait.journal_handle_pct", wait_pct(WaitEdge::kJournalHandle));
  report.Layer("wait.commit_barrier_pct", wait_pct(WaitEdge::kCommitBarrier));
  report.Layer("wait.fsync_leader_pct", wait_pct(WaitEdge::kFsyncLeader));
  report.Layer("ccnvme.tx_per_op", PerOp(tr.counts.cc_tx, ops));
  report.Layer("ccnvme.blame_pct", layer_pct("ccnvme"));
  report.Layer("wait.tx_durable_pct", wait_pct(WaitEdge::kTxDurable));
  report.Layer("wait.doorbell_coalesce_pct", wait_pct(WaitEdge::kDoorbellCoalesce));
  report.Layer("pcie.mmio_writes_per_op", PerOp(tr.counts.mmio_writes, ops));
  report.Layer("pcie.mmio_reads_per_op", PerOp(tr.counts.mmio_reads, ops));
  report.Layer("pcie.dma_queue_ops_per_op", PerOp(tr.counts.dma_queue_ops, ops));
  report.Layer("pcie.irqs_per_op", PerOp(tr.counts.irqs, ops));
  report.Layer("pcie.blame_pct", layer_pct("pcie"));
  report.Layer("driver.blame_pct", layer_pct("driver"));
  report.Layer("wait.sq_full_pct", wait_pct(WaitEdge::kSqFull));
  report.Layer("nvme.commands_per_op", PerOp(tr.counts.nvme_commands, ops));
  report.Layer("ssd.writes_per_op", PerOp(tr.counts.ssd_writes, ops));
  report.Layer("ssd.flushes_per_op", PerOp(tr.counts.ssd_flushes, ops));
  report.Layer("nvme.blame_pct", layer_pct("nvme"));
  report.Layer("block.bios_per_op", PerOp(tr.bios, ops));
  report.Layer("block.flushes_per_op", PerOp(tr.bio_flushes, ops));
  report.Layer("block.blame_pct", layer_pct("block"));
  report.Layer("nvm.stores_per_op", PerOp(tr.counts.nvm_stores, ops));
  report.Layer("nvm.fences_per_op", PerOp(tr.counts.nvm_fences, ops));
  report.Layer("nvm.blame_pct", layer_pct("nvm"));
  report.Layer("wait.nvlog_drain_pct", wait_pct(WaitEdge::kNvlogDrain));
  report.Layer("host.probe_ms", Median(speed_probe) * 1e3);
  report.Layer("trace.host_overhead_pct",
               100.0 * (tr.run_s / tr.probe_s / (Median(run) / Median(speed_probe)) - 1.0));
  report.Layer("trace.dropped_open_req", static_cast<double>(tr.dropped_open_req));
  report.Layer("metrics.monitor_violations", static_cast<double>(tr.monitor_violations));

  std::printf("  benchmark spans (%zu), self time per name:\n", spans.size());
  for (const auto& [name, cs] : spans.SelfTimes()) {
    std::printf("    %-26s n=%-8" PRIu64 " self %.3f ms\n", name.c_str(), cs.first,
                static_cast<double>(cs.second) / 1e6);
  }
  if (!span_path.empty() && !spans.WriteTsv(span_path)) {
    std::printf("  warning: could not write spans to %s\n", span_path.c_str());
  }
}

// ---------------------------------------------------------------------------
// crash_explore: the explorer over registry workloads on the exhaustive
// suite's configurations.

StackConfig ExhaustiveMqfsConfig() {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = 2;
  cfg.fs.journal_blocks = 2048;
  return cfg;
}

StackConfig ExhaustiveNvlogConfig() {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.enable_ccnvme = false;
  cfg.fs.journal = JournalKind::kNvlog;
  cfg.nvm.size_bytes = 1 << 20;
  return cfg;
}

struct CrashCase {
  const char* workload;
  StackConfig config;
};

std::vector<CrashCase> CrashCases() {
  return {{"create_delete", ExhaustiveMqfsConfig()},
          {"generic_035", ExhaustiveMqfsConfig()},
          {"multicore_appends", ExhaustiveMqfsConfig()},
          {"nvlog_appends", ExhaustiveNvlogConfig()}};
}

// Hash of a recording's event stream and oracle facts.
uint64_t RecordingHash(const CrashRecording& rec) {
  Fingerprint f;
  for (const BioEvent& e : rec.events) {
    f.Add(static_cast<uint64_t>(e.op));
    f.Add(e.seq);
    f.Add(e.lba);
    f.Add(e.flags);
    f.Add(e.tx_id);
    f.Add((static_cast<uint64_t>(e.qid) << 16) | e.device);
    f.AddBytes(e.data);
  }
  for (const FactEvent& fe : rec.facts) {
    f.Add(fe.event_index);
    f.Add(fe.invalidate ? 1 : 0);
  }
  return f.h;
}

// One crash state the explorer visits: recording |rec|, plan |plan|.
struct StateRef {
  size_t rec = 0;
  CrashPlan plan;
};

// Every state ExploreRecording checks, in its order.
std::vector<StateRef> AllStates(const std::vector<CrashRecording>& recs,
                                const ExplorerOptions& opt) {
  std::vector<StateRef> out;
  for (size_t r = 0; r < recs.size(); ++r) {
    for (size_t boundary : ConsistencyBoundaries(recs[r].events)) {
      BoundaryPlans bp = PlansForBoundary(recs[r], boundary, opt);
      for (CrashPlan& plan : bp.plans) {
        out.push_back(StateRef{r, std::move(plan)});
      }
    }
  }
  return out;
}

// Recovery of one crash state: boot a stack on the state's image and mount
// it (journal replay), timed on both clocks.
struct RecoveryProbe {
  double build_state_s = 0;  // BuildCrashState
  double build_s = 0;        // StorageStack constructor
  double recover_s = 0;      // MountExisting
  double teardown_s = 0;     // ~StorageStack
  uint64_t recover_vns = 0;
  uint64_t events = 0;
  uint64_t violations = 0;
  bool mounted = false;
};

RecoveryProbe ProbeRecovery(const CrashRecording& rec, const CrashPlan& plan, uint64_t seed,
                            bool traced) {
  RecoveryProbe p;
  auto t = HostClock::now();
  const CrashImage image = BuildCrashState(rec, plan, seed);
  p.build_state_s = SecondsSince(t);
  t = HostClock::now();
  auto stack = std::make_unique<StorageStack>(rec.config, image);
  if (traced) {
    stack->EnableMetrics();
  }
  p.build_s = SecondsSince(t);
  t = HostClock::now();
  const uint64_t v0 = stack->sim().now();
  p.mounted = stack->MountExisting().ok();
  p.recover_vns = stack->sim().now() - v0;
  p.recover_s = SecondsSince(t);
  p.events = stack->sim().events_processed();
  if (traced) {
    p.violations = stack->metrics()->TakeSnapshot().TotalViolations();
  }
  t = HostClock::now();
  stack.reset();
  p.teardown_s = SecondsSince(t);
  return p;
}

void RunCrashExplore(uint64_t seed, double seconds, bool traced, Report& report) {
  const std::vector<CrashCase> cases = CrashCases();
  std::vector<CrashWorkload> workloads;
  for (const CrashCase& c : cases) {
    Result<CrashWorkload> wl = FindCrashWorkload(c.workload);
    report.Check(wl.ok(), std::string("registry workload ") + c.workload);
    if (!wl.ok()) {
      return;
    }
    workloads.push_back(*wl);
  }
  // One worker, on the one CPU the process is pinned to. Every checked
  // state is a short simulation whose actors hand off to one another; on
  // a shared 4-vCPU machine a serial explorer pinned to one CPU took
  // 10-12 s per exploration, and an unpinned pool of 3 took 9-17 s.
  ExplorerOptions opt;
  opt.seed = seed;
  opt.threads = 1;

  // Set-up is recording every workload. Repeated for a median; recording
  // is deterministic, so repeats must produce identical event streams. The
  // last recordings are explored.
  std::vector<CrashRecording> recs;
  std::vector<double> setup;
  for (size_t i = 0; i < kSetupSamples; ++i) {
    const auto t = HostClock::now();
    std::vector<CrashRecording> next;
    for (size_t c = 0; c < cases.size(); ++c) {
      next.push_back(RecordWorkload(cases[c].config, workloads[c]));
    }
    setup.push_back(SecondsSince(t));
    for (size_t c = 0; c < recs.size(); ++c) {
      report.Check(RecordingHash(recs[c]) == RecordingHash(next[c]),
                   std::string(cases[c].workload) + ": recording differs between repeats");
    }
    recs = std::move(next);
  }

  // Measured phase: explore every recording; repeated for a median. Each
  // checked state is one attempted operation and each violation one failed
  // operation.
  struct ExploreRep {
    double wall_s = 0;
    double probe_s = 0;  // mean of the speed probes around its explorations
    uint64_t states = 0, boundaries = 0, sampled = 0, violations = 0;
  };
  // A speed probe runs before each recording's exploration and after the
  // last one: this phase repeats only a few times per run, so it takes
  // more probes per repetition than the file-system workloads do.
  auto explore = [&] {
    ExploreRep rep;
    double probes_s = 0;
    for (size_t c = 0; c < recs.size(); ++c) {
      probes_s += SpeedProbeSeconds();
      opt.workload_name = cases[c].workload;
      const auto t = HostClock::now();
      const ExplorerReport r = ExploreRecording(recs[c], opt);
      rep.wall_s += SecondsSince(t);
      rep.states += r.states_checked;
      rep.boundaries += r.boundaries;
      rep.sampled += r.boundaries_sampled;
      rep.violations += r.total_failures;
      if (!r.AllPassed()) {
        std::printf("%s explorer: %s", cases[c].workload, r.Summary().c_str());
      }
    }
    probes_s += SpeedProbeSeconds();
    rep.probe_s = probes_s / static_cast<double>(recs.size() + 1);
    return rep;
  };
  const std::vector<ExploreRep> reps =
      traced ? std::vector<ExploreRep>{explore()} : Repeat<ExploreRep>(seconds * 0.75, 2, explore);
  std::vector<double> wall, speed_probe, rate;
  for (const ExploreRep& r : reps) {
    report.attempted += r.states;
    report.failed += r.violations;
    report.Check(r.states == reps.front().states && r.violations == reps.front().violations,
                 "crash_explore: explorer verdicts differ between repeats of one seed");
    wall.push_back(r.wall_s);
    speed_probe.push_back(r.probe_s);
    rate.push_back(static_cast<double>(r.states) / r.wall_s);
  }
  const ExploreRep& r0 = reps.front();
  PrintSamples("host_wall_s (measured)", wall);
  PrintSamples("setup_s (measured)", setup);
  PrintSamples("speed probe", speed_probe);
  std::printf("  reference speed: measured seconds x %.4f\n",
              AtReferenceSpeed(1.0, Median(speed_probe)));
  std::printf("workload crash_explore: %zu repetitions, %" PRIu64 " states, %" PRIu64
              " boundaries (%" PRIu64 " sampled), %" PRIu64 " violations\n",
              reps.size(), r0.states, r0.boundaries, r0.sampled, r0.violations);
  std::printf("  explore_states_per_s %.3f 1/s\n", Median(rate));

  // Recovery probe (outside host_wall_s): every explored state is booted
  // and mounted once more, timing the recovery on the virtual clock. A
  // traced run probes each state twice, untraced then with the metrics
  // engine and its invariant monitors on, and compares the two.
  const std::vector<StateRef> states = AllStates(recs, opt);
  report.Check(states.size() == r0.states,
               "crash_explore: state enumeration disagrees with the explorer");
  std::vector<RecoveryProbe> probes(states.size()), traced_probes(states.size());
  const uint64_t switches0 = VoluntarySwitches();
  for (size_t i = 0; i < states.size(); ++i) {
    const CrashRecording& rec = recs[states[i].rec];
    probes[i] = ProbeRecovery(rec, states[i].plan, seed, /*traced=*/false);
    if (traced) {
      traced_probes[i] = ProbeRecovery(rec, states[i].plan, seed, /*traced=*/true);
    }
  }
  const uint64_t probe_switches = VoluntarySwitches() - switches0;
  std::vector<uint64_t> recover_vns;
  uint64_t recover_total_vns = 0;
  for (const RecoveryProbe& p : probes) {
    report.Check(p.mounted, "crash_explore: recovery mount failed");
    recover_vns.push_back(p.recover_vns);
    recover_total_vns += p.recover_vns;
  }
  const uint64_t p99_ns = Percentile(recover_vns, 0.99);
  std::printf("  recovery p50 %.3f us, p99 %.3f us (%zu samples, %zu beyond p99)\n",
              static_cast<double>(Percentile(recover_vns, 0.5)) / 1e3,
              static_cast<double>(p99_ns) / 1e3, recover_vns.size(),
              SamplesBeyond(recover_vns.size(), 0.99));

  report.E2e("setup_s", AtReferenceSpeed(Median(setup), Median(speed_probe)));
  report.E2e("host_wall_s", AtReferenceSpeed(Median(wall), Median(speed_probe)));
  report.E2e("host_peak_rss_mb", PeakRssMb());
  report.E2e("vlat_mean_us", static_cast<double>(recover_total_vns) /
                                 static_cast<double>(std::max<size_t>(recover_vns.size(), 1)) /
                                 1e3);
  report.E2e("vthroughput_kops",
             static_cast<double>(states.size()) /
                 (static_cast<double>(std::max<uint64_t>(recover_total_vns, 1)) / 1e9) / 1e3);
  if (!traced) {
    return;
  }

  // Traced: the explorer's per-plan loop unrolled, timing CheckCrashState
  // per plan (the probes timed BuildCrashState); its verdicts must match
  // the explorer's.
  std::vector<double> check_state_s(states.size());
  std::vector<char> verdict_ok(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    const auto t = HostClock::now();
    verdict_ok[i] = CheckCrashState(recs[states[i].rec], states[i].plan, seed).empty();
    check_state_s[i] = SecondsSince(t);
  }
  const uint64_t verdict_failures =
      static_cast<uint64_t>(std::count(verdict_ok.begin(), verdict_ok.end(), 0));
  report.Check(verdict_failures == r0.violations,
               "crash_explore: per-plan verdicts disagree with the explorer");

  uint64_t events = 0, violations = 0;
  double recover_s = 0, traced_recover_s = 0;
  std::vector<double> build_state_s, build_ms, teardown_ms, recover_ms;
  for (size_t i = 0; i < states.size(); ++i) {
    const RecoveryProbe& p = probes[i];
    build_state_s.push_back(p.build_state_s);
    report.Check(traced_probes[i].recover_vns == p.recover_vns,
                 "crash_explore: recovery virtual time differs between traced and untraced");
    events += p.events;
    violations += traced_probes[i].violations;
    recover_s += p.recover_s;
    traced_recover_s += traced_probes[i].recover_s;
    build_ms.push_back(p.build_s * 1e3);
    teardown_ms.push_back(p.teardown_s * 1e3);
    recover_ms.push_back(p.recover_s * 1e3);
  }
  report.Check(violations == 0,
               "crash_explore: " + std::to_string(violations) + " online-monitor violations");

  report.Layer("vlat_p50_us", static_cast<double>(Percentile(recover_vns, 0.5)) / 1e3);
  report.Layer("vlat_p99_us", static_cast<double>(p99_ns) / 1e3);
  report.Layer("sim.events", static_cast<double>(events));
  report.Layer("sim.host_ns_per_event", recover_s * 1e9 / static_cast<double>(events));
  report.Layer("sim.os_switches", static_cast<double>(probe_switches));
  // The switch count spans both probes, whose event counts are equal.
  report.Layer("sim.switches_per_event",
               static_cast<double>(probe_switches) / static_cast<double>(2 * events));
  report.Layer("harness.build_ms", Median(build_ms));
  report.Layer("harness.teardown_ms", Median(teardown_ms));
  report.Layer("harness.recover_ms", Median(recover_ms));
  report.Layer("harness.recover_vus", static_cast<double>(Percentile(recover_vns, 0.5)) / 1e3);
  report.Layer("crashtest.states", static_cast<double>(r0.states));
  report.Layer("crashtest.boundaries", static_cast<double>(r0.boundaries));
  report.Layer("crashtest.sampled_boundaries", static_cast<double>(r0.sampled));
  report.Layer("crashtest.record_ms", Median(setup) * 1e3);
  report.Layer("crashtest.build_state_ms", Mean(build_state_s) * 1e3);
  report.Layer("crashtest.check_state_ms", Mean(check_state_s) * 1e3);
  report.Layer("host.probe_ms", Median(speed_probe) * 1e3);
  report.Layer("trace.host_overhead_pct", 100.0 * (traced_recover_s / recover_s - 1.0));
  report.Layer("metrics.monitor_violations", static_cast<double>(violations));
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<mqfs_fsync|mqfs_varmail|nvlog_varmail|crash_explore> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <file>]\n");
    return 2;
  }
  const std::vector<int> cpus = AllowedCpus();
  Report report;
  std::string pinned = "none";
  std::unique_ptr<FsWorkload> fs_workload;
  if (args.workload == "mqfs_fsync") {
    fs_workload = std::make_unique<MqfsFsync>(args.seed);
  } else if (args.workload == "mqfs_varmail") {
    fs_workload = std::make_unique<Varmail>(args.seed, JournalKind::kMultiQueue);
  } else if (args.workload == "nvlog_varmail") {
    fs_workload = std::make_unique<Varmail>(args.seed, JournalKind::kNvlog);
  } else if (args.workload != "crash_explore") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // One actor runs at a time, so a simulation gains nothing from a second
  // CPU and loses much to cross-CPU handoffs: pin it to one. Every
  // workload is a simulation or, for crash_explore, a series of them.
  const int sim_cpu = SimulationCpu(cpus);
  if (PinToCpu(sim_cpu)) {
    pinned = std::to_string(sim_cpu);
  }
  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d build=%s nproc=%zu "
              "cpuset=%s pinned=%s\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
              PERFBENCH_BUILD_TYPE, cpus.size(), CpuList(cpus).c_str(), pinned.c_str());

  if (fs_workload != nullptr) {
    RunFsWorkload(*fs_workload, args.seconds, args.trace, args.spans, report);
  } else {
    RunCrashExplore(args.seed, args.seconds, args.trace, report);
  }

  std::printf("failed_op_ratio %.9g (%" PRIu64 " failed / %" PRIu64 " attempted)\n",
              PerOp(report.failed, std::max<uint64_t>(report.attempted, 1)), report.failed,
              report.attempted);
  for (const std::string& f : report.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  if (args.trace) {
    PrintResult(report, kPerLayer, report.per_layer);
  } else {
    PrintResult(report, kEndToEnd, report.end_to_end);
  }
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ccnvme

int main(int argc, char** argv) { return ccnvme::Main(argc, argv); }
