#include "src/crashtest/replay_artifact.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "src/crashtest/crash_workloads.h"

namespace ccnvme {
namespace {

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

const char* JournalKindName(JournalKind k) {
  switch (k) {
    case JournalKind::kNone:
      return "none";
    case JournalKind::kClassic:
      return "classic";
    case JournalKind::kHorae:
      return "horae";
    case JournalKind::kCcNvmeJbd2:
      return "ccnvme_jbd2";
    case JournalKind::kMultiQueue:
      return "multi_queue";
    case JournalKind::kNvlog:
      return "nvlog";
  }
  return "?";
}

Result<JournalKind> ParseJournalKind(const std::string& s) {
  for (JournalKind k : {JournalKind::kNone, JournalKind::kClassic, JournalKind::kHorae,
                        JournalKind::kCcNvmeJbd2, JournalKind::kMultiQueue,
                        JournalKind::kNvlog}) {
    if (s == JournalKindName(k)) {
      return k;
    }
  }
  return InvalidArgument("unknown journal kind: " + s);
}

Result<SsdConfig> SsdByName(const std::string& name) {
  for (const SsdConfig& c :
       {SsdConfig::Intel750(), SsdConfig::Optane905P(), SsdConfig::OptaneP5800X()}) {
    if (c.name == name) {
      return c;
    }
  }
  return InvalidArgument("unknown SSD preset: " + name);
}

// --- Targeted readers for the flat artifact schema ------------------------

Result<size_t> ValueStart(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  size_t p = json.find(needle);
  if (p == std::string::npos) {
    return NotFound("artifact missing key: " + key);
  }
  p = json.find(':', p + needle.size());
  if (p == std::string::npos) {
    return InvalidArgument("artifact key without value: " + key);
  }
  ++p;
  while (p < json.size() && std::isspace(static_cast<unsigned char>(json[p])) != 0) {
    ++p;
  }
  return p;
}

Result<std::string> GetString(const std::string& json, const std::string& key) {
  CCNVME_ASSIGN_OR_RETURN(size_t p, ValueStart(json, key));
  if (p >= json.size() || json[p] != '"') {
    return InvalidArgument("expected string for key: " + key);
  }
  std::string out;
  for (++p; p < json.size(); ++p) {
    if (json[p] == '\\' && p + 1 < json.size()) {
      out.push_back(json[++p]);
    } else if (json[p] == '"') {
      return out;
    } else {
      out.push_back(json[p]);
    }
  }
  return InvalidArgument("unterminated string for key: " + key);
}

Result<uint64_t> GetUInt(const std::string& json, const std::string& key) {
  CCNVME_ASSIGN_OR_RETURN(size_t p, ValueStart(json, key));
  size_t end = p;
  while (end < json.size() && std::isdigit(static_cast<unsigned char>(json[end])) != 0) {
    ++end;
  }
  if (end == p) {
    return InvalidArgument("expected number for key: " + key);
  }
  return std::stoull(json.substr(p, end - p));
}

Result<bool> GetBool(const std::string& json, const std::string& key) {
  CCNVME_ASSIGN_OR_RETURN(size_t p, ValueStart(json, key));
  if (json.compare(p, 4, "true") == 0) {
    return true;
  }
  if (json.compare(p, 5, "false") == 0) {
    return false;
  }
  return InvalidArgument("expected bool for key: " + key);
}

Result<std::vector<uint8_t>> GetByteArray(const std::string& json, const std::string& key) {
  CCNVME_ASSIGN_OR_RETURN(size_t p, ValueStart(json, key));
  if (p >= json.size() || json[p] != '[') {
    return InvalidArgument("expected array for key: " + key);
  }
  std::vector<uint8_t> out;
  uint32_t value = 0;
  bool in_number = false;
  for (++p; p < json.size(); ++p) {
    const char c = json[p];
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      value = value * 10 + static_cast<uint32_t>(c - '0');
      in_number = true;
    } else if (c == ',' || c == ']') {
      if (in_number) {
        if (value > 255) {
          return InvalidArgument("choice out of range in key: " + key);
        }
        out.push_back(static_cast<uint8_t>(value));
        value = 0;
        in_number = false;
      }
      if (c == ']') {
        return out;
      }
    } else if (std::isspace(static_cast<unsigned char>(c)) == 0) {
      return InvalidArgument("bad array element for key: " + key);
    }
  }
  return InvalidArgument("unterminated array for key: " + key);
}

Result<std::vector<std::string>> GetStringArray(const std::string& json,
                                                const std::string& key) {
  CCNVME_ASSIGN_OR_RETURN(size_t p, ValueStart(json, key));
  if (p >= json.size() || json[p] != '[') {
    return InvalidArgument("expected array for key: " + key);
  }
  std::vector<std::string> out;
  for (++p; p < json.size(); ++p) {
    const char c = json[p];
    if (c == ']') {
      return out;
    }
    if (c == '"') {
      std::string s;
      for (++p; p < json.size() && json[p] != '"'; ++p) {
        if (json[p] == '\\' && p + 1 < json.size()) {
          ++p;
        }
        s.push_back(json[p]);
      }
      if (p >= json.size()) {
        return InvalidArgument("unterminated string in array for key: " + key);
      }
      out.push_back(std::move(s));
    } else if (c != ',' && std::isspace(static_cast<unsigned char>(c)) == 0) {
      return InvalidArgument("bad array element for key: " + key);
    }
  }
  return InvalidArgument("unterminated array for key: " + key);
}

}  // namespace

std::string ReplayArtifact::ToJson() const {
  std::ostringstream out;
  auto b = [](bool v) { return v ? "true" : "false"; };
  out << "{\n";
  out << "  \"version\": 1,\n";
  out << "  \"workload\": \"" << EscapeJson(workload) << "\",\n";
  out << "  \"ssd\": \"" << EscapeJson(config.ssd.name) << "\",\n";
  out << "  \"num_queues\": " << config.num_queues << ",\n";
  out << "  \"queue_depth\": " << config.queue_depth << ",\n";
  out << "  \"enable_ccnvme\": " << b(config.enable_ccnvme) << ",\n";
  out << "  \"tx_aware_mmio\": " << b(config.cc_options.tx_aware_mmio) << ",\n";
  out << "  \"in_order_completion\": " << b(config.cc_options.in_order_completion) << ",\n";
  out << "  \"fs_total_blocks\": " << config.fs_total_blocks << ",\n";
  out << "  \"journal\": \"" << JournalKindName(config.fs.journal) << "\",\n";
  out << "  \"journal_areas\": " << config.fs.journal_areas << ",\n";
  out << "  \"journal_blocks\": " << config.fs.journal_blocks << ",\n";
  out << "  \"data_journaling\": " << b(config.fs.data_journaling) << ",\n";
  out << "  \"metadata_shadow_paging\": " << b(config.fs.metadata_shadow_paging) << ",\n";
  out << "  \"test_skip_psq_window_scan\": " << b(config.fs.test_skip_psq_window_scan) << ",\n";
  out << "  \"test_skip_cross_core_order\": " << b(config.fs.test_skip_cross_core_order)
      << ",\n";
  out << "  \"test_skip_nvlog_fence\": " << b(config.fs.test_skip_nvlog_fence) << ",\n";
  out << "  \"nvm_enabled\": " << b(config.nvm.enabled) << ",\n";
  out << "  \"nvm_size_bytes\": " << config.nvm.size_bytes << ",\n";
  out << "  \"num_devices\": " << config.num_devices << ",\n";
  out << "  \"volume_kind\": \""
      << (config.volume.kind == VolumeKind::kMirror ? "mirror" : "stripe") << "\",\n";
  out << "  \"volume_chunk_blocks\": " << config.volume.chunk_blocks << ",\n";
  out << "  \"test_skip_volume_commit_gate\": " << b(config.volume.test_skip_volume_commit_gate)
      << ",\n";
  out << "  \"kv_enabled\": " << b(config.kv.enabled) << ",\n";
  out << "  \"kv_dir_slots\": " << config.kv.dir_slots << ",\n";
  out << "  \"kv_shadow_slots\": " << config.kv.shadow_slots << ",\n";
  out << "  \"kv_flash_pages\": " << config.kv.flash_pages << ",\n";
  out << "  \"kv_pages_per_block\": " << config.kv.pages_per_block << ",\n";
  out << "  \"kv_total_lpns\": " << config.kv.total_lpns << ",\n";
  out << "  \"kv_map_cache_segments\": " << config.kv.map_cache_segments << ",\n";
  out << "  \"kv_gc_free_blocks_low\": " << config.kv.gc_free_blocks_low << ",\n";
  out << "  \"kv_test_skip_ftl_shadow_commit\": " << b(config.kv.test_skip_ftl_shadow_commit)
      << ",\n";
  out << "  \"torn_seed\": " << torn_seed << ",\n";
  out << "  \"crash_index\": " << plan.crash_index << ",\n";
  out << "  \"choices\": [";
  for (size_t i = 0; i < plan.choices.size(); ++i) {
    out << (i == 0 ? "" : ",") << static_cast<uint32_t>(plan.choices[i]);
  }
  out << "],\n";
  out << "  \"failure\": \"" << EscapeJson(failure) << "\",\n";
  out << "  \"flight_recorder\": [";
  for (size_t i = 0; i < flight_recorder.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\n    \"" << EscapeJson(flight_recorder[i]) << "\"";
  }
  out << (flight_recorder.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

Result<ReplayArtifact> ReplayArtifact::FromJson(const std::string& json) {
  ReplayArtifact art;
  CCNVME_ASSIGN_OR_RETURN(uint64_t version, GetUInt(json, "version"));
  if (version != 1) {
    return InvalidArgument("unsupported artifact version: " + std::to_string(version));
  }
  CCNVME_ASSIGN_OR_RETURN(art.workload, GetString(json, "workload"));
  CCNVME_ASSIGN_OR_RETURN(std::string ssd_name, GetString(json, "ssd"));
  CCNVME_ASSIGN_OR_RETURN(art.config.ssd, SsdByName(ssd_name));
  CCNVME_ASSIGN_OR_RETURN(uint64_t num_queues, GetUInt(json, "num_queues"));
  art.config.num_queues = static_cast<uint16_t>(num_queues);
  CCNVME_ASSIGN_OR_RETURN(uint64_t queue_depth, GetUInt(json, "queue_depth"));
  art.config.queue_depth = static_cast<uint16_t>(queue_depth);
  CCNVME_ASSIGN_OR_RETURN(art.config.enable_ccnvme, GetBool(json, "enable_ccnvme"));
  CCNVME_ASSIGN_OR_RETURN(art.config.cc_options.tx_aware_mmio, GetBool(json, "tx_aware_mmio"));
  CCNVME_ASSIGN_OR_RETURN(art.config.cc_options.in_order_completion,
                          GetBool(json, "in_order_completion"));
  CCNVME_ASSIGN_OR_RETURN(art.config.fs_total_blocks, GetUInt(json, "fs_total_blocks"));
  CCNVME_ASSIGN_OR_RETURN(std::string journal, GetString(json, "journal"));
  CCNVME_ASSIGN_OR_RETURN(art.config.fs.journal, ParseJournalKind(journal));
  CCNVME_ASSIGN_OR_RETURN(uint64_t areas, GetUInt(json, "journal_areas"));
  art.config.fs.journal_areas = static_cast<uint32_t>(areas);
  CCNVME_ASSIGN_OR_RETURN(art.config.fs.journal_blocks, GetUInt(json, "journal_blocks"));
  CCNVME_ASSIGN_OR_RETURN(art.config.fs.data_journaling, GetBool(json, "data_journaling"));
  CCNVME_ASSIGN_OR_RETURN(art.config.fs.metadata_shadow_paging,
                          GetBool(json, "metadata_shadow_paging"));
  CCNVME_ASSIGN_OR_RETURN(art.config.fs.test_skip_psq_window_scan,
                          GetBool(json, "test_skip_psq_window_scan"));
  // Optional (older artifacts predate cross-core fsync aggregation).
  if (Result<bool> cc = GetBool(json, "test_skip_cross_core_order"); cc.ok()) {
    art.config.fs.test_skip_cross_core_order = *cc;
  }
  // Optional NVM tier (older artifacts predate the NVLog architecture).
  if (Result<bool> nf = GetBool(json, "test_skip_nvlog_fence"); nf.ok()) {
    art.config.fs.test_skip_nvlog_fence = *nf;
  }
  if (Result<bool> ne = GetBool(json, "nvm_enabled"); ne.ok()) {
    art.config.nvm.enabled = *ne;
  }
  if (Result<uint64_t> ns = GetUInt(json, "nvm_size_bytes"); ns.ok()) {
    art.config.nvm.size_bytes = *ns;
  }
  if (art.config.fs.journal == JournalKind::kNvlog) {
    art.config.nvm.enabled = true;
  }
  // Optional volume geometry (older artifacts predate multi-device volumes).
  if (Result<uint64_t> nd = GetUInt(json, "num_devices"); nd.ok()) {
    art.config.num_devices = static_cast<uint16_t>(*nd);
  }
  if (Result<std::string> vk = GetString(json, "volume_kind"); vk.ok()) {
    if (*vk != "stripe" && *vk != "mirror") {
      return InvalidArgument("unknown volume kind: " + *vk);
    }
    art.config.volume.kind = *vk == "mirror" ? VolumeKind::kMirror : VolumeKind::kStripe;
  }
  if (Result<uint64_t> cb = GetUInt(json, "volume_chunk_blocks"); cb.ok()) {
    art.config.volume.chunk_blocks = static_cast<uint32_t>(*cb);
  }
  if (Result<bool> gate = GetBool(json, "test_skip_volume_commit_gate"); gate.ok()) {
    art.config.volume.test_skip_volume_commit_gate = *gate;
  }
  // Optional KV-native path (older artifacts predate the KV-SSD).
  if (Result<bool> ke = GetBool(json, "kv_enabled"); ke.ok()) {
    art.config.kv.enabled = *ke;
  }
  if (Result<uint64_t> v = GetUInt(json, "kv_dir_slots"); v.ok()) {
    art.config.kv.dir_slots = static_cast<uint32_t>(*v);
  }
  if (Result<uint64_t> v = GetUInt(json, "kv_shadow_slots"); v.ok()) {
    art.config.kv.shadow_slots = static_cast<uint32_t>(*v);
  }
  if (Result<uint64_t> v = GetUInt(json, "kv_flash_pages"); v.ok()) {
    art.config.kv.flash_pages = *v;
  }
  if (Result<uint64_t> v = GetUInt(json, "kv_pages_per_block"); v.ok()) {
    art.config.kv.pages_per_block = static_cast<uint32_t>(*v);
  }
  if (Result<uint64_t> v = GetUInt(json, "kv_total_lpns"); v.ok()) {
    art.config.kv.total_lpns = *v;
  }
  if (Result<uint64_t> v = GetUInt(json, "kv_map_cache_segments"); v.ok()) {
    art.config.kv.map_cache_segments = static_cast<uint32_t>(*v);
  }
  if (Result<uint64_t> v = GetUInt(json, "kv_gc_free_blocks_low"); v.ok()) {
    art.config.kv.gc_free_blocks_low = static_cast<uint32_t>(*v);
  }
  if (Result<bool> v = GetBool(json, "kv_test_skip_ftl_shadow_commit"); v.ok()) {
    art.config.kv.test_skip_ftl_shadow_commit = *v;
  }
  CCNVME_ASSIGN_OR_RETURN(art.torn_seed, GetUInt(json, "torn_seed"));
  CCNVME_ASSIGN_OR_RETURN(art.plan.crash_index, GetUInt(json, "crash_index"));
  CCNVME_ASSIGN_OR_RETURN(art.plan.choices, GetByteArray(json, "choices"));
  CCNVME_ASSIGN_OR_RETURN(art.failure, GetString(json, "failure"));
  // Optional (older artifacts predate the flight recorder).
  Result<std::vector<std::string>> tail = GetStringArray(json, "flight_recorder");
  if (tail.ok()) {
    art.flight_recorder = *std::move(tail);
  }
  return art;
}

Status ReplayArtifact::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return InvalidArgument("cannot open artifact file for writing: " + path);
  }
  out << ToJson();
  out.close();
  if (!out) {
    return InvalidArgument("failed writing artifact file: " + path);
  }
  return OkStatus();
}

Result<ReplayArtifact> ReplayArtifact::ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFound("cannot open artifact file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return FromJson(buf.str());
}

Result<std::string> ReplayArtifactCheck(const ReplayArtifact& artifact,
                                        std::string* metrics_json) {
  CCNVME_ASSIGN_OR_RETURN(CrashWorkload workload, FindCrashWorkload(artifact.workload));
  const CrashRecording rec = RecordWorkload(artifact.config, workload);
  return CheckCrashState(rec, artifact.plan, artifact.torn_seed, metrics_json);
}

}  // namespace ccnvme
