// mkfs_ccnvme: format a disk image with the ccNVMe file system.
//
//   mkfs_ccnvme <image-path> [--blocks N] [--journal-areas N]
//               [--journal-blocks N] [--devices N] [--mirror | --chunk N]
//               [--journal mqfs|nvlog] [--kv]
//
// The image can then be inspected with fsck_ccnvme / journal_inspect or
// mounted by any program using LoadImage + StorageStack. With --kv the
// device is factory-formatted as a KV-SSD instead (no file system): the
// image carries the KV superblock, directory, shadow ring and GTD that
// ftl_inspect dumps.
#include <cstdio>
#include <cstring>

#include "src/harness/image_file.h"

using namespace ccnvme;

int main(int argc, char** argv) {
  // The image path comes first; a leading dash is a flag, never a path.
  if (argc < 2 || argv[1][0] == '-') {
    const bool help = argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                                    std::strcmp(argv[1], "-h") == 0);
    std::fprintf(help ? stdout : stderr,
                 "usage: %s <image-path> [--blocks N] [--journal-areas N] "
                 "[--journal-blocks N] [--devices N] [--mirror | --chunk N] "
                 "[--journal mqfs|nvlog] [--kv]\n",
                 argv[0]);
    return help ? 0 : 2;
  }
  const std::string path = argv[1];
  StackConfig cfg;
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = 4096;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--blocks") == 0 && i + 1 < argc) {
      cfg.fs_total_blocks = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--journal-areas") == 0 && i + 1 < argc) {
      cfg.fs.journal_areas = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
      cfg.num_queues = static_cast<uint16_t>(cfg.fs.journal_areas);
    } else if (std::strcmp(argv[i], "--journal-blocks") == 0 && i + 1 < argc) {
      cfg.fs.journal_blocks = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
      cfg.num_devices = static_cast<uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--chunk") == 0 && i + 1 < argc) {
      cfg.volume.chunk_blocks = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--mirror") == 0) {
      cfg.volume.kind = VolumeKind::kMirror;
    } else if (std::strcmp(argv[i], "--kv") == 0) {
      // KV-native device: no file system at all; KvFormat writes the
      // superblock + empty directory/shadow/GTD the tools parse.
      cfg.enable_ccnvme = false;
      cfg.kv.enabled = true;
    } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      const char* kind = argv[++i];
      if (std::strcmp(kind, "nvlog") == 0) {
        // extfs over the NVM write-ahead log: the image gains an NVM tier
        // (formatted ring) that nvlog_inspect can dump.
        cfg.enable_ccnvme = false;
        cfg.fs.journal = JournalKind::kNvlog;
        cfg.fs.journal_areas = 1;
      } else if (std::strcmp(kind, "mqfs") != 0) {
        std::fprintf(stderr, "unknown --journal kind %s\n", kind);
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return 2;
    }
  }

  StorageStack stack(cfg);
  if (cfg.kv.enabled) {
    Status st = stack.KvFormat();
    if (!st.ok()) {
      std::fprintf(stderr, "kv format failed: %s\n", st.ToString().c_str());
      return 1;
    }
    st = SaveImage(stack.CaptureCrashImage(), path);
    if (!st.ok()) {
      std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf(
        "formatted %s as a KV-SSD: %u dir slots, %u shadow slots, %llu flash "
        "pages (%llu lpns)\n",
        path.c_str(), cfg.kv.dir_slots, cfg.kv.shadow_slots,
        static_cast<unsigned long long>(cfg.kv.flash_pages),
        static_cast<unsigned long long>(cfg.kv.total_lpns));
    return 0;
  }
  Status st = stack.MkfsAndMount();
  if (!st.ok()) {
    std::fprintf(stderr, "mkfs failed: %s\n", st.ToString().c_str());
    return 1;
  }
  st = stack.Unmount();
  if (!st.ok()) {
    std::fprintf(stderr, "unmount failed: %s\n", st.ToString().c_str());
    return 1;
  }
  st = SaveImage(stack.CaptureCrashImage(), path);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf(
      "formatted %s: %llu blocks (%.1f MB), %u journal area(s) x %llu blocks, "
      "%u device(s)\n",
      path.c_str(), static_cast<unsigned long long>(cfg.fs_total_blocks),
      cfg.fs_total_blocks * kFsBlockSize / 1e6, cfg.fs.journal_areas,
      static_cast<unsigned long long>(cfg.fs.journal_blocks / cfg.fs.journal_areas),
      cfg.num_devices);
  return 0;
}
