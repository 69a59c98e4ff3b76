// JBD2-focused tests: group commit batching, ordering-point traffic
// (classic PREFLUSH/FUA vs. Horae), checkpoint-driven log wraparound,
// revocation on block reuse, the JBD2-over-ccNVMe commit mode, and the
// recovery write-back against a sequential replay of every journaled copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "src/harness/stack.h"
#include "src/jbd2/jbd2.h"
#include "src/jbd2/journal_area.h"

namespace ccnvme {
namespace {

StackConfig Config(JournalKind kind, uint64_t journal_blocks = 2048,
                   uint16_t queues = 1) {
  StackConfig cfg;
  cfg.num_queues = queues;
  cfg.enable_ccnvme = kind == JournalKind::kMultiQueue || kind == JournalKind::kCcNvmeJbd2;
  cfg.fs.journal = kind;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = journal_blocks;
  return cfg;
}

Jbd2Journal* GetJbd2(ExtFs& fs) { return dynamic_cast<Jbd2Journal*>(fs.journal()); }

TEST(Jbd2Test, GroupCommitBatchesConcurrentFsyncs) {
  StorageStack stack(Config(JournalKind::kClassic, 2048, 4));
  ASSERT_TRUE(stack.MkfsAndMount().ok());
  int done = 0;
  for (uint16_t q = 0; q < 4; ++q) {
    stack.Spawn("w" + std::to_string(q), [&, q] {
      auto ino = stack.fs().Create("/g" + std::to_string(q));
      ASSERT_TRUE(ino.ok());
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(stack.fs().Append(*ino, Buffer(kFsBlockSize, 1)).ok());
        ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
      }
      done++;
    }, q);
  }
  stack.sim().Run();
  EXPECT_EQ(done, 4);
  Jbd2Journal* j = GetJbd2(stack.fs());
  ASSERT_NE(j, nullptr);
  // 40 fsyncs (+4 creates' worth of metadata) must have shared commits.
  EXPECT_LT(j->commits(), 44u) << "no group commit happened";
  EXPECT_GT(j->commits(), 0u);
}

TEST(Jbd2Test, ClassicPaysOrderingPointsHoraeDoesNot) {
  // On a volatile-cache drive the classic commit issues a real PREFLUSH;
  // Horae does not (its control path orders writes instead).
  auto flushes = [](JournalKind kind) {
    StackConfig cfg = Config(kind);
    cfg.ssd = SsdConfig::Intel750();
    StorageStack stack(cfg);
    Status st = stack.MkfsAndMount();
    CCNVME_CHECK(st.ok());
    const uint64_t before = stack.ssd().flushes_served();
    stack.Run([&] {
      auto ino = stack.fs().Create("/f");
      CCNVME_CHECK(ino.ok());
      for (int i = 0; i < 5; ++i) {
        Status w = stack.fs().Append(*ino, Buffer(kFsBlockSize, 1));
        CCNVME_CHECK(w.ok());
        Status f = stack.fs().Fsync(*ino);
        CCNVME_CHECK(f.ok());
      }
    });
    return stack.ssd().flushes_served() - before;
  };
  EXPECT_GT(flushes(JournalKind::kClassic), flushes(JournalKind::kHorae));
}

TEST(Jbd2Test, CheckpointWrapsLogAndRemainsRecoverable) {
  // A journal of 128 blocks forces many checkpoints; afterwards a crash
  // must still recover the newest fsync'd state.
  StackConfig cfg = Config(JournalKind::kClassic, 128);
  CrashImage image;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      auto ino = stack.fs().Create("/wrap");
      ASSERT_TRUE(ino.ok());
      for (int i = 0; i < 120; ++i) {
        ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(kFsBlockSize,
                                     static_cast<uint8_t>(i))).ok());
        ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
      }
      Jbd2Journal* j = GetJbd2(stack.fs());
      ASSERT_NE(j, nullptr);
      EXPECT_GT(j->checkpoints(), 0u) << "log never wrapped";
    });
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto ino = after.fs().Lookup("/wrap");
    ASSERT_TRUE(ino.ok());
    Buffer out(kFsBlockSize);
    ASSERT_TRUE(after.fs().Read(*ino, 0, out).ok());
    EXPECT_EQ(out, Buffer(kFsBlockSize, 119));
  });
}

TEST(Jbd2Test, RevocationPreventsStaleReplayOverReusedBlock) {
  // Journal a directory block, free it, reuse it for plain data, crash:
  // replay must not clobber the data with the stale directory content.
  StackConfig cfg = Config(JournalKind::kClassic, 512);
  CrashImage image;
  const Buffer reuse(kFsBlockSize, 0xD7);
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      ASSERT_TRUE(stack.fs().Mkdir("/dir").ok());
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(stack.fs().Create("/dir/f" + std::to_string(i)).ok());
      }
      ASSERT_TRUE(stack.fs().FsyncPath("/dir").ok());
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(stack.fs().Unlink("/dir/f" + std::to_string(i)).ok());
      }
      ASSERT_TRUE(stack.fs().Rmdir("/dir").ok());
      ASSERT_TRUE(stack.fs().FsyncPath("/").ok());
      auto ino = stack.fs().Create("/fresh");
      ASSERT_TRUE(ino.ok());
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(stack.fs().Append(*ino, reuse).ok());
      }
      ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
    });
    image = stack.CaptureCrashImage();
  }
  StorageStack after(cfg, image);
  ASSERT_TRUE(after.MountExisting().ok());
  after.Run([&] {
    auto ino = after.fs().Lookup("/fresh");
    ASSERT_TRUE(ino.ok());
    for (int i = 0; i < 8; ++i) {
      Buffer out(kFsBlockSize);
      ASSERT_TRUE(after.fs().Read(*ino, static_cast<uint64_t>(i) * kFsBlockSize, out).ok());
      EXPECT_EQ(out, reuse) << "block " << i << " clobbered by stale journal replay";
    }
    EXPECT_TRUE(after.fs().CheckConsistency().ok());
  });
}

TEST(Jbd2Test, OverCcNvmeSkipsCommitRecordTraffic) {
  // JBD2-over-ccNVMe eliminates the commit record: a commit of the same
  // fsync writes one less block than classic.
  auto block_ios = [](JournalKind kind) {
    StorageStack stack(Config(kind));
    Status st = stack.MkfsAndMount();
    CCNVME_CHECK(st.ok());
    uint64_t delta = 0;
    stack.Run([&] {
      auto ino = stack.fs().Create("/c");
      CCNVME_CHECK(ino.ok());
      Status w = stack.fs().Write(*ino, 0, Buffer(kFsBlockSize, 1));
      CCNVME_CHECK(w.ok());
      Status f = stack.fs().Fsync(*ino);
      CCNVME_CHECK(f.ok());
      // Steady-state fsync:
      w = stack.fs().Write(*ino, kFsBlockSize, Buffer(kFsBlockSize, 2));
      CCNVME_CHECK(w.ok());
      const TrafficStats before = stack.link().SnapshotTraffic();
      f = stack.fs().Fsync(*ino);
      CCNVME_CHECK(f.ok());
      delta = (stack.link().SnapshotTraffic() - before).block_ios;
    });
    return delta;
  };
  const uint64_t classic = block_ios(JournalKind::kClassic);
  const uint64_t over_cc = block_ios(JournalKind::kCcNvmeJbd2);
  EXPECT_EQ(over_cc + 1, classic) << "the commit record should be the only difference";
}

TEST(Jbd2Test, CleanRemountAfterHeavyChurnAllJournals) {
  for (JournalKind kind : {JournalKind::kClassic, JournalKind::kHorae,
                           JournalKind::kCcNvmeJbd2}) {
    StackConfig cfg = Config(kind, 512);
    CrashImage image;
    {
      StorageStack stack(cfg);
      ASSERT_TRUE(stack.MkfsAndMount().ok());
      stack.Run([&] {
        for (int i = 0; i < 30; ++i) {
          const std::string path = "/churn" + std::to_string(i % 7);
          auto existing = stack.fs().Lookup(path);
          if (existing.ok()) {
            ASSERT_TRUE(stack.fs().Unlink(path).ok());
          }
          auto ino = stack.fs().Create(path);
          ASSERT_TRUE(ino.ok());
          ASSERT_TRUE(stack.fs().Write(*ino, 0, Buffer(1000, static_cast<uint8_t>(i))).ok());
          ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
        }
      });
      ASSERT_TRUE(stack.Unmount().ok());
      image = stack.CaptureCrashImage();
    }
    StorageStack after(cfg, image);
    ASSERT_TRUE(after.MountExisting().ok());
    after.Run([&] { EXPECT_TRUE(after.fs().CheckConsistency().ok()); });
  }
}

// --- Recovery writes each home block once ---------------------------------

// What replaying every journaled copy of a crash image one after another,
// in TxID order and honouring revocations (§5.5), does to its media.
struct SequentialReplay {
  MediaStore::BlockMap media;  // the image's media after the replay
  std::set<BlockNo> homes;     // home blocks the replay wrote
  size_t copies = 0;           // copies the replay wrote
  size_t revoked_copies = 0;   // copies a revocation skipped
};

SequentialReplay ReplayEveryCopy(const CrashImage& image, const FsLayout& layout,
                                 bool commit_records) {
  auto block = [&](BlockNo lba) {
    auto it = image.media().find(lba);
    return it == image.media().end() ? Buffer(kFsBlockSize, 0) : it->second;
  };
  struct Tx {
    DescriptorBlock desc;
    std::vector<BlockNo> lbas;
  };
  std::vector<Tx> txs;
  for (uint32_t a = 0; a < layout.journal_areas; ++a) {
    const JournalArea area(layout.area_start(a), layout.blocks_per_area());
    auto asb = AreaSuperblock::Parse(block(area.start));
    CCNVME_CHECK(asb.ok());
    uint64_t pos = asb->start_offset;
    uint64_t prev = asb->cleared_txid;
    for (;;) {
      auto desc = DescriptorBlock::Parse(block(area.Lba(pos)));
      if (!desc.ok() || desc->tx_id <= prev) {
        break;
      }
      Tx tx{*desc, {}};
      uint64_t p = area.Next(pos);
      bool sealed = true;
      for (const JournalEntry& e : desc->entries) {
        sealed = sealed && Fnv1a(block(area.Lba(p))) == e.content_checksum;
        tx.lbas.push_back(area.Lba(p));
        p = area.Next(p);
      }
      if (commit_records) {
        auto commit = CommitBlock::Parse(block(area.Lba(p)));
        sealed = sealed && commit.ok() && commit->tx_id == desc->tx_id;
        p = area.Next(p);
      }
      if (!sealed) {
        break;
      }
      prev = desc->tx_id;
      pos = p;
      txs.push_back(std::move(tx));
    }
  }
  std::sort(txs.begin(), txs.end(),
            [](const Tx& a, const Tx& b) { return a.desc.tx_id < b.desc.tx_id; });
  std::map<BlockNo, uint64_t> revoked_at;
  for (const Tx& tx : txs) {
    for (BlockNo lba : tx.desc.revoked) {
      revoked_at[lba] = std::max(revoked_at[lba], tx.desc.tx_id);
    }
  }
  SequentialReplay out{image.media(), {}, 0, 0};
  for (const Tx& tx : txs) {
    for (size_t i = 0; i < tx.lbas.size(); ++i) {
      const BlockNo home = tx.desc.entries[i].home_lba;
      auto it = revoked_at.find(home);
      if (it != revoked_at.end() && it->second >= tx.desc.tx_id) {
        out.revoked_copies++;
        continue;
      }
      out.media[home] = block(tx.lbas[i]);
      out.homes.insert(home);
      out.copies++;
    }
  }
  return out;
}

// Home blocks only (no superblock, no journal), all-zero blocks dropped so
// an unwritten block and a zeroed one compare equal.
MediaStore::BlockMap HomeBlocks(const MediaStore::BlockMap& media, const FsLayout& layout) {
  MediaStore::BlockMap out;
  for (const auto& [lba, data] : media) {
    const bool journal = lba >= layout.journal_start() && lba < layout.data_start();
    if (lba != 0 && !journal && std::any_of(data.begin(), data.end(), [](uint8_t b) {
          return b != 0;
        })) {
      out.emplace(lba, data);
    }
  }
  return out;
}

class RecoveryWriteBackTest : public ::testing::TestWithParam<JournalKind> {};

INSTANTIATE_TEST_SUITE_P(BlockJournals, RecoveryWriteBackTest,
                         ::testing::Values(JournalKind::kClassic, JournalKind::kHorae,
                                           JournalKind::kCcNvmeJbd2,
                                           JournalKind::kMultiQueue),
                         [](const ::testing::TestParamInfo<JournalKind>& param_info) {
                           switch (param_info.param) {
                             case JournalKind::kClassic:
                               return "Ext4";
                             case JournalKind::kHorae:
                               return "HoraeFS";
                             case JournalKind::kCcNvmeJbd2:
                               return "Jbd2OverCcNvme";
                             default:
                               return "MQFS";
                           }
                         });

// Runs |workload| on a fresh file system, crashes before any checkpoint and
// mounts the image. The recovered home blocks must equal a sequential
// replay of every journaled copy, and the mount must write each replayed
// home exactly once. Returns the replay for workload-specific checks.
SequentialReplay ExpectRecoveryMatchesSequentialReplay(
    const StackConfig& cfg, const std::function<void(ExtFs&)>& workload) {
  CrashImage image;
  FsLayout layout;
  {
    StorageStack stack(cfg);
    CCNVME_CHECK(stack.MkfsAndMount().ok());
    layout = stack.fs().layout();
    stack.Run([&] { workload(stack.fs()); });
    image = stack.CaptureCrashImage();
  }
  const bool commit_records =
      cfg.fs.journal == JournalKind::kClassic || cfg.fs.journal == JournalKind::kHorae;
  SequentialReplay ref = ReplayEveryCopy(image, layout, commit_records);
  EXPECT_GT(ref.copies, ref.homes.size()) << "workload must journal some home twice";

  StorageStack after(cfg, image);
  std::vector<BlockNo> home_writes;
  after.blk().set_recorder([&](const BioEvent& ev) {
    if (ev.op == BioOp::kWrite && ev.lba != 0 &&
        (ev.lba < layout.journal_start() || ev.lba >= layout.data_start())) {
      home_writes.push_back(ev.lba);
    }
  });
  EXPECT_TRUE(after.MountExisting().ok());
  EXPECT_EQ(home_writes.size(), ref.homes.size())
      << "recovery must write each distinct non-revoked home block once";
  EXPECT_EQ(std::set<BlockNo>(home_writes.begin(), home_writes.end()), ref.homes);
  EXPECT_TRUE(HomeBlocks(after.CaptureCrashImage().media(), layout) ==
              HomeBlocks(ref.media, layout))
      << "recovered home blocks differ from a sequential replay";
  after.Run([&] { EXPECT_TRUE(after.fs().CheckConsistency().ok()); });
  return ref;
}

StackConfig WriteBackConfig(JournalKind kind) {
  StackConfig cfg = Config(kind, 2048, 2);
  if (kind == JournalKind::kMultiQueue) {
    cfg.fs.journal_areas = 2;
  }
  return cfg;
}

// Overwrites the same blocks across many fsyncs, journals a directory block
// and frees it (a revocation), then reuses free space.
TEST_P(RecoveryWriteBackTest, NewestCopyPerHomeEqualsSequentialReplay) {
  const SequentialReplay ref =
      ExpectRecoveryMatchesSequentialReplay(WriteBackConfig(GetParam()), [](ExtFs& fs) {
        ASSERT_TRUE(fs.Mkdir("/dir").ok());
        for (int i = 0; i < 4; ++i) {
          ASSERT_TRUE(fs.Create("/dir/f" + std::to_string(i)).ok());
        }
        ASSERT_TRUE(fs.FsyncPath("/dir").ok());
        auto hot = fs.Create("/hot");
        ASSERT_TRUE(hot.ok());
        for (int round = 0; round < 12; ++round) {
          const Buffer data(2 * kFsBlockSize, static_cast<uint8_t>(0x30 + round));
          ASSERT_TRUE(fs.Write(*hot, 0, data).ok());
          ASSERT_TRUE(fs.Fsync(*hot).ok());
        }
        for (int i = 0; i < 4; ++i) {
          ASSERT_TRUE(fs.Unlink("/dir/f" + std::to_string(i)).ok());
        }
        ASSERT_TRUE(fs.Rmdir("/dir").ok());
        ASSERT_TRUE(fs.FsyncPath("/").ok());
        auto fresh = fs.Create("/fresh");
        ASSERT_TRUE(fresh.ok());
        for (int i = 0; i < 8; ++i) {
          ASSERT_TRUE(fs.Append(*fresh, Buffer(kFsBlockSize, 0xD7)).ok());
        }
        ASSERT_TRUE(fs.Fsync(*fresh).ok());
      });
  EXPECT_GT(ref.revoked_copies, 0u) << "workload must revoke a journaled copy";
}

// With data journaling, more distinct home blocks than one recovery batch
// holds (256), so the write-back spans two batches.
TEST_P(RecoveryWriteBackTest, HomesBeyondOneBatch) {
  StackConfig cfg = WriteBackConfig(GetParam());
  cfg.fs.data_journaling = true;
  const SequentialReplay ref = ExpectRecoveryMatchesSequentialReplay(cfg, [](ExtFs& fs) {
    for (int f = 0; f < 4; ++f) {
      auto ino = fs.Create("/wide" + std::to_string(f));
      ASSERT_TRUE(ino.ok());
      const Buffer data(80 * kFsBlockSize, static_cast<uint8_t>(0x40 + f));
      ASSERT_TRUE(fs.Write(*ino, 0, data).ok());
      ASSERT_TRUE(fs.Fsync(*ino).ok());
    }
    auto ino = fs.Lookup("/wide0");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(fs.Write(*ino, 0, Buffer(80 * kFsBlockSize, 0x7E)).ok());
    ASSERT_TRUE(fs.Fsync(*ino).ok());
  });
  EXPECT_GT(ref.homes.size(), 256u) << "workload must overflow a recovery batch";
}

}  // namespace
}  // namespace ccnvme
