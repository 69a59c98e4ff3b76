// Tests for the CrashMonkey-style tester: MQFS (and the baselines) must
// recover correctly across randomized crash states of the paper's four
// workloads (Table 4, scaled down for unit-test time; the bench runs the
// full 1000 points per workload).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/crashtest/crash_monkey.h"

namespace ccnvme {
namespace {

StackConfig MqfsConfig() {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.fs.journal = JournalKind::kMultiQueue;
  cfg.fs.journal_areas = 2;
  cfg.fs.journal_blocks = 2048;
  return cfg;
}

StackConfig Ext4Config() {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.enable_ccnvme = false;
  cfg.fs.journal = JournalKind::kClassic;
  cfg.fs.journal_areas = 1;
  cfg.fs.journal_blocks = 2048;
  return cfg;
}

void ExpectAllPass(const CrashTestReport& report) {
  EXPECT_TRUE(report.AllPassed())
      << report.passed << "/" << report.crash_points << " passed; first failures:\n"
      << (report.failures.empty() ? "(none)" : report.failures[0]);
  for (const auto& f : report.failures) {
    ADD_FAILURE() << f;
  }
}

TEST(CrashMonkeyMqfsTest, CreateDelete) {
  CrashMonkey monkey(MqfsConfig(), /*seed=*/1);
  ExpectAllPass(monkey.Run(CrashMonkey::CreateDelete(), 60));
}

TEST(CrashMonkeyMqfsTest, Generic035Rename) {
  CrashMonkey monkey(MqfsConfig(), /*seed=*/2);
  ExpectAllPass(monkey.Run(CrashMonkey::Generic035(), 60));
}

TEST(CrashMonkeyMqfsTest, Generic106LinkUnlink) {
  CrashMonkey monkey(MqfsConfig(), /*seed=*/3);
  ExpectAllPass(monkey.Run(CrashMonkey::Generic106(), 60));
}

TEST(CrashMonkeyMqfsTest, Generic321DirFsync) {
  CrashMonkey monkey(MqfsConfig(), /*seed=*/4);
  ExpectAllPass(monkey.Run(CrashMonkey::Generic321(), 60));
}

TEST(CrashMonkeyExt4Test, CreateDelete) {
  CrashMonkey monkey(Ext4Config(), /*seed=*/5);
  ExpectAllPass(monkey.Run(CrashMonkey::CreateDelete(), 40));
}

TEST(CrashMonkeyExt4Test, Generic035Rename) {
  CrashMonkey monkey(Ext4Config(), /*seed=*/6);
  ExpectAllPass(monkey.Run(CrashMonkey::Generic035(), 40));
}

TEST(CrashMonkeyExt4Test, TruncateShrinkGrow) {
  CrashMonkey monkey(Ext4Config(), /*seed=*/11);
  ExpectAllPass(monkey.Run(CrashMonkey::TruncateShrinkGrow(), 40));
}

TEST(CrashMonkeyExt4Test, OverwriteMixed) {
  CrashMonkey monkey(Ext4Config(), /*seed=*/12);
  ExpectAllPass(monkey.Run(CrashMonkey::OverwriteMixed(), 40));
}

TEST(CrashMonkeyMqfsTest, TruncateShrinkGrow) {
  CrashMonkey monkey(MqfsConfig(), /*seed=*/8);
  ExpectAllPass(monkey.Run(CrashMonkey::TruncateShrinkGrow(), 60));
}

TEST(CrashMonkeyMqfsTest, OverwriteMixed) {
  CrashMonkey monkey(MqfsConfig(), /*seed=*/9);
  ExpectAllPass(monkey.Run(CrashMonkey::OverwriteMixed(), 60));
}

// Every journaled configuration must pass the paper's most error-prone
// workload (rename overwrite).
class CrashAllJournalsTest : public ::testing::TestWithParam<JournalKind> {};

INSTANTIATE_TEST_SUITE_P(Journals, CrashAllJournalsTest,
                         ::testing::Values(JournalKind::kClassic, JournalKind::kHorae,
                                           JournalKind::kCcNvmeJbd2,
                                           JournalKind::kMultiQueue,
                                           JournalKind::kNvlog),
                         [](const ::testing::TestParamInfo<JournalKind>& param_info) {
                           switch (param_info.param) {
                             case JournalKind::kClassic:
                               return "Ext4";
                             case JournalKind::kHorae:
                               return "HoraeFS";
                             case JournalKind::kCcNvmeJbd2:
                               return "Jbd2OverCcNvme";
                             case JournalKind::kMultiQueue:
                               return "MQFS";
                             case JournalKind::kNvlog:
                               return "NVLog";
                             default:
                               return "other";
                           }
                         });

TEST_P(CrashAllJournalsTest, RenameOverwrite) {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.enable_ccnvme = GetParam() == JournalKind::kMultiQueue ||
                      GetParam() == JournalKind::kCcNvmeJbd2;
  cfg.fs.journal = GetParam();
  cfg.fs.journal_areas = GetParam() == JournalKind::kMultiQueue ? 2 : 1;
  cfg.fs.journal_blocks = 2048 * cfg.fs.journal_areas;
  if (GetParam() == JournalKind::kNvlog) {
    cfg.nvm.size_bytes = 1 << 20;  // small tier keeps per-state image copies cheap
  }
  CrashMonkey monkey(cfg, /*seed=*/10);
  ExpectAllPass(monkey.Run(CrashMonkey::Generic035(), 40));
}

TEST(CrashMonkeyVolatileCacheTest, MqfsOnFlashDrive) {
  // The Intel 750 has a volatile cache without PLP: the flush-barrier
  // commit path is what keeps transactions durable here.
  StackConfig cfg = MqfsConfig();
  cfg.ssd = SsdConfig::Intel750();
  CrashMonkey monkey(cfg, /*seed=*/7);
  ExpectAllPass(monkey.Run(CrashMonkey::CreateDelete(), 40));
}

// Double-crash: power-cut a workload of five fsync'd files, then power-cut
// the *recovery* of that image at random points. Every subsequent mount must
// still converge to a consistent state with the fsync'd data. Recovery
// submits its home writes asynchronously, so a cut at a point of its
// recorded stream keeps every write completed before the point and any
// subset of those still in flight; an NVM store survives if a fence
// precedes the point, and at random if not.
void ExpectCrashDuringRecoveryConverges(const StackConfig& cfg) {
  const Buffer payload(kFsBlockSize, 0x5E);
  CrashImage first_crash;
  {
    StorageStack stack(cfg);
    ASSERT_TRUE(stack.MkfsAndMount().ok());
    stack.Run([&] {
      for (int i = 0; i < 5; ++i) {
        auto ino = stack.fs().Create("/dc_" + std::to_string(i));
        ASSERT_TRUE(ino.ok());
        ASSERT_TRUE(stack.fs().Write(*ino, 0, payload).ok());
        ASSERT_TRUE(stack.fs().Fsync(*ino).ok());
      }
      first_crash = stack.CaptureCrashImage();  // before any checkpoint or drain
    });
  }

  // Record the event stream of a full recovery.
  std::vector<BioEvent> events;
  {
    StorageStack rec(cfg, first_crash);
    rec.SetRecorder([&](const BioEvent& ev) { events.push_back(ev); });
    ASSERT_TRUE(rec.MountExisting().ok());
  }
  ASSERT_TRUE(std::any_of(events.begin(), events.end(),
                          [](const BioEvent& ev) { return ev.op == BioOp::kWrite; }))
      << "recovery should write something";

  Rng rng(77);
  size_t max_in_flight = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const size_t cut = rng.Uniform(events.size() + 1);
    std::set<uint64_t> completed;
    size_t fenced_before = 0;  // NVM stores at indices below this are fenced
    for (size_t i = 0; i < cut; ++i) {
      if (events[i].op == BioOp::kComplete) {
        completed.insert(events[i].seq);
      } else if (events[i].op == BioOp::kNvmFence) {
        fenced_before = i;
      }
    }
    CrashImage second = first_crash;
    size_t in_flight = 0;
    for (size_t i = 0; i < cut; ++i) {
      const BioEvent& ev = events[i];
      if (ev.op == BioOp::kWrite) {
        if (completed.count(ev.seq) == 0) {
          in_flight++;
          if (rng.OneIn(2)) {
            continue;  // still in flight at the cut: lost
          }
        }
        const size_t blocks = ev.data.size() / kFsBlockSize;
        for (size_t b = 0; b < blocks; ++b) {
          second.media()[ev.lba + b] =
              Buffer(ev.data.begin() + static_cast<long>(b * kFsBlockSize),
                     ev.data.begin() + static_cast<long>((b + 1) * kFsBlockSize));
        }
      } else if (ev.op == BioOp::kNvmWrite) {
        if (i >= fenced_before && rng.OneIn(2)) {
          continue;  // unfenced store: lost
        }
        std::copy(ev.data.begin(), ev.data.end(), second.nvm.begin() + static_cast<long>(ev.lba));
      }
    }
    max_in_flight = std::max(max_in_flight, in_flight);
    StorageStack again(cfg, second);
    ASSERT_TRUE(again.MountExisting().ok()) << "second recovery failed (trial " << trial << ")";
    again.Run([&] {
      EXPECT_TRUE(again.fs().CheckConsistency().ok()) << "trial " << trial;
      for (int i = 0; i < 5; ++i) {
        auto ino = again.fs().Lookup("/dc_" + std::to_string(i));
        ASSERT_TRUE(ino.ok()) << "fsync'd file lost after double crash, trial " << trial;
        Buffer out(payload.size());
        ASSERT_TRUE(again.fs().Read(*ino, 0, out).ok());
        EXPECT_EQ(out, payload) << "trial " << trial;
      }
    });
  }
  EXPECT_GT(max_in_flight, 1u) << "no cut fell inside the asynchronous write-back";
}

TEST(CrashMonkeyMqfsTest, CrashDuringRecoveryIsIdempotent) {
  ExpectCrashDuringRecoveryConverges(MqfsConfig());
}

TEST(CrashMonkeyNvlogTest, CrashDuringRecoveryIsIdempotent) {
  StackConfig cfg;
  cfg.num_queues = 2;
  cfg.enable_ccnvme = false;
  cfg.fs.journal = JournalKind::kNvlog;
  cfg.fs.nvlog_drain_delay_ns = 1'000'000'000;  // the whole workload stays in the log
  cfg.nvm.size_bytes = 1 << 20;
  ExpectCrashDuringRecoveryConverges(cfg);
}

}  // namespace
}  // namespace ccnvme
