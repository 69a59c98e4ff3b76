// The on-disk journal ring shared by the classic journal (JBD2) and MQFS's
// per-core journal areas, and the one recovery that scans and replays it.
//
// An area is |blocks| contiguous blocks at |start|. Block 0 holds the
// AreaSuperblock; records fill [1, blocks) and wrap back to 1. A
// transaction is laid out as
//   [descriptor][journaled block]*[commit block]   (classic, Horae)
//   [descriptor][journaled block]*                 (over ccNVMe: JBD2+ccNVMe, MQFS)
// Over ccNVMe the descriptor's per-block checksums seal the transaction and
// the driver's recovered P-SQ window (§4.4) says which transactions are
// in doubt; everything else must pass the checksums and a commit record.
#ifndef SRC_JBD2_JOURNAL_AREA_H_
#define SRC_JBD2_JOURNAL_AREA_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/jbd2/journal_format.h"
#include "src/vfs/types.h"

namespace ccnvme {

class BlockLayer;
class Simulator;

struct JournalArea {
  JournalArea(BlockNo area_start, uint64_t area_blocks)
      : start(area_start), blocks(area_blocks), free(area_blocks - 1) {}

  BlockNo start;
  uint64_t blocks;
  uint64_t head = 1;   // offset the next transaction is written at
  uint64_t free;       // blocks not held by uncheckpointed transactions
  AreaSuperblock asb;  // in-memory copy of block 0

  uint64_t Next(uint64_t off) const { return off + 1 >= blocks ? 1 : off + 1; }
  BlockNo Lba(uint64_t off) const { return start + off; }

  // A checkpointed transaction gives back its space, and the scan start
  // moves past it. Persist with WriteSuper.
  void Retire(uint64_t tx_id, uint64_t blocks_used, uint64_t end_offset);
  // Writes |asb| to block 0 with FUA.
  Status WriteSuper(BlockLayer* blk) const;
};

// Mount-time recovery of |areas|: scans each area from its superblock up to
// the first stale or invalid record, replays every scanned transaction in
// TxID order (skipping copies older than a revocation), flushes, and resets
// each area to empty at the end of its scan. |over_ccnvme| selects the
// ccNVMe layout: no commit record, and only in-window transactions are
// validated. |skip_window_scan| is ExtFsOptions::test_skip_psq_window_scan.
Status RecoverJournalAreas(Simulator* sim, BlockLayer* blk,
                           const std::vector<JournalArea*>& areas, bool over_ccnvme,
                           bool skip_window_scan);

}  // namespace ccnvme

#endif  // SRC_JBD2_JOURNAL_AREA_H_
