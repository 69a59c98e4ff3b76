// The journal interface the file system programs against.
//
// Implementations:
//   * Jbd2Journal (src/jbd2)  — classic Ext4 journaling; also the "Horae"
//     mode with ordering points removed, and effectively the comparison
//     baselines of §7.
//   * NullJournal (src/jbd2)  — Ext4-NJ: no journaling, in-place writes.
//   * MqJournal   (src/mqfs)  — MQFS multi-queue journaling over ccNVMe.
//   * NvLogJournal (src/nvm)  — NVLog: fsync appends to a byte-addressable
//     NVM log; a background drainer checkpoints to the block stack.
//
// The file system collects the blocks a sync point must persist into a
// SyncOp; the journal implementation owns ordering, atomicity and
// durability. This mirrors the division of labour between ext4 and jbd2.
#ifndef SRC_VFS_JOURNAL_H_
#define SRC_VFS_JOURNAL_H_

#include <vector>

#include "src/common/status.h"
#include "src/vfs/buffer_cache.h"
#include "src/vfs/types.h"

namespace ccnvme {

// Per-phase latency attribution for sync calls (Figure 14) comes from the
// cross-layer tracer: the FS and journal implementations emit kSync* spans
// (src/trace/trace_point.h) instead of filling an out-parameter struct.

struct SyncOp {
  InodeNum ino = kInvalidInode;
  // Metadata blocks to journal (buffer-cache blocks; content is read under
  // each block's page lock by the journal).
  std::vector<BlockBufPtr> metadata;
  // Data blocks written in place (ordered mode). In data-journaling mode
  // the FS puts data blocks into |metadata| instead.
  std::vector<BlockBufPtr> data;
};

class Journal {
 public:
  virtual ~Journal() = default;

  // Persists the op according to |mode|. Returns once the mode's guarantee
  // holds: full durability for kFsync, atomicity only for kFatomic /
  // kFdataatomic (supported only when SupportsAtomic()).
  virtual Status Sync(const SyncOp& op, SyncMode mode) = 0;

  // The FS freed |block| (previously journaled metadata, e.g. a directory
  // block) and may reuse it for data that bypasses the journal — the block
  // reuse problem of §5.4. The journal must ensure stale journal copies are
  // never replayed over the reused block.
  virtual void RevokeBlock(BlockNo block) = 0;

  // True if the FS must route this (data) block through the journal even in
  // metadata-journaling mode — MQFS's selective-revocation case 1 (§5.4)
  // regresses to data journaling for blocks whose stale copy is being
  // checkpointed concurrently.
  virtual bool ForceJournalData(BlockNo block) {
    (void)block;
    return false;
  }

  // Mount-time recovery: replay committed transactions into home locations.
  virtual Status Recover() = 0;

  // Graceful unmount: wait for in-flight transactions, checkpoint
  // everything, leave the journal empty.
  virtual Status Shutdown() = 0;

  virtual bool SupportsAtomic() const { return false; }
};

}  // namespace ccnvme

#endif  // SRC_VFS_JOURNAL_H_
