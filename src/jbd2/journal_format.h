// On-media journal record formats, shared by the classic JBD2-style journal
// and MQFS's multi-queue journal.
//
// A transaction in the log is:
//   [descriptor block][journaled block]*[commit block]      (classic)
//   [descriptor block][journaled block]*                    (MQFS, JBD2 over ccNVMe)
// Over ccNVMe the descriptor doubles as the commit record: it carries a
// content checksum per journaled block, so recovery can validate a
// transaction without a separate commit block — ringing the ccNVMe P-SQDB
// "plays the same role as the commit block" (§5.1), and the checksums
// detect transactions whose blocks never fully reached media. The ring the
// records live in, and the recovery that scans it, are in journal_area.h.
//
// Every record block starts with (magic, type, tx_id) and ends with a
// checksum of the whole block, so a recovery scan can stop at the first
// torn or stale record.
#ifndef SRC_JBD2_JOURNAL_FORMAT_H_
#define SRC_JBD2_JOURNAL_FORMAT_H_

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/vfs/types.h"

namespace ccnvme {

inline constexpr uint32_t kJournalMagic = 0x4A4E4C31;  // "JNL1"

enum class JournalRecordType : uint32_t {
  kDescriptor = 1,
  kCommit = 2,
  kAreaSuper = 4,
};

struct JournalEntry {
  BlockNo home_lba = 0;
  uint64_t content_checksum = 0;  // FNV-1a of the journaled block
};

// Descriptor: maps the journaled blocks that follow it to their home
// locations. Also carries the transaction's revocation list (§5.4).
struct DescriptorBlock {
  uint64_t tx_id = 0;
  std::vector<JournalEntry> entries;
  std::vector<BlockNo> revoked;

  static constexpr size_t kHeaderSize = 24;
  static constexpr size_t kMaxEntries = 200;  // 16 B each; leaves room for revocations

  void Serialize(std::span<uint8_t> out) const;
  static Result<DescriptorBlock> Parse(std::span<const uint8_t> in);
};

struct CommitBlock {
  uint64_t tx_id = 0;

  void Serialize(std::span<uint8_t> out) const;
  static Result<CommitBlock> Parse(std::span<const uint8_t> in);
};

// Per-area superblock (block 0 of each journal area).
struct AreaSuperblock {
  // Scan starts here (area-relative block index, in [1, area_blocks)).
  uint64_t start_offset = 1;
  // Transactions with id <= cleared_txid have been checkpointed; recovery
  // ignores any record carrying such an id (stale after wraparound).
  uint64_t cleared_txid = 0;

  void Serialize(std::span<uint8_t> out) const;
  static Result<AreaSuperblock> Parse(std::span<const uint8_t> in);
};

// Returns the record type of a raw journal block, or an error if the block
// is not a valid record (torn write, stale data, user payload).
Result<JournalRecordType> PeekRecordType(std::span<const uint8_t> in);

}  // namespace ccnvme

#endif  // SRC_JBD2_JOURNAL_FORMAT_H_
