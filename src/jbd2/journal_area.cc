#include "src/jbd2/journal_area.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/block/block_layer.h"
#include "src/metrics/metrics.h"
#include "src/trace/tracer.h"

namespace ccnvme {

void JournalArea::Retire(uint64_t tx_id, uint64_t blocks_used, uint64_t end_offset) {
  free += blocks_used;
  asb.start_offset = end_offset;
  asb.cleared_txid = std::max(asb.cleared_txid, tx_id);
}

Status JournalArea::WriteSuper(BlockLayer* blk) const {
  Buffer buf(kFsBlockSize, 0);
  asb.Serialize(buf);
  return blk->WriteSync(start, buf, kBioFua);
}

Status RecoverJournalAreas(Simulator* sim, BlockLayer* blk,
                           const std::vector<JournalArea*>& areas, bool over_ccnvme,
                           bool skip_window_scan) {
  ScopedSpan span(sim->tracer(), TracePoint::kJournalRecover);

  // §4.4: the driver captured each queue's P-SQ window [P-SQ-head, P-SQDB)
  // at bring-up. Transactions NOT in the window completed before the crash
  // — the device guarantees their blocks reached media, so recovery trusts
  // them without re-hashing content. Only in-window ("in-doubt")
  // transactions are validated against the descriptor's per-block content
  // checksums. Without a ccNVMe driver there is no window: validate all.
  const bool have_window = over_ccnvme && blk->has_ccnvme();
  std::set<uint64_t> in_doubt;
  if (have_window) {
    std::set<uint64_t> window_txs;
    for (const auto& req : blk->RecoveredWindow()) {
      window_txs.insert(req.tx_id);
    }
    if (!skip_window_scan) {
      in_doubt = window_txs;
    }
    if (Metrics* m = sim->metrics()) {
      // Recovery must treat every transaction in the recovered P-SQ window
      // as in-doubt; ignoring any of them trusts unvalidated blocks.
      m->monitors().OnRecoveryWindowScan(window_txs.size(), in_doubt.size());
    }
  }

  struct ReplayTx {
    DescriptorBlock desc;
    std::vector<BlockNo> journal_lbas;  // parallel to desc.entries
  };
  std::vector<ReplayTx> txs;
  for (JournalArea* area : areas) {
    Buffer raw;
    CCNVME_RETURN_IF_ERROR(blk->ReadSync(area->start, 1, &raw));
    CCNVME_ASSIGN_OR_RETURN(area->asb, AreaSuperblock::Parse(raw));
    uint64_t pos = area->asb.start_offset;
    uint64_t prev = area->asb.cleared_txid;
    for (;;) {
      Buffer block;
      CCNVME_RETURN_IF_ERROR(blk->ReadSync(area->Lba(pos), 1, &block));
      auto desc = DescriptorBlock::Parse(block);
      if (!desc.ok() || desc->tx_id <= prev) {
        break;  // end of valid log
      }
      ReplayTx rt;
      rt.desc = std::move(*desc);
      const bool must_validate = !have_window || in_doubt.count(rt.desc.tx_id) != 0;
      uint64_t p = area->Next(pos);
      bool valid = true;
      for (const JournalEntry& e : rt.desc.entries) {
        if (must_validate) {
          Buffer content;
          CCNVME_RETURN_IF_ERROR(blk->ReadSync(area->Lba(p), 1, &content));
          if (Fnv1a(content) != e.content_checksum) {
            valid = false;  // transaction never fully reached media: discard
            break;
          }
        }
        rt.journal_lbas.push_back(area->Lba(p));
        p = area->Next(p);
      }
      if (!valid) {
        break;
      }
      if (!over_ccnvme) {
        // The commit record seals the transaction.
        Buffer commit_raw;
        CCNVME_RETURN_IF_ERROR(blk->ReadSync(area->Lba(p), 1, &commit_raw));
        auto commit = CommitBlock::Parse(commit_raw);
        if (!commit.ok() || commit->tx_id != rt.desc.tx_id) {
          break;
        }
        p = area->Next(p);
      }
      prev = rt.desc.tx_id;
      pos = p;
      txs.push_back(std::move(rt));
    }
    area->asb.start_offset = pos;
    area->asb.cleared_txid = prev;
    area->head = pos;
    area->free = area->blocks - 1;
  }

  // Global order across areas comes from the transaction IDs (§4.4): link
  // all areas' transactions and replay sequentially (§5.5).
  std::sort(txs.begin(), txs.end(),
            [](const ReplayTx& a, const ReplayTx& b) { return a.desc.tx_id < b.desc.tx_id; });

  // Revocations: a block revoked at tx R must not be replayed from tx < R.
  std::map<BlockNo, uint64_t> revmap;
  for (const ReplayTx& rt : txs) {
    for (BlockNo lba : rt.desc.revoked) {
      revmap[lba] = std::max(revmap[lba], rt.desc.tx_id);
    }
  }
  for (const ReplayTx& rt : txs) {
    for (size_t i = 0; i < rt.desc.entries.size(); ++i) {
      const BlockNo home = rt.desc.entries[i].home_lba;
      auto it = revmap.find(home);
      if (it != revmap.end() && it->second >= rt.desc.tx_id) {
        continue;
      }
      Buffer content;
      CCNVME_RETURN_IF_ERROR(blk->ReadSync(rt.journal_lbas[i], 1, &content));
      CCNVME_RETURN_IF_ERROR(blk->WriteSync(home, content));
    }
  }
  CCNVME_RETURN_IF_ERROR(blk->FlushSync());
  for (JournalArea* area : areas) {
    CCNVME_RETURN_IF_ERROR(area->WriteSuper(blk));
  }
  return OkStatus();
}

}  // namespace ccnvme
