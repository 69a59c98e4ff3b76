#include "src/jbd2/jbd2.h"

#include "src/common/logging.h"
#include "src/extfs/extfs.h"
#include "src/metrics/metrics.h"
#include "src/trace/tracer.h"

namespace ccnvme {

// ---------------------------------------------------------------------------
// NullJournal (Ext4-NJ)

Status NullJournal::Sync(const SyncOp& op, SyncMode mode) {
  (void)mode;  // no atomicity to decouple: everything is durability
  // Ext4-NJ processes each class of block synchronously: the dirty data
  // pages, then the inode, then the remaining metadata — Figure 14(b) shows
  // these as back-to-back submit+wait phases. The page is frozen (and
  // contended) for the whole I/O — the in-place serialization MQFS's shadow
  // paging avoids.
  auto submit = [&](const BlockBufPtr& buf) {
    buf->BeginWriteback();
    BlockBufPtr keep = buf;
    return blk_->SubmitWrite(buf->block_no, &buf->data, 0, [keep] { keep->EndWriteback(); });
  };
  auto wait_all = [&](std::vector<NvmeDriver::RequestHandle>& handles) -> Status {
    for (auto& h : handles) {
      CCNVME_RETURN_IF_ERROR(blk_->Wait(h));
    }
    handles.clear();
    return OkStatus();
  };

  Tracer* tracer = sim_->tracer();
  std::vector<NvmeDriver::RequestHandle> handles;
  {
    ScopedSpan phase(tracer, TracePoint::kSyncWaitData);  // W-iD
    for (const BlockBufPtr& buf : op.data) {
      handles.push_back(submit(buf));
    }
    CCNVME_RETURN_IF_ERROR(wait_all(handles));
  }

  // The inode-table block first (sync_inode_metadata), then the rest.
  if (!op.metadata.empty()) {
    {
      ScopedSpan phase(tracer, TracePoint::kSyncWaitInode);  // W-iM
      handles.push_back(submit(op.metadata.front()));
      CCNVME_RETURN_IF_ERROR(wait_all(handles));
    }
    ScopedSpan phase(tracer, TracePoint::kSyncWaitParent);  // W-pM
    for (size_t i = 1; i < op.metadata.size(); ++i) {
      handles.push_back(submit(op.metadata[i]));
    }
    CCNVME_RETURN_IF_ERROR(wait_all(handles));
  }
  for (const BlockBufPtr& buf : op.data) {
    buf->dirty = false;
  }
  for (const BlockBufPtr& buf : op.metadata) {
    buf->dirty = false;
  }
  return blk_->FlushSync();
}

// ---------------------------------------------------------------------------
// Jbd2Journal

Jbd2Journal::Jbd2Journal(Simulator* sim, BlockLayer* blk, BufferCache* cache,
                         const FsLayout& layout, const HostCosts& costs, ExtFs* fs,
                         const Jbd2Options& options)
    : sim_(sim),
      blk_(blk),
      cache_(cache),
      costs_(costs),
      fs_(fs),
      options_(options),
      area_(layout.area_start(0), layout.blocks_per_area() * layout.journal_areas),
      mu_(sim),
      commit_cv_(sim),
      ckpt_mu_(sim) {
  sim_->Spawn("kjournald", [this] { CommitLoop(); });
}

Status Jbd2Journal::Sync(const SyncOp& op, SyncMode mode) {
  (void)mode;  // JBD2 cannot decouple atomicity from durability
  // Ordered-data mode: user data goes in place. Classic Ext4 *waits* for it
  // before the metadata commit (an ordering point); HoraeFS overlaps it.
  std::vector<NvmeDriver::RequestHandle> data_handles;
  for (const BlockBufPtr& buf : op.data) {
    buf->BeginWriteback();
    BlockBufPtr keep = buf;
    data_handles.push_back(blk_->SubmitWrite(buf->block_no, &buf->data, 0,
                                             [keep] { keep->EndWriteback(); }));
  }
  if (!options_.horae) {
    for (auto& h : data_handles) {
      CCNVME_RETURN_IF_ERROR(blk_->Wait(h));
    }
    data_handles.clear();
  }
  for (const BlockBufPtr& buf : op.data) {
    buf->dirty = false;
  }

  std::shared_ptr<TxState> tx;
  const uint64_t join_begin = sim_->now();
  {
    SimLockGuard guard(mu_);
    // Joining the running transaction stalls while kjournald holds the
    // journal lock — the per-core handle wait of §3.
    if (Tracer* t = sim_->tracer()) {
      t->WaitEdgeEvent(WaitEdge::kJournalHandle, join_begin, sim_->now());
    }
    if (running_ == nullptr) {
      running_ = std::make_shared<TxState>(sim_);
      running_->tx_id = fs_->AllocTxId();
    }
    for (const BlockBufPtr& buf : op.metadata) {
      if (running_->members.insert(buf->block_no).second) {
        running_->metadata.push_back(buf);
        buf->jstate = JournalState::kInTransaction;
      }
    }
    CCNVME_CHECK_LE(running_->metadata.size(), DescriptorBlock::kMaxEntries)
        << "running transaction exceeds one descriptor";
    running_->waiters++;
    tx = running_;
    commit_requested_ = true;
    commit_cv_.NotifyOne();
  }
  // The request flow now has a (compound) transaction id.
  MutableTraceContext().tx_id = tx->tx_id;
  // Handoff to the dedicated journaling thread — the context-switch tax the
  // paper calls out for JBD2-style designs.
  Simulator::Sleep(costs_.journal_thread_switch_ns);
  for (auto& h : data_handles) {
    CCNVME_RETURN_IF_ERROR(blk_->Wait(h));
  }
  {
    ScopedSpan wait_span(sim_->tracer(), TracePoint::kSyncWaitDurable);
    const uint64_t barrier_begin = sim_->now();
    tx->durable.Wait();
    if (Tracer* t = sim_->tracer()) {
      t->WaitEdgeEvent(WaitEdge::kCommitBarrier, barrier_begin, sim_->now());
    }
    Simulator::Sleep(costs_.wakeup_ns);
  }
  return OkStatus();
}

void Jbd2Journal::RevokeBlock(BlockNo block) {
  SimLockGuard guard(mu_);
  pending_revocations_.push_back(block);
}

void Jbd2Journal::CommitLoop() {
  blk_->BindQueue(0);  // kjournald submits on core 0's queue
  for (;;) {
    std::shared_ptr<TxState> tx;
    {
      SimLockGuard guard(mu_);
      while (!commit_requested_) {
        commit_cv_.Wait(mu_);
      }
      commit_requested_ = false;
      tx = running_;
      running_ = nullptr;
    }
    if (tx == nullptr) {
      continue;
    }
    {
      // Journal-lock window: joins stall while the commit locks the journal.
      SimLockGuard guard(mu_);
      Simulator::Sleep(costs_.jbd2_commit_lock_ns);
    }
    Status st = CommitOne(tx);
    CCNVME_CHECK(st.ok()) << "journal commit failed: " << st.ToString();
    // Post-processing and per-waiter wakeup dispatch, all serial on the
    // commit thread — the single-core bottleneck of §3.
    Simulator::Sleep(costs_.jbd2_commit_post_ns +
                     static_cast<uint64_t>(tx->waiters) * costs_.jbd2_per_waiter_ns);
    tx->durable.Signal();
  }
}

Status Jbd2Journal::CommitOne(const std::shared_ptr<TxState>& tx) {
  ScopedTraceContext trace_ctx({0, tx->tx_id});
  ScopedSpan span(sim_->tracer(), TracePoint::kJournalCommit);
  Simulator::Sleep(costs_.journal_thread_switch_ns);  // wake kjournald
  Simulator::Sleep(costs_.fs_journal_desc_ns);

  std::vector<BlockNo> revocations;
  {
    SimLockGuard guard(mu_);
    revocations.swap(pending_revocations_);
    for (BlockNo lba : revocations) {
      revoked_[lba] = std::max(revoked_[lba], tx->tx_id);
    }
  }

  const uint64_t needed = 2 + tx->metadata.size();
  CCNVME_RETURN_IF_ERROR(CheckpointUntilFree(needed));

  // Freeze the buffers for the duration of the journal write; concurrent
  // modifiers stall on the page (the conflict behaviour of §5.3).
  for (const BlockBufPtr& buf : tx->metadata) {
    buf->BeginWriteback();
  }

  DescriptorBlock desc;
  desc.tx_id = tx->tx_id;
  desc.revoked = revocations;
  for (const BlockBufPtr& buf : tx->metadata) {
    desc.entries.push_back(JournalEntry{buf->block_no, Fnv1a(buf->data)});
  }
  Buffer desc_buf(kFsBlockSize, 0);
  desc.Serialize(desc_buf);

  if (options_.over_ccnvme) {
    // ccNVMe commit: descriptor first (it is the commit record; its
    // checksums validate the members at recovery), members after, one
    // transaction-aware flush + doorbell, in-order durable completion.
    const BlockNo jd_lba = area_.Lba(area_.head);
    area_.head = area_.Next(area_.head);
    std::vector<BlockNo> member_lbas;
    for (size_t i = 0; i < tx->metadata.size(); ++i) {
      member_lbas.push_back(area_.Lba(area_.head));
      area_.head = area_.Next(area_.head);
    }
    for (size_t i = 0; i < tx->metadata.size(); ++i) {
      Simulator::Sleep(costs_.jbd2_per_block_ns);
      blk_->SubmitTxWrite(tx->tx_id, member_lbas[i], &tx->metadata[i]->data);
    }
    if (Metrics* m = sim_->metrics()) {
      m->monitors().ExpectTxMembers(tx->tx_id, tx->metadata.size());
    }
    auto handle = blk_->CommitTx(tx->tx_id, jd_lba, &desc_buf);
    blk_->WaitTxDurable(handle);
    area_.free -= tx->metadata.size() + 1;

    CheckpointTx cp;
    cp.tx_id = tx->tx_id;
    cp.blocks_used = tx->metadata.size() + 1;
    cp.end_offset = area_.head;
    for (const BlockBufPtr& buf : tx->metadata) {
      cp.writes.emplace_back(buf->block_no, buf->data);
      buf->jstate = JournalState::kClean;
      buf->dirty = false;
      buf->EndWriteback();
    }
    checkpoint_list_.push_back(std::move(cp));
    commits_++;
    return OkStatus();
  }

  std::vector<NvmeDriver::RequestHandle> handles;
  handles.push_back(blk_->SubmitWrite(area_.Lba(area_.head), &desc_buf, 0));
  area_.head = area_.Next(area_.head);
  for (const BlockBufPtr& buf : tx->metadata) {
    Simulator::Sleep(costs_.jbd2_per_block_ns);
    handles.push_back(blk_->SubmitWrite(area_.Lba(area_.head), &buf->data, 0));
    area_.head = area_.Next(area_.head);
  }

  CommitBlock commit;
  commit.tx_id = tx->tx_id;
  Buffer commit_buf(kFsBlockSize, 0);
  commit.Serialize(commit_buf);

  if (!options_.horae) {
    // Classic ordering point: the commit record must not be issued before
    // the journaled blocks are durable (PREFLUSH) and must itself be
    // durable (FUA).
    for (auto& h : handles) {
      CCNVME_RETURN_IF_ERROR(blk_->Wait(h));
    }
    if (Metrics* m = sim_->metrics()) {
      // Classic jbd2: every journaled block must be durable before the
      // commit record is issued (horae relaxes this by design, so the
      // monitor only arms on the strict path).
      uint64_t outstanding = 0;
      for (const auto& h : handles) {
        outstanding += h->done.signaled() ? 0 : 1;
      }
      m->monitors().OnJournalCommitRecord(tx->tx_id, outstanding);
    }
    handles.clear();
    CCNVME_RETURN_IF_ERROR(blk_->WriteSync(area_.Lba(area_.head), commit_buf,
                                           kBioPreflush | kBioFua));
  } else {
    // Horae: dispatch everything eagerly; the ordering is guaranteed by the
    // dedicated control path, so only joint completion is awaited.
    handles.push_back(blk_->SubmitWrite(area_.Lba(area_.head), &commit_buf, kBioFua));
    for (auto& h : handles) {
      CCNVME_RETURN_IF_ERROR(blk_->Wait(h));
    }
    handles.clear();
  }
  area_.head = area_.Next(area_.head);
  area_.free -= needed;

  // Hand frozen copies to the checkpoint list, then release the pages.
  CheckpointTx cp;
  cp.tx_id = tx->tx_id;
  cp.blocks_used = needed;
  cp.end_offset = area_.head;
  for (const BlockBufPtr& buf : tx->metadata) {
    cp.writes.emplace_back(buf->block_no, buf->data);
    buf->jstate = JournalState::kClean;
    buf->dirty = false;
    buf->EndWriteback();
  }
  checkpoint_list_.push_back(std::move(cp));
  commits_++;
  return OkStatus();
}

Status Jbd2Journal::CheckpointUntilFree(uint64_t needed) {
  ScopedSpan span(sim_->tracer(), TracePoint::kJournalCheckpoint);
  SimLockGuard guard(ckpt_mu_);
  if (area_.free >= needed) {
    return OkStatus();
  }
  bool advanced = false;
  while (area_.free < needed + area_.blocks / 4 && !checkpoint_list_.empty()) {
    CheckpointTx cp = std::move(checkpoint_list_.front());
    checkpoint_list_.pop_front();
    std::vector<NvmeDriver::RequestHandle> handles;
    for (const auto& [home, content] : cp.writes) {
      auto it = revoked_.find(home);
      if (it != revoked_.end() && it->second >= cp.tx_id) {
        continue;  // block was freed/reused after this copy was journaled
      }
      handles.push_back(blk_->SubmitWrite(home, &content, 0));
    }
    for (auto& h : handles) {
      CCNVME_RETURN_IF_ERROR(blk_->Wait(h));
    }
    area_.Retire(cp.tx_id, cp.blocks_used, cp.end_offset);
    advanced = true;
    checkpoints_++;
  }
  if (advanced) {
    // Checkpointed blocks must be durable before their log space is reused.
    CCNVME_RETURN_IF_ERROR(blk_->FlushSync());
    CCNVME_RETURN_IF_ERROR(area_.WriteSuper(blk_));
  }
  if (area_.free < needed) {
    return OutOfSpace("journal too small for transaction");
  }
  return OkStatus();
}

Status Jbd2Journal::Recover() {
  return RecoverJournalAreas(sim_, blk_, {&area_}, options_.over_ccnvme,
                             fs_->options().test_skip_psq_window_scan);
}

Status Jbd2Journal::Shutdown() {
  // Commit any running transaction.
  std::shared_ptr<TxState> tx;
  {
    SimLockGuard guard(mu_);
    tx = running_;
    if (tx != nullptr) {
      commit_requested_ = true;
      commit_cv_.NotifyOne();
    }
  }
  if (tx != nullptr) {
    tx->durable.Wait();
  }
  // Checkpoint everything so the journal is empty.
  {
    SimLockGuard guard(ckpt_mu_);
    while (!checkpoint_list_.empty()) {
      CheckpointTx cp = std::move(checkpoint_list_.front());
      checkpoint_list_.pop_front();
      for (const auto& [home, content] : cp.writes) {
        auto it = revoked_.find(home);
        if (it != revoked_.end() && it->second >= cp.tx_id) {
          continue;
        }
        CCNVME_RETURN_IF_ERROR(blk_->WriteSync(home, content));
      }
      area_.Retire(cp.tx_id, cp.blocks_used, cp.end_offset);
    }
  }
  CCNVME_RETURN_IF_ERROR(blk_->FlushSync());
  return area_.WriteSuper(blk_);
}

}  // namespace ccnvme
