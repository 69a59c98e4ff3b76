#include "src/block/block_layer.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/metrics/metrics.h"
#include "src/sim/actor_local.h"
#include "src/trace/tracer.h"

namespace ccnvme {

// The hardware queue an actor submits on, and its plug list while it is
// plugged. Both are per actor (src/sim/actor_local.h), so no cross-actor
// synchronization is needed.
namespace {
ActorLocal<uint16_t> actor_queue;
ActorLocal<std::vector<BlockLayer::PluggedWrite>*> actor_plug_list;
}  // namespace

BlockLayer::BlockLayer(Simulator* sim, NvmeDriver* nvme, CcNvmeDriver* cc,
                       const HostCosts& costs)
    : sim_(sim), nvme_(nvme), cc_(cc), costs_(costs) {
  const SsdConfig& ssd = nvme->controller()->ssd().config();
  needs_flush_ = ssd.volatile_cache && !ssd.power_loss_protection;
}

void BlockLayer::BindQueue(uint16_t qid) {
  CCNVME_CHECK_LT(qid, nvme_->num_queues());
  actor_queue.get() = qid;
}

uint16_t BlockLayer::current_queue() const { return actor_queue.get(); }

uint64_t BlockLayer::Record(BioOp op, uint64_t lba, uint32_t flags, uint64_t tx_id,
                            const Buffer* data) {
  if (!recorder_) {
    return 0;
  }
  BioEvent ev;
  ev.op = op;
  ev.seq = next_record_seq_++;
  ev.lba = lba;
  ev.flags = flags;
  ev.tx_id = tx_id;
  if (data != nullptr) {
    ev.data = *data;
  }
  const uint64_t seq = ev.seq;
  recorder_(std::move(ev));
  return seq;
}

void BlockLayer::RecordCompletion(uint64_t seq) {
  if (!recorder_ || seq == 0) {
    return;
  }
  BioEvent ev;
  ev.op = BioOp::kComplete;
  ev.seq = seq;
  recorder_(std::move(ev));
}

NvmeDriver::RequestHandle BlockLayer::DispatchWrite(uint64_t lba, const Buffer* data, bool fua,
                                                    uint32_t flags,
                                                    std::function<void()> on_complete) {
  if (volume_ != nullptr) {
    return volume_->SubmitWrite(actor_queue.get(), lba, data, flags, std::move(on_complete));
  }
  return nvme_->SubmitWrite(actor_queue.get(), lba, data, fua, 0, 0, std::move(on_complete));
}

Status BlockLayer::DispatchFlush() {
  if (volume_ != nullptr) {
    return volume_->Flush(actor_queue.get());
  }
  return nvme_->Flush(actor_queue.get());
}

void BlockLayer::RecordTxDurable(uint64_t tx_id) {
  auto it = tx_members_.find(tx_id);
  if (it == tx_members_.end()) {
    return;
  }
  for (uint64_t seq : it->second) {
    RecordCompletion(seq);
  }
  tx_members_.erase(it);
}

void BlockLayer::Plug() {
  CCNVME_CHECK(actor_plug_list.get() == nullptr) << "nested Plug";
  actor_plug_list.get() = new std::vector<PluggedWrite>();
}

void BlockLayer::Unplug() {
  CCNVME_CHECK(actor_plug_list.get() != nullptr) << "Unplug without Plug";
  std::unique_ptr<std::vector<PluggedWrite>> list(std::exchange(actor_plug_list.get(), nullptr));
  if (list->empty()) {
    return;
  }
  std::sort(list->begin(), list->end(),
            [](const PluggedWrite& a, const PluggedWrite& b) { return a.lba < b.lba; });

  size_t i = 0;
  while (i < list->size()) {
    // Find the run of strictly consecutive LBAs starting at i.
    size_t j = i + 1;
    uint64_t next_lba = (*list)[i].lba + (*list)[i].data->size() / kLbaSize;
    while (j < list->size() && (*list)[j].lba == next_lba) {
      next_lba += (*list)[j].data->size() / kLbaSize;
      j++;
    }
    if (j == i + 1) {
      // Nothing to merge: dispatch as-is, completing the placeholder handle.
      PluggedWrite& w = (*list)[i];
      auto handle = w.handle;
      auto cb = w.on_complete;
      const uint64_t seq = w.record_seq;
      (void)DispatchWrite(w.lba, w.data, false, 0, [this, seq, handle, cb] {
        RecordCompletion(seq);
        if (cb) {
          cb();
        }
        handle->done.Signal();
      });
    } else {
      // Merge [i, j) into one request with a composite payload.
      auto merged = std::make_shared<Buffer>();
      std::vector<NvmeDriver::RequestHandle> handles;
      std::vector<std::function<void()>> callbacks;
      std::vector<uint64_t> seqs;
      for (size_t k = i; k < j; ++k) {
        merged->insert(merged->end(), (*list)[k].data->begin(), (*list)[k].data->end());
        handles.push_back((*list)[k].handle);
        callbacks.push_back((*list)[k].on_complete);
        seqs.push_back((*list)[k].record_seq);
      }
      (void)DispatchWrite(
          (*list)[i].lba, merged.get(), false, 0,
          [this, merged, handles, callbacks, seqs] {
            for (size_t k = 0; k < handles.size(); ++k) {
              RecordCompletion(seqs[k]);
              if (callbacks[k]) {
                callbacks[k]();
              }
              handles[k]->done.Signal();
            }
          });
    }
    i = j;
  }
}

NvmeDriver::RequestHandle BlockLayer::SubmitWrite(uint64_t lba, const Buffer* data,
                                                  uint32_t flags,
                                                  std::function<void()> on_complete) {
  CCNVME_CHECK(data != nullptr);
  Simulator::Sleep(costs_.block_layer_submit_ns);
  if (Tracer* t = sim_->tracer()) t->Instant(TracePoint::kBioSubmit, lba);
  if (actor_plug_list.get() != nullptr && flags == 0) {
    // Batched: hand back a placeholder handle completed at merge dispatch.
    PluggedWrite w;
    w.record_seq = Record(BioOp::kWrite, lba, flags, 0, data);
    w.lba = lba;
    w.data = data;
    w.handle = std::make_shared<NvmeDriver::Request>(sim_);
    w.on_complete = std::move(on_complete);
    actor_plug_list.get()->push_back(w);
    return w.handle;
  }
  if ((flags & kBioPreflush) != 0 && needs_flush_) {
    // PREFLUSH: drain the device cache before this write (the classic
    // journaling ordering point). The flush is its own command. On PLP
    // drives the flag is stripped here, as the real block layer does.
    if (Tracer* t = sim_->tracer()) t->Instant(TracePoint::kBioFlush);
    const uint64_t fseq = Record(BioOp::kFlush, 0, flags, 0, nullptr);
    Status st = DispatchFlush();
    CCNVME_CHECK(st.ok());
    RecordCompletion(fseq);
  }
  const uint64_t seq = Record(BioOp::kWrite, lba, flags, 0, data);
  auto wrapped = [this, seq, cb = std::move(on_complete)] {
    RecordCompletion(seq);
    if (cb) {
      cb();
    }
  };
  return DispatchWrite(lba, data, (flags & kBioFua) != 0, flags, std::move(wrapped));
}

Status BlockLayer::WriteSync(uint64_t lba, const Buffer& data, uint32_t flags) {
  return nvme_->Wait(SubmitWrite(lba, &data, flags));
}

Status BlockLayer::ReadSync(uint64_t lba, uint32_t num_blocks, Buffer* out) {
  Simulator::Sleep(costs_.block_layer_submit_ns);
  if (volume_ != nullptr) {
    return volume_->Read(actor_queue.get(), lba, num_blocks, out);
  }
  return nvme_->Read(actor_queue.get(), lba, num_blocks, out);
}

Status BlockLayer::WriteBack(const std::map<uint64_t, Buffer>& blocks) {
  std::vector<NvmeDriver::RequestHandle> handles;
  for (const auto& [lba, data] : blocks) {
    handles.push_back(SubmitWrite(lba, &data, 0));
  }
  for (auto& h : handles) {
    CCNVME_RETURN_IF_ERROR(Wait(h));
  }
  return FlushSync();
}

Status BlockLayer::FlushSync() {
  Simulator::Sleep(costs_.block_layer_submit_ns);
  if (!needs_flush_) {
    return OkStatus();
  }
  if (Tracer* t = sim_->tracer()) t->Instant(TracePoint::kBioFlush);
  const uint64_t seq = Record(BioOp::kFlush, 0, 0, 0, nullptr);
  Status st = DispatchFlush();
  if (st.ok()) {
    RecordCompletion(seq);
  }
  return st;
}

void BlockLayer::SubmitTxWrite(uint64_t tx_id, uint64_t lba, const Buffer* data,
                               std::function<void()> on_complete) {
  CCNVME_CHECK(cc_ != nullptr) << "stack has no ccNVMe extension";
  Simulator::Sleep(costs_.block_layer_submit_ns);
  if (Tracer* t = sim_->tracer()) {
    t->InstantWith(TracePoint::kBioSubmit, {CurrentTraceContext().req_id, tx_id}, lba);
  }
  if (Metrics* m = sim_->metrics()) {
    m->monitors().OnTxMemberStaged(tx_id);
  }
  if (volume_ != nullptr) {
    volume_->SubmitTx(actor_queue.get(), tx_id, lba, data, std::move(on_complete));
    return;
  }
  const uint64_t seq = Record(BioOp::kWrite, lba, kBioTx, tx_id, data);
  if (seq != 0) {
    tx_members_[tx_id].push_back(seq);
  }
  cc_->SubmitTx(actor_queue.get(), tx_id, lba, data, std::move(on_complete));
}

CcNvmeDriver::TxHandle BlockLayer::CommitTx(uint64_t tx_id, uint64_t lba, const Buffer* data,
                                            std::function<void()> on_durable) {
  CCNVME_CHECK(cc_ != nullptr) << "stack has no ccNVMe extension";
  Simulator::Sleep(costs_.block_layer_submit_ns);
  if (Tracer* t = sim_->tracer()) {
    t->InstantWith(TracePoint::kBioSubmit, {CurrentTraceContext().req_id, tx_id}, lba);
  }
  if (Metrics* m = sim_->metrics()) {
    // The commit record closes the transaction: every member block the
    // journal declared must have been staged through SubmitTxWrite by now.
    m->monitors().OnTxCommitRecord(tx_id);
  }
  if (volume_ != nullptr) {
    return volume_->CommitTx(actor_queue.get(), tx_id, lba, data, std::move(on_durable));
  }
  const uint64_t seq = Record(BioOp::kWrite, lba, kBioTx | kBioTxCommit, tx_id, data);
  if (seq != 0) {
    tx_members_[tx_id].push_back(seq);
  }
  auto wrapped = [this, tx_id, cb = std::move(on_durable)] {
    RecordTxDurable(tx_id);
    if (cb) {
      cb();
    }
  };
  return cc_->CommitTx(actor_queue.get(), tx_id, lba, data, std::move(wrapped));
}

void BlockLayer::WaitTxDurable(const CcNvmeDriver::TxHandle& tx) {
  const uint64_t begin = sim_->now();
  tx->durable.Wait();
  if (Tracer* t = sim_->tracer()) {
    t->WaitEdgeWith(WaitEdge::kTxDurable, {CurrentTraceContext().req_id, tx->tx_id},
                    begin, sim_->now());
  }
}

std::vector<CcNvmeDriver::UnfinishedRequest> BlockLayer::RecoveredWindow() const {
  if (volume_ != nullptr) {
    return volume_->RecoveredWindow();
  }
  if (cc_ != nullptr) {
    return cc_->recovered_window();
  }
  return {};
}

}  // namespace ccnvme
