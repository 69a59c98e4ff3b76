// Block layer: the bio abstraction between file systems and drivers.
//
// Mirrors the Linux block layer's role in Figure 3: file systems build bios,
// tag them (REQ_FUA / REQ_PREFLUSH for classic ordering, REQ_TX /
// REQ_TX_COMMIT plus a transaction ID for ccNVMe), and submit them on the
// hardware queue bound to the current core. The layer charges the per-bio
// software cost (Figure 14 shows it at ~1 us) and routes:
//   * ordinary bios        -> the stock NVMe driver
//   * REQ_TX-tagged bios   -> the ccNVMe driver's transactional path
// A recorder hook observes every submission — the CrashMonkey-style tester
// plugs in there.
#ifndef SRC_BLOCK_BLOCK_LAYER_H_
#define SRC_BLOCK_BLOCK_LAYER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/block/bio_event.h"
#include "src/ccnvme/ccnvme_driver.h"
#include "src/common/status.h"
#include "src/driver/nvme_driver.h"
#include "src/volume/volume.h"

namespace ccnvme {

class NvmDevice;

class BlockLayer {
 public:
  // |cc| may be null for stacks without the ccNVMe extension.
  BlockLayer(Simulator* sim, NvmeDriver* nvme, CcNvmeDriver* cc, const HostCosts& costs);

  // Routes all I/O through |volume| instead of the single device drivers.
  // The volume does its own event recording (per-member device), so the
  // block-layer recorder should stay unset in volume mode.
  void set_volume(Volume* volume) { volume_ = volume; }
  bool has_volume() const { return volume_ != nullptr; }
  Volume* volume() { return volume_; }

  // Binds the calling actor to hardware queue |qid| (per-core queues).
  void BindQueue(uint16_t qid);
  uint16_t current_queue() const;

  // --- Ordinary (non-transactional) path --------------------------------

  // Asynchronous write; |data| must outlive completion.
  NvmeDriver::RequestHandle SubmitWrite(uint64_t lba, const Buffer* data, uint32_t flags,
                                        std::function<void()> on_complete = nullptr);

  // --- Plugging / request merging ----------------------------------------
  // Between Plug() and Unplug(), plain writes (flags == 0) on this queue are
  // batched; Unplug() merges runs of consecutive LBAs into single requests
  // before dispatch (Linux's blk-mq plug). Table 1 counts unmerged traffic
  // ("if block merging is disabled"); merging reduces the Block I/O and IRQ
  // columns for sequential patterns like journal writes.
  void Plug();
  void Unplug();
  Status WriteSync(uint64_t lba, const Buffer& data, uint32_t flags = 0);
  Status ReadSync(uint64_t lba, uint32_t num_blocks, Buffer* out);
  Status FlushSync();
  Status Wait(const NvmeDriver::RequestHandle& req) { return nvme_->Wait(req); }

  // Newest-wins write-back: |blocks| maps each home block to its final
  // bytes (the caller keeps only the newest copy of each). Submits every
  // write asynchronously in LBA order, waits for all of them, then flushes
  // once. NVLog's drain and every journal's recovery write through here.
  Status WriteBack(const std::map<uint64_t, Buffer>& blocks);

  // --- ccNVMe transactional path -----------------------------------------

  bool has_ccnvme() const { return cc_ != nullptr; }
  CcNvmeDriver* ccnvme() { return cc_; }

  // Stages one atomic write on the current queue's open transaction.
  // |on_complete| fires when this request's CQE arrives.
  void SubmitTxWrite(uint64_t tx_id, uint64_t lba, const Buffer* data,
                     std::function<void()> on_complete = nullptr);
  // Stages the commit record and performs the transaction-aware MMIO flush
  // + doorbell. When this returns the transaction is ATOMIC (MQFS-A point);
  // wait on the returned handle for DURABILITY (MQFS point).
  CcNvmeDriver::TxHandle CommitTx(uint64_t tx_id, uint64_t lba, const Buffer* data,
                                  std::function<void()> on_durable = nullptr);

  // Blocks until the transaction is durable — for a volume-level handle
  // that means durable on EVERY member device. Journals use this instead of
  // reaching for ccnvme()->WaitDurable so they work on both stack shapes.
  void WaitTxDurable(const CcNvmeDriver::TxHandle& tx);

  // The in-doubt window found at driver bring-up: the single device's
  // [P-SQ-head, P-SQDB) window, or the union across all volume members.
  std::vector<CcNvmeDriver::UnfinishedRequest> RecoveredWindow() const;

  // --- NVM tier (NVLog) ---------------------------------------------------
  // The byte-addressable NVM device, when the stack has one. The block
  // layer only carries the pointer (file systems reach it through their
  // block layer the same way they reach the ccNVMe driver); all NVM traffic
  // goes through the device directly, never through bios.
  void set_nvm(NvmDevice* nvm) { nvm_ = nvm; }
  NvmDevice* nvm() { return nvm_; }

  void set_recorder(BioRecorder recorder) { recorder_ = std::move(recorder); }

  // True when the device has a volatile write cache without power-loss
  // protection, i.e. FLUSH/PREFLUSH actually matter. On PLP drives the
  // block layer strips them (the paper observes exactly this on Optane).
  bool NeedsExplicitFlush() const { return needs_flush_; }

  struct PluggedWrite {
    uint64_t lba;
    const Buffer* data;
    uint64_t record_seq = 0;  // recorder seq of the submission event
    NvmeDriver::RequestHandle handle;
    std::function<void()> on_complete;
  };

 private:
  // Single-device or volume dispatch for plain writes / flushes.
  NvmeDriver::RequestHandle DispatchWrite(uint64_t lba, const Buffer* data, bool fua,
                                          uint32_t flags, std::function<void()> on_complete);
  Status DispatchFlush();
  // Returns the submission sequence number of the recorded event.
  uint64_t Record(BioOp op, uint64_t lba, uint32_t flags, uint64_t tx_id, const Buffer* data);
  void RecordCompletion(uint64_t seq);
  void RecordTxDurable(uint64_t tx_id);

  Simulator* sim_;
  NvmeDriver* nvme_;
  CcNvmeDriver* cc_;
  Volume* volume_ = nullptr;
  NvmDevice* nvm_ = nullptr;
  HostCosts costs_;
  BioRecorder recorder_;
  bool needs_flush_ = false;
  uint64_t next_record_seq_ = 1;
  // ccNVMe transaction members awaiting their durable completion record.
  std::map<uint64_t, std::vector<uint64_t>> tx_members_;
};

}  // namespace ccnvme

#endif  // SRC_BLOCK_BLOCK_LAYER_H_
