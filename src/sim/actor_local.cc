#include "src/sim/actor_local.h"

#include <cstring>

#include "src/common/logging.h"

namespace ccnvme::sim_internal {

namespace {

struct Layout {
  size_t used = 0;
  ActorLocalBlock initial{};
};

// Written only during static initialization; read-only afterwards.
Layout& GetLayout() {
  static Layout layout;
  return layout;
}

thread_local ActorLocalBlock tls_own_block;
thread_local ActorLocalBlock* tls_current = nullptr;

}  // namespace

size_t RegisterActorLocal(const void* init, size_t size, size_t align) {
  Layout& layout = GetLayout();
  CCNVME_CHECK_LE(align, alignof(ActorLocalBlock)) << "over-aligned ActorLocal";
  const size_t offset = (layout.used + align - 1) / align * align;
  CCNVME_CHECK_LE(offset + size, kActorLocalBytes) << "raise kActorLocalBytes";
  std::memcpy(layout.initial.bytes + offset, init, size);
  layout.used = offset + size;
  return offset;
}

void InitActorLocals(ActorLocalBlock* block) {
  std::memcpy(block->bytes, GetLayout().initial.bytes, kActorLocalBytes);
}

ActorLocalBlock* CurrentActorLocals() {
  if (tls_current == nullptr) {
    InitActorLocals(&tls_own_block);
    tls_current = &tls_own_block;
  }
  return tls_current;
}

ActorLocalBlock* SwapActorLocals(ActorLocalBlock* block) {
  ActorLocalBlock* previous = tls_current;
  tls_current = block;
  return previous;
}

}  // namespace ccnvme::sim_internal
