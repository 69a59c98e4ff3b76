// Per-actor state.
//
// Actors are fibers that share one OS thread (see src/sim/simulator.h), so a
// thread_local is shared by every actor of a simulator. State that belongs to
// "the code running right now" (a queue binding, a plug list, a bound core, a
// trace context) is declared as an ActorLocal instead:
//
//   namespace { ActorLocal<uint16_t> actor_queue; }
//   actor_queue.get() = 3;  // seen only by the calling actor
//
// Rules:
//   - A newly spawned actor starts from the declared initial values.
//   - Values set by an actor survive its sleeps and blocks and are invisible
//     to every other actor.
//   - Code outside any actor (the event loop, its Schedule() callbacks, test
//     bodies) sees one copy per OS thread. A simulator driven from inside
//     another simulator's actor runs its loop on that actor, so its callbacks
//     see that actor's copy.
//
// Declare ActorLocals at namespace scope only: they are laid out during static
// initialization, before any actor exists. Values must be trivially copyable,
// because each actor's copy is one fixed-size byte block and switching actors
// swaps a single pointer.
#ifndef SRC_SIM_ACTOR_LOCAL_H_
#define SRC_SIM_ACTOR_LOCAL_H_

#include <cstddef>
#include <new>
#include <type_traits>

namespace ccnvme {

namespace sim_internal {

inline constexpr size_t kActorLocalBytes = 128;

struct ActorLocalBlock {
  alignas(16) unsigned char bytes[kActorLocalBytes];
};

// Reserves a slot and records |init| as its initial value; returns its offset.
size_t RegisterActorLocal(const void* init, size_t size, size_t align);
// Fills |block| with every slot's initial value.
void InitActorLocals(ActorLocalBlock* block);
// The running actor's block, or the calling OS thread's outside any actor.
ActorLocalBlock* CurrentActorLocals();
// Makes |block| current (nullptr = the OS thread's own); returns the previous.
ActorLocalBlock* SwapActorLocals(ActorLocalBlock* block);

}  // namespace sim_internal

template <typename T>
class ActorLocal {
  static_assert(std::is_trivially_copyable_v<T>, "ActorLocal values are copied as bytes");

 public:
  explicit ActorLocal(T init = T{})
      : offset_(sim_internal::RegisterActorLocal(&init, sizeof(T), alignof(T))) {}

  T& get() const {
    unsigned char* slot = sim_internal::CurrentActorLocals()->bytes + offset_;
    return *std::launder(reinterpret_cast<T*>(slot));
  }

 private:
  const size_t offset_;
};

}  // namespace ccnvme

#endif  // SRC_SIM_ACTOR_LOCAL_H_
