#include "src/sim/simulator.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/logging.h"

// Sanitizers must be told about every stack switch: ASan to track the stack
// it checks and to scan the right one for leaks, TSan to keep a separate
// shadow call stack per fiber.
#if defined(__SANITIZE_ADDRESS__)
#define CCNVME_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CCNVME_ASAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define CCNVME_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CCNVME_TSAN_FIBERS 1
#endif
#endif
#ifdef CCNVME_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#endif
#ifdef CCNVME_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace ccnvme {

namespace sim_internal {

// A user-space execution context: an actor, or the event loop while one of
// its actors runs.
struct Fiber {
  ucontext_t context{};
  // An actor's stack mapping, guard page first; null for the event loop.
  char* mapping = nullptr;
  // The stack this context runs on. For the event loop it is learned on the
  // first switch into an actor (only ASan needs it).
  const void* stack_bottom = nullptr;
  size_t stack_size = 0;
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;

  Fiber() = default;
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();
};

}  // namespace sim_internal

namespace {

using sim_internal::Fiber;

// Address space per actor stack. The mapping is MAP_NORESERVE, so only the
// pages an actor touches cost memory; the rest is headroom for deep paths
// in debug and sanitizer builds.
constexpr size_t kStackBytes = size_t{1} << 20;

size_t GuardBytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// The running actor. RunActor sets it for the actor it switches to and
// restores it when that actor switches back, so code on an event loop sees
// the actor (if any) that runs the loop.
thread_local Actor* tls_actor = nullptr;

std::unique_ptr<Fiber> NewActorFiber(void (*entry)()) {
  auto fiber = std::make_unique<Fiber>();
  const size_t guard = GuardBytes();
  void* mapping = mmap(nullptr, guard + kStackBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  CCNVME_CHECK(mapping != MAP_FAILED) << "actor stack: " << std::strerror(errno);
  CCNVME_CHECK_EQ(mprotect(mapping, guard, PROT_NONE), 0) << std::strerror(errno);
  fiber->mapping = static_cast<char*>(mapping);
  fiber->stack_bottom = fiber->mapping + guard;
  fiber->stack_size = kStackBytes;
  CCNVME_CHECK_EQ(getcontext(&fiber->context), 0);
  fiber->context.uc_stack.ss_sp = fiber->mapping + guard;
  fiber->context.uc_stack.ss_size = kStackBytes;
  fiber->context.uc_link = nullptr;
  makecontext(&fiber->context, entry, 0);
#ifdef CCNVME_TSAN_FIBERS
  fiber->tsan_fiber = __tsan_create_fiber(0);
#endif
  return fiber;
}

// Saves the running context in |from| and resumes |to|; returns once |to|
// (the only context that ever resumes |from|) switches back.
void SwitchFiber(Fiber* from, Fiber* to) {
#ifdef CCNVME_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&from->asan_fake_stack, to->stack_bottom, to->stack_size);
#endif
#ifdef CCNVME_TSAN_FIBERS
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
  CCNVME_CHECK_EQ(swapcontext(&from->context, &to->context), 0);
#ifdef CCNVME_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(from->asan_fake_stack, &to->stack_bottom, &to->stack_size);
#endif
}

// Last switch away from a finished actor; its stack is never used again.
[[noreturn]] void ExitFiber(Fiber* to) {
#ifdef CCNVME_ASAN_FIBERS
  __sanitizer_start_switch_fiber(nullptr, to->stack_bottom, to->stack_size);
#endif
#ifdef CCNVME_TSAN_FIBERS
  __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
  setcontext(&to->context);
  CCNVME_CHECK(false) << "setcontext returned: " << std::strerror(errno);
  __builtin_unreachable();
}

}  // namespace

sim_internal::Fiber::~Fiber() {
  if (mapping == nullptr) {
    return;
  }
#ifdef CCNVME_TSAN_FIBERS
  __tsan_destroy_fiber(tsan_fiber);
#endif
#ifdef CCNVME_ASAN_FIBERS
  // Frames that never returned leave their redzones poisoned; clear them so
  // a later mapping at this address starts clean.
  ASAN_UNPOISON_MEMORY_REGION(stack_bottom, stack_size);
#endif
  munmap(mapping, GuardBytes() + kStackBytes);
}

Actor::Actor(Simulator* sim, std::string name, std::function<void()> body)
    : sim_(sim), name_(std::move(name)), body_(std::move(body)) {
  sim_internal::InitActorLocals(&locals_);
}

Actor::~Actor() = default;

Simulator::Simulator() : loop_(std::make_unique<sim_internal::Fiber>()) {}

Simulator::~Simulator() { Shutdown(); }

void Simulator::Schedule(uint64_t delay_ns, std::function<void()> fn) {
  ScheduleAt(now_ns_ + delay_ns, std::move(fn));
}

void Simulator::ScheduleAt(uint64_t time_ns, std::function<void()> fn) {
  CCNVME_CHECK_GE(time_ns, now_ns_) << "scheduling into the past";
  events_.push(Event{time_ns, next_seq_++, std::move(fn)});
}

Actor* Simulator::Spawn(std::string name, std::function<void()> body) {
  auto actor = std::unique_ptr<Actor>(new Actor(this, std::move(name), std::move(body)));
  Actor* raw = actor.get();
  actors_.push_back(std::move(actor));
  raw->state_ = Actor::RunState::kRunnable;
  Schedule(0, [this, raw] { RunActor(raw); });
  return raw;
}

void Simulator::ActorEntry() noexcept {
  Actor* actor = tls_actor;
  Simulator* sim = actor->sim_;
#ifdef CCNVME_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &sim->loop_->stack_bottom, &sim->loop_->stack_size);
#endif
  try {
    actor->body_();
  } catch (const SimShutdown&) {
    // Normal teardown path.
  }
  actor->state_ = Actor::RunState::kDone;
  ExitFiber(sim->loop_.get());
}

void Simulator::RunActor(Actor* actor) {
  if (actor->state_ == Actor::RunState::kDone) {
    return;
  }
  CCNVME_CHECK(actor->state_ == Actor::RunState::kRunnable)
      << "actor " << actor->name_ << " resumed while not runnable";
  actor->state_ = Actor::RunState::kRunning;
  if (actor->fiber_ == nullptr) {
    actor->fiber_ = NewActorFiber(&ActorEntry);
  }
#ifdef CCNVME_TSAN_FIBERS
  loop_->tsan_fiber = __tsan_get_current_fiber();
#endif
  Actor* const outer_actor = std::exchange(tls_actor, actor);
  sim_internal::ActorLocalBlock* const outer_locals =
      sim_internal::SwapActorLocals(&actor->locals_);
  SwitchFiber(loop_.get(), actor->fiber_.get());
  tls_actor = outer_actor;
  sim_internal::SwapActorLocals(outer_locals);
  if (actor->state_ == Actor::RunState::kDone) {
    actor->fiber_.reset();
  }
}

void Simulator::YieldToSim() {
  Actor* actor = tls_actor;
  CCNVME_CHECK(actor != nullptr && actor->sim_ == this) << "YieldToSim outside an actor";
  SwitchFiber(actor->fiber_.get(), loop_.get());
  if (shutdown_) {
    throw SimShutdown{};
  }
}

Simulator* Simulator::Current() { return tls_actor != nullptr ? tls_actor->sim_ : nullptr; }

Actor* Simulator::CurrentActor() { return tls_actor; }

void Simulator::Sleep(uint64_t ns) {
  Actor* actor = tls_actor;
  CCNVME_CHECK(actor != nullptr) << "Sleep outside an actor";
  Simulator* sim = actor->sim_;
  actor->state_ = Actor::RunState::kRunnable;
  sim->Schedule(ns, [sim, actor] { sim->RunActor(actor); });
  sim->YieldToSim();
}

void Simulator::SuspendCurrent() {
  Actor* actor = tls_actor;
  CCNVME_CHECK(actor != nullptr && actor->sim_ == this) << "SuspendCurrent outside an actor";
  actor->state_ = Actor::RunState::kBlocked;
  YieldToSim();
}

void Simulator::ResumeActor(Actor* actor) {
  if (shutdown_) {
    // Teardown wakes every actor directly; resumes issued while unwinding
    // (e.g. a lock released by a destructor) are no-ops.
    return;
  }
  CCNVME_CHECK(actor->state_ == Actor::RunState::kBlocked)
      << "resume of non-blocked actor " << actor->name_;
  actor->state_ = Actor::RunState::kRunnable;
  Schedule(0, [this, actor] { RunActor(actor); });
}

bool Simulator::ProcessNextEvent(uint64_t limit_ns) {
  if (events_.empty() || events_.top().time > limit_ns) {
    return false;
  }
  // Copy out: priority_queue::top() is const and fn must be movable-invoked.
  Event ev = events_.top();
  events_.pop();
  CCNVME_CHECK_GE(ev.time, now_ns_);
  now_ns_ = ev.time;
  events_processed_++;
  ev.fn();
  return true;
}

void Simulator::Run() {
  while (ProcessNextEvent(~0ull)) {
  }
}

void Simulator::RunFor(uint64_t duration_ns) { RunUntil(now_ns_ + duration_ns); }

void Simulator::RunUntil(uint64_t time_ns) {
  while (ProcessNextEvent(time_ns)) {
  }
  if (time_ns > now_ns_) {
    now_ns_ = time_ns;
  }
}

void Simulator::Shutdown() {
  if (shutdown_) {
    return;
  }
  shutdown_ = true;
  // By index: an unwinding actor may still spawn.
  for (size_t i = 0; i < actors_.size(); ++i) {
    Actor* actor = actors_[i].get();
    if (actor->state_ == Actor::RunState::kDone) {
      continue;
    }
    if (actor->fiber_ == nullptr) {
      // Never ran, so there is nothing to unwind.
      actor->state_ = Actor::RunState::kDone;
      continue;
    }
    // Resume the actor directly; it observes shutdown_ and unwinds.
    actor->state_ = Actor::RunState::kRunnable;
    RunActor(actor);
  }
}

}  // namespace ccnvme
