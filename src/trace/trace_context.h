// Request-flow attribution context.
//
// A TraceContext carries the (request id, transaction id) pair of the
// file-system operation currently executing on this actor. It flows with the
// request: the file system allocates a request id per fsync/fatomic, the
// journal stamps the transaction id, the drivers copy it into the NVMe SQE
// (CDW4-5, reserved in the spec and unused by this device model) and restore
// it on the device/bottom-half actors when the command or CQE is processed —
// so one end-to-end sync decomposes into attributed per-layer spans.
//
// The context is per actor (an ActorLocal, src/sim/actor_local.h): it
// survives the actor's sleeps, a new actor starts unattributed, and the event
// loop's callbacks see their own copy. The block layer keeps its queue
// binding and plug list the same way.
//
// Ids are allocated and propagated UNCONDITIONALLY, whether or not a Tracer
// is attached: attribution must never change virtual-time behavior, and the
// cheapest way to guarantee that is to make the id plumbing identical in
// both modes (the determinism test in tests/trace_test.cc enforces it).
#ifndef SRC_TRACE_TRACE_CONTEXT_H_
#define SRC_TRACE_TRACE_CONTEXT_H_

#include <cstdint>

#include "src/sim/actor_local.h"

namespace ccnvme {

struct TraceContext {
  uint64_t req_id = 0;   // 0 = unattributed
  uint64_t tx_id = 0;    // 0 = no transaction
  uint16_t device = 0;   // member device of a multi-device volume
};

namespace trace_internal {
inline ActorLocal<TraceContext> actor_trace_ctx;
}  // namespace trace_internal

inline TraceContext& MutableTraceContext() { return trace_internal::actor_trace_ctx.get(); }
inline const TraceContext& CurrentTraceContext() { return trace_internal::actor_trace_ctx.get(); }

// RAII: installs |ctx| for the current actor, restores the previous context
// on destruction (exception-safe across SimShutdown unwinding).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx) : saved_(CurrentTraceContext()) {
    MutableTraceContext() = ctx;
  }
  ~ScopedTraceContext() { MutableTraceContext() = saved_; }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

}  // namespace ccnvme

#endif  // SRC_TRACE_TRACE_CONTEXT_H_
