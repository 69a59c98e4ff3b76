// Virtual-time discrete-event simulation core.
//
// The simulator owns a virtual clock and an event queue. Host software
// (file systems, drivers, workloads) and device controllers run as *actors*:
// user-space fibers, each with its own stack, that run one at a time on the
// OS thread driving the event loop. An actor hands control back to the event
// loop whenever it sleeps, performs modeled CPU work, or blocks on a
// synchronization primitive, so a run is fully deterministic for a given set
// of actors and seeds. Because actors share an OS thread, per-actor state is
// an ActorLocal (src/sim/actor_local.h), never a thread_local.
//
// Usage:
//   Simulator sim;
//   sim.Spawn("app", [&] { Simulator::Sleep(1000); ... });
//   sim.Run();
//
// All actor-side entry points (Sleep, SuspendCurrent, ...) must be called
// from inside an actor body. Event callbacks scheduled with Schedule() run
// on the event loop, outside any actor, and must not block; they typically
// just resume actors or enqueue work.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/sim/actor_local.h"

namespace ccnvme {

class Simulator;
class Tracer;   // src/trace — the sim only carries the pointer
class Metrics;  // src/metrics — same attachment contract as the tracer

namespace sim_internal {
struct Fiber;  // saved registers and stack, defined in simulator.cc
}  // namespace sim_internal

// Thrown inside actor bodies when the simulation shuts down; the actor's
// entry function catches it. User code should not catch it (catch(...)
// handlers on actor paths must rethrow).
struct SimShutdown {};

// A cooperative simulated thread. Created via Simulator::Spawn.
class Actor {
 public:
  ~Actor();

  const std::string& name() const { return name_; }
  bool done() const { return state_ == RunState::kDone; }

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

 private:
  friend class Simulator;

  enum class RunState { kNotStarted, kRunnable, kRunning, kBlocked, kDone };

  Actor(Simulator* sim, std::string name, std::function<void()> body);

  Simulator* sim_;
  std::string name_;
  std::function<void()> body_;
  RunState state_ = RunState::kNotStarted;
  // Created when the actor first runs, released once its body has finished.
  std::unique_ptr<sim_internal::Fiber> fiber_;
  sim_internal::ActorLocalBlock locals_;
};

class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  uint64_t now() const { return now_ns_; }

  // Schedules |fn| to run on the event loop |delay_ns| from now.
  void Schedule(uint64_t delay_ns, std::function<void()> fn);
  void ScheduleAt(uint64_t time_ns, std::function<void()> fn);

  // Creates an actor whose |body| starts executing at the current time.
  Actor* Spawn(std::string name, std::function<void()> body);

  // Drains the event queue. Returns when no events remain (actors may still
  // be blocked waiting on external stimuli).
  void Run();
  // Processes events with timestamp <= now()+duration, then sets the clock
  // to exactly now()+duration.
  void RunFor(uint64_t duration_ns);
  void RunUntil(uint64_t time_ns);

  // Wakes every started, unfinished actor with SimShutdown and lets it unwind;
  // actors that never ran are marked done. Idempotent; also called by the
  // destructor.
  void Shutdown();

  // --- Actor-side API ---------------------------------------------------

  // The simulator owning the calling actor (outside any actor: the simulator
  // whose actor is running the enclosing event loop, or nullptr).
  static Simulator* Current();
  static Actor* CurrentActor();

  // Advances virtual time for the calling actor.
  static void Sleep(uint64_t ns);

  // Blocks the calling actor until another party calls ResumeActor on it.
  // Building block for all synchronization primitives.
  void SuspendCurrent();

  // Schedules |actor| to continue at the current virtual time. Callable from
  // event callbacks or from other actors.
  void ResumeActor(Actor* actor);

  // Number of events processed so far (for tests and debugging).
  uint64_t events_processed() const { return events_processed_; }

  // Optional cross-layer tracer (src/trace). The simulator never
  // dereferences it — this is only the attachment point components query,
  // so enabling tracing cannot change event processing. Not owned.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  // Optional metrics engine + invariant monitors (src/metrics). Exactly the
  // tracer contract: the simulator never dereferences the pointer, hooks
  // only read now() and write their own memory, so enabling metrics cannot
  // change event processing. Not owned.
  void set_metrics(Metrics* metrics) { metrics_ = metrics; }
  Metrics* metrics() const { return metrics_; }

  // True once Shutdown has begun. Synchronization primitives consult this
  // to tolerate RAII unwinding (e.g. a lock guard releasing a mutex the
  // unwinding actor no longer owns because it was parked in a CondVar).
  bool shutting_down() const { return shutdown_; }

 private:
  struct Event {
    uint64_t time;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  // Switches to |actor| and returns once it yields back or finishes.
  void RunActor(Actor* actor);
  // Called from actors: switches back to the event loop and returns when
  // resumed. Throws SimShutdown when the simulation is ending.
  void YieldToSim();
  // First code run on an actor's stack. An exception other than SimShutdown
  // escaping the body terminates the program.
  static void ActorEntry() noexcept;
  bool ProcessNextEvent(uint64_t limit_ns);

  uint64_t now_ns_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::vector<std::unique_ptr<Actor>> actors_;
  bool shutdown_ = false;
  Tracer* tracer_ = nullptr;
  Metrics* metrics_ = nullptr;
  // The event loop's context while one of its actors runs.
  std::unique_ptr<sim_internal::Fiber> loop_;
};

}  // namespace ccnvme

#endif  // SRC_SIM_SIMULATOR_H_
