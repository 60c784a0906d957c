#pragma once

// Scheduling policy interface.
//
// The engine calls Policy::select whenever at least one machine is free and
// at least one released job is waiting (the greedy invariant: some job must
// then be started). The policy answers with the organization whose
// front-of-queue job should start; the engine starts that organization's
// next FIFO job.
//
// Non-clairvoyance is enforced by the interface: PolicyView exposes queue
// lengths, run counts and accumulated performance accounting, but never the
// processing time of a waiting or running job. Policies learn a job's length
// only by observing its completion (through the accounting deltas), exactly
// as the paper's model prescribes.
//
// --- Push-based lifecycle --------------------------------------------------
//
// select() alone makes every decision O(num_orgs) (a full rescan); the
// engine therefore *pushes* state changes to the policy it drives so that
// policies can maintain per-organization priority keys incrementally and
// answer select() as an O(log num_orgs) argmin. While a policy is attached
// (Engine::run attaches automatically; manual drivers may call
// Engine::attach), the engine delivers, in event order:
//
//   reset(view)                    once, before the first event;
//   on_advance(view, dt)           the clock moved forward by dt; state
//                                  visible through `view` is already at the
//                                  new time;
//   on_release(view, u)            one or more jobs of u were released
//                                  at now() (after the waiting count grew
//                                  by all of them): one notification per
//                                  same-time run of u's releases;
//   on_complete(view, u, m)        one or more jobs of u completed at
//                                  now() (after the accounting of all of
//                                  them was updated and their machines
//                                  freed): one notification per same-time
//                                  run of u's completions, which reads its
//                                  length off the growth of completed(u);
//                                  m is the machine the run's last job
//                                  freed;
//   on_start(view, u, index, m)    u's job `index` started on m — delivered
//                                  by the run loop, immediately after the
//                                  policy's own select() answer was applied.
//
// All notification virtuals are default no-ops: a pre-existing policy that
// only overrides select(view) still compiles and behaves exactly as before
// — the scan-based select IS the adapter path, and it remains the supported
// interface for out-of-tree policies (see docs/ARCHITECTURE.md for the
// deprecation policy). Incremental policies must tolerate drivers that
// never attach: PolicyView::state_version() counts every engine state
// change, so a mirror can detect missed notifications and rebuild itself
// from the view (sched/org_index.h packages that pattern).

#include <cstdint>

#include "core/types.h"

namespace fairsched {

class Engine;
class Instance;

// Read-only, non-clairvoyant window into the engine state.
class PolicyView {
 public:
  explicit PolicyView(const Engine& engine) : engine_(engine) {}

  Time now() const;
  std::uint32_t num_orgs() const;
  bool active(OrgId u) const;

  // Queue state.
  std::uint32_t waiting(OrgId u) const;   // released, not yet started
  // Release time of u's front waiting job (release times of released jobs
  // are public knowledge; only processing times are hidden). Precondition:
  // waiting(u) > 0.
  Time front_release(OrgId u) const;
  std::uint32_t running(OrgId u) const;   // started, not yet completed
  std::uint32_t completed(OrgId u) const;
  std::uint32_t free_machines() const;
  std::uint32_t machines_of(OrgId u) const;
  // Of u's machines, how many currently execute a job (any owner's).
  std::uint32_t busy_machines(OrgId u) const;
  // Owner of machine m (ownership is static, public knowledge).
  OrgId machine_owner(MachineId m) const;
  double share(OrgId u) const;  // machine share within the active coalition

  // Accounting at now() — all quantities refer to *elapsed* execution only.
  HalfUtil psi2(OrgId u) const;          // 2*psi_sp of u's jobs
  HalfUtil contrib_psi2(OrgId u) const;  // 2*psi_sp-value of parts run on u's machines
  std::int64_t work_done(OrgId u) const;     // unit parts of u's jobs executed
  std::int64_t contrib_work(OrgId u) const;  // unit parts executed on u's machines

  // Monotone counter of engine state changes: one per notification point
  // (a same-time completion run or release run) plus one per job started. A
  // policy mirroring engine state incrementally compares this against the
  // version it last synchronized at to detect state changes it was not
  // notified of (drivers that step the engine without attaching).
  std::uint64_t state_version() const;

 private:
  const Engine& engine_;
};

class Policy {
 public:
  virtual ~Policy() = default;

  // Called once before the simulation starts.
  virtual void reset(const PolicyView& /*view*/) {}

  // Picks the organization whose front job to start. Only called when
  // view.free_machines() > 0 and some organization has waiting(u) > 0; must
  // return an organization with waiting(u) > 0.
  virtual OrgId select(const PolicyView& view) = 0;

  // Notification after a job start (default: ignore).
  virtual void on_start(const PolicyView& /*view*/, OrgId /*org*/,
                        std::uint32_t /*index*/, MachineId /*machine*/) {}

  // Push notifications (defaults: ignore — scan-only policies need none of
  // these). Delivered only while the policy is attached to the engine; see
  // the lifecycle note above.
  virtual void on_release(const PolicyView& /*view*/, OrgId /*org*/) {}
  virtual void on_complete(const PolicyView& /*view*/, OrgId /*org*/,
                           MachineId /*machine*/) {}
  virtual void on_advance(const PolicyView& /*view*/, Time /*dt*/) {}
};

}  // namespace fairsched

// The PolicyView accessors are defined inline after Engine (sim/engine.h
// includes this header first, so this include is a no-op there).
#include "sim/engine.h"
