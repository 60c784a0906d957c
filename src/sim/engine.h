#pragma once

// Event-driven simulator for multi-organizational greedy scheduling.
//
// The paper describes its algorithms as acting at every discrete time
// moment; since greedy algorithms only make decisions when a machine frees
// or a job arrives, the engine advances directly between such events and
// accrues the strategy-proof utility (and the machine-owner contribution
// used by DIRECTCONTR) in closed form over each event-free interval:
//
//   with C = units completed before t1 and w = jobs running throughout
//   [t1, t2):   2*psi(t2) = 2*psi(t1) + 2*C*(t2-t1) + w*(t2-t1)*(t2-t1+1)
//
// (each running job contributes one fresh unit per slot; a unit in slot i is
// worth t - i at time t). This reproduces Eq. 3 exactly — see
// tests/test_engine.cc which cross-checks against the closed form on the
// final schedule.
//
// The closed form is linear in (C, w), so it splits exactly across
// sub-intervals and sums exactly across organizations. The engine exploits
// both: per-organization accounts accrue *lazily* (each carries its own
// `accrued_at` timestamp and is folded forward only when read or when its
// running/busy count changes), and coalition-level aggregates (value2,
// total_work_done) are O(1) closed-form reads off three running sums —
// advancing the clock costs O(1), not O(num_orgs). Both shortcuts are
// bit-exact against the eager per-event loop they replaced.
//
// --- Event queue and tie-break ---------------------------------------------
//
// Releases and completions wait in two binary min-heaps of Event{time, org,
// index, machine}: `releases_` ordered by (time, org, index) and
// `completions_` ordered the same way. advance_to pops whichever top is
// earlier and takes the completion when the times are equal, so
// simultaneous events are applied in the one total order
//
//   (time, completions before releases, org, index)
//
// — machines freed at t are available to jobs arriving at t. The key is
// unique per event (a job has one release and one completion), so the
// drain order does not depend on the order events were pushed: a driver
// that injects releases (EngineOptions::external_releases) sees the same
// event sequence as a preloaded engine.
//
// --- Release runs ------------------------------------------------------------
//
// An organization's releases at one timestamp are adjacent in that order
// (no completion can fall between them: completions at t pop first, and
// none is pushed while advance_to drains). The engine therefore admits a
// whole same-(time, org) run in one step: released and waiting counts and
// events_processed() grow by the run length, and the listener hears one
// on_release(view, u) for the run, reading its length off waiting(u). In
// batch mode the run is the stretch of u's release-sorted job list with
// that release; in external-releases mode it is the heap entries with the
// same (time, org) behind the one that popped. Decisions cannot tell the
// difference — no policy decides between two releases of one timestamp.
//
// A preloaded engine streams each organization's releases: the heap holds
// only its next one. After a run is admitted, the organization's next run
// is admitted straight from the instance for as long as it is still the
// earliest event of that order (at or before the advance_to target,
// strictly before the next completion, ahead of the release heap's top);
// the first that is not goes into the heap. That is the same rule applied
// without a heap round-trip. Together with run admission it is what keeps
// unit-piece deviations (one org's jobs split into long same-release runs)
// cheap: a run costs one notification, not one per piece.
//
// --- Completion runs ---------------------------------------------------------
//
// The completion side has the same shape: an organization's completions
// at one timestamp are adjacent in the completion heap's (time, org,
// index) order, so when one pops, advance_to takes the completions with
// the same (time, org) right behind it as one run. Each job of the run
// frees its machine and folds that machine's owner; the organization's
// own account and the aggregate fold once. completed(u) and
// events_processed() grow by the run length, and the listener hears one
// on_complete(view, u, m) after the whole run's accounting, where m is the
// machine the run's last job freed. A policy that needs the number of
// jobs reads the growth of completed(u). Unit pieces started together end
// together, so a split-unit deviation's completions, like its releases,
// cost one notification per run. With kRandomFree (below) a run is only
// pops that are adjacent anyway, so the pop sequence, and with it the
// free list's order, does not depend on run grouping.
//
// One exception, and it is DIRECTCONTR's: with MachinePick::kRandomFree
// the completion heap orders by time alone. Same-time completions then pop
// in whatever order the heap's sifts leave them, which is a function of the
// heap's push/pop sequence only — the same sequence the historical
// time-only heap saw — so machines return to the free list in the
// historical order that the random machine draw indexes into. That order
// is part of DIRECTCONTR's published RNG stream and cannot change without
// changing results (tests/test_policies.cc pins it). kFirstFree engines
// (every other policy, REF, RAND) see no such effect: machines re-enter an
// id-ordered free set and all accounting is commutative within one
// timestamp.
//
// The engine is a manually steppable state machine (advance_to /
// start_front) so that ensemble schedulers can make the decisions
// themselves: REF drives one engine per subcoalition, and its decisions
// read the values of engines that already ran (sched/ref.h). RAND needs no
// engine for its sampled coalitions: their FCFS schedules are closed-form
// list schedules (sched/rand_fair.h) read through AggSnapshot.
// `run(policy, horizon)` is the convenience driver used by ordinary
// policies; it attaches the policy so the push notifications of the
// incremental Policy API (sim/policy.h) are delivered. Manual drivers may
// attach a listener themselves via attach().
//
// --- Recording placements ----------------------------------------------------
//
// The engine keeps counters, not placements. A consumer that reads
// placements passes a Schedule to record_into(); start_front then appends
// each Placement there, in decision order. It is a sink on the decision,
// not a listener, because REF and RAND start jobs without any on_start.
//
// An engine can be restricted to a coalition: only member organizations'
// machines exist and only their jobs arrive. Organization ids keep their
// global numbering so ensemble drivers can aggregate without relabeling.
//
// Engines are single-threaded objects: the const accessors fold lazy
// accruals forward through mutable state, so concurrent reads of one
// engine are not safe (the sweep executors give every run its own engine).

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "core/coalition.h"
#include "core/instance.h"
#include "core/schedule.h"
#include "core/types.h"
#include "sim/policy.h"
#include "util/rng.h"

namespace fairsched {

// How the engine picks among free machines. Identical machines make the
// choice irrelevant for utilities, but the owner of the chosen machine
// receives the contribution credit, which DIRECTCONTR uses; the paper's
// Fig. 9 considers processors in a random order.
enum class MachinePick { kFirstFree, kRandomFree };

struct EngineOptions {
  MachinePick machine_pick = MachinePick::kFirstFree;
  std::uint64_t seed = 0;  // used only for kRandomFree
  // Serve-mode seam (src/serve): the workload is not known at
  // construction. The engine preloads no releases; the driver grows the
  // instance's per-organization job lists (serve::LiveInstance) and feeds
  // each release through inject_release as it learns of it. Events
  // injected up to any time T and then drained produce the exact state and
  // event order a preloaded engine reaches at T — the release heap's order
  // is total, so it never depends on insertion order — which is what makes
  // serve-vs-batch replay byte-identical (tests/test_serve_replay.cc).
  bool external_releases = false;
};

class Engine {
 public:
  Engine(const Instance& inst, Coalition active, EngineOptions options = {});

  // Convenience: grand coalition.
  explicit Engine(const Instance& inst, EngineOptions options = {});

  const Instance& instance() const { return *inst_; }
  Coalition active() const { return active_; }
  Time now() const { return now_; }

  // Earliest pending event (release or completion) strictly after now(), or
  // kTimeInfinity when the engine is drained.
  Time next_event() const {
    return std::min(next_release(), next_completion());
  }

  // Earliest pending completion, or kTimeInfinity if no job is running.
  Time next_completion() const {
    return completions_.empty() ? kTimeInfinity : completions_.top().time;
  }

  // Earliest future time at which a scheduling decision could possibly be
  // required — the wake-up granularity event-loop drivers actually need.
  // While no machine is free, releases cannot enable a decision (they only
  // grow the waiting queue), so the next opportunity is the next
  // completion; otherwise any event can. Waking at these times only and
  // batch-processing the skipped events in the next advance_to yields the
  // exact same decision sequence as waking at every event: events are
  // applied in the same heap order either way, releases carry no
  // accrual, and every state a driver observes at a decision point is
  // identical.
  Time next_decision_time() const {
    return free_machines_ > 0 ? next_event() : next_completion();
  }

  // Advances the clock to t (>= now()): accrues utilities, completes jobs
  // due at or before t, and admits releases at or before t. Does not start
  // any job. Events are processed in the order of the header note; the
  // attached listener, if any, is notified once per same-(time, org)
  // completion run and once per same-(time, org) release run.
  void advance_to(Time t);

  // True when a scheduling decision is required (free machine + waiting job).
  bool needs_decision() const {
    return free_machines_ > 0 && waiting_total_ > 0;
  }

  // Starts organization u's front FIFO job at now(); returns the machine.
  // Precondition: waiting(u) > 0 and a machine is free.
  MachineId start_front(OrgId u);

  // Appends each later start's Placement to `target` (nullptr stops
  // recording; header note), first reserving room for every member job not
  // started yet. The target must outlive the recording.
  void record_into(Schedule* target);

  // Runs `policy` until `horizon`: processes events in order, invoking the
  // policy at each decision point, then advances to exactly `horizon`.
  // Attaches `policy` for the duration, so it receives the push
  // notifications (on_release / on_complete / on_advance) of sim/policy.h.
  void run(Policy& policy, Time horizon);

  // Attaches `listener` to receive push notifications from advance_to
  // (nullptr detaches). Manual drivers stepping the engine directly can use
  // this to keep an incremental policy's mirror current; note start_front
  // does NOT synthesize on_start — the driver that decides also notifies.
  void attach(Policy* listener) { listener_ = listener; }

  // External-releases mode only: makes organization u's next un-injected
  // job (FIFO index = number of injections so far) visible to the event
  // stream. The job must already exist in the instance and its release
  // must be >= now(); drivers feed arrivals in nondecreasing time order
  // before advancing past them. Returns the injected release time.
  Time inject_release(OrgId u);
  // Releases injected so far for u (external-releases mode bookkeeping).
  std::uint32_t injected(OrgId u) const { return injected_[u]; }

  // --- state inspection --------------------------------------------------
  std::uint32_t num_orgs() const { return inst_->num_orgs(); }
  bool is_active(OrgId u) const { return active_.contains(u); }
  std::uint32_t waiting(OrgId u) const {
    return released_[u] - started_[u];
  }
  // Release time of u's front waiting job. Precondition: waiting(u) > 0.
  Time front_release(OrgId u) const {
    return inst_->job(u, started_[u]).release;
  }
  // Jobs of u started so far: the FIFO index of u's next start.
  std::uint32_t started(OrgId u) const { return started_[u]; }
  std::uint32_t waiting_total() const { return waiting_total_; }
  std::uint32_t running(OrgId u) const { return accounts_[u].running_jobs; }
  std::uint32_t completed(OrgId u) const { return completed_[u]; }
  std::uint32_t free_machines() const { return free_machines_; }
  std::uint32_t total_machines() const { return total_machines_; }
  std::uint32_t machines_of(OrgId u) const {
    return active_.contains(u) ? inst_->machines_of(u) : 0;
  }
  std::uint32_t busy_machines(OrgId u) const {
    return accounts_[u].busy_machines;
  }
  double share(OrgId u) const;

  // --- accounting at now() ------------------------------------------------
  HalfUtil psi2(OrgId u) const {
    lazy_accrue(u);
    return accounts_[u].psi2;
  }
  HalfUtil contrib_psi2(OrgId u) const {
    lazy_accrue(u);
    return accounts_[u].contrib_psi2;
  }
  std::int64_t work_done(OrgId u) const {
    lazy_accrue(u);
    return accounts_[u].work_done;
  }
  std::int64_t contrib_work(OrgId u) const {
    lazy_accrue(u);
    return accounts_[u].contrib_work;
  }
  // The coalition-level aggregate running sums, exact at `at`: completed
  // unit parts, 2*psi summed over member organizations, and jobs running.
  // The closed form of the header note splits across sub-intervals, so
  // value2_at / work_at extend a snapshot exactly to any t >= at as long
  // as no job starts or completes in (at, t]. Releases are harmless: a
  // waiting job accrues nothing. This is the single accrual expression
  // every coalition-value reader evaluates (this engine, REF's value-step
  // cursors, RAND's FCFS value curves), which is what keeps their values
  // bit-identical.
  struct AggSnapshot {
    std::int64_t work = 0;
    HalfUtil psi2 = 0;
    std::uint32_t running = 0;
    Time at = 0;

    HalfUtil value2_at(Time t) const {
      const Time d = t - at;
      return psi2 + 2 * work * d + static_cast<HalfUtil>(running) * d * (d + 1);
    }
    std::int64_t work_at(Time t) const {
      return work + static_cast<std::int64_t>(running) * (t - at);
    }
    // Moves the snapshot to t (before a change of `running` at t).
    void fold_to(Time t) {
      psi2 = value2_at(t);
      work = work_at(t);
      at = t;
    }
  };

  // Coalition value 2*v = sum of member utilities. O(1): closed form over
  // the aggregate (total work, total psi2, running count) running sums.
  HalfUtil value2() const { return agg_.value2_at(now_); }
  // Total completed unit parts (the paper's p_tot for this schedule). O(1).
  std::int64_t total_work_done() const { return agg_.work_at(now_); }

  // --- instrumentation ----------------------------------------------------
  // Events processed (releases admitted + jobs completed) so far.
  std::uint64_t events_processed() const { return events_processed_; }
  // Scheduling decisions applied (start_front calls) so far.
  std::uint64_t decisions_made() const { return decisions_; }
  // Monotone version of the observable state: bumps once per notification
  // point (each completion run and each release run, attached or not) and
  // once per start, so it moves by exactly one per on_complete / on_release
  // / on_start an attached listener hears. Incremental policies use it to
  // detect missed notifications (PolicyView::state_version).
  std::uint64_t state_version() const { return notifications_ + decisions_; }

 private:
  // One pending release or completion (see the header note).
  struct Event {
    Time time;
    OrgId org;
    std::uint32_t index;  // per-organization job index
    MachineId machine;    // completions only
  };
  // Heap comparator: true when `a` pops after `b`. `time_only` is set for
  // the kRandomFree completion heap only.
  struct PopsAfter {
    bool time_only = false;
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (time_only) return false;
      if (a.org != b.org) return a.org > b.org;
      return a.index > b.index;
    }
  };
  using EventHeap = std::priority_queue<Event, std::vector<Event>, PopsAfter>;

  struct OrgAccount {
    std::int64_t work_done = 0;      // completed unit parts of own jobs
    HalfUtil psi2 = 0;               // 2 * psi_sp of own jobs
    std::int64_t contrib_work = 0;   // unit parts run on own machines
    HalfUtil contrib_psi2 = 0;       // 2 * value of parts run on own machines
    std::uint32_t running_jobs = 0;  // own jobs currently running
    std::uint32_t busy_machines = 0; // own machines currently busy
    Time accrued_at = 0;             // the accounts above are exact at this time
  };

  // Folds organization u's account forward to now() (exact: the closed
  // form splits across sub-intervals). Called before any read and before
  // any running/busy count change; defined inline below.
  void lazy_accrue(OrgId u) const;
  // Folds the engine-level aggregate sums to now(); must be called before
  // the total running count changes.
  void fold_aggregate();
  Time next_release() const {
    return releases_.empty() ? kTimeInfinity : releases_.top().time;
  }
  // Moves the clock (monotone) and notifies the listener.
  void advance_clock(Time t);
  // Applies the completion run that `first` (already popped) heads: it and
  // the same-(time, org) completions behind it (header note).
  void apply_completion_run(const Event& first);
  // Admits `count` releases of org at now() as one run (header note).
  void apply_release_run(OrgId org, std::uint32_t count);
  MachineId pick_machine();

  const Instance* inst_;
  Coalition active_;
  EngineOptions options_;
  Rng rng_;

  // Batch mode holds each member organization's next release (advance_to
  // pushes the successor when one is consumed); external-releases mode
  // holds what inject_release pushed. Completions are pushed as jobs start.
  EventHeap releases_;
  EventHeap completions_;

  // Free machines, kFirstFree flavor: a bitmap over machine ids with a
  // first-possibly-set-word hint. pop_min() returns the lowest free id —
  // the same order the min-heap it replaced produced — in O(1) amortized
  // word scans instead of O(log m) heap percolation.
  class FreeMachineSet {
   public:
    void init(std::uint32_t num_machines) {
      words_.assign((num_machines + 63) / 64, 0);
      first_ = words_.size();
    }
    void insert(MachineId m) {
      const std::size_t w = m >> 6;
      words_[w] |= std::uint64_t{1} << (m & 63);
      if (w < first_) first_ = w;
    }
    // Removes and returns the lowest id. Precondition: not empty.
    MachineId pop_min() {
      while (words_[first_] == 0) ++first_;
      const int bit = __builtin_ctzll(words_[first_]);
      words_[first_] &= words_[first_] - 1;
      return static_cast<MachineId>((first_ << 6) | bit);
    }

   private:
    std::vector<std::uint64_t> words_;
    std::size_t first_ = 0;
  };
  FreeMachineSet free_set_;
  // kRandomFree flavor: flat vector with swap-pop (random draw indexes it).
  std::vector<MachineId> free_list_;

  std::vector<std::uint32_t> released_;
  std::vector<std::uint32_t> started_;
  std::vector<std::uint32_t> completed_;
  // External-releases mode: per-org count of releases handed to
  // inject_release (empty otherwise).
  std::vector<std::uint32_t> injected_;
  // mutable: const accessors fold lazy accruals forward (single-threaded;
  // see the header note).
  mutable std::vector<OrgAccount> accounts_;
  std::uint32_t waiting_total_ = 0;
  std::uint32_t free_machines_ = 0;
  std::uint32_t total_machines_ = 0;

  // Aggregate running sums behind value2()/total_work_done().
  AggSnapshot agg_;

  std::uint64_t events_processed_ = 0;
  // Completion runs plus release runs: the points a listener is notified
  // at.
  std::uint64_t notifications_ = 0;
  std::uint64_t decisions_ = 0;
  Policy* listener_ = nullptr;
  Schedule* recorder_ = nullptr;

  Time now_ = 0;
};

inline void Engine::lazy_accrue(OrgId u) const {
  OrgAccount& acc = accounts_[u];
  const Time delta = now_ - acc.accrued_at;
  if (delta <= 0) return;
  acc.accrued_at = now_;
  if (acc.running_jobs > 0 || acc.work_done > 0) {
    // Own-job utility: old units each gain delta; each running job adds
    // delta fresh units worth (delta + delta-1 + ... + 1) at time now_.
    acc.psi2 += 2 * acc.work_done * delta +
                static_cast<HalfUtil>(acc.running_jobs) * delta * (delta + 1);
    acc.work_done += static_cast<std::int64_t>(acc.running_jobs) * delta;
  }
  if (acc.busy_machines > 0 || acc.contrib_work > 0) {
    acc.contrib_psi2 +=
        2 * acc.contrib_work * delta +
        static_cast<HalfUtil>(acc.busy_machines) * delta * (delta + 1);
    acc.contrib_work += static_cast<std::int64_t>(acc.busy_machines) * delta;
  }
}

// --- PolicyView ------------------------------------------------------------
//
// Defined inline here, after Engine, so every read a policy makes per event
// compiles to the engine access itself. sim/policy.h includes this header
// at its end, so a translation unit that includes only sim/policy.h sees
// these definitions too.

inline Time PolicyView::now() const { return engine_.now(); }
inline std::uint32_t PolicyView::num_orgs() const {
  return engine_.num_orgs();
}
inline bool PolicyView::active(OrgId u) const { return engine_.is_active(u); }
inline std::uint32_t PolicyView::waiting(OrgId u) const {
  return engine_.waiting(u);
}
inline Time PolicyView::front_release(OrgId u) const {
  return engine_.front_release(u);
}
inline std::uint32_t PolicyView::running(OrgId u) const {
  return engine_.running(u);
}
inline std::uint32_t PolicyView::completed(OrgId u) const {
  return engine_.completed(u);
}
inline std::uint32_t PolicyView::free_machines() const {
  return engine_.free_machines();
}
inline std::uint32_t PolicyView::machines_of(OrgId u) const {
  return engine_.machines_of(u);
}
inline std::uint32_t PolicyView::busy_machines(OrgId u) const {
  return engine_.busy_machines(u);
}
inline OrgId PolicyView::machine_owner(MachineId m) const {
  return engine_.instance().machine_owner(m);
}
inline double PolicyView::share(OrgId u) const { return engine_.share(u); }
inline HalfUtil PolicyView::psi2(OrgId u) const { return engine_.psi2(u); }
inline HalfUtil PolicyView::contrib_psi2(OrgId u) const {
  return engine_.contrib_psi2(u);
}
inline std::int64_t PolicyView::work_done(OrgId u) const {
  return engine_.work_done(u);
}
inline std::int64_t PolicyView::contrib_work(OrgId u) const {
  return engine_.contrib_work(u);
}
inline std::uint64_t PolicyView::state_version() const {
  return engine_.state_version();
}

}  // namespace fairsched
