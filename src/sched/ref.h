#pragma once

// REF (Fig. 1 / Fig. 3): the exact, exponential fair scheduling algorithm.
//
// REF maintains a greedy schedule for *every* nonempty subcoalition of the
// grand coalition (2^k - 1 of them). Whenever a coalition C must start a job
// (free machine + waiting job), the contributions phi(u) of its members are
// computed from the current values v(C') of all subcoalitions C' of C via
// the Shapley subset formula (Eq. 1), and the job of the organization
// maximizing phi(u) - psi(u) is started (the specialized psi_sp rule of
// Fig. 3; with the generic Distance rule of Fig. 1 available for arbitrary
// utility functions — both provably coincide for psi_sp, which tests verify).
//
// Scheduling decisions of C at time t depend only on the values v(C', t)
// of its proper subcoalitions (Definition 3.1), never on C's supersets. So
// run() simulates one coalition at a time, to the horizon, in ascending
// mask order: every proper subset of a mask is a smaller number, so each
// subcoalition is finished before any superset starts. Each engine wakes
// only at its decision times (Engine::next_decision_time), which makes the
// event-driven run identical to the paper's per-time-moment loop: a greedy
// algorithm makes no decision while no machine frees and no job arrives.
//
// As a coalition runs it records a value step (time, running jobs) at
// every time its running count changes. Between steps the value follows
// the closed form of Engine::AggSnapshot, so a superset reads v(C', t) by
// moving a forward cursor over C''s steps and folding the snapshot — the
// engine's own integer arithmetic, hence bit-identical values.
//
// Complexity per decision *burst* of a size-s coalition: O(2^s * s) for the
// hoisted Shapley subset formula (the contribution vector cannot change
// while the clock stands still, so repeat decisions at one time moment
// reuse it; Prop. 3.4 aggregate: O(k * 3^k) per time moment), with each
// subcoalition value an amortized O(1) cursor read.
//
// Memory: each coalition's engine is built when its run starts and stays
// for its counters and final values (engine(c), contributions()); value
// steps stay, 16 bytes each, until run() returns. Placements are recorded
// (Engine::record_into) only where they are read: the grand coalition's are
// REF's result; under the generic rule, which reads subcoalition schedules
// while supersets run, every coalition keeps its own; under the psi_sp rule
// a proper subcoalition records only for RefOptions::on_coalition_finished,
// into one scratch schedule reused across coalitions. The constructor
// rejects k > 16.

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/coalition.h"
#include "core/instance.h"
#include "core/schedule.h"
#include "core/types.h"
#include "metrics/utility.h"
#include "sim/engine.h"

namespace fairsched {

// Pluggable utility for the generic Distance rule (Fig. 1). Evaluates the
// utility of organization `org` at time `t` in the given schedule. Only the
// executed parts of jobs may influence the value (non-clairvoyance): eval
// must ignore every placement that starts at or after t. REF relies on
// this, because it evaluates subcoalition schedules that already run to
// the horizon.
class UtilityFunction {
 public:
  virtual ~UtilityFunction() = default;
  virtual double eval(const Instance& inst, const Schedule& schedule,
                      OrgId org, Time t) const = 0;
};

// The strategy-proof utility psi_sp as a UtilityFunction.
class SpUtilityFn final : public UtilityFunction {
 public:
  double eval(const Instance& inst, const Schedule& schedule, OrgId org,
              Time t) const override;
};

// Throughput-like utility: completed unit parts (breaks the starting-times
// anonymity axiom; provided for generic-REF experiments).
class CompletedWorkUtilityFn final : public UtilityFunction {
 public:
  double eval(const Instance& inst, const Schedule& schedule, OrgId org,
              Time t) const override;
};

struct RefOptions {
  // When set, REF uses the generic Distance rule of Fig. 1 with this
  // utility (slower: re-evaluates utilities from schedules). When null, the
  // specialized psi_sp rule of Fig. 3 runs on the engines' exact integer
  // accounting.
  const UtilityFunction* generic_utility = nullptr;
  // Opt-in observer: called once per coalition, grand included, in
  // ascending mask order, when its run to the horizon ends, with the
  // finished engine and the coalition's full schedule. Setting it is what
  // makes proper subcoalitions record under the psi_sp rule; their schedule
  // is REF's scratch recorder, valid only during the call.
  std::function<void(Coalition, const Engine&, const Schedule&)>
      on_coalition_finished;
};

class RefScheduler {
 public:
  static constexpr std::uint32_t kMaxOrgs = 16;

  RefScheduler(const Instance& inst, RefOptions options = {});

  // Runs all coalitions up to `horizon`. May be called once.
  void run(Time horizon);

  // --- results (valid after run) -----------------------------------------
  // The grand coalition's placements: the fair schedule.
  const Schedule& schedule() const { return schedules_[grand_.mask()]; }
  // Moves the grand schedule out; schedule() reads empty afterwards, every
  // other result stays valid.
  Schedule take_schedule() {
    return std::exchange(schedules_[grand_.mask()], Schedule());
  }
  // The reference fair utility vector psi* (2*psi per organization).
  std::vector<HalfUtil> utilities2() const;
  // p_tot: completed unit parts in the fair schedule by the horizon.
  std::int64_t reference_work() const { return grand_engine().total_work_done(); }
  // Shapley contributions phi(u) (time units) of the grand coalition at the
  // horizon — the ideal fair division REF chases.
  std::vector<double> contributions() const;
  // Any coalition's engine (diagnostics, tests): its counters and
  // accounting stand at the horizon. Engines hold no placements: the grand
  // coalition's are schedule(), and RefOptions::on_coalition_finished hands
  // an observer every coalition's.
  const Engine& engine(Coalition c) const { return *engines_[c.mask()]; }

 private:
  const Engine& grand_engine() const { return *engines_[grand_.mask()]; }

  // A change of a coalition's running-job count: from `time` on (until the
  // next step) `running` jobs run.
  struct ValueStep {
    Time time;
    std::uint32_t running;
  };
  // Forward reader of one subcoalition's value steps.
  struct ValueCursor {
    Engine::AggSnapshot agg;
    std::size_t next = 0;
  };

  // Builds coalition `c`'s engine and runs it to `horizon`, recording its
  // value steps when a superset will read them and its placements when
  // something reads them; then notifies the observer.
  void run_coalition(Coalition c, Time horizon);

  // Processes coalition `c`'s due events at time t and makes its scheduling
  // decisions. Every proper subcoalition has already run to the horizon.
  void process_coalition_at(Coalition c, Time t);

  // 2*v(sub, t) of a finished proper subcoalition, read through its cursor;
  // t must not decrease between reads of one cursor.
  HalfUtil subvalue2_at(Coalition::Mask sub, Time t);

  // Contributions phi2 (in half-units, doubles because of the factorial
  // weights) of the members of `relevant` (a subset of `c`) from the
  // subcoalition values in vcache_ (Eq. 1). Entries outside `relevant` are
  // left at zero — each phi2[u] is an independent accumulator, so
  // restricting the set changes nothing about the computed values.
  // Returns a reference to a scratch buffer overwritten by the next call.
  const std::vector<double>& shapley2(Coalition c, Coalition relevant) const;

  // Distance rule of Fig. 1 for the generic utility: the (doubled) distance
  // after tentatively starting `u`'s front job at time t.
  double generic_distance(Coalition c, OrgId u, Time t,
                          const std::vector<double>& phi,
                          const std::vector<double>& psi) const;

  // Fig. 3 rule with the per-burst contribution vector hoisted by
  // process_coalition_at (phi2 cannot change while the clock stands still).
  OrgId select_sp(Coalition c, const std::vector<double>& phi2) const;
  // Fig. 1 Distance rule for the generic utility; evaluated per decision.
  OrgId select_generic(Coalition c, Time t);

  const Instance* inst_;
  RefOptions options_;
  Coalition grand_;
  // Indexed by mask; [0] stays null, the rest are built as their runs start.
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<ShapleyWeights> weights_;  // per coalition size 1..k
  // Placements by mask: the grand coalition's and, under the generic rule,
  // every coalition's; the rest stay empty.
  std::vector<Schedule> schedules_;
  // psi_sp rule with an observer: the scratch recorder each proper
  // subcoalition reuses.
  Schedule observed_;
  // Value steps and read cursors, indexed by mask; filled during run().
  std::vector<std::vector<ValueStep>> steps_;
  std::vector<ValueCursor> cursors_;
  // Scratch for shapley2: coalition values indexed by mask, and the
  // returned contribution vector (both overwritten per call).
  mutable std::vector<double> vcache_;
  mutable std::vector<double> phi2_scratch_;
  bool ran_ = false;
};

}  // namespace fairsched
