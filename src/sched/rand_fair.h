#pragma once

// RAND (Fig. 6): randomized approximation of the fair schedule.
//
// N random orderings (permutations) of the organizations are drawn up
// front. Every prefix of every ordering yields a pair of coalitions
// (C', C' + u) for the organization u that follows the prefix; the Shapley
// contribution of u is estimated as the average marginal value over its N
// pairs (Eq. 2 sampled; Theorem 5.6's Hoeffding bound gives the FPRAS for
// unit-size jobs).
//
// The value v(C') of a sampled coalition is read off a *simplified*
// schedule for it. For unit-size jobs any greedy schedule yields the same
// value (Prop. 5.4), so the simplified schedules use an arbitrary greedy
// policy (FCFS here); with jobs of mixed sizes this is the heuristic the
// paper evaluates in Section 7. On identical machines FCFS is a list
// schedule in (release, org, index) order that needs no simulation: each
// simplified schedule is an FcfsValueCurve, and distinct permutation
// prefixes that induce the same coalition share one curve.
//
// The real (grand-coalition) schedule starts the front job of the waiting
// organization maximizing the estimated deficit phi(u) - psi(u), exactly as
// REF does with the exact contributions.

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "core/coalition.h"
#include "core/instance.h"
#include "core/schedule.h"
#include "core/types.h"
#include "sim/engine.h"

namespace fairsched {

struct RandOptions {
  std::size_t samples = 15;  // N; the paper evaluates N = 15 and N = 75
  std::uint64_t seed = 1;
};

// Returns the N prescribed by Theorem 5.6 for accuracy eps with confidence
// lambda over k organizations.
std::size_t rand_theorem_samples(std::uint32_t k, double epsilon,
                                 double lambda);

// One job of an instance's FCFS order.
struct FcfsJob {
  Time release;
  Time processing;
  OrgId org;
};

// Every job of `inst` in FCFS order: by (release, org, FIFO index).
std::vector<FcfsJob> fcfs_job_order(const Instance& inst);

// The value curve t -> 2*v(C, t) of coalition C's FCFS schedule.
//
// FCFS starts the waiting job with the earliest release (ties: lowest
// organization, then FIFO index). Every job released by t outranks every
// job released after t, so on identical machines FCFS is a list schedule:
// jobs start in that key order, each as soon as it is released and a
// machine is free. C's order is the instance's one FCFS order
// (fcfs_job_order) with the other organizations' jobs skipped, so every
// curve of an instance reads one shared order. The value does not depend
// on which machine runs a job, so the curve tracks only the end times of
// the running jobs (a min-heap) and folds starts and ends, in time order,
// into an Engine::AggSnapshot — the same integer accrual an engine driven
// by FcfsPolicy computes, so value2() is bit-identical to that engine's
// (tests/test_rand.cc). The schedule is extended lazily, up to the latest
// time queried: a curve's own memory is O(machines), and no job starting
// after the last query is placed. A coalition owning no machines starts
// nothing; its value stays 0.
class FcfsValueCurve {
 public:
  // `order` is fcfs_job_order(inst) and must outlive the curve.
  FcfsValueCurve(const Instance& inst, std::span<const FcfsJob> order,
                 Coalition coalition);

  // Folds every start and end at or before t. t must not decrease across
  // calls.
  void advance_to(Time t);
  // 2 * v(C, t) at the latest advance_to time t.
  HalfUtil value2() const { return agg_.value2_at(now_); }

 private:
  std::span<const FcfsJob> order_;
  Coalition coalition_;
  // Position in order_ of the next job to start (or of a non-member's job
  // still to be skipped).
  std::size_t next_ = 0;
  std::uint32_t machines_ = 0;
  // Ends of the running jobs (at most machines_ of them).
  std::priority_queue<Time, std::vector<Time>, std::greater<Time>> ends_;
  Engine::AggSnapshot agg_;
  Time now_ = 0;
};

class RandScheduler {
 public:
  RandScheduler(const Instance& inst, RandOptions options = {});

  void run(Time horizon);

  // The grand engine's placements, recorded by run().
  const Schedule& schedule() const { return schedule_; }
  // Moves the grand schedule out; schedule() reads empty afterwards, every
  // other result stays valid.
  Schedule take_schedule() { return std::exchange(schedule_, Schedule()); }
  std::vector<HalfUtil> utilities2() const;
  std::int64_t work_done() const { return grand_->total_work_done(); }
  // Estimated contributions phi (time units) at the current clock.
  std::vector<double> contributions() const;
  // Number of distinct nonempty sampled coalitions (one value curve each).
  std::size_t distinct_coalitions() const { return curves_.size(); }

 private:
  // One permutation's (C', C' | u) pair for an organization u, as indices
  // into curves_; kEmpty stands for C' = {} (v = 0, no curve).
  struct PrefixPair {
    static constexpr std::uint32_t kEmpty = UINT32_MAX;
    std::uint32_t before;
    std::uint32_t with;
  };

  // Brings every sampled coalition's value curve to time t.
  void advance_curves(Time t);
  // phi2 estimates from the sampled curves at their current time.
  std::vector<double> contributions2() const;

  const Instance* inst_;
  RandOptions options_;
  std::unique_ptr<Engine> grand_;
  Schedule schedule_;
  // The FCFS order every curve reads.
  std::vector<FcfsJob> order_;
  // Distinct nonempty sampled coalitions, ascending by mask.
  std::vector<FcfsValueCurve> curves_;
  // Per organization: one pair per permutation, in draw order.
  // Multiplicity matters.
  std::vector<std::vector<PrefixPair>> pairs_;
  bool ran_ = false;
};

}  // namespace fairsched
