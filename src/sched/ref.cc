#include "sched/ref.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fairsched {

double SpUtilityFn::eval(const Instance& inst, const Schedule& schedule,
                         OrgId org, Time t) const {
  return static_cast<double>(sp_org_half_utility(inst, schedule, org, t)) /
         2.0;
}

double CompletedWorkUtilityFn::eval(const Instance& inst,
                                    const Schedule& schedule, OrgId org,
                                    Time t) const {
  double total = 0.0;
  for (const Placement& p : schedule.placements()) {
    if (p.org != org || p.start >= t) continue;
    total += static_cast<double>(
        std::min<Time>(placed_job(inst, p).processing, t - p.start));
  }
  return total;
}

RefScheduler::RefScheduler(const Instance& inst, RefOptions options)
    : inst_(&inst), options_(options), grand_(Coalition::grand(inst.num_orgs())) {
  const std::uint32_t k = inst.num_orgs();
  if (k == 0) throw std::invalid_argument("RefScheduler: empty instance");
  if (k > kMaxOrgs) {
    throw std::invalid_argument(
        "RefScheduler: too many organizations for the exponential reference "
        "algorithm (max 16)");
  }
  engines_.resize(std::size_t{1} << k);
  schedules_.resize(engines_.size());
  vcache_.assign(engines_.size(), 0.0);
  weights_.reserve(k);
  for (std::uint32_t s = 1; s <= k; ++s) weights_.emplace_back(s);
}

HalfUtil RefScheduler::subvalue2_at(Coalition::Mask sub, Time t) {
  ValueCursor& cursor = cursors_[sub];
  const std::vector<ValueStep>& steps = steps_[sub];
  while (cursor.next < steps.size() && steps[cursor.next].time <= t) {
    cursor.agg.fold_to(steps[cursor.next].time);
    cursor.agg.running = steps[cursor.next].running;
    ++cursor.next;
  }
  return cursor.agg.value2_at(t);
}

const std::vector<double>& RefScheduler::shapley2(Coalition c,
                                                  Coalition relevant) const {
  std::vector<double>& phi2 = phi2_scratch_;
  phi2.assign(inst_->num_orgs(), 0.0);
  const ShapleyWeights& w = weights_[c.size() - 1];
  // The subset formula (Eq. 1). Subset enumeration order and the ascending
  // member order of the inner loop match the historical scan, so every
  // floating-point accumulation happens in the same sequence. The inner
  // loop visits only members of `relevant`: phi2[u] accumulators are
  // independent, so skipping orgs the caller will not read leaves the
  // computed entries bit-identical while cutting the pass by |relevant|/|c|.
  for_each_subset(c, [&](Coalition sub) {
    if (sub.is_empty()) return;
    const double v_sub = vcache_[sub.mask()];
    const double weight = w.weight(sub.size());
    for (Coalition::Mask rest = sub.mask() & relevant.mask(); rest != 0;
         rest &= rest - 1) {
      const OrgId u = static_cast<OrgId>(__builtin_ctz(rest));
      const Coalition::Mask without = sub.mask() & ~(Coalition::Mask{1} << u);
      const double v_without = without == 0 ? 0.0 : vcache_[without];
      phi2[u] += weight * (v_sub - v_without);
    }
  });
  return phi2;
}

double RefScheduler::generic_distance(Coalition c, OrgId u, Time t,
                                      const std::vector<double>& phi,
                                      const std::vector<double>& psi) const {
  const Engine& e = *engines_[c.mask()];
  const UtilityFunction& util = *options_.generic_utility;
  // Tentatively start u's front job at t and evaluate the utility delta one
  // step ahead (at t; for psi_sp and any non-clairvoyant utility the value
  // at t itself cannot change by starting a job at t).
  const Schedule& schedule = schedules_[c.mask()];
  Schedule tentative = schedule;
  tentative.add(Placement{u, e.started(u), t, kNoMachine});
  const double delta = util.eval(*inst_, tentative, u, t + 1) -
                       util.eval(*inst_, schedule, u, t + 1);
  const double s = static_cast<double>(c.size());
  double dist = std::abs(phi[u] + delta / s - psi[u] - delta);
  for (OrgId v = 0; v < inst_->num_orgs(); ++v) {
    if (v == u || !c.contains(v)) continue;
    dist += std::abs(phi[v] + delta / s - psi[v]);
  }
  return dist;
}

OrgId RefScheduler::select_sp(Coalition c,
                              const std::vector<double>& phi2) const {
  // Specialized psi_sp rule (Fig. 3): argmax of phi - psi among waiting.
  // phi2 is the hoisted per-burst contribution vector (see
  // process_coalition_at); psi2 reads are O(1) lazy folds.
  const Engine& e = *engines_[c.mask()];
  OrgId best = kNoOrg;
  double best_deficit = 0.0;
  for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
    if (!c.contains(u) || e.waiting(u) == 0) continue;
    const double deficit = phi2[u] - static_cast<double>(e.psi2(u));
    if (best == kNoOrg || deficit > best_deficit) {
      best = u;
      best_deficit = deficit;
    }
  }
  return best;
}

OrgId RefScheduler::select_generic(Coalition c, Time t) {
  Engine& e = *engines_[c.mask()];
  // Generic Distance rule (Fig. 1).
  const UtilityFunction& util = *options_.generic_utility;
  std::vector<double> psi(inst_->num_orgs(), 0.0);
  std::vector<double> phi(inst_->num_orgs(), 0.0);
  // v(C', t) for the Shapley formula, from the generic utility. Proper
  // subcoalition schedules already run to the horizon; eval ignores their
  // placements starting at or after t (the UtilityFunction contract).
  const ShapleyWeights& w = weights_[c.size() - 1];
  for_each_subset(c, [&](Coalition sub) {
    if (sub.is_empty()) return;
    double v_sub = 0.0;
    for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
      if (sub.contains(u)) {
        v_sub += util.eval(*inst_, schedules_[sub.mask()], u, t);
      }
    }
    const double weight = w.weight(sub.size());
    for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
      if (!sub.contains(u)) continue;
      const Coalition without = sub.without(u);
      double v_without = 0.0;
      if (!without.is_empty()) {
        for (OrgId x = 0; x < inst_->num_orgs(); ++x) {
          if (without.contains(x)) {
            v_without += util.eval(*inst_, schedules_[without.mask()], x, t);
          }
        }
      }
      phi[u] += weight * (v_sub - v_without);
    }
  });
  for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
    if (c.contains(u)) {
      psi[u] = util.eval(*inst_, schedules_[c.mask()], u, t);
    }
  }
  OrgId best = kNoOrg;
  double best_dist = 0.0;
  for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
    if (!c.contains(u) || e.waiting(u) == 0) continue;
    const double dist = generic_distance(c, u, t, phi, psi);
    if (best == kNoOrg || dist < best_dist) {
      best = u;
      best_dist = dist;
    }
  }
  return best;
}

void RefScheduler::process_coalition_at(Coalition c, Time t) {
  Engine& e = *engines_[c.mask()];
  e.advance_to(t);
  if (!e.needs_decision()) return;
  if (options_.generic_utility == nullptr) {
    // The contribution vector is burst-invariant: starting a job at t adds
    // no *accrued* value at t itself, so no subcoalition value v(C', t) —
    // and hence no Shapley sum — changes until the clock moves. Hoisting
    // the O(2^s) subset formula out of the decision loop turns a burst of
    // m decisions from m full Shapley evaluations into one.
    //
    // Only orgs with a waiting job can be selected, and the waiting set
    // cannot grow while the clock stands still (releases happen only in
    // advance_to), so the Shapley pass is restricted to those orgs.
    Coalition::Mask wmask = 0;
    for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
      if (c.contains(u) && e.waiting(u) > 0) {
        wmask |= Coalition::Mask{1} << u;
      }
    }
    if ((wmask & (wmask - 1)) == 0) {
      // Exactly one org has waiting jobs (needs_decision guarantees at
      // least one): every selection in this burst is forced — the argmax
      // over a singleton — so the Shapley pass is skipped entirely. This
      // covers all bursts of singleton coalitions and, in underloaded
      // stretches, most release wake-ups of larger ones.
      const OrgId u = static_cast<OrgId>(__builtin_ctz(wmask));
      while (e.needs_decision()) {
        e.start_front(u);
      }
      return;
    }
    for_each_subset(c, [&](Coalition sub) {
      if (sub.is_empty() || sub == c) return;
      vcache_[sub.mask()] = static_cast<double>(subvalue2_at(sub.mask(), t));
    });
    vcache_[c.mask()] = static_cast<double>(e.value2());
    const std::vector<double>& phi2 = shapley2(c, Coalition(wmask));
    while (e.needs_decision()) {
      const OrgId u = select_sp(c, phi2);
      if (u == kNoOrg) {
        throw std::logic_error("RefScheduler: no selectable organization");
      }
      e.start_front(u);
    }
    return;
  }
  // Generic Distance rule, evaluated per decision, completely unhoisted —
  // an arbitrary UtilityFunction may react to schedule changes in ways we
  // do not control.
  while (e.needs_decision()) {
    const OrgId u = select_generic(c, t);
    if (u == kNoOrg) {
      throw std::logic_error("RefScheduler: no selectable organization");
    }
    e.start_front(u);
  }
}

void RefScheduler::run_coalition(Coalition c, Time horizon) {
  engines_[c.mask()] = std::make_unique<Engine>(*inst_, c);
  Engine& e = *engines_[c.mask()];
  // Placements are recorded only where they are read (ref.h header note).
  Schedule* schedule = nullptr;
  if (c == grand_ || options_.generic_utility != nullptr) {
    schedule = &schedules_[c.mask()];
  } else if (options_.on_coalition_finished) {
    observed_.clear();
    schedule = &observed_;
  }
  e.record_into(schedule);
  // Only the psi_sp rule reads value steps, and only supersets read them.
  std::vector<ValueStep>* steps =
      options_.generic_utility == nullptr && c != grand_ ? &steps_[c.mask()]
                                                         : nullptr;
  for_each_subset(c, [&](Coalition sub) { cursors_[sub.mask()] = {}; });
  std::uint32_t running = 0;
  for (;;) {
    // Running counts change only at these wake-ups: a completion is always
    // a decision time (next_decision_time <= next_completion), and starts
    // happen only in process_coalition_at.
    const Time t = e.next_decision_time();
    if (t == kTimeInfinity || t >= horizon) break;
    process_coalition_at(c, t);
    const std::uint32_t now_running = e.total_machines() - e.free_machines();
    if (steps != nullptr && now_running != running) {
      steps->push_back(ValueStep{t, now_running});
      running = now_running;
    }
  }
  // Every coalition's steps stay until the grand coalition has run, so
  // drop the vector's growth slack to lower REF's peak memory.
  if (steps != nullptr) steps->shrink_to_fit();
  e.advance_to(horizon);
  e.record_into(nullptr);
  if (options_.on_coalition_finished) {
    options_.on_coalition_finished(c, e, *schedule);
  }
}

void RefScheduler::run(Time horizon) {
  if (ran_) throw std::logic_error("RefScheduler::run called twice");
  ran_ = true;
  steps_.resize(engines_.size());
  cursors_.resize(engines_.size());
  // Ascending masks list every proper subset of a coalition before it.
  for (Coalition::Mask mask = 1; mask < engines_.size(); ++mask) {
    run_coalition(Coalition(mask), horizon);
  }
  steps_ = {};
  cursors_ = {};
}

std::vector<HalfUtil> RefScheduler::utilities2() const {
  std::vector<HalfUtil> out(inst_->num_orgs(), 0);
  for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
    out[u] = grand_engine().psi2(u);
  }
  return out;
}

std::vector<double> RefScheduler::contributions() const {
  // Every engine stands at the horizon once run() returns.
  for (Coalition::Mask mask = 1; mask < engines_.size(); ++mask) {
    vcache_[mask] = static_cast<double>(engines_[mask]->value2());
  }
  std::vector<double> phi2 = shapley2(grand_, grand_);
  for (double& p : phi2) p /= 2.0;
  return phi2;
}

}  // namespace fairsched
