#include "sched/rand_fair.h"

#include <algorithm>
#include <stdexcept>

#include "shapley/shapley.h"
#include "util/rng.h"

namespace fairsched {

std::size_t rand_theorem_samples(std::uint32_t k, double epsilon,
                                 double lambda) {
  return rand_sample_bound(k, epsilon, lambda);
}

std::vector<FcfsJob> fcfs_job_order(const Instance& inst) {
  std::vector<FcfsJob> order;
  order.reserve(inst.num_jobs());
  // Org by org, each in FIFO order (release-sorted): a stable sort by
  // release then leaves ties in (org, index) order.
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    for (const Job& job : inst.jobs_of(u)) {
      order.push_back({job.release, job.processing, u});
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const FcfsJob& a, const FcfsJob& b) {
                     return a.release < b.release;
                   });
  return order;
}

FcfsValueCurve::FcfsValueCurve(const Instance& inst,
                               std::span<const FcfsJob> order,
                               Coalition coalition)
    : order_(order), coalition_(coalition) {
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    if (coalition.contains(u)) machines_ += inst.machines_of(u);
  }
}

void FcfsValueCurve::advance_to(Time t) {
  // Events in time order; a start and an end at one time fold at d = 0, so
  // their order cannot move the sums. A start needs a free machine. With
  // one free, every job released by the last event time (agg_.at) has
  // started, so the next job starts at max(its release, agg_.at).
  for (;;) {
    while (next_ < order_.size() && !coalition_.contains(order_[next_].org)) {
      ++next_;
    }
    const Time e = ends_.empty() ? kTimeInfinity : ends_.top();
    const Time s = next_ == order_.size() || ends_.size() == machines_
                       ? kTimeInfinity
                       : std::max(order_[next_].release, agg_.at);
    if (std::min(s, e) > t) break;
    if (e <= s) {
      agg_.fold_to(e);
      agg_.running--;
      ends_.pop();
      continue;
    }
    agg_.fold_to(s);
    agg_.running++;
    ends_.push(s + order_[next_++].processing);
  }
  now_ = t;
}

RandScheduler::RandScheduler(const Instance& inst, RandOptions options)
    : inst_(&inst), options_(options) {
  const std::uint32_t k = inst.num_orgs();
  if (k == 0) throw std::invalid_argument("RandScheduler: empty instance");
  if (k > Coalition::kMaxOrgs) {
    throw std::invalid_argument("RandScheduler: too many organizations");
  }
  if (options_.samples == 0) {
    throw std::invalid_argument("RandScheduler: need at least one sample");
  }
  grand_ = std::make_unique<Engine>(inst, Coalition::grand(k));
  order_ = fcfs_job_order(inst);

  // Prepare(C): N random orderings; each prefix pair (C', C' | u) is
  // recorded for u. Distinct nonempty coalitions share one value curve.
  Rng rng(options_.seed);
  std::vector<std::vector<std::pair<Coalition::Mask, Coalition::Mask>>>
      mask_pairs(k);
  std::vector<Coalition::Mask> masks;
  for (std::size_t i = 0; i < options_.samples; ++i) {
    const std::vector<std::uint32_t> order = rng.permutation(k);
    Coalition::Mask mask = 0;
    for (OrgId u : order) {
      const Coalition::Mask with_u = mask | (Coalition::Mask{1} << u);
      mask_pairs[u].emplace_back(mask, with_u);
      masks.push_back(with_u);
      mask = with_u;
    }
  }
  std::sort(masks.begin(), masks.end());
  masks.erase(std::unique(masks.begin(), masks.end()), masks.end());
  curves_.reserve(masks.size());
  for (Coalition::Mask mask : masks) {
    curves_.emplace_back(inst, order_, Coalition(mask));
  }
  auto curve_of = [&](Coalition::Mask mask) {
    if (mask == 0) return PrefixPair::kEmpty;
    return static_cast<std::uint32_t>(
        std::lower_bound(masks.begin(), masks.end(), mask) - masks.begin());
  };
  pairs_.resize(k);
  for (OrgId u = 0; u < k; ++u) {
    pairs_[u].reserve(mask_pairs[u].size());
    for (const auto& [before, with_u] : mask_pairs[u]) {
      pairs_[u].push_back(PrefixPair{curve_of(before), curve_of(with_u)});
    }
  }
}

void RandScheduler::advance_curves(Time t) {
  for (FcfsValueCurve& curve : curves_) curve.advance_to(t);
}

std::vector<double> RandScheduler::contributions2() const {
  std::vector<double> phi2(inst_->num_orgs(), 0.0);
  for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
    double total = 0.0;
    for (const PrefixPair& pair : pairs_[u]) {
      const double v_before =
          pair.before == PrefixPair::kEmpty
              ? 0.0
              : static_cast<double>(curves_[pair.before].value2());
      const double v_with = static_cast<double>(curves_[pair.with].value2());
      total += v_with - v_before;
    }
    phi2[u] = total / static_cast<double>(options_.samples);
  }
  return phi2;
}

void RandScheduler::run(Time horizon) {
  if (ran_) throw std::logic_error("RandScheduler::run called twice");
  ran_ = true;
  grand_->record_into(&schedule_);
  for (;;) {
    const Time t = grand_->next_decision_time();
    if (t == kTimeInfinity || t >= horizon) break;
    grand_->advance_to(t);
    if (!grand_->needs_decision()) continue;
    // With one organization waiting, every start at t is forced (the
    // argmax over one candidate), so the estimates are not read; the
    // curves catch up at the next contested decision.
    OrgId only = kNoOrg;
    bool contested = false;
    for (OrgId u = 0; u < inst_->num_orgs() && !contested; ++u) {
      if (grand_->waiting(u) == 0) continue;
      contested = only != kNoOrg;
      only = u;
    }
    if (!contested) {
      while (grand_->needs_decision()) grand_->start_front(only);
      continue;
    }
    // Read every sampled coalition's value at t so that the contribution
    // estimates are current.
    advance_curves(t);
    const std::vector<double> phi2 = contributions2();
    while (grand_->needs_decision()) {
      OrgId best = kNoOrg;
      double best_deficit = 0.0;
      for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
        if (grand_->waiting(u) == 0) continue;
        const double deficit =
            phi2[u] - static_cast<double>(grand_->psi2(u));
        if (best == kNoOrg || deficit > best_deficit) {
          best = u;
          best_deficit = deficit;
        }
      }
      grand_->start_front(best);
    }
  }
  grand_->advance_to(horizon);
  grand_->record_into(nullptr);
  advance_curves(horizon);
}

std::vector<HalfUtil> RandScheduler::utilities2() const {
  std::vector<HalfUtil> out(inst_->num_orgs(), 0);
  for (OrgId u = 0; u < inst_->num_orgs(); ++u) {
    out[u] = grand_->psi2(u);
  }
  return out;
}

std::vector<double> RandScheduler::contributions() const {
  std::vector<double> phi2 = contributions2();
  for (double& p : phi2) p /= 2.0;
  return phi2;
}

}  // namespace fairsched
