#include "sim/engine.h"

#include <cassert>
#include <stdexcept>

namespace fairsched {

Engine::Engine(const Instance& inst, Coalition active, EngineOptions options)
    : inst_(&inst),
      active_(active),
      options_(options),
      rng_(options.seed),
      completions_(PopsAfter{options.machine_pick == MachinePick::kRandomFree}),
      released_(inst.num_orgs(), 0),
      started_(inst.num_orgs(), 0),
      completed_(inst.num_orgs(), 0),
      accounts_(inst.num_orgs()) {
  if (options_.external_releases) injected_.assign(inst.num_orgs(), 0);
  const bool first_free = options_.machine_pick == MachinePick::kFirstFree;
  if (first_free) free_set_.init(inst.total_machines());
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    if (!active_.contains(u)) continue;
    const auto jobs = inst.jobs_of(u);
    // Streamed releases: the heap holds only each organization's earliest
    // un-admitted release, so it stays at ~(member orgs) entries instead of
    // the whole workload. Per-org job lists are release-sorted, so the
    // global minimum release is always present and the drain order equals
    // the full-preload order. In external-releases mode the driver feeds
    // every release through inject_release instead.
    if (!options_.external_releases && !jobs.empty()) {
      releases_.push(Event{jobs[0].release, u, 0, kNoMachine});
    }
    // All machines of member organizations start free.
    total_machines_ += inst.machines_of(u);
    for (MachineId m = inst.machine_begin(u); m < inst.machine_end(u); ++m) {
      if (first_free) {
        free_set_.insert(m);
      } else {
        free_list_.push_back(m);
      }
    }
  }
  free_machines_ = total_machines_;
}

Engine::Engine(const Instance& inst, EngineOptions options)
    : Engine(inst, Coalition::grand(inst.num_orgs()), options) {}

double Engine::share(OrgId u) const {
  if (total_machines_ == 0 || !active_.contains(u)) return 0.0;
  return static_cast<double>(inst_->machines_of(u)) /
         static_cast<double>(total_machines_);
}

void Engine::fold_aggregate() {
  if (agg_.at != now_) agg_.fold_to(now_);
}

void Engine::advance_clock(Time t) {
  if (t <= now_) return;
  const Time dt = t - now_;
  now_ = t;
  if (listener_ != nullptr) {
    PolicyView view(*this);
    listener_->on_advance(view, dt);
  }
}

void Engine::apply_completion_run(const Event& first) {
  // Every job of the run completes at now(), so the org and the aggregate
  // fold forward once; each machine's owner folds before its busy count
  // drops (a no-op after the first of its machines).
  const OrgId org = first.org;
  lazy_accrue(org);
  fold_aggregate();
  MachineId machine = first.machine;
  std::uint32_t count = 0;
  for (;;) {
    const OrgId owner = inst_->machine_owner(machine);
    lazy_accrue(owner);
    assert(accounts_[owner].busy_machines > 0);
    accounts_[owner].busy_machines--;
    if (options_.machine_pick == MachinePick::kFirstFree) {
      free_set_.insert(machine);
    } else {
      free_list_.push_back(machine);
    }
    ++count;
    // The run's other jobs pop right behind `first` (header note).
    if (completions_.empty() || completions_.top().time != first.time ||
        completions_.top().org != org) {
      break;
    }
    machine = completions_.top().machine;
    completions_.pop();
  }
  OrgAccount& acc = accounts_[org];
  assert(acc.running_jobs >= count);
  acc.running_jobs -= count;
  agg_.running -= count;
  completed_[org] += count;
  free_machines_ += count;
  events_processed_ += count;
  notifications_++;
  if (listener_ != nullptr) {
    PolicyView view(*this);
    listener_->on_complete(view, org, machine);
  }
}

void Engine::apply_release_run(OrgId org, std::uint32_t count) {
  released_[org] += count;
  waiting_total_ += count;
  events_processed_ += count;
  notifications_++;
  if (listener_ != nullptr) {
    PolicyView view(*this);
    listener_->on_release(view, org);
  }
}

void Engine::advance_to(Time t) {
  assert(t >= now_);
  for (;;) {
    // The earlier top goes first; on a tie the completion does (see the
    // engine.h header note).
    const bool completion = next_completion() <= next_release();
    EventHeap& heap = completion ? completions_ : releases_;
    if (heap.empty() || heap.top().time > t) break;
    const Event e = heap.top();
    heap.pop();
    advance_clock(e.time);
    if (completion) {
      apply_completion_run(e);
      continue;
    }
    if (options_.external_releases) {
      // The run's other injected jobs sit right behind e in the heap's
      // (time, org, index) order.
      std::uint32_t count = 1;
      while (!releases_.empty() && releases_.top().time == e.time &&
             releases_.top().org == e.org) {
        releases_.pop();
        ++count;
      }
      apply_release_run(e.org, count);
      continue;
    }
    // Admit the organization's whole run at e.time, then stream in its
    // next runs (engine.h header note): a successor still earliest in the
    // one order — at or before t, strictly before the next completion
    // (which wins a tie), ahead of the release heap's top — is admitted
    // here; the first that is not goes into the heap.
    const auto jobs = inst_->jobs_of(e.org);
    for (std::uint32_t first = e.index;;) {
      std::uint32_t end = first + 1;
      while (end < jobs.size() && jobs[end].release == jobs[first].release) {
        ++end;
      }
      apply_release_run(e.org, end - first);
      if (end == jobs.size()) break;
      const Event next{jobs[end].release, e.org, end, kNoMachine};
      if (next.time > t || next.time >= next_completion() ||
          (!releases_.empty() && !PopsAfter{}(releases_.top(), next))) {
        releases_.push(next);
        break;
      }
      advance_clock(next.time);
      first = end;
    }
  }
  advance_clock(t);
}

Time Engine::inject_release(OrgId u) {
  if (!options_.external_releases) {
    throw std::logic_error(
        "inject_release: engine was not built with external_releases");
  }
  if (!active_.contains(u)) {
    throw std::logic_error(
        "inject_release: organization is not in the active coalition");
  }
  const std::uint32_t index = injected_[u];
  if (index >= inst_->jobs_of(u).size()) {
    throw std::logic_error(
        "inject_release: no un-injected job (append to the instance "
        "first)");
  }
  const Job& job = inst_->job(u, index);
  if (job.release < now_) {
    throw std::logic_error(
        "inject_release: release is in the engine's past (events must be "
        "fed in nondecreasing time order)");
  }
  injected_[u]++;
  releases_.push(Event{job.release, u, index, kNoMachine});
  return job.release;
}

MachineId Engine::pick_machine() {
  if (options_.machine_pick == MachinePick::kFirstFree) {
    return free_set_.pop_min();
  }
  const std::size_t i =
      static_cast<std::size_t>(rng_.uniform_u64(free_list_.size()));
  const MachineId m = free_list_[i];
  free_list_[i] = free_list_.back();
  free_list_.pop_back();
  return m;
}

void Engine::record_into(Schedule* target) {
  recorder_ = target;
  if (target == nullptr) return;
  std::size_t unstarted = 0;
  for (OrgId u = 0; u < num_orgs(); ++u) {
    if (!active_.contains(u)) continue;
    unstarted += inst_->jobs_of(u).size() - started_[u];
  }
  target->reserve(target->size() + unstarted);
}

MachineId Engine::start_front(OrgId u) {
  if (!active_.contains(u) || waiting(u) == 0) {
    throw std::logic_error("start_front: organization has no waiting job");
  }
  if (free_machines_ == 0) {
    throw std::logic_error("start_front: no free machine");
  }
  const std::uint32_t index = started_[u];
  const Job& job = inst_->job(u, index);
  assert(job.release <= now_);
  started_[u]++;
  waiting_total_--;
  const MachineId m = pick_machine();
  free_machines_--;
  lazy_accrue(u);
  const OrgId owner = inst_->machine_owner(m);
  lazy_accrue(owner);
  fold_aggregate();
  accounts_[u].running_jobs++;
  accounts_[owner].busy_machines++;
  agg_.running++;
  completions_.push(Event{now_ + job.processing, u, index, m});
  if (recorder_ != nullptr) recorder_->add(Placement{u, index, now_, m});
  decisions_++;
  return m;
}

void Engine::run(Policy& policy, Time horizon) {
  PolicyView view(*this);
  Policy* const previous = listener_;
  listener_ = &policy;
  policy.reset(view);
  for (;;) {
    // Wake only at times a decision could be required (see
    // next_decision_time); the skipped events are batch-processed by the
    // next advance_to in the exact same order, and the policy receives the
    // same notification sequence at the same view.now() timestamps.
    const Time t = next_decision_time();
    if (t == kTimeInfinity || t >= horizon) break;
    advance_to(t);
    while (needs_decision()) {
      const OrgId u = policy.select(view);
      if (u >= num_orgs() || waiting(u) == 0) {
        throw std::logic_error(
            "policy selected an organization with no waiting job");
      }
      const std::uint32_t index = started_[u];
      const MachineId m = start_front(u);
      policy.on_start(view, u, index, m);
    }
  }
  advance_to(horizon);
  listener_ = previous;
}

}  // namespace fairsched
