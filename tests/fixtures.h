#pragma once

// Instances and digests shared by the golden tests of the fair schedulers
// (test_rand.cc, test_ref.cc, test_policies.cc), and the serve-style
// injection driver shared by the engine and serve-replay tests.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"
#include "sim/engine.h"
#include "sim/policy.h"
#include "util/rng.h"

namespace fairsched {
namespace fixtures {

// Unit jobs released in [0, 30) on k organizations owning one or two
// machines each.
inline Instance unit_instance(std::uint32_t k, std::uint32_t jobs_per_org,
                              std::uint64_t seed) {
  InstanceBuilder b;
  Rng rng(seed);
  for (std::uint32_t u = 0; u < k; ++u) {
    b.add_org("o" + std::to_string(u), 1 + static_cast<std::uint32_t>(
                                               rng.uniform_u64(2)));
  }
  for (std::uint32_t u = 0; u < k; ++u) {
    for (std::uint32_t i = 0; i < jobs_per_org; ++i) {
      b.add_job(u, static_cast<Time>(rng.uniform_u64(30)), 1);
    }
  }
  return std::move(b).build();
}

// Mixed-size jobs on five organizations, two of which own no machines, so
// some coalitions have no machine at all.
inline Instance zero_machine_instance() {
  InstanceBuilder b;
  Rng rng(404);
  const std::uint32_t machines[] = {2, 1, 0, 3, 0};
  for (std::uint32_t u = 0; u < 5; ++u) {
    b.add_org("o" + std::to_string(u), machines[u]);
  }
  for (std::uint32_t u = 0; u < 5; ++u) {
    for (std::uint32_t i = 0; i < 30; ++i) {
      b.add_job(u, static_cast<Time>(rng.uniform_u64(150)),
                1 + static_cast<Time>(rng.uniform_u64(12)));
    }
  }
  return std::move(b).build();
}

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

// Folds v into the FNV-1a hash h, one byte at a time (little end first).
inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
}

// Folds every placement (org, index, start, machine) of `schedule`, in
// schedule order, into h.
inline void fnv_mix_placements(std::uint64_t& h, const Schedule& schedule) {
  for (const Placement& p : schedule.placements()) {
    fnv_mix(h, p.org);
    fnv_mix(h, p.index);
    fnv_mix(h, static_cast<std::uint64_t>(p.start));
    fnv_mix(h, p.machine);
  }
}

// FNV-1a over every placement of `schedule`.
inline std::uint64_t placement_digest(const Schedule& schedule) {
  std::uint64_t h = kFnvOffset;
  fnv_mix_placements(h, schedule);
  return h;
}

// Every job of `inst` as the organization to inject, ordered by (release,
// org); each organization's jobs appear in FIFO order.
inline std::vector<OrgId> arrivals_by_release(const Instance& inst) {
  std::vector<std::pair<Time, OrgId>> keyed;
  for (OrgId u = 0; u < inst.num_orgs(); ++u) {
    for (const Job& job : inst.jobs_of(u)) keyed.emplace_back(job.release, u);
  }
  std::stable_sort(keyed.begin(), keyed.end());
  std::vector<OrgId> arrivals;
  for (const auto& [release, u] : keyed) arrivals.push_back(u);
  return arrivals;
}

// Runs `policy` on an external-releases `engine` until `horizon` the way a
// serve session does (serve/session.h): before each wake-up it injects, in
// `arrivals` order, every release at or before the next decision time.
// `arrivals` names one organization per job of the engine's instance and
// must be nondecreasing in release time.
inline void run_injected(Engine& engine, Policy& policy,
                         const std::vector<OrgId>& arrivals, Time horizon) {
  const Instance& inst = engine.instance();
  PolicyView view(engine);
  engine.attach(&policy);
  policy.reset(view);
  std::size_t next = 0;
  for (;;) {
    Time td = engine.next_decision_time();
    while (next < arrivals.size()) {
      const OrgId u = arrivals[next];
      if (inst.job(u, engine.injected(u)).release > td) break;
      engine.inject_release(u);
      ++next;
      td = engine.next_decision_time();
    }
    if (td >= horizon) break;
    engine.advance_to(td);
    while (engine.needs_decision()) {
      const OrgId u = policy.select(view);
      const std::uint32_t index = engine.started(u);
      const MachineId m = engine.start_front(u);
      policy.on_start(view, u, index, m);
    }
  }
  engine.advance_to(horizon);
  engine.attach(nullptr);
}

}  // namespace fixtures
}  // namespace fairsched
