#include "serve/session.h"

#include <chrono>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace fairsched::serve {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string format_decision_line(Time time, OrgId org, std::uint32_t index,
                                 MachineId machine) {
  std::string line = "decision ";
  line += std::to_string(time);
  line += ' ';
  line += std::to_string(org);
  line += ' ';
  line += std::to_string(index);
  line += ' ';
  line += std::to_string(machine);
  line += '\n';
  return line;
}

// Attached to the engine in the policy's place: forwards every push
// notification to the real policy (so incremental policies see the exact
// lifecycle Engine::run delivers) and maintains the resident-count
// statistics on the side. Stats reads never mutate engine state visible to
// the policy, so instrumentation cannot perturb decisions.
class ServeSession::StatsListener final : public Policy {
 public:
  StatsListener(Policy* inner, const Engine* engine, ServeReport* report)
      : inner_(inner),
        engine_(engine),
        report_(report),
        resident_(engine->num_orgs(), 0),
        completed_(engine->num_orgs(), 0) {}

  void reset(const PolicyView& view) override { inner_->reset(view); }
  OrgId select(const PolicyView& view) override {
    return inner_->select(view);
  }
  void on_start(const PolicyView& view, OrgId org, std::uint32_t index,
                MachineId machine) override {
    inner_->on_start(view, org, index, machine);
  }
  void on_advance(const PolicyView& view, Time dt) override {
    inner_->on_advance(view, dt);
  }
  void on_release(const PolicyView& view, OrgId org) override {
    inner_->on_release(view, org);
    // One notification may carry several releases of org (a same-time
    // run), so residency is a flag, not a pending count of exactly one.
    if (!resident_[org]) {
      resident_[org] = 1;
      resident_orgs_++;
      if (resident_orgs_ > report_->peak_resident_orgs) {
        report_->peak_resident_orgs = resident_orgs_;
      }
    }
    // Resident jobs only grow on releases (starts just move waiting ->
    // running; completions shrink), so the peak is exact when sampled here.
    const std::uint32_t resident =
        engine_->waiting_total() +
        (engine_->total_machines() - engine_->free_machines());
    if (resident > report_->peak_resident_jobs) {
      report_->peak_resident_jobs = resident;
    }
  }
  void on_complete(const PolicyView& view, OrgId org,
                   MachineId machine) override {
    inner_->on_complete(view, org, machine);
    // One notification may carry several completions of org (a same-time
    // run), so the count is the growth of the engine's completed(org).
    const std::uint32_t completed = engine_->completed(org);
    report_->completions += completed - completed_[org];
    completed_[org] = completed;
    if (engine_->waiting(org) + engine_->running(org) == 0) {
      resident_[org] = 0;
      resident_orgs_--;
    }
  }

  std::uint32_t resident_orgs() const { return resident_orgs_; }

 private:
  Policy* inner_;
  const Engine* engine_;
  ServeReport* report_;
  // Organizations with a waiting or running job.
  std::vector<char> resident_;
  std::uint32_t resident_orgs_ = 0;
  // Per organization: engine_->completed(u) at its last notification.
  std::vector<std::uint32_t> completed_;
};

ServeSession::ServeSession(const std::vector<std::uint32_t>& machines,
                           std::unique_ptr<Policy> policy,
                           ServeOptions options)
    : options_(std::move(options)),
      live_(machines),
      policy_(std::move(policy)) {
  if (policy_ == nullptr) {
    throw std::invalid_argument("ServeSession: no policy");
  }
  if (!options_.clock_ns) options_.clock_ns = steady_now_ns;
  EngineOptions engine_options = options_.engine;
  engine_options.external_releases = true;
  engine_ = std::make_unique<Engine>(live_.instance(), engine_options);
  listener_ =
      std::make_unique<StatsListener>(policy_.get(), engine_.get(), &report_);
  report_.orgs = live_.num_orgs();
  report_.machines = engine_->total_machines();
}

ServeSession::~ServeSession() = default;

void ServeSession::emit_stats_line() {
  if (options_.stats == nullptr) return;
  report_.stats_lines++;
  const LatencyHistogram& h = report_.decision_latency;
  *options_.stats << "serve-stats: t=" << engine_->now()
                  << " arrivals=" << report_.arrivals
                  << " events=" << engine_->events_processed()
                  << " decisions=" << engine_->decisions_made()
                  << " completions=" << report_.completions
                  << " waiting=" << engine_->waiting_total() << " running="
                  << (engine_->total_machines() - engine_->free_machines())
                  << " resident-orgs=" << listener_->resident_orgs()
                  << " p50=" << h.p50() << "ns p99=" << h.p99() << "ns\n";
}

void ServeSession::run(EventSource& source) {
  if (ran_) {
    throw std::logic_error("ServeSession::run: session already ran");
  }
  ran_ = true;
  const std::vector<std::uint32_t>& platform = source.machines();
  bool same_platform = platform.size() == live_.num_orgs();
  for (OrgId u = 0; same_platform && u < live_.num_orgs(); ++u) {
    same_platform = platform[u] == live_.instance().machines_of(u);
  }
  if (!same_platform) {
    throw std::invalid_argument(
        "ServeSession::run: source platform differs from the session's");
  }
  if (options_.record_trace != nullptr) {
    write_trace_header(*options_.record_trace, source.machines());
  }
  const Time horizon =
      options_.horizon > 0 ? options_.horizon : kTimeInfinity;
  const std::uint64_t run_start_ns = options_.clock_ns();

  PolicyView view(*engine_);
  engine_->attach(listener_.get());
  listener_->reset(view);

  std::optional<JobEvent> pending = source.next();
  std::uint64_t arrivals_at_last_stats = 0;
  for (;;) {
    Time td = engine_->next_decision_time();
    // Feed every arrival at or before the tentative wake-up time: each one
    // can only move the next decision earlier, so at fixpoint td equals
    // what a fully preloaded batch engine would compute.
    while (pending.has_value() && pending->time <= td) {
      const JobEvent event = *pending;
      const std::uint32_t index =
          live_.append_job(event.org, event.time, event.processing);
      (void)index;
      engine_->inject_release(event.org);
      report_.arrivals++;
      if (options_.record_trace != nullptr) {
        write_job_line(*options_.record_trace, event);
      }
      pending = source.next();
      td = engine_->next_decision_time();
    }
    if (td >= horizon) break;  // covers the drained case (td == infinity)
    engine_->advance_to(td);
    while (engine_->needs_decision()) {
      const std::uint64_t t0 = options_.clock_ns();
      const OrgId u = policy_->select(view);
      if (u >= engine_->num_orgs() || engine_->waiting(u) == 0) {
        throw std::logic_error(
            "policy selected an organization with no waiting job");
      }
      const std::uint32_t index = engine_->started(u);
      const MachineId m = engine_->start_front(u);
      policy_->on_start(view, u, index, m);
      report_.decision_latency.record(options_.clock_ns() - t0);
      if (options_.decisions != nullptr) {
        *options_.decisions << format_decision_line(engine_->now(), u, index,
                                                    m);
      }
    }
    if (options_.stats_interval > 0 &&
        report_.arrivals - arrivals_at_last_stats >= options_.stats_interval) {
      arrivals_at_last_stats = report_.arrivals;
      emit_stats_line();
    }
  }
  if (options_.horizon > 0) engine_->advance_to(options_.horizon);
  engine_->attach(nullptr);
  if (options_.record_trace != nullptr) *options_.record_trace << "end\n";

  report_.engine_events = engine_->events_processed();
  report_.decisions = engine_->decisions_made();
  report_.final_time = engine_->now();
  report_.elapsed_ns = options_.clock_ns() - run_start_ns;
  if (options_.stats != nullptr) emit_stats_line();
}

std::uint64_t replay_batch(const Instance& inst, Policy& policy,
                           Time horizon, std::ostream* decisions,
                           const EngineOptions& engine_options) {
  if (horizon <= 0) horizon = inst.last_release() + inst.total_work() + 1;
  Engine engine(inst, engine_options);
  // Record through the policy slot Engine::run drives: on_start fires
  // immediately after each decision is applied, in decision order, with
  // view.now() equal to the decision time — the same emission point the
  // serve loop uses.
  class Recorder final : public Policy {
   public:
    Recorder(Policy* inner, std::ostream* out) : inner_(inner), out_(out) {}
    void reset(const PolicyView& view) override { inner_->reset(view); }
    OrgId select(const PolicyView& view) override {
      return inner_->select(view);
    }
    void on_start(const PolicyView& view, OrgId org, std::uint32_t index,
                  MachineId machine) override {
      inner_->on_start(view, org, index, machine);
      if (out_ != nullptr) {
        *out_ << format_decision_line(view.now(), org, index, machine);
      }
    }
    void on_advance(const PolicyView& view, Time dt) override {
      inner_->on_advance(view, dt);
    }
    void on_release(const PolicyView& view, OrgId org) override {
      inner_->on_release(view, org);
    }
    void on_complete(const PolicyView& view, OrgId org,
                     MachineId machine) override {
      inner_->on_complete(view, org, machine);
    }

   private:
    Policy* inner_;
    std::ostream* out_;
  };
  Recorder recorder(&policy, decisions);
  engine.run(recorder, horizon);
  return engine.decisions_made();
}

Instance materialize_trace(EventSource& source) {
  InstanceBuilder builder;
  const std::vector<std::uint32_t>& machines = source.machines();
  for (std::size_t u = 0; u < machines.size(); ++u) {
    builder.add_org("org" + std::to_string(u), machines[u]);
  }
  while (std::optional<JobEvent> event = source.next()) {
    builder.add_job(event->org, event->time, event->processing);
  }
  return std::move(builder).build();
}

void write_report_json(std::ostream& out, const ServeReport& report,
                       const std::string& policy, const std::string& source) {
  const double elapsed_ms =
      static_cast<double>(report.elapsed_ns) / 1e6;
  const double elapsed_s =
      static_cast<double>(report.elapsed_ns) / 1e9;
  const double events_per_sec =
      elapsed_s > 0.0 ? static_cast<double>(report.engine_events) / elapsed_s
                      : 0.0;
  const double decisions_per_sec =
      elapsed_s > 0.0 ? static_cast<double>(report.decisions) / elapsed_s
                      : 0.0;
  const LatencyHistogram& h = report.decision_latency;
  out << "{\n";
  out << "  \"sweep\": \"serve\",\n";
  out << "  \"policy\": \"" << policy << "\",\n";
  out << "  \"source\": \"" << source << "\",\n";
  out << "  \"orgs\": " << report.orgs << ",\n";
  out << "  \"machines\": " << report.machines << ",\n";
  out << "  \"arrivals\": " << report.arrivals << ",\n";
  out << "  \"engine_events\": " << report.engine_events << ",\n";
  out << "  \"decisions\": " << report.decisions << ",\n";
  out << "  \"completions\": " << report.completions << ",\n";
  out << "  \"final_time\": " << report.final_time << ",\n";
  out << "  \"peak_resident_jobs\": " << report.peak_resident_jobs << ",\n";
  out << "  \"peak_resident_orgs\": " << report.peak_resident_orgs << ",\n";
  out << "  \"stats_lines\": " << report.stats_lines << ",\n";
  out << "  \"elapsed_ms\": " << json_exact_double(elapsed_ms) << ",\n";
  out << "  \"events_per_sec\": " << json_exact_double(events_per_sec)
      << ",\n";
  out << "  \"decisions_per_sec\": " << json_exact_double(decisions_per_sec)
      << ",\n";
  out << "  \"decision_latency_ns\": {\n";
  out << "    \"count\": " << h.total_count() << ",\n";
  out << "    \"mean\": " << json_exact_double(h.mean()) << ",\n";
  out << "    \"p50\": " << h.p50() << ",\n";
  out << "    \"p95\": " << h.p95() << ",\n";
  out << "    \"p99\": " << h.p99() << ",\n";
  out << "    \"max\": " << h.max() << "\n";
  out << "  }\n";
  out << "}\n";
}

}  // namespace fairsched::serve
