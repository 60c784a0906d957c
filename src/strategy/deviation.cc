#include "strategy/deviation.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace fairsched::strategy {

namespace {

[[noreturn]] void bad_deviation(const std::string& what) {
  throw std::invalid_argument(
      "deviation " + what +
      " (accepted: honest, splitunit, splitK (K>=2), mergeK (K>=2), "
      "delayD (D>=1), misreportP (P>=1), or the kind:param form)");
}

}  // namespace

std::string deviation_kind_name(DeviationSpec::Kind kind) {
  switch (kind) {
    case DeviationSpec::Kind::kHonest:
      return "honest";
    case DeviationSpec::Kind::kSplit:
      return "split";
    case DeviationSpec::Kind::kMerge:
      return "merge";
    case DeviationSpec::Kind::kDelay:
      return "delay";
    case DeviationSpec::Kind::kMisreport:
      return "misreport";
  }
  throw std::logic_error("unreachable deviation kind");
}

std::string deviation_label(const DeviationSpec& dev) {
  if (dev.kind == DeviationSpec::Kind::kHonest) return "honest";
  if (dev.kind == DeviationSpec::Kind::kSplit && dev.param == 0) {
    return "splitunit";
  }
  return deviation_kind_name(dev.kind) + std::to_string(dev.param);
}

DeviationSpec parse_deviation(const std::string& text) {
  DeviationSpec dev;
  std::string kind = text;
  std::string param;
  const std::size_t colon = text.find(':');
  if (colon != std::string::npos) {
    kind = text.substr(0, colon);
    param = text.substr(colon + 1);
  } else {
    // Label form: the longest run of trailing digits is the parameter.
    std::size_t digits = text.size();
    while (digits > 0 && std::isdigit(static_cast<unsigned char>(
                             text[digits - 1]))) {
      --digits;
    }
    kind = text.substr(0, digits);
    param = text.substr(digits);
  }
  if (kind == "honest") {
    dev.kind = DeviationSpec::Kind::kHonest;
  } else if (kind == "split" || kind == "splitunit") {
    dev.kind = DeviationSpec::Kind::kSplit;
  } else if (kind == "merge") {
    dev.kind = DeviationSpec::Kind::kMerge;
  } else if (kind == "delay") {
    dev.kind = DeviationSpec::Kind::kDelay;
  } else if (kind == "misreport") {
    dev.kind = DeviationSpec::Kind::kMisreport;
  } else {
    bad_deviation("kind '" + text + "' is unknown");
  }
  if (!param.empty()) {
    if (kind == "honest" || kind == "splitunit") {
      bad_deviation("'" + text + "' does not take a parameter");
    }
    try {
      std::size_t consumed = 0;
      dev.param = std::stoll(param, &consumed);
      if (consumed != param.size()) throw std::invalid_argument(param);
    } catch (const std::exception&) {
      bad_deviation("parameter '" + param + "' in '" + text +
                    "' is not an integer");
    }
  }
  validate_deviation(dev);
  return dev;
}

void validate_deviation(const DeviationSpec& dev) {
  switch (dev.kind) {
    case DeviationSpec::Kind::kHonest:
      if (dev.param != 0) bad_deviation("honest takes no parameter");
      return;
    case DeviationSpec::Kind::kSplit:
      if (dev.param != 0 && dev.param < 2) {
        bad_deviation("split needs 0 (unit pieces) or >= 2 pieces");
      }
      return;
    case DeviationSpec::Kind::kMerge:
      if (dev.param < 2) bad_deviation("merge needs a run length >= 2");
      return;
    case DeviationSpec::Kind::kDelay:
      if (dev.param < 1) bad_deviation("delay needs a shift >= 1");
      return;
    case DeviationSpec::Kind::kMisreport:
      if (dev.param < 1) {
        bad_deviation("misreport needs a percentage >= 1");
      }
      return;
  }
  throw std::logic_error("unreachable deviation kind");
}

std::vector<Job> apply_deviation_to_jobs(std::span<const Job> jobs,
                                         const DeviationSpec& dev) {
  validate_deviation(dev);
  std::vector<Job> out;
  // A job's piece count under kSplit (splitunit cuts it into unit pieces).
  const auto pieces_of = [&dev](const Job& job) -> std::int64_t {
    return dev.param == 0 ? job.processing
                          : std::min<std::int64_t>(dev.param, job.processing);
  };
  switch (dev.kind) {
    case DeviationSpec::Kind::kHonest:
      out.assign(jobs.begin(), jobs.end());
      return out;
    case DeviationSpec::Kind::kSplit: {
      std::size_t total = 0;
      for (const Job& job : jobs) {
        total += static_cast<std::size_t>(pieces_of(job));
      }
      out.reserve(total);
      for (const Job& job : jobs) {
        const std::int64_t pieces = pieces_of(job);
        // Equal-as-possible piece sizes: the first `remainder` pieces get
        // one extra unit, so the pieces sum exactly to the original job.
        const Time base = job.processing / pieces;
        const Time remainder = job.processing % pieces;
        for (std::int64_t piece = 0; piece < pieces; ++piece) {
          Job part = job;
          part.processing = base + (piece < remainder ? 1 : 0);
          out.push_back(part);
        }
      }
      return out;
    }
    case DeviationSpec::Kind::kMerge: {
      const auto run_length = static_cast<std::size_t>(dev.param);
      out.reserve((jobs.size() + run_length - 1) / run_length);
      for (std::size_t i = 0; i < jobs.size();) {
        const std::size_t run = std::min(run_length, jobs.size() - i);
        Job merged = jobs[i];
        for (std::size_t j = 1; j < run; ++j) {
          // FIFO streams are release-sorted, so the run's last release is
          // its max: the merged job appears when its latest part would.
          merged.release = std::max(merged.release, jobs[i + j].release);
          merged.processing += jobs[i + j].processing;
        }
        out.push_back(merged);
        i += run;
      }
      return out;
    }
    case DeviationSpec::Kind::kDelay:
      out.reserve(jobs.size());
      for (const Job& job : jobs) {
        Job delayed = job;
        delayed.release += dev.param;
        out.push_back(delayed);
      }
      return out;
    case DeviationSpec::Kind::kMisreport:
      out.reserve(jobs.size());
      for (const Job& job : jobs) {
        Job declared = job;
        declared.processing =
            std::max<Time>(1, job.processing * dev.param / 100);
        out.push_back(declared);
      }
      return out;
  }
  throw std::logic_error("unreachable deviation kind");
}

Instance apply_deviation(const Instance& honest, OrgId deviator,
                         const DeviationSpec& dev) {
  if (deviator >= honest.num_orgs()) {
    throw std::invalid_argument(
        "deviator organization " + std::to_string(deviator) +
        " is out of range (instance has " +
        std::to_string(honest.num_orgs()) + " organizations)");
  }
  // Every stream below is added whole and in release order (deviations
  // keep FIFO streams release-sorted), so build() finds them sorted and
  // keeps them. The deviator's transformed stream moves in uncopied.
  InstanceBuilder builder;
  for (OrgId u = 0; u < honest.num_orgs(); ++u) {
    builder.add_org(honest.org(u).name, honest.org(u).machines);
    const std::span<const Job> jobs = honest.jobs_of(u);
    if (u == deviator) {
      builder.add_jobs(u, apply_deviation_to_jobs(jobs, dev));
    } else {
      builder.add_jobs(u, std::vector<Job>(jobs.begin(), jobs.end()));
    }
  }
  return std::move(builder).build();
}

std::vector<DeviationSpec> default_deviation_grid() {
  using Kind = DeviationSpec::Kind;
  return {
      {Kind::kHonest, 0},     {Kind::kSplit, 2},      {Kind::kSplit, 0},
      {Kind::kMerge, 2},      {Kind::kMerge, 4},      {Kind::kDelay, 20},
      {Kind::kDelay, 100},    {Kind::kMisreport, 50}, {Kind::kMisreport, 200},
  };
}

}  // namespace fairsched::strategy
