#include "exp/reporter.h"

#include <cstdio>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/table.h"

namespace fairsched::exp {

namespace {

// One label per axis for a flat axis-point index.
std::vector<std::string> axis_labels(const SweepSpec& spec,
                                     std::size_t point) {
  const std::vector<double> values = axis_point_values(spec, point);
  std::vector<std::string> labels;
  labels.reserve(values.size());
  for (std::size_t j = 0; j < values.size(); ++j) {
    labels.push_back(axis_value_label(spec.axes[j], values[j]));
  }
  return labels;
}

}  // namespace

std::string CsvReporter::format(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void CsvReporter::report(const SweepSpec& spec, const SweepResult& result) {
  CsvWriter csv(out_);
  std::vector<std::string> header{"sweep"};
  for (const SweepAxis& axis : spec.axes) header.push_back(axis.name);
  for (const char* column :
       {"workload", "policy", "instances", "unfairness_mean",
        "unfairness_stdev", "unfairness_min", "unfairness_max",
        "rel_distance_mean", "utilization_mean", "work_done_total"}) {
    header.push_back(column);
  }
  // Strategy sweeps append the manipulation-grading columns; every other
  // sweep's CSV bytes are unchanged.
  if (spec.is_strategy()) {
    for (const char* column : {"deviator_utility_mean", "deviator_flow_mean",
                               "honest_utility_mean"}) {
      header.push_back(column);
    }
  }
  csv.write_row(header);
  for (std::size_t a = 0; a < result.axis_points; ++a) {
    const std::vector<std::string> labels = axis_labels(spec, a);
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
      for (std::size_t p = 0; p < spec.policies.size(); ++p) {
        const SweepCell& cell = result.cell(spec, a, w, p);
        std::vector<std::string> row{spec.name};
        row.insert(row.end(), labels.begin(), labels.end());
        row.push_back(spec.workloads[w].name);
        row.push_back(spec.policies[p]);
        row.push_back(std::to_string(cell.unfairness.count()));
        row.push_back(format(cell.unfairness.mean()));
        row.push_back(format(cell.unfairness.stdev()));
        row.push_back(format(cell.unfairness.min()));
        row.push_back(format(cell.unfairness.max()));
        row.push_back(format(cell.rel_distance.mean()));
        row.push_back(format(cell.utilization.mean()));
        row.push_back(std::to_string(cell.work_done));
        if (spec.is_strategy()) {
          row.push_back(format(cell.deviator_utility.mean()));
          row.push_back(format(cell.deviator_flow.mean()));
          row.push_back(format(cell.honest_utility.mean()));
        }
        csv.write_row(row);
      }
    }
  }
}

CsvRecordSink::CsvRecordSink(std::ostream& out, const SweepSpec& spec)
    : csv_(out), spec_(spec) {
  std::vector<std::string> header{"sweep"};
  for (const SweepAxis& axis : spec_.axes) header.push_back(axis.name);
  for (const char* column :
       {"workload", "policy", "instance", "seed", "unfairness",
        "rel_distance", "utilization", "work_done"}) {
    header.push_back(column);
  }
  if (spec_.is_strategy()) {
    for (const char* column :
         {"deviator_utility", "deviator_flow", "honest_utility"}) {
      header.push_back(column);
    }
  }
  csv_.write_row(header);
}

void CsvRecordSink::write(const RunRecord& record) {
  std::vector<std::string> row{spec_.name};
  for (const std::string& label : axis_labels(spec_, record.axis_point)) {
    row.push_back(label);
  }
  row.push_back(spec_.workloads[record.workload].name);
  row.push_back(spec_.policies[record.policy]);
  row.push_back(std::to_string(record.instance));
  row.push_back(std::to_string(record.seed));
  row.push_back(CsvReporter::format(record.unfairness));
  row.push_back(CsvReporter::format(record.rel_distance));
  row.push_back(CsvReporter::format(record.utilization));
  row.push_back(std::to_string(record.work_done));
  if (spec_.is_strategy()) {
    row.push_back(CsvReporter::format(record.deviator_utility));
    row.push_back(CsvReporter::format(record.deviator_flow));
    row.push_back(CsvReporter::format(record.honest_utility));
  }
  csv_.write_row(row);
}

void JsonReporter::report(const SweepSpec& spec, const SweepResult& result) {
  auto num = [](double v) { return CsvReporter::format(v); };
  out_ << "{\n";
  out_ << "  \"sweep\": \"" << json_escape(spec.name) << "\",\n";
  out_ << "  \"horizon\": " << spec.horizon << ",\n";
  out_ << "  \"instances\": " << spec.instances << ",\n";
  out_ << "  \"seed\": " << spec.seed << ",\n";
  out_ << "  \"baseline\": \"" << json_escape(spec.baseline) << "\",\n";
  out_ << "  \"axes\": [";
  for (std::size_t j = 0; j < spec.axes.size(); ++j) {
    if (j) out_ << ", ";
    out_ << '"' << json_escape(spec.axes[j].name) << '"';
  }
  out_ << "],\n";
  out_ << "  \"runs\": "
       << result.axis_points * spec.workloads.size() * spec.instances *
              spec.policies.size()
       << ",\n";
  out_ << "  \"baseline_wall_ms\": " << num(result.baseline_wall_ms) << ",\n";
  out_ << "  \"total_wall_ms\": " << num(result.total_wall_ms) << ",\n";
  out_ << "  \"elapsed_ms\": " << num(result.elapsed_ms) << ",\n";
  // `shards` is additive schema: absent before the planner/executor
  // split, so scripts/compare_bench.py and older tooling keep working
  // against both generations of BENCH files.
  out_ << "  \"shards\": " << result.shards << ",\n";
  out_ << "  \"cache\": {\"enabled\": "
       << (result.cache_enabled ? "true" : "false")
       << ", \"hits\": " << result.cache.hits
       << ", \"misses\": " << result.cache.misses
       << ", \"evictions\": " << result.cache.evictions
       << ", \"hit_rate\": " << num(result.cache.hit_rate())
       << ", \"replayed_runs\": " << result.replayed_runs
       << ", \"prefix_groups\": " << result.prefix_groups
       << ", \"peak_bytes\": " << result.cache.peak_bytes << "},\n";
  out_ << "  \"cells\": [\n";
  bool first = true;
  for (std::size_t a = 0; a < result.axis_points; ++a) {
    const std::vector<std::string> labels = axis_labels(spec, a);
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
      for (std::size_t p = 0; p < spec.policies.size(); ++p) {
        const SweepCell& cell = result.cell(spec, a, w, p);
        if (!first) out_ << ",\n";
        first = false;
        out_ << "    {";
        for (std::size_t j = 0; j < labels.size(); ++j) {
          out_ << '"' << json_escape(spec.axes[j].name) << "\": \""
               << json_escape(labels[j]) << "\", ";
        }
        out_ << "\"workload\": \"" << json_escape(spec.workloads[w].name)
             << "\", \"policy\": \"" << json_escape(spec.policies[p]) << "\""
             << ", \"count\": " << cell.unfairness.count()
             << ", \"unfairness_mean\": " << num(cell.unfairness.mean())
             << ", \"unfairness_stdev\": " << num(cell.unfairness.stdev())
             << ", \"rel_distance_mean\": " << num(cell.rel_distance.mean())
             << ", \"utilization_mean\": " << num(cell.utilization.mean());
        // Additive schema, strategy sweeps only (compare_bench.py and
        // older tooling read both generations).
        if (spec.is_strategy()) {
          out_ << ", \"deviator_utility_mean\": "
               << num(cell.deviator_utility.mean())
               << ", \"deviator_flow_mean\": "
               << num(cell.deviator_flow.mean())
               << ", \"honest_utility_mean\": "
               << num(cell.honest_utility.mean());
        }
        out_ << ", \"wall_ms\": " << num(cell.wall_ms) << "}";
      }
    }
  }
  out_ << "\n  ]\n}\n";
}

void TableReporter::report(const SweepSpec& spec, const SweepResult& result) {
  std::vector<std::string> header;
  for (const SweepAxis& axis : spec.axes) header.push_back(axis.name);
  header.push_back("Policy");
  for (const SweepWorkload& workload : spec.workloads) {
    header.push_back(workload.name + " Avg");
    header.push_back(workload.name + " St.dev");
  }
  AsciiTable table(header);
  for (std::size_t a = 0; a < result.axis_points; ++a) {
    const std::vector<std::string> labels = axis_labels(spec, a);
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      std::vector<std::string> row = labels;
      row.push_back(spec.policies[p]);
      for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
        const StatsAccumulator& acc = result.cell(spec, a, w, p).unfairness;
        row.push_back(AsciiTable::format_double(acc.mean(), 2));
        row.push_back(AsciiTable::format_double(acc.stdev(), 2));
      }
      table.add_row(std::move(row));
    }
  }
  out_ << table.to_string();
}

}  // namespace fairsched::exp
