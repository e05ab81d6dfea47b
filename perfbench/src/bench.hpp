#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "core/flow.hpp"
#include "core/request.hpp"
#include "rqfp/netlist.hpp"
#include "targets.hpp"
#include "tt/truth_table.hpp"

namespace perfbench {

namespace core = rcgp::core;
namespace rqfp = rcgp::rqfp;
namespace tt = rcgp::tt;

/// One reported number: a name from BENCHMARK.json, its value as
/// measured, and its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation was asked to do.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's scratch files (stores, sockets, profile)
  /// and for the costs earlier runs of this build reached.
  std::string state_dir;
  /// Identifies the benchmark binary, so remembered costs are compared
  /// only between runs of one build.
  std::string build_id;
};

/// Result line plus the facts printed before it.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra JSON members ("key":value,...) for the line before the result:
  /// sample counts, fail_rate, per-row detail.
  std::string info;
  std::vector<std::string> problems; ///< why `correct` is false, if it is

  void fail(const std::string& why);   ///< a failed request
  void wrong(const std::string& why);  ///< output that is not correct
  void add(std::string name, double value, std::string unit);
};

/// One benchmark row: the request the program sees plus, for the table
/// workloads, the pinned time-to-quality target.
struct Row {
  core::SynthesisRequest request;
  std::optional<Target> target;
};

/// A row after set-up: its resolved spec, the flow's input AIG and the
/// flow options its request denotes.
struct PreparedRow {
  const Row* row = nullptr;
  std::vector<tt::TruthTable> spec;
  rcgp::aig::Aig input;
  core::FlowOptions flow;
};

/// What `request` denotes under the executor's defaults, taken from
/// batch::ExecuteOptions{} so a changed default shows in the benchmark
/// without an edit.
core::OptimizerOptions executor_options_for(
    const core::SynthesisRequest& request);

/// The FlowOptions batch::execute_request builds for `request`. No
/// checkpoint, stop token or cache: the table rows run the bare flow.
core::FlowOptions flow_options_for(const core::SynthesisRequest& request);

PreparedRow prepare(const Row& row);

/// The benchmark's own verdict: exhaustive simulation of `net` against
/// `spec` through cec::sim_check.
bool implements(const rqfp::Netlist& net, std::span<const tt::TruthTable> spec);

double now_s();          ///< steady-clock seconds
double peak_rss_mb();    ///< peak resident set of this process, MiB
std::string number(double v); ///< a double with all its digits

/// Value of a registry counter (the program's own telemetry).
std::uint64_t counter(const char* name);

/// Rows of the table and island workloads.
std::vector<Row> table1_rows();
std::vector<Row> table2_rows();
std::vector<Row> island_rows();

/// Workload entry points (untraced and traced share set-up).
/// The island probe's request: the islands workload's first fleet, so
/// island.* reads the same fleet on every workload.
core::SynthesisRequest fleet_probe_request();

RunResult run_table(const RunConfig& cfg, const std::vector<Row>& rows);
RunResult run_islands(const RunConfig& cfg);
RunResult run_serve_npn(const RunConfig& cfg);

/// The traced run's layer probes over a workload's rows (see probes.cpp).
struct ProbeInput {
  std::vector<PreparedRow> rows;     ///< flow + per-offspring probes
  std::vector<core::SynthesisRequest> requests; ///< batch/serve probes
  core::SynthesisRequest fleet;      ///< island probe request
  double untraced_s = 0.0;           ///< wall of one untraced pass
  double traced_s = 0.0;             ///< wall of the same pass, traced
};
void run_probes(const RunConfig& cfg, const ProbeInput& in, RunResult& out);

/// Prints the per-row improvement history at half budget, the way the
/// pinned targets were chosen.
int pin_targets(const std::string& workload);

} // namespace perfbench
