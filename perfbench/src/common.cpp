#include <sys/resource.h>

#include <chrono>
#include <cstdio>

#include "batch/execute.hpp"
#include "bench.hpp"
#include "cec/sim_cec.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

void RunResult::fail(const std::string& why) {
  ++failed;
  problems.push_back("failed: " + why);
}

void RunResult::wrong(const std::string& why) {
  correct = false;
  problems.push_back("incorrect: " + why);
}

void RunResult::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

core::OptimizerOptions executor_options_for(
    const core::SynthesisRequest& request) {
  const rcgp::batch::ExecuteOptions executor;
  core::RequestDefaults defaults;
  defaults.generations = executor.default_generations;
  defaults.threads = executor.threads_per_job;
  return core::optimizer_options_for(request, defaults);
}

core::FlowOptions flow_options_for(const core::SynthesisRequest& request) {
  const core::OptimizerOptions oo = executor_options_for(request);
  core::FlowOptions fo;
  fo.optimizer = oo.algorithm;
  fo.evolve = oo.evolve;
  fo.anneal = oo.anneal;
  fo.window = oo.window;
  fo.restarts = oo.restarts;
  fo.island = oo.island;
  fo.limits = oo.limits;
  return fo;
}

PreparedRow prepare(const Row& row) {
  PreparedRow p;
  p.row = &row;
  p.spec = rcgp::batch::resolve_spec(row.request);
  p.input = core::aig_from_tables(p.spec);
  p.flow = flow_options_for(row.request);
  return p;
}

bool implements(const rqfp::Netlist& net,
                std::span<const tt::TruthTable> spec) {
  return net.num_pos() == spec.size() && rcgp::cec::sim_check(net, spec).all_match;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t counter(const char* name) {
  return rcgp::obs::registry().counter(name).value();
}

} // namespace perfbench
