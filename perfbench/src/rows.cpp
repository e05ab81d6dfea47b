// The row workloads: table1 and table2 run each row through core::synthesize
// with the benchmark's own improvement callback (time-to-quality); islands
// runs each row through batch::execute_request, the front end a fleet job
// takes in production.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include "batch/execute.hpp"
#include "bench.hpp"
#include "gen.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

/// Every row runs at this request seed, so its result and its target are
/// exact; the benchmark seed only orders the rows.
constexpr std::uint64_t kRowSeed = 7;
constexpr int kSetupRepeats = 7;
constexpr double kWarmupSeconds = 2.0;
constexpr unsigned kMaxLanes = 4;
/// Pass-order streams of different lanes never meet.
constexpr std::uint64_t kLaneStride = 1000000;

Row row(const std::string& circuit, std::uint64_t generations,
        std::optional<Target> target) {
  Row r;
  r.request.id = circuit;
  r.request.circuit = circuit;
  r.request.generations = generations;
  r.request.seed = kRowSeed;
  r.target = target;
  return r;
}

/// The 4-island ring fleet settings of the islands workload.
core::SynthesisRequest as_fleet(core::SynthesisRequest r) {
  r.id += "-fleet";
  r.islands = 4;
  r.topology = core::Topology::kRing;
  r.migration_interval = 1000;
  return r;
}

/// One request's outcome.
struct RowRun {
  double latency_s = 0.0;
  double ttq_s = 0.0; ///< time to target; latency when none or unreached
  std::uint64_t generations = 0;
  rqfp::Cost cost;
};

/// core::synthesize with the benchmark's improvement clock. A result whose
/// mapped baseline already meets the target reaches it when CGP starts.
RowRun run_flow_row(const PreparedRow& p, RunResult& out) {
  TargetClock clock(p.row->target);
  core::FlowOptions fo = p.flow;
  const double t0 = now_s();
  fo.evolve.on_improvement = [&](std::uint64_t, const core::Fitness& f) {
    clock.observe(now_s() - t0, f);
  };
  core::FlowResult r;
  {
    auto span = tracer().span("core.synthesize");
    span.arg("generations", static_cast<double>(fo.evolve.generations));
    r = core::synthesize(p.input, fo);
  }
  RowRun run;
  run.latency_s = now_s() - t0;
  if (clock.has_target() && !clock.reached_s()) {
    core::Fitness initial;
    initial.success_rate = 1.0;
    initial.n_r = r.initial_cost.n_r;
    initial.n_g = r.initial_cost.n_g;
    initial.n_b = r.initial_cost.n_b;
    clock.observe(run.latency_s - r.phase_seconds("cgp") -
                      r.phase_seconds("exact-polish") -
                      r.phase_seconds("cost"),
                  initial);
  }
  const bool reached = clock.reached_s().has_value();
  run.ttq_s = reached ? *clock.reached_s() : run.latency_s;
  run.generations = r.optimization.evolve.generations_run;
  run.cost = r.optimized_cost;
  ++out.attempted;
  if (!implements(r.optimized, p.spec)) {
    out.fail(p.row->request.id + ": result does not implement its spec");
  } else if (clock.has_target() && !reached) {
    out.fail(p.row->request.id + ": target not reached");
  }
  return run;
}

/// batch::execute_request on an island row; its only quality mark is the
/// final verified result, so time-to-quality is the request's latency.
RowRun run_execute_row(const PreparedRow& p, RunResult& out) {
  const std::uint64_t g0 = counter("evolve.generations");
  const double t0 = now_s();
  rcgp::batch::JobExecution exec;
  {
    auto span = tracer().span("batch.execute_request");
    exec = rcgp::batch::execute_request(p.row->request, {}, {});
  }
  RowRun run;
  run.latency_s = now_s() - t0;
  run.ttq_s = run.latency_s;
  run.generations = counter("evolve.generations") - g0;
  run.cost = exec.cost;
  ++out.attempted;
  if (!exec.verified || !implements(exec.netlist, p.spec)) {
    out.fail(p.row->request.id + ": result does not implement its spec");
  }
  return run;
}

struct Pass {
  double wall_s = 0.0;
  std::vector<RowRun> runs; ///< indexed like the rows, not by run order
};

Pass run_pass(const std::vector<PreparedRow>& rows, bool execute,
              std::uint64_t seed, std::uint64_t pass_index, RunResult& out) {
  Pass pass;
  pass.runs.resize(rows.size());
  const double t0 = now_s();
  for (const std::size_t i : shuffled_order(rows.size(), seed, pass_index)) {
    pass.runs[i] = execute ? run_execute_row(rows[i], out)
                           : run_flow_row(rows[i], out);
  }
  pass.wall_s = now_s() - t0;
  return pass;
}

/// Quality must repeat exactly: across the passes of this run, and across
/// runs of the same binary (remembered in the state directory).
void check_quality(const RunConfig& cfg, const std::vector<Pass>& passes,
                   const std::vector<PreparedRow>& rows, RunResult& out) {
  for (const Pass& p : passes) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (!(p.runs[i].cost == passes.front().runs[i].cost)) {
        out.wrong(rows[i].row->request.id +
                  ": cost differs between passes at a fixed seed");
      }
    }
  }
  std::ostringstream line;
  line << cfg.build_id;
  for (const RowRun& r : passes.front().runs) {
    line << ' ' << r.cost.n_r << ' ' << r.cost.n_g << ' ' << r.cost.n_b;
  }
  const std::string path = cfg.state_dir + "/quality-" + cfg.workload;
  std::string before;
  if (std::ifstream in(path); in) {
    std::getline(in, before);
  }
  const std::string now = line.str();
  if (before.rfind(cfg.build_id + ' ', 0) == 0 && before != now) {
    out.wrong("cost differs from an earlier run of this build: was \"" +
              before + "\", now \"" + now + "\"");
  }
  std::ofstream(path) << now << '\n';
}

RunResult run_rows(const RunConfig& cfg, const std::vector<Row>& rows,
                   bool execute) {
  RunResult out;
  std::vector<double> setups;
  std::vector<PreparedRow> prepared;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const double t0 = now_s();
    std::vector<PreparedRow> p;
    p.reserve(rows.size());
    for (const Row& r : rows) {
      p.push_back(prepare(r));
    }
    setups.push_back(now_s() - t0);
    prepared = std::move(p);
  }

  // Warm-up, untimed: every row at a tenth of its budget, repeated for
  // kWarmupSeconds. On a shared machine the first second after idle runs
  // markedly slower; it must not land in the first measured pass.
  const auto warm_up = [&] {
    for (const double w0 = now_s(); now_s() - w0 < kWarmupSeconds;) {
      for (const PreparedRow& p : prepared) {
        core::FlowOptions fo = p.flow;
        fo.evolve.generations =
            std::max<std::uint64_t>(1, fo.evolve.generations / 10);
        (void)core::synthesize(p.input, fo);
      }
    }
  };

  std::vector<Pass> passes;
  if (cfg.trace) {
    warm_up();
    passes.push_back(run_pass(prepared, execute, cfg.seed, 0, out));
    tracer().set_enabled(true);
    passes.push_back(run_pass(prepared, execute, cfg.seed, 0, out));
    ProbeInput in;
    in.rows = std::move(prepared);
    for (std::size_t i = 0; i < rows.size() && i < 3; ++i) {
      in.requests.push_back(rows[i].request);
    }
    in.fleet = fleet_probe_request();
    in.untraced_s = passes[0].wall_s;
    in.traced_s = passes[1].wall_s;
    check_quality(cfg, passes, in.rows, out);
    run_probes(cfg, in, out);
    return out;
  }

  // Single-lineage rows run in one lane per core, each lane its own pass
  // order, as `rcgp batch --workers=<nproc>` would run them. With every
  // core busy the figures are markedly steadier on a shared host than with
  // one busy core. Island rows already use one thread per island.
  const unsigned lanes =
      execute ? 1
              : std::clamp(std::thread::hardware_concurrency(), 1u, kMaxLanes);
  std::vector<std::vector<Pass>> lane_passes(lanes);
  std::vector<RunResult> lane_out(lanes);
  std::vector<std::exception_ptr> lane_error(lanes);
  const double start = now_s() + kWarmupSeconds;
  {
    std::vector<std::jthread> threads;
    for (unsigned l = 0; l < lanes; ++l) {
      threads.emplace_back([&, l] {
        try {
          warm_up();
          for (std::uint64_t k = 0; k == 0 || now_s() - start < cfg.seconds;
               ++k) {
            lane_passes[l].push_back(run_pass(prepared, execute, cfg.seed,
                                              l * kLaneStride + k, lane_out[l]));
          }
        } catch (...) {
          lane_error[l] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& e : lane_error) {
    if (e) {
      std::rethrow_exception(e);
    }
  }
  for (unsigned l = 0; l < lanes; ++l) {
    out.attempted += lane_out[l].attempted;
    out.failed += lane_out[l].failed;
    out.problems.insert(out.problems.end(), lane_out[l].problems.begin(),
                        lane_out[l].problems.end());
    passes.insert(passes.end(), lane_passes[l].begin(), lane_passes[l].end());
  }
  check_quality(cfg, passes, prepared, out);

  // Each row is one request, repeated every pass. Its latency and time to
  // target are the medians over passes, so a burst of load on a shared
  // machine moves one sample, not the row; percentiles are over rows.
  std::uint64_t n_r = 0, n_g = 0, jjs = 0, gens = 0;
  double ttq = 0.0;
  std::vector<double> latency_s;
  std::ostringstream detail;
  detail << "\"rows\":[";
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    const RowRun& r = passes.front().runs[i];
    std::vector<double> lat, t;
    for (const Pass& p : passes) {
      lat.push_back(p.runs[i].latency_s);
      t.push_back(p.runs[i].ttq_s);
    }
    latency_s.push_back(median(lat));
    if (execute || prepared[i].row->target) {
      ttq += median(t);
    }
    gens += r.generations;
    n_r += r.cost.n_r;
    n_g += r.cost.n_g;
    jjs += r.cost.jjs;
    detail << (i ? "," : "") << "{\"id\":\"" << prepared[i].row->request.id
           << "\",\"n_r\":" << r.cost.n_r << ",\"n_g\":" << r.cost.n_g
           << ",\"n_b\":" << r.cost.n_b << ",\"jjs\":" << r.cost.jjs
           << ",\"generations\":" << r.generations
           << ",\"latency_s\":" << number(latency_s.back())
           << ",\"ttq_s\":" << number(median(t)) << "}";
  }
  detail << "]";
  double total_s = 0.0;
  for (const double l : latency_s) {
    total_s += l;
  }

  out.add("setup_s", median(setups), "s");
  out.add("gens_per_s", static_cast<double>(gens) / total_s, "generations/s");
  out.add("ttq_s", ttq, "s");
  out.add("n_r", static_cast<double>(n_r), "count");
  out.add("n_g", static_cast<double>(n_g), "count");
  out.add("jjs", static_cast<double>(jjs), "count");
  out.add("req_p50_ms", percentile(latency_s, 0.5) * 1e3, "ms");
  out.add("req_p99_ms", percentile(latency_s, 0.99) * 1e3, "ms");
  out.add("req_per_s", static_cast<double>(latency_s.size()) / total_s,
          "requests/s");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  out.info = "\"passes\":" + std::to_string(passes.size()) +
             ",\"requests\":" + std::to_string(passes.size() * rows.size()) +
             "," + detail.str();
  return out;
}

} // namespace

std::vector<Row> table1_rows() {
  // 20 000 generations each. Targets: the cost the code this benchmark was
  // defined on reached by generation 10 000 at seed 7 (`perfbench
  // --pin-targets table1`); 4gt10 does not improve by then, so it has none.
  return {
      row("full_adder", 20000, Target{6, 2, 2}),
      row("4gt10", 20000, std::nullopt),
      row("alu", 20000, Target{27, 35, 38}),
      row("c17", 20000, Target{9, 9, 8}),
      row("decoder_2_4", 20000, Target{6, 3, 2}),
      row("decoder_3_8", 20000, Target{24, 23, 14}),
      row("graycode4", 20000, Target{14, 15, 26}),
      row("ham3", 20000, Target{4, 2, 5}),
      row("mux4", 20000, Target{11, 13, 13}),
  };
}

std::vector<Row> table2_rows() {
  // Targets chosen as for table1, at half of each row's budget. hwb8 does
  // not improve at the default mu by then, so it has none.
  return {
      row("hwb8", 1500, std::nullopt),
      row("intdiv8", 8000, Target{167, 225, 260}),
      row("mod5adder", 12000, Target{95, 128, 236}),
  };
}

std::vector<Row> island_rows() {
  return {
      row("decoder_3_8", 20000, std::nullopt),
      row("mod5adder", 8000, std::nullopt),
  };
}

core::SynthesisRequest fleet_probe_request() {
  return as_fleet(island_rows().front().request);
}

RunResult run_table(const RunConfig& cfg, const std::vector<Row>& rows) {
  return run_rows(cfg, rows, /*execute=*/false);
}

RunResult run_islands(const RunConfig& cfg) {
  std::vector<Row> rows = island_rows();
  for (Row& r : rows) {
    r.request = as_fleet(r.request);
  }
  return run_rows(cfg, rows, /*execute=*/true);
}

int pin_targets(const std::string& workload) {
  const std::vector<Row> rows =
      workload == "table1" ? table1_rows() : table2_rows();
  for (const Row& r : rows) {
    PreparedRow p = prepare(r);
    const std::uint64_t half = p.flow.evolve.generations / 2;
    core::Fitness at_half;
    std::uint64_t last_gen = 0;
    p.flow.evolve.on_improvement = [&](std::uint64_t gen,
                                       const core::Fitness& f) {
      if (gen <= half) {
        at_half = f;
        last_gen = gen;
      }
    };
    const core::FlowResult res = core::synthesize(p.input, p.flow);
    std::printf("%-12s initial n_r=%u n_g=%u n_b=%u  ", r.request.id.c_str(),
                res.initial_cost.n_r, res.initial_cost.n_g,
                res.initial_cost.n_b);
    if (last_gen == 0) {
      std::printf("no improvement by generation %llu: no target\n",
                  static_cast<unsigned long long>(half));
    } else {
      std::printf("by generation %llu (last gain at %llu): Target{%u, %u, %u}"
                  "  final n_r=%u n_g=%u n_b=%u\n",
                  static_cast<unsigned long long>(half),
                  static_cast<unsigned long long>(last_gen), at_half.n_r,
                  at_half.n_g, at_half.n_b, res.optimized_cost.n_r,
                  res.optimized_cost.n_g, res.optimized_cost.n_b);
    }
  }
  return 0;
}

} // namespace perfbench
