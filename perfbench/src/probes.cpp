// The traced run's layer probes. Each probe calls one layer's public
// functions from outside, inside a span, on the workload's own rows, and
// reads the counters the program already exports (sim.words, evolve.*,
// cache.*, island.*). Nothing here copies the evolve loop: the
// per-offspring stages run the public mutate/evaluate/shrink/simulate/
// cost_of/plan_buffers on each row's own parent netlists.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "aig/resyn.hpp"
#include "batch/execute.hpp"
#include "bench.hpp"
#include "cache/store.hpp"
#include "cec/sim_cec.hpp"
#include "core/mutation.hpp"
#include "core/optimizer.hpp"
#include "core/shrink.hpp"
#include "io/rqfp_writer.hpp"
#include "island/island.hpp"
#include "mig/mig_from_aig.hpp"
#include "mig/mig_rewrite.hpp"
#include "obs/report.hpp"
#include "rqfp/buffer.hpp"
#include "rqfp/map_from_mig.hpp"
#include "rqfp/simulate.hpp"
#include "rqfp/splitter.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using rcgp::batch::execute_request;

volatile std::uint64_t g_sink = 0;

/// Folds a timed call's result into a volatile, so the call is not elided.
void keep(std::uint64_t v) { g_sink = g_sink + v; }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) {
    s += x;
  }
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Runs `body(i)` for i < n inside one span; returns seconds per call.
template <class F>
double timed_loop(const char* name, std::size_t n, F&& body) {
  auto span = tracer().span(name);
  span.arg("n", static_cast<double>(n));
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    body(i);
  }
  return (now_s() - t0) / static_cast<double>(n);
}

template <class F> double timed(const char* name, F&& body) {
  return timed_loop(name, 1, [&](std::size_t) { body(); });
}

/// Per-offspring stage costs on one parent netlist, in microseconds per
/// call, appended to `per_op` (one entry per parent; reported as the mean
/// over parents so every row weighs the same).
void offspring_stages(const rqfp::Netlist& parent,
                      const std::vector<tt::TruthTable>& spec,
                      const core::EvolveParams& params,
                      std::map<std::string, std::vector<double>>& per_op) {
  const double t_eval = timed("core.evaluate", [&] {
    keep(core::evaluate(parent, spec, params.fitness).n_r);
  });
  const auto n = static_cast<std::size_t>(
      std::clamp(0.01 / std::max(t_eval, 1e-8), 16.0, 2048.0));
  std::vector<rqfp::Netlist> children(n, parent);
  std::vector<rcgp::util::Rng> rngs;
  rngs.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    rngs.push_back(rcgp::util::Rng::stream(params.seed, 0, k));
  }
  const auto record = [&](const char* metric, double seconds_per_call) {
    per_op[metric].push_back(seconds_per_call * 1e6);
  };
  // Steady-state copy into a same-shape child, as the loop's offspring
  // slots do once warm.
  record("core.copy_us", timed_loop("core.copy", n, [&](std::size_t k) {
           children[k] = parent;
         }));
  double genes = 0.0;
  record("core.mutate_us", timed_loop("core.mutate", n, [&](std::size_t k) {
           genes += core::mutate(children[k], rngs[k], params.mutation)
                        .genes_changed;
         }));
  keep(static_cast<std::uint64_t>(genes));
  record("core.eval_full_us",
         timed_loop("core.evaluate", n, [&](std::size_t k) {
           keep(core::evaluate(children[k], spec, params.fitness).n_r);
         }));
  record("core.shrink_us", timed_loop("core.shrink", n, [&](std::size_t k) {
           keep(core::shrink(children[k]).num_gates());
         }));
  const rqfp::BufferSchedule schedule = params.fitness.schedule;
  record("rqfp.sim_full_us", timed_loop("rqfp.simulate", n, [&](std::size_t) {
           keep(rqfp::simulate(parent).size());
         }));
  record("rqfp.cost_full_us", timed_loop("rqfp.cost_of", n, [&](std::size_t) {
           keep(rqfp::cost_of(parent, schedule).n_b);
         }));
  record("rqfp.buffer_plan_us",
         timed_loop("rqfp.plan_buffers", n, [&](std::size_t) {
           keep(rqfp::plan_buffers(parent, schedule).total);
         }));
  record("cec.sim_check_us", timed_loop("cec.sim_check", n, [&](std::size_t) {
           keep(rcgp::cec::sim_check(parent, spec).all_match ? 1 : 0);
         }));
}

struct Totals {
  double ands = 0, mig_nodes = 0, gates = 0;
  double generations = 0, words = 0, evaluations = 0, full_words = 0;
  double attempted = 0, accepted = 0, genes = 0;
  std::map<std::string, std::vector<double>> per_op;
  std::vector<rqfp::Netlist> best; ///< each row's optimized netlist
};

/// The flow's phases one public call at a time, then CGP through the
/// Optimizer facade with the options the row's request denotes.
void probe_flow(const PreparedRow& p, Totals& t, RunResult& out) {
  auto row_span = tracer().span("probe.flow");
  rcgp::aig::Aig aig;
  timed("aig.resyn2", [&] { aig = rcgp::aig::resyn2(p.input); });
  t.ands += aig.count_live_ands();
  rcgp::mig::Mig mig;
  timed("mig.mig_from_aig", [&] { mig = rcgp::mig::mig_from_aig(aig); });
  timed("mig.optimize_mig", [&] { mig = rcgp::mig::optimize_mig(mig); });
  t.mig_nodes += mig.count_live_majs();
  rqfp::Netlist raw, initial;
  rqfp::MapOptions map_options;
  map_options.pack_shared_fanins = p.flow.pack_shared_fanins;
  timed("rqfp.map_from_mig",
        [&] { raw = rqfp::map_from_mig(mig, nullptr, map_options); });
  timed("rqfp.insert_splitters",
        [&] { initial = rqfp::insert_splitters(raw); });
  t.gates += initial.num_gates();

  const core::OptimizerOptions oo = executor_options_for(p.row->request);
  const std::uint64_t w0 = counter("sim.words");
  const std::uint64_t e0 = counter("evolve.evaluations");
  core::OptimizeResult res;
  timed("core.Optimizer.run",
        [&] { res = core::Optimizer(oo).run(initial, p.spec); });
  const double evals = static_cast<double>(counter("evolve.evaluations") - e0);
  t.words += static_cast<double>(counter("sim.words") - w0);
  t.evaluations += evals;
  t.generations += static_cast<double>(res.evolve.generations_run);
  t.attempted += static_cast<double>(res.evolve.mutations_attempted.mutations);
  t.accepted += static_cast<double>(res.evolve.mutations_accepted.mutations);
  t.genes += static_cast<double>(res.evolve.mutations_attempted.genes_changed);
  if (!implements(res.best, p.spec)) {
    out.wrong(p.row->request.id + ": optimizer result does not implement its spec");
  }
  // Words one full simulation of the final parent costs, read from the
  // same counter the delta path advances.
  const std::uint64_t f0 = counter("sim.words");
  keep(rqfp::simulate(res.best).size());
  t.full_words += evals * static_cast<double>(counter("sim.words") - f0);

  offspring_stages(initial, p.spec, oo.evolve, t.per_op);
  offspring_stages(res.best, p.spec, oo.evolve, t.per_op);
  t.best.push_back(std::move(res.best));
}

/// Store::lookup on a miss, insert + save, lookup on a hit.
void probe_cache(const RunConfig& cfg, const ProbeInput& in,
                 const std::vector<rqfp::Netlist>& best, RunResult& out,
                 std::map<std::string, std::vector<double>>& per_op) {
  const std::string path =
      cfg.state_dir + "/probe-" + std::to_string(::getpid()) + ".rcc";
  std::filesystem::remove(path);
  rcgp::cache::Store store(path);
  for (std::size_t i = 0; i < in.rows.size(); ++i) {
    const PreparedRow& p = in.rows[i];
    std::optional<rcgp::cache::Hit> hit;
    const double miss_s =
        timed("cache.lookup.miss", [&] { hit = store.lookup(p.spec); });
    if (hit) {
      continue; // an NPN twin of an earlier row is already stored
    }
    per_op["cache.lookup_miss_us"].push_back(miss_s * 1e6);
    per_op["cache.insert_save_ms"].push_back(
        1e3 * timed("cache.insert_save", [&] {
          store.insert(p.spec, best[i], "probe");
          store.save();
        }));
    per_op["cache.lookup_hit_us"].push_back(
        1e6 * timed_loop("cache.lookup.hit", 16,
                         [&](std::size_t) { hit = store.lookup(p.spec); }));
    if (!hit || !implements(hit->netlist, p.spec)) {
      out.wrong(p.row->request.id + ": cache hit does not implement its spec");
    }
  }
  std::filesystem::remove(path);
}

/// batch::execute_request straight, then through an in-process daemon:
/// each sample request once on an empty store (miss) and once more (hit).
void probe_front_ends(const RunConfig& cfg, const ProbeInput& in,
                      RunResult& out,
                      std::map<std::string, std::vector<double>>& per_op) {
  const std::string base = cfg.state_dir + "/probe-" + std::to_string(::getpid());
  std::filesystem::remove(base + "-batch.rcc");
  rcgp::cache::Store batch_store(base + "-batch.rcc");
  rcgp::batch::ExecuteOptions eo;
  eo.cache = &batch_store;
  for (const auto& req : in.requests) {
    const auto spec = rcgp::batch::resolve_spec(req);
    for (const bool expect_hit : {false, true}) {
      rcgp::batch::JobExecution exec;
      const double s = timed(expect_hit ? "batch.execute_request.hit"
                                        : "batch.execute_request.miss",
                             [&] { exec = execute_request(req, {}, eo); });
      if (exec.cached) {
        per_op["batch.execute_hit_us"].push_back(s * 1e6);
      } else {
        per_op["batch.execute_miss_ms"].push_back(s * 1e3);
      }
      if (!exec.verified || !implements(exec.netlist, spec)) {
        out.wrong(req.id + ": execute_request result does not implement its spec");
      }
    }
  }
  std::filesystem::remove(base + "-batch.rcc");

  std::filesystem::remove(base + "-serve.rcc");
  rcgp::cache::Store serve_store(base + "-serve.rcc");
  rcgp::serve::ServeOptions so;
  so.socket_path = base + ".sock";
  so.workers = 1;
  so.execute.cache = &serve_store;
  so.execute.save_cache_on_insert = true;
  rcgp::serve::Server server(so);
  server.start();
  {
    rcgp::serve::Client client(so.socket_path);
    for (const auto& req : in.requests) {
      const auto spec = rcgp::batch::resolve_spec(req);
      for (const bool expect_hit : {false, true}) {
        core::SynthesisResponse resp;
        const double s =
            timed(expect_hit ? "serve.Client.submit.hit" : "serve.Client.submit.miss",
                  [&] { resp = client.submit(req); });
        per_op[resp.cached ? "serve.rtt_hit_ms" : "serve.rtt_miss_ms"].push_back(
            s * 1e3);
        per_op["serve.wire_queue_ms"].push_back((s - resp.seconds) * 1e3);
        if (!resp.ok || !implements(rcgp::io::parse_rqfp_string(resp.netlist), spec)) {
          out.wrong(req.id + ": served result does not implement its spec");
        }
      }
    }
  }
  server.stop();
  std::filesystem::remove(base + "-serve.rcc");
}

/// island::run_fleet at the default parallelism and at parallelism 1.
void probe_fleet(const ProbeInput& in, RunResult& out) {
  const core::SynthesisRequest& req = in.fleet;
  const auto spec = rcgp::batch::resolve_spec(req);
  core::FlowOptions fo = flow_options_for(req);
  fo.run_cgp = false;
  const rqfp::Netlist initial = core::synthesize(spec, fo).initial;
  rcgp::island::FleetOptions fleet;
  fleet.islands = fo.island.islands;
  fleet.topology = fo.island.topology;
  fleet.migration_interval = fo.island.migration_interval;
  fleet.migration_size = fo.island.migration_size;
  const std::uint64_t m0 = counter("island.migrations.accepted");
  core::EvolveResult wide, serial;
  const double wide_s = timed("island.run_fleet", [&] {
    wide = rcgp::island::run_fleet(initial, spec, fo.evolve, fleet);
  });
  const double migrations =
      static_cast<double>(counter("island.migrations.accepted") - m0);
  fleet.parallelism = 1;
  const double serial_s = timed("island.run_fleet.serial", [&] {
    serial = rcgp::island::run_fleet(initial, spec, fo.evolve, fleet);
  });
  if (!implements(wide.best, spec) ||
      !(wide.best_fitness.n_r == serial.best_fitness.n_r &&
        wide.best_fitness.n_g == serial.best_fitness.n_g &&
        wide.best_fitness.n_b == serial.best_fitness.n_b)) {
    out.wrong(req.id + ": fleet result differs between parallelism levels");
  }
  out.add("island.fleet_s", wide_s, "s");
  out.add("island.scaling", serial_s / wide_s, "ratio");
  out.add("island.migrations_accepted", migrations, "count");
}

} // namespace

void run_probes(const RunConfig& cfg, const ProbeInput& in, RunResult& out) {
  Totals t;
  for (const PreparedRow& p : in.rows) {
    probe_flow(p, t, out);
  }
  const std::uint64_t hits0 = counter("cache.hits");
  const std::uint64_t lookups0 = counter("cache.lookups");
  probe_cache(cfg, in, t.best, out, t.per_op);
  // The cache probe's own lookups are synthetic; the hit ratio counts the
  // workload's traffic and the front-end probes only.
  const std::uint64_t probe_hits = counter("cache.hits") - hits0;
  const std::uint64_t probe_lookups = counter("cache.lookups") - lookups0;
  probe_front_ends(cfg, in, out, t.per_op);

  const Tracer& tr = tracer();
  const auto op = [&](const char* name) { return mean(t.per_op[name]); };
  out.add("aig.resyn2_s", tr.total_seconds("aig.resyn2"), "s");
  out.add("aig.ands", t.ands, "count");
  out.add("mig.map_s", tr.total_seconds("mig.mig_from_aig"), "s");
  out.add("mig.opt_s", tr.total_seconds("mig.optimize_mig"), "s");
  out.add("mig.nodes", t.mig_nodes, "count");
  out.add("rqfp.map_s", tr.total_seconds("rqfp.map_from_mig"), "s");
  out.add("rqfp.splitter_s", tr.total_seconds("rqfp.insert_splitters"), "s");
  out.add("rqfp.gates", t.gates, "count");
  out.add("rqfp.sim_full_us", op("rqfp.sim_full_us"), "us");
  out.add("rqfp.cost_full_us", op("rqfp.cost_full_us"), "us");
  out.add("rqfp.buffer_plan_us", op("rqfp.buffer_plan_us"), "us");
  out.add("rqfp.sim_words_per_eval", t.words / t.evaluations, "words");
  out.add("rqfp.delta_ratio", t.words / t.full_words, "ratio");
  const double cgp_s = tr.total_seconds("core.Optimizer.run");
  out.add("core.cgp_s", cgp_s, "s");
  out.add("core.gen_us", cgp_s / t.generations * 1e6, "us");
  out.add("core.copy_us", op("core.copy_us"), "us");
  out.add("core.mutate_us", op("core.mutate_us"), "us");
  out.add("core.shrink_us", op("core.shrink_us"), "us");
  out.add("core.eval_full_us", op("core.eval_full_us"), "us");
  out.add("core.genes_per_offspring", t.genes / t.attempted, "genes");
  out.add("core.accept_ratio", t.accepted / t.attempted, "ratio");
  out.add("cec.sim_check_us", op("cec.sim_check_us"), "us");
  out.add("cache.lookup_hit_us", op("cache.lookup_hit_us"), "us");
  out.add("cache.lookup_miss_us", op("cache.lookup_miss_us"), "us");
  out.add("cache.insert_save_ms", op("cache.insert_save_ms"), "ms");
  out.add("cache.hit_ratio",
          static_cast<double>(counter("cache.hits") - probe_hits) /
              static_cast<double>(counter("cache.lookups") - probe_lookups),
          "ratio");
  out.add("batch.execute_hit_us", op("batch.execute_hit_us"), "us");
  out.add("batch.execute_miss_ms", op("batch.execute_miss_ms"), "ms");
  out.add("serve.rtt_hit_ms", op("serve.rtt_hit_ms"), "ms");
  out.add("serve.rtt_miss_ms", op("serve.rtt_miss_ms"), "ms");
  out.add("serve.wire_queue_ms", op("serve.wire_queue_ms"), "ms");
  probe_fleet(in, out);
  out.add("trace_overhead", in.traced_s - in.untraced_s, "s");

  tracer().set_enabled(false);
  const std::string profile = cfg.state_dir + "/profile-" + cfg.workload + ".json";
  if (!tracer().write_chrome_trace(profile)) {
    out.wrong("cannot write the profile " + profile);
    return;
  }
  try {
    // The renderer behind `rcgp report --profile` must read the profile.
    rcgp::obs::RunReportInputs report;
    report.profile_path = profile;
    (void)rcgp::obs::run_report(report);
  } catch (const std::exception& e) {
    out.wrong(std::string("rcgp report cannot read the profile: ") + e.what());
  }
  out.info = "\"profile\":\"" + profile + "\",\"spans\":" +
             std::to_string(tracer().records().size());
}

} // namespace perfbench
