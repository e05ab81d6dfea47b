// The serve-npn workload: an in-process serve::Server over a Unix socket,
// backed by a fresh on-disk cache::Store that saves on every insert, driven
// by a closed loop of two serve::Client connections.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "cache/store.hpp"
#include "gen.hpp"
#include "io/rqfp_writer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

/// Each round is a burst of requests against an empty store, so the mix of
/// misses (first member of an NPN class: full flow, verified insert, atomic
/// save) and hits (lookup, de-canonicalisation, re-verification) is the
/// same in every round and does not depend on how long the run is.
constexpr NpnStreamShape kShape{/*requests=*/400, /*share_3_inputs=*/0.85,
                                /*generations=*/2000};
constexpr unsigned kClients = 2;
/// Round numbers of the warm-up bursts, far from the measured rounds.
constexpr std::uint64_t kWarmupRound = 1000000;
constexpr double kWarmupSeconds = 2.0;

struct Sample {
  double rtt_s = 0.0;
  core::SynthesisResponse response;
  std::string error; ///< transport failure, if any
};

/// One round's daemon and the store it writes. Stopping a daemon waits up
/// to its accept-poll interval, so a finished round's daemon is stopped on a
/// reaper thread while the next round runs; the machine never idles
/// between rounds.
struct Daemon {
  std::unique_ptr<rcgp::cache::Store> store;
  std::unique_ptr<rcgp::serve::Server> server;
};

class Reaper {
public:
  Reaper() = default;
  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;
  ~Reaper() { join(); }

  /// Stops `d` in the background, after the previous one has stopped.
  void stop(Daemon d) {
    join();
    thread_ = std::thread([d = std::move(d)]() mutable {
      d.server->stop();
      d.server.reset();
      std::error_code ec;
      std::filesystem::remove(d.store->path(), ec);
    });
  }

  void join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

private:
  std::thread thread_;
};

struct Round {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t generations = 0;
  std::vector<core::SynthesisRequest> requests;
  std::vector<Sample> samples;
};

/// Rounds alternate between two socket and store paths: the previous
/// round's daemon may still be stopping (and unlinking its socket).
Round run_round(const RunConfig& cfg, const std::string& dir,
                std::uint64_t round_id, std::size_t requests, Reaper& reaper) {
  Round round;
  const double t0 = now_s();
  NpnStreamShape shape = kShape;
  shape.requests = requests;
  round.requests = npn_round(cfg.seed, round_id, shape);
  const std::string slot = std::to_string(round_id % 2);
  Daemon daemon;
  std::filesystem::remove(dir + "/cache" + slot + ".rcc");
  daemon.store = std::make_unique<rcgp::cache::Store>(dir + "/cache" + slot + ".rcc");
  rcgp::serve::ServeOptions so;
  so.socket_path = dir + "/s" + slot + ".sock";
  so.workers = std::min(kClients, std::max(1u, std::thread::hardware_concurrency()));
  so.execute.cache = daemon.store.get();
  so.execute.save_cache_on_insert = true;
  daemon.server = std::make_unique<rcgp::serve::Server>(so);
  daemon.server->start();
  std::vector<std::unique_ptr<rcgp::serve::Client>> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<rcgp::serve::Client>(so.socket_path));
  }
  round.setup_s = now_s() - t0;

  round.samples.resize(round.requests.size());
  std::atomic<std::size_t> next{0};
  const std::uint64_t g0 = counter("evolve.generations");
  const double r0 = now_s();
  {
    std::vector<std::jthread> threads;
    for (auto& client : clients) {
      threads.emplace_back([&, c = client.get()] {
        for (std::size_t i = next.fetch_add(1); i < round.requests.size();
             i = next.fetch_add(1)) {
          Sample& s = round.samples[i];
          const double q0 = now_s();
          try {
            auto span = tracer().span("serve.submit");
            s.response = c->submit(round.requests[i]);
          } catch (const std::exception& e) {
            s.error = e.what();
          }
          s.rtt_s = now_s() - q0;
        }
      });
    }
  }
  round.wall_s = now_s() - r0;
  round.generations = counter("evolve.generations") - g0;
  clients.clear();
  reaper.stop(std::move(daemon));
  return round;
}

/// The benchmark's own check of every response: answered, verified by the
/// server, and a netlist that implements the request's spec.
void check_round(const Round& round, RunResult& out) {
  for (std::size_t i = 0; i < round.samples.size(); ++i) {
    const Sample& s = round.samples[i];
    const std::string& id = round.requests[i].id;
    ++out.attempted;
    if (!s.error.empty()) {
      out.fail(id + ": " + s.error);
    } else if (!s.response.ok || !s.response.verified) {
      out.fail(id + ": " + s.response.error);
    } else if (!implements(rcgp::io::parse_rqfp_string(s.response.netlist),
                           round.requests[i].spec)) {
      out.fail(id + ": result does not implement its spec");
    }
  }
}

} // namespace

RunResult run_serve_npn(const RunConfig& cfg) {
  RunResult out;
  const std::string dir =
      cfg.state_dir + "/serve-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{dir};
  Reaper reaper; // declared after `cleanup`: daemons stop before the removal

  // Warm-up, untimed, on rounds of its own stream: on a shared machine the
  // first second after idle runs markedly slower.
  const double w0 = now_s();
  for (std::uint64_t k = 0; k == 0 || now_s() - w0 < kWarmupSeconds; ++k) {
    (void)run_round(cfg, dir, kWarmupRound + k, kShape.requests / 4, reaper);
  }

  if (cfg.trace) {
    const Round plain = run_round(cfg, dir, 0, kShape.requests, reaper);
    tracer().set_enabled(true);
    const Round traced = run_round(cfg, dir, 0, kShape.requests, reaper);
    check_round(plain, out);
    check_round(traced, out);
    ProbeInput in;
    std::vector<Row> rows;
    for (const auto& r : plain.requests) {
      if (rows.size() == 8) {
        break;
      }
      rows.push_back(Row{r, std::nullopt});
    }
    for (const Row& r : rows) {
      in.rows.push_back(prepare(r));
      if (in.requests.size() < 3) {
        in.requests.push_back(r.request);
      }
    }
    in.fleet = fleet_probe_request();
    in.untraced_s = plain.wall_s;
    in.traced_s = traced.wall_s;
    run_probes(cfg, in, out);
    return out;
  }

  std::vector<double> setups, gens_per_s, req_per_s, ttq, n_r, n_g, jjs,
      rtt_ms;
  std::size_t misses = 0;
  const double start = now_s();
  for (std::uint64_t k = 0; k == 0 || now_s() - start < cfg.seconds; ++k) {
    const Round round = run_round(cfg, dir, k, kShape.requests, reaper);
    check_round(round, out);
    double miss_s = 0.0;
    std::uint64_t r = 0, g = 0, j = 0;
    for (const Sample& s : round.samples) {
      rtt_ms.push_back(s.rtt_s * 1e3);
      if (!s.response.cached) {
        miss_s += s.rtt_s;
        ++misses;
      }
      r += s.response.cost.n_r;
      g += s.response.cost.n_g;
      j += s.response.cost.jjs;
    }
    setups.push_back(round.setup_s);
    gens_per_s.push_back(static_cast<double>(round.generations) / round.wall_s);
    req_per_s.push_back(static_cast<double>(round.samples.size()) /
                        round.wall_s);
    ttq.push_back(miss_s);
    n_r.push_back(static_cast<double>(r));
    n_g.push_back(static_cast<double>(g));
    jjs.push_back(static_cast<double>(j));
  }

  const double p99 = percentile(rtt_ms, 0.99);
  out.add("setup_s", median(setups), "s");
  out.add("gens_per_s", median(gens_per_s), "generations/s");
  out.add("ttq_s", median(ttq), "s");
  out.add("n_r", median(n_r), "count");
  out.add("n_g", median(n_g), "count");
  out.add("jjs", median(jjs), "count");
  out.add("req_p50_ms", percentile(rtt_ms, 0.5), "ms");
  out.add("req_p99_ms", p99, "ms");
  out.add("req_per_s", median(req_per_s), "requests/s");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  out.info = "\"rounds\":" + std::to_string(setups.size()) +
             ",\"requests\":" + std::to_string(rtt_ms.size()) +
             ",\"misses\":" + std::to_string(misses) + ",\"beyond_p99\":" +
             std::to_string(samples_beyond(rtt_ms, p99));
  return out;
}

} // namespace perfbench
