// perfbench: the RCGP benchmark. One invocation runs one workload for a
// fixed time and prints, as the last line of stdout, one JSON object with
// the keys correct, attempted, failed and metrics. See ../README.md.
//
//   perfbench --workload <table1|table2|serve-npn|islands> --seed <n>
//             --seconds <s> --trace <0|1> [--state-dir <dir>]
//   perfbench --pin-targets <table1|table2>

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/json.hpp"
#include "rqfp/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::number;
using rcgp::obs::json::escape;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Size and modification time of this executable: a fresh link of the
/// benchmark gets a fresh id.
std::string build_id() {
  struct stat st {};
  if (::stat("/proc/self/exe", &st) != 0) {
    return "unknown";
  }
  return std::to_string(st.st_size) + "-" + std::to_string(st.st_mtim.tv_sec) +
         "." + std::to_string(st.st_mtim.tv_nsec);
}

std::string fingerprint() {
  return "{\"cpu\":\"" + escape(cpu_model()) + "\",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"simd_tier\":\"" +
         std::string(rcgp::rqfp::simd::to_string(
             rcgp::rqfp::simd::active_tier())) +
         "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\",\"compiler\":\"" +
         escape(__VERSION__) + "\"}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <table1|table2|serve-npn|islands> "
               "--seed <n> --seconds <s> --trace <0|1> [--state-dir <dir>]\n"
               "       perfbench --pin-targets <table1|table2>\n",
               why);
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  // Numbers from an unoptimized or assert-enabled build are not reported.
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to run an assert-enabled build\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to run a %s build; configure "
                         "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  perfbench::RunConfig cfg;
  cfg.state_dir = ".bench_build/perfbench-state";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--pin-targets") {
        return perfbench::pin_targets(value);
      } else if (arg == "--workload") {
        cfg.workload = value;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
        have_seconds = cfg.seconds > 0.0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") {
          return usage("--trace takes 0 or 1");
        }
        cfg.trace = value == "1";
        have_trace = true;
      } else if (arg == "--state-dir") {
        cfg.state_dir = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || cfg.workload.empty()) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  cfg.build_id = build_id();

  perfbench::RunResult result;
  try {
    std::filesystem::create_directories(cfg.state_dir);
    if (cfg.workload == "table1") {
      result = perfbench::run_table(cfg, perfbench::table1_rows());
    } else if (cfg.workload == "table2") {
      result = perfbench::run_table(cfg, perfbench::table2_rows());
    } else if (cfg.workload == "islands") {
      result = perfbench::run_islands(cfg);
    } else if (cfg.workload == "serve-npn") {
      result = perfbench::run_serve_npn(cfg);
    } else {
      return usage(("unknown workload " + cfg.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  for (perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.wrong(m.name + " is not a finite number");
      m.value = 0.0;
    }
  }
  std::string problems;
  for (std::size_t i = 0; i < result.problems.size() && i < 20; ++i) {
    problems += (i ? ",\"" : "\"") + escape(result.problems[i]) + "\"";
  }
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
              "\"fingerprint\":%s,\"fail_rate\":%s,%s,\"problems\":[%s]}\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? 1 : 0, fingerprint().c_str(),
              number(result.attempted == 0
                         ? 1.0
                         : static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted))
                  .c_str(),
              result.info.empty() ? "\"info\":null" : result.info.c_str(),
              problems.c_str());

  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    metrics += (metrics.empty() ? "\"" : ",\"") + m.name +
               "\":{\"value\":" + number(m.value) + ",\"unit\":\"" + m.unit +
               "\"}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              result.correct && result.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
