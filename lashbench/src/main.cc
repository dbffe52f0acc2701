// lashbench — the repository benchmark.
//
// Usage: lashbench --workload offline-mine|serve-zipf|router-2shard
//                  --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Runs one closed-loop workload against the library's public entry points
// and prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set, taken from a traced half-run (spans recorded by
// this benchmark around its calls into each layer) next to an untraced
// half-run that gives trace.overhead_pct. Exit status is 0 whenever a
// result was printed, and 2 on a usage or set-up error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "bench.h"

namespace lashbench {
namespace {

/// Every per-layer metric, printed on every workload; a layer a workload
/// does not exercise reports 0 (the prediction that it does not move).
const std::pair<const char*, const char*> kPerLayer[] = {
    {"io.snapshot_load_ms", "ms"},
    {"io.verify_corpus_ms", "ms"},
    {"io.name_ms", "ms"},
    {"io.encode_ms", "ms"},
    {"io.decode_ms", "ms"},
    {"io.share_full_hot_pct", "%"},
    {"api.run_ms.sequential", "ms"},
    {"api.run_ms.lash", "ms"},
    {"api.run_ms.mgfsm", "ms"},
    {"api.first_run_ms", "ms"},
    {"mapreduce.map_ms", "ms"},
    {"mapreduce.shuffle_ms", "ms"},
    {"mapreduce.reduce_ms", "ms"},
    {"mapreduce.map_busy_ms", "ms"},
    {"mapreduce.reduce_busy_ms", "ms"},
    {"mapreduce.queue_wait_ms", "ms"},
    {"mapreduce.phase_overlap_ms", "ms"},
    {"mapreduce.map_output_bytes", "bytes"},
    {"mapreduce.map_output_records", "count"},
    {"miner.candidates", "count"},
    {"miner.outputs", "count"},
    {"miner.candidates_per_output", "ratio"},
    {"serve.server_ms.hot", "ms"},
    {"serve.server_ms.cold", "ms"},
    {"serve.hit_ratio", "ratio"},
    {"serve.coalesced", "count"},
    {"serve.executions", "count"},
    {"serve.rejected", "count"},
    {"serve.cache_bytes", "bytes"},
    {"serve.cache_evictions", "count"},
    {"net.rtt_minus_server_ms.hot", "ms"},
    {"net.rtt_minus_server_ms.cold", "ms"},
    {"net.bytes_out_per_reply", "bytes"},
    {"router.server_ms", "ms"},
    {"router.count_phase_ms", "ms"},
    {"router.phase1_ms", "ms"},
    {"router.candidates_per_query", "count"},
    {"router.patterns_shipped_per_query", "count"},
    {"router.useful_ratio", "ratio"},
    {"count.kernel_ms", "ms"},
    {"count.candidates_per_ms", "1/ms"},
    {"count.kernel_share_pct", "%"},
    {"host.burn_1t_ms", "ms"},
    {"host.burn_4t_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload offline-mine|serve-zipf|router-2shard "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
               argv0);
  return 2;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  std::printf("\"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}");
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
      have_dir = true;
    } else {
      return Usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') return Usage(argv[0]);
  }
  if (argc % 2 != 1 || !have_workload || !have_dir || config.seconds <= 0) {
    return Usage(argv[0]);
  }

  // Host calibration first, on an idle process, in every run.
  const double burn_1t = HostBurnMs(1);
  const double burn_4t = HostBurnMs(4);
  std::printf("host: burn_1t_ms=%.3f burn_4t_ms=%.3f (%u hardware threads)\n",
              burn_1t, burn_4t, std::thread::hardware_concurrency());

  Outcome out;
  if (config.workload == "offline-mine") {
    out = RunOfflineMine(config);
  } else if (config.workload == "serve-zipf") {
    out = RunServeZipf(config);
  } else if (config.workload == "router-2shard") {
    out = RunRouter2Shard(config);
  } else {
    return Usage(argv[0]);
  }
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());

  std::vector<Metric> metrics = out.end_to_end;
  if (config.trace) {
    std::map<std::string, double> measured;
    for (const Metric& m : out.per_layer) measured[m.name] = m.value;
    measured["host.burn_1t_ms"] = burn_1t;
    measured["host.burn_4t_ms"] = burn_4t;
    metrics.clear();
    for (const auto& [name, unit] : kPerLayer) {
      metrics.push_back(Metric{name, measured.count(name) ? measured[name] : 0.0, unit});
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  PrintMetrics(metrics);
  std::printf("}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace lashbench

int main(int argc, char** argv) {
  try {
    return lashbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lashbench: %s\n", e.what());
    return 2;
  }
}
