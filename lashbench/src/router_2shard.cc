// router-2shard: one client talks through a RouterBackend front end to two
// shard workers holding a round-robin split of an NYT-CLP snapshot (the
// split `lash_gen --shards 2` writes). Within a pass every query is
// distinct and no two share a phase-1 key (σ′ = σ/2, γ, λ, algorithm), and
// each pass runs against freshly started workers, so the shard caches never
// answer and each query pays the two-phase protocol in full: phase-1 mines
// at σ′, then the count phase recounts the candidate union on both shards —
// the path neither other workload calls. Whole passes keep every run's
// query mix identical.
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "net/client.h"
#include "net/router.h"
#include "net/service_backend.h"
#include "serve/support_count.h"
#include "serve/task_spec.h"

namespace lashbench {
namespace {

using lash::Algorithm;
using lash::serve::TaskSpec;

// σ′ ∈ {12, 16, ..., 40} (σ = 2σ′). MG-FSM is left out: on the flat words
// of a corpus this small most of these σ′ leave no phase-1 candidates, so
// the count phase — the reason for this workload — would not run.
constexpr lash::Frequency kShardSigmaBase = 12;
constexpr lash::Frequency kShardSigmaStride = 4;
constexpr size_t kSigmaSteps = 8;

TaskSpec Spec(Algorithm algorithm, lash::Frequency shard_sigma, uint32_t gamma,
              uint32_t lambda) {
  TaskSpec spec;
  spec.algorithm = algorithm;
  spec.params.sigma = 2 * shard_sigma;
  spec.params.gamma = gamma;
  spec.params.lambda = lambda;
  return spec;
}

/// One pass: sequential and lash × γ × λ × every σ′ step (96 queries), in
/// seeded order.
std::vector<TaskSpec> Pool(uint64_t seed) {
  std::vector<TaskSpec> pool;
  for (Algorithm algorithm : {Algorithm::kSequential, Algorithm::kLash}) {
    for (uint32_t gamma : {0u, 1u}) {
      for (uint32_t lambda : {3u, 4u, 5u}) {
        for (size_t step = 0; step < kSigmaSteps; ++step) {
          pool.push_back(Spec(algorithm,
                              kShardSigmaBase + kShardSigmaStride *
                                                    static_cast<lash::Frequency>(step),
                              gamma, lambda));
        }
      }
    }
  }
  lash::Rng rng(seed);
  Shuffle(&pool, &rng);
  return pool;
}

/// Warm-up queries: distinct per pass (the shard caches must not learn a
/// pool key) at neighbouring σ′ above the pool's (45, 46, 47, 49, ...), so
/// successive passes cost about the same and can settle.
TaskSpec WarmupSpec(int pass, size_t i) {
  const lash::Frequency p = static_cast<lash::Frequency>(pass);
  return Spec(i % 2 == 0 ? Algorithm::kSequential : Algorithm::kLash,
              kShardSigmaBase + kShardSigmaStride * kSigmaSteps + 1 + p +
                  p / (kShardSigmaStride - 1),
              static_cast<uint32_t>(i / 2 % 2), 3 + static_cast<uint32_t>(i / 2 % 3));
}

/// The candidate union the router counts for `spec`, rebuilt in process:
/// each shard mined at σ′, named, merged on the item names.
lash::NamedPatternList CandidateUnion(const lash::Dataset* const shards[2],
                                      const TaskSpec& spec) {
  TaskSpec shard_spec = spec;
  shard_spec.params.sigma = (spec.params.sigma + 1) / 2;
  std::unordered_set<std::string> seen;
  lash::NamedPatternList candidates;
  for (int s = 0; s < 2; ++s) {
    lash::RunResult result;
    const lash::PatternMap mined =
        lash::serve::MakeTask(*shards[s], shard_spec).Mine(&result);
    for (lash::NamedPattern& p :
         lash::NamePatterns(*shards[s], mined, result.used_flat_hierarchy)) {
      p.frequency = 0;
      if (seen.insert(lash::NamedPatternKey(p)).second) candidates.push_back(std::move(p));
    }
  }
  lash::SortNamedPatterns(&candidates);
  return candidates;
}

/// serve::CountSupports on one shard, split over the hardware threads the
/// way a worker's counting pool splits it.
std::vector<lash::Frequency> CountOnShard(const lash::Dataset& shard,
                                          const lash::NamedPatternList& candidates,
                                          const lash::serve::CountQuery& query) {
  const size_t threads =
      std::max<size_t>(1, std::min<size_t>(std::thread::hardware_concurrency(),
                                           candidates.size()));
  std::vector<std::vector<lash::Frequency>> parts(threads);
  std::vector<std::thread> pool;
  const size_t chunk = (candidates.size() + threads - 1) / threads;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const size_t lo = std::min(candidates.size(), t * chunk);
      const size_t hi = std::min(candidates.size(), lo + chunk);
      const lash::NamedPatternList slice(candidates.begin() + static_cast<long>(lo),
                                         candidates.begin() + static_cast<long>(hi));
      parts[t] = lash::serve::CountSupports(shard, slice, query);
    });
  }
  for (std::thread& th : pool) th.join();
  std::vector<lash::Frequency> supports;
  for (const auto& part : parts) supports.insert(supports.end(), part.begin(), part.end());
  return supports;
}

/// The loaded shards and the serving stack over them. The registries
/// outlive restarts, so their counters span a whole timed phase.
struct World {
  std::unique_ptr<lash::Dataset> shards[2];
  std::unique_ptr<lash::obs::MetricsRegistry> router_metrics, router_net_metrics;
  std::unique_ptr<lash::net::ServiceBackend> backends[2];
  std::unique_ptr<ServerThread> workers[2];
  std::unique_ptr<lash::net::RouterBackend> router;
  std::unique_ptr<ServerThread> front;
  /// Cache hits of shard workers already stopped.
  uint64_t shard_hits = 0;

  /// Starts two workers (empty caches), the router and its front end.
  void Start() {
    std::vector<lash::net::WorkerAddress> addresses;
    for (int s = 0; s < 2; ++s) {
      backends[s] = std::make_unique<lash::net::ServiceBackend>(
          std::vector<const lash::Dataset*>{shards[s].get()});
      workers[s] = std::make_unique<ServerThread>(backends[s].get(), nullptr);
      addresses.push_back({"127.0.0.1", workers[s]->port()});
    }
    lash::net::RouterOptions options;
    options.metrics = router_metrics.get();
    router = std::make_unique<lash::net::RouterBackend>(addresses, options);
    front = std::make_unique<ServerThread>(router.get(), router_net_metrics.get());
  }

  /// Records the workers' cache hits, then stops the stack.
  void Stop() {
    for (int s = 0; s < 2; ++s) {
      if (workers[s]) {
        shard_hits += lash::net::NetClient("127.0.0.1", workers[s]->port()).Stats().hits;
      }
    }
    front.reset();
    router.reset();
    for (int s = 0; s < 2; ++s) {
      workers[s].reset();
      backends[s].reset();
    }
  }

  void Reset() {
    Stop();
    for (auto& shard : shards) shard.reset();
    router_metrics = std::make_unique<lash::obs::MetricsRegistry>();
    router_net_metrics = std::make_unique<lash::obs::MetricsRegistry>();
    shard_hits = 0;
  }
};

}  // namespace

Outcome RunRouter2Shard(const RunConfig& config) {
  Outcome out;
  SpanLog spans(config.trace);

  // Small enough that a query's count phase stays well under 100 ms on 4
  // vCPUs: the count phase costs candidates × shard size.
  const std::string union_path = NytSnapshot(config.work_dir, 800, 400);
  const std::vector<std::string> shard_paths =
      NytShardSnapshots(config.work_dir, 800, 400);
  const std::vector<TaskSpec> pool = Pool(config.seed);

  // Set-up: load both shards, start the two workers and the router, and run
  // warm-up passes through the router until settled.
  World world;
  std::vector<double> setup_s, load_ms, verify_ms;
  double first_run_ms = 0;
  int warm_passes = 0;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    world.Reset();
    const Stopwatch setup;
    LoadTimes times;
    for (int s = 0; s < 2; ++s) {
      world.shards[s] = LoadSnapshot(shard_paths[static_cast<size_t>(s)], spans, &times);
    }
    world.Start();
    lash::net::NetClient client("127.0.0.1", world.front->port());
    warm_passes = WarmUpUntilSettled([&](int pass) {
      for (size_t i = 0; i < 6; ++i) {
        Span warm(spans, "net.mine.warmup", 0);
        client.Mine(WarmupSpec(pass, i));
        const double ms = warm.End();
        if (rep == 0 && pass == 0 && i == 0) first_run_ms = ms;
      }
    });
    setup_s.push_back(setup.ElapsedSeconds());
    load_ms.push_back(times.load_ms);
    verify_ms.push_back(times.verify_ms);
  }
  LoadTimes union_times;
  SpanLog untraced(false);
  const std::unique_ptr<lash::Dataset> union_dataset =
      LoadSnapshot(union_path, untraced, &union_times);
  out.notes.push_back("setup: " + std::to_string(config.setup_reps) +
                      " reps, warm-up passes " + std::to_string(warm_passes) +
                      "; corpus " + std::to_string(union_dataset->NumSequences()) +
                      " NYT-CLP sentences in shards of " +
                      std::to_string(world.shards[0]->NumSequences()) + " + " +
                      std::to_string(world.shards[1]->NumSequences()) + "; " +
                      std::to_string(pool.size()) + " queries per pass");

  struct Phase {
    Samples samples;
    double server_rest_ms = 0, patterns = 0;
    double candidates = 0, kernel_ms = 0;
    uint64_t queries = 0;
  };
  bool fresh = true;  // The stack has not served a pass since it started.
  uint64_t op_id = 0;
  AnswerLog answers;
  const lash::Dataset* const shard_ptrs[2] = {world.shards[0].get(),
                                              world.shards[1].get()};

  // Whole passes until `seconds` have elapsed; every pass after the first
  // one following set-up restarts the stack, so the shard caches start
  // empty. Restarts are not timed.
  const auto phase = [&](SpanLog& log, double seconds) {
    Phase p;
    p.samples.busy_ms.assign(1, 0);
    p.samples.ops.assign(1, 0);
    const Stopwatch wall;
    while (wall.ElapsedMs() < seconds * 1000.0) {
      if (!fresh) {
        world.Stop();
        world.Start();
      }
      fresh = false;
      lash::net::NetClient client("127.0.0.1", world.front->port());
      for (size_t query = 0; query < pool.size(); ++query) {
        const TaskSpec& spec = pool[query];
        const uint64_t op = ++op_id;
        Span op_span(log, "op", op);
        ++p.samples.attempted;
        lash::net::MineReply reply;
        double ms = 0;
        try {
          Span rtt(log, "net.client_mine", op);
          reply = client.Mine(spec);
          ms = rtt.End();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "lashbench: router query %zu failed: %s\n", query,
                       e.what());
          ++p.samples.failed;
          continue;
        }
        ++p.queries;
        p.samples.primary_ms.push_back(ms);
        p.samples.cold_ms.push_back(ms);
        p.samples.busy_ms[0] += ms;
        ++p.samples.ops[0];
        p.server_rest_ms += ms - reply.server_ms;
        p.patterns += static_cast<double>(reply.patterns.size());
        {
          Span check(log, "bench.check", op);
          answers.Record(query, FingerprintOf(reply.patterns));
        }
        if (!log.enabled()) continue;
        // Traced run: the count kernel on one shard with this query's
        // candidate union, rebuilt in process.
        lash::NamedPatternList candidates;
        {
          Span rebuild(log, "bench.candidate_union", op);
          candidates = CandidateUnion(shard_ptrs, spec);
        }
        lash::serve::CountQuery count_query;
        count_query.gamma = spec.params.gamma;
        count_query.lambda = spec.params.lambda;
        count_query.flat = spec.flat || spec.algorithm == Algorithm::kMgFsm;
        Span kernel(log, "count.kernel", op);
        CountOnShard(*world.shards[0], candidates, count_query);
        p.kernel_ms += kernel.End();
        p.candidates += static_cast<double>(candidates.size());
      }
    }
    p.samples.wall_ms = wall.ElapsedMs();
    return p;
  };

  struct Counters {
    double count_requests, candidates, shipped, phase_sum_ms, phase_n;
    double bytes_out, frames_out;
  };
  const auto counters = [&] {
    const lash::obs::MetricsRegistry& r = *world.router_metrics;
    const lash::obs::MetricsRegistry& n = *world.router_net_metrics;
    return Counters{Sample(r, "router.count.requests"),
                    Sample(r, "router.count.candidates"),
                    Sample(r, "router.count.patterns_shipped"),
                    HistogramSumMs(r, "router.count.phase_ms"),
                    Sample(r, "router.count.phase_ms.count"),
                    Sample(n, "net.server.bytes_out"),
                    Sample(n, "net.server.frames_out")};
  };

  Phase run;
  double overhead_pct = 0;
  Counters before{}, after{};
  if (!config.trace) {
    before = counters();
    run = phase(untraced, config.seconds);
    after = counters();
  } else {
    Phase base = phase(untraced, config.seconds / 2);
    before = counters();
    run = phase(spans, config.seconds / 2);
    after = counters();
    overhead_pct = OverheadPct(run.samples.primary_ms, base.samples.primary_ms);
    run.samples.attempted += base.samples.attempted;
    run.samples.failed += base.samples.failed;
  }

  // References: the union corpus mined in one process.
  const uint64_t wrong = answers.CountMismatches([&](size_t i) {
    lash::RunResult result;
    const lash::PatternMap patterns =
        lash::serve::MakeTask(*union_dataset, pool[i]).Mine(&result);
    return FingerprintOf(*union_dataset, patterns, result.used_flat_hierarchy);
  });

  // Workload shape: the shard caches never answered, every query ran the
  // count phase on both shards, and (traced) the rebuilt candidate unions
  // are the ones the router counted.
  world.Stop();
  const uint64_t shard_hits = world.shard_hits;
  const double count_requests = after.count_requests - before.count_requests;
  const double candidates = after.candidates - before.candidates;
  bool shape_ok = true;
  const auto shape = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "lashbench: router-2shard shape check failed: %s\n",
                   what.c_str());
      shape_ok = false;
    }
  };
  shape(shard_hits == 0, "shard workers answered from their caches");
  shape(count_requests == 2.0 * static_cast<double>(run.queries),
        "count requests != 2 x queries");
  shape(!config.trace || run.candidates == candidates,
        "rebuilt candidate unions differ from the router's");

  out.attempted = run.samples.attempted;
  out.failed = run.samples.failed + wrong;
  out.correct = out.failed == 0 && shape_ok;
  out.notes.push_back(SampleNote(run.samples));
  out.notes.push_back("shape: " + std::to_string(run.queries) + " queries, " +
                      std::to_string(static_cast<uint64_t>(count_requests)) +
                      " count requests, shard cache hits " + std::to_string(shard_hits));
  out.end_to_end = EndToEnd(setup_s, run.samples);

  if (config.trace) {
    const double q = static_cast<double>(run.queries);
    const double server_ms = Mean(run.samples.primary_ms);
    const double count_phase_ms = after.phase_n > before.phase_n
                                      ? (after.phase_sum_ms - before.phase_sum_ms) /
                                            (after.phase_n - before.phase_n)
                                      : 0;
    const double kernel_ms = q > 0 ? run.kernel_ms / q : 0;
    const double frames = after.frames_out - before.frames_out;
    out.per_layer = {
        {"io.snapshot_load_ms", Median(load_ms), "ms"},
        {"io.verify_corpus_ms", Median(verify_ms), "ms"},
        {"api.first_run_ms", first_run_ms, "ms"},
        {"net.rtt_minus_server_ms.cold", q > 0 ? run.server_rest_ms / q : 0, "ms"},
        {"net.bytes_out_per_reply",
         frames > 0 ? (after.bytes_out - before.bytes_out) / frames : 0, "bytes"},
        {"router.server_ms", server_ms, "ms"},
        {"router.count_phase_ms", count_phase_ms, "ms"},
        {"router.phase1_ms", server_ms - count_phase_ms, "ms"},
        {"router.candidates_per_query", q > 0 ? candidates / q : 0, "count"},
        {"router.patterns_shipped_per_query",
         q > 0 ? (after.shipped - before.shipped) / q : 0, "count"},
        {"router.useful_ratio", candidates > 0 ? run.patterns / candidates : 0, "ratio"},
        {"count.kernel_ms", kernel_ms, "ms"},
        {"count.candidates_per_ms", run.kernel_ms > 0 ? run.candidates / run.kernel_ms : 0,
         "1/ms"},
        {"count.kernel_share_pct", server_ms > 0 ? 100.0 * kernel_ms / server_ms : 0, "%"},
        {"trace.overhead_pct", overhead_pct, "%"},
    };
    for (const std::string& line : spans.Ledger()) out.notes.push_back(line);
    spans.WriteJsonl(config.work_dir + "/trace-router-2shard-seed" +
                     std::to_string(config.seed) + ".jsonl");
  }
  return out;
}

}  // namespace lashbench
