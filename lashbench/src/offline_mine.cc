// offline-mine: one caller runs distinct cold MiningTask::Run queries over
// two snapshots — NYT-CLP (long sentences, shallow wide hierarchy) and
// AMZN-h8 (short sessions, 8-level hierarchy) — across the algorithms users
// run (sequential, lash, mgfsm), γ ∈ {0,1} and λ ∈ {3,4,5}. Nothing is
// cached by MiningTask, so every pass over the query list mines again; the
// timed phase runs whole passes so every run weighs each query equally.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"

namespace lashbench {
namespace {

using lash::Algorithm;

struct Query {
  size_t corpus = 0;  // 0 = NYT-CLP, 1 = AMZN-h8.
  Algorithm algorithm = Algorithm::kSequential;
  lash::Frequency sigma = 0;
  uint32_t gamma = 0;
  uint32_t lambda = 0;
};

// Hierarchical σ per corpus, and the lower σ the flat MG-FSM baseline needs
// to find patterns at all on words/products without their generalizations.
constexpr lash::Frequency kSigma[2] = {20, 10};
constexpr lash::Frequency kFlatSigma[2] = {6, 4};

std::vector<Query> MakeQueries(uint64_t seed) {
  std::vector<Query> queries;
  for (size_t corpus = 0; corpus < 2; ++corpus) {
    for (Algorithm algorithm :
         {Algorithm::kSequential, Algorithm::kLash, Algorithm::kMgFsm}) {
      for (uint32_t gamma : {0u, 1u}) {
        for (uint32_t lambda : {3u, 4u, 5u}) {
          queries.push_back(Query{corpus, algorithm,
                                  algorithm == Algorithm::kMgFsm
                                      ? kFlatSigma[corpus]
                                      : kSigma[corpus],
                                  gamma, lambda});
        }
      }
    }
  }
  lash::Rng rng(seed);
  Shuffle(&queries, &rng);
  return queries;
}

lash::MiningTask MakeTask(const lash::Dataset& dataset, const Query& q) {
  lash::MiningTask task(dataset);
  task.WithAlgorithm(q.algorithm)
      .WithSigma(q.sigma)
      .WithGamma(q.gamma)
      .WithLambda(q.lambda);
  return task;
}

/// The same answer from another engine: LASH and the sequential pipeline
/// check each other, and MG-FSM is checked by the sequential pipeline on
/// the flat rank space.
Fingerprint Reference(const lash::Dataset& dataset, const Query& q) {
  Query other = q;
  other.algorithm = q.algorithm == Algorithm::kSequential ? Algorithm::kLash
                                                          : Algorithm::kSequential;
  lash::MiningTask task = MakeTask(dataset, other);
  if (q.algorithm == Algorithm::kMgFsm) task.WithFlatHierarchy(true);
  lash::RunResult result;
  const lash::PatternMap patterns = task.Mine(&result);
  return FingerprintOf(dataset, patterns, result.used_flat_hierarchy);
}

/// Per-layer accumulators of one timed phase.
struct LayerTotals {
  double run_ms[3] = {0, 0, 0};
  uint64_t runs[3] = {0, 0, 0};
  uint64_t lash_runs = 0;
  double map_ms = 0, shuffle_ms = 0, reduce_ms = 0;
  double map_busy_ms = 0, reduce_busy_ms = 0, queue_wait_ms = 0;
  double overlap_ms = 0, map_output_bytes = 0, map_output_records = 0;
  uint64_t pass_candidates = 0, pass_outputs = 0;
};

size_t AlgoIndex(Algorithm a) {
  return a == Algorithm::kSequential ? 0 : a == Algorithm::kLash ? 1 : 2;
}

struct Context {
  std::vector<Query> queries;
  std::unique_ptr<lash::Dataset> datasets[2];
  AnswerLog answers;
  uint64_t op_id = 0;
};

/// Runs whole passes until `seconds` have elapsed.
Samples TimedPhase(Context& ctx, SpanLog& spans, double seconds,
                   LayerTotals* layers) {
  Samples samples;
  samples.busy_ms.assign(1, 0);
  samples.ops.assign(1, 0);
  const Stopwatch wall;
  bool first_pass = true;
  while (wall.ElapsedMs() < seconds * 1000.0) {
    for (size_t i = 0; i < ctx.queries.size(); ++i) {
      const Query& q = ctx.queries[i];
      const lash::Dataset& dataset = *ctx.datasets[q.corpus];
      const uint64_t op = ++ctx.op_id;
      Span op_span(spans, "op", op);
      const lash::MiningTask task = MakeTask(dataset, q);
      lash::CollectSink sink;
      ++samples.attempted;
      lash::RunResult result;
      double ms = 0;
      try {
        Span run(spans, "api.run", op);
        result = task.Run(sink);
        ms = run.End();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "lashbench: query %zu failed: %s\n", i, e.what());
        ++samples.failed;
        continue;
      }
      samples.primary_ms.push_back(ms);
      samples.cold_ms.push_back(ms);
      samples.busy_ms[0] += ms;
      ++samples.ops[0];
      {
        Span check(spans, "bench.check", op);
        ctx.answers.Record(i, FingerprintOf(dataset, sink.patterns(),
                                            result.used_flat_hierarchy));
      }
      if (layers == nullptr) continue;
      const size_t a = AlgoIndex(q.algorithm);
      layers->run_ms[a] += ms;
      ++layers->runs[a];
      if (first_pass) {
        layers->pass_candidates += result.miner_stats.candidates;
        layers->pass_outputs += result.miner_stats.outputs;
      }
      if (q.algorithm == Algorithm::kLash) {
        const lash::JobResult& job = result.job;
        ++layers->lash_runs;
        layers->map_ms += job.times.map_ms;
        layers->shuffle_ms += job.times.shuffle_ms;
        layers->reduce_ms += job.times.reduce_ms;
        for (double t : job.map_task_ms) layers->map_busy_ms += t;
        for (double t : job.reduce_task_ms) layers->reduce_busy_ms += t;
        for (const lash::PartitionTimeline& p : job.partition_timeline) {
          layers->queue_wait_ms += p.start_ms - p.ready_ms;
        }
        layers->overlap_ms += job.phase_overlap_ms;
        layers->map_output_bytes += static_cast<double>(job.counters.map_output_bytes);
        layers->map_output_records +=
            static_cast<double>(job.counters.map_output_records);
      }
    }
    first_pass = false;
  }
  samples.wall_ms = wall.ElapsedMs();
  return samples;
}

}  // namespace

Outcome RunOfflineMine(const RunConfig& config) {
  Outcome out;
  SpanLog spans(config.trace);
  Context ctx{MakeQueries(config.seed), {}, {}, 0};
  // Scale: a pass over the 36 queries takes about two seconds on 4 vCPUs,
  // so a run holds several whole passes.
  const std::string paths[2] = {NytSnapshot(config.work_dir, 3000, 1000),
                                AmznSnapshot(config.work_dir, 6000, 2000)};

  // Set-up: load both snapshots, then warm-up passes (one query per corpus
  // and algorithm) until a pass is within 10% of the one before it.
  std::vector<double> setup_s, load_ms, verify_ms;
  std::vector<int> warm_passes;
  double first_run_ms = 0;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    ctx.datasets[0].reset();
    ctx.datasets[1].reset();
    const Stopwatch setup;
    LoadTimes times;
    for (size_t c = 0; c < 2; ++c) ctx.datasets[c] = LoadSnapshot(paths[c], spans, &times);
    const int passes = WarmUpUntilSettled([&](int pass) {
      for (size_t c = 0; c < 2; ++c) {
        for (Algorithm algorithm :
             {Algorithm::kSequential, Algorithm::kLash, Algorithm::kMgFsm}) {
          const Query q{c, algorithm,
                        algorithm == Algorithm::kMgFsm ? kFlatSigma[c] : kSigma[c],
                        1, 4};
          lash::CollectSink sink;
          Span run(spans, "api.run.warmup", 0);
          MakeTask(*ctx.datasets[c], q).Run(sink);
          const double ms = run.End();
          if (rep == 0 && pass == 0 && first_run_ms == 0) first_run_ms = ms;
        }
      }
    });
    setup_s.push_back(setup.ElapsedSeconds());
    load_ms.push_back(times.load_ms);
    verify_ms.push_back(times.verify_ms);
    warm_passes.push_back(passes);
  }
  out.notes.push_back(
      "setup: " + std::to_string(config.setup_reps) + " reps, warm-up passes " +
      std::to_string(warm_passes.front()) + " then " +
      std::to_string(warm_passes.back()) + "; corpora " +
      std::to_string(ctx.datasets[0]->NumSequences()) + " NYT-CLP sentences, " +
      std::to_string(ctx.datasets[1]->NumSequences()) + " AMZN-h8 sessions; " +
      std::to_string(ctx.queries.size()) + " queries per pass");

  SpanLog untraced(false);
  Samples samples;
  LayerTotals layers;
  double overhead_pct = 0;
  if (!config.trace) {
    samples = TimedPhase(ctx, untraced, config.seconds, nullptr);
  } else {
    Samples base = TimedPhase(ctx, untraced, config.seconds / 2, nullptr);
    samples = TimedPhase(ctx, spans, config.seconds / 2, &layers);
    overhead_pct = OverheadPct(samples.primary_ms, base.primary_ms);
    samples.Merge(base);
  }

  const uint64_t wrong = ctx.answers.CountMismatches([&](size_t i) {
    return Reference(*ctx.datasets[ctx.queries[i].corpus], ctx.queries[i]);
  });
  out.attempted = samples.attempted;
  out.failed = samples.failed + wrong;
  out.correct = out.failed == 0;
  out.notes.push_back(SampleNote(samples));
  out.end_to_end = EndToEnd(setup_s, samples);

  if (config.trace) {
    const auto per = [](double total, uint64_t n) {
      return n == 0 ? 0.0 : total / static_cast<double>(n);
    };
    const uint64_t lr = layers.lash_runs;
    out.per_layer = {
        {"io.snapshot_load_ms", Median(load_ms), "ms"},
        {"io.verify_corpus_ms", Median(verify_ms), "ms"},
        {"api.run_ms.sequential", per(layers.run_ms[0], layers.runs[0]), "ms"},
        {"api.run_ms.lash", per(layers.run_ms[1], layers.runs[1]), "ms"},
        {"api.run_ms.mgfsm", per(layers.run_ms[2], layers.runs[2]), "ms"},
        {"api.first_run_ms", first_run_ms, "ms"},
        {"mapreduce.map_ms", per(layers.map_ms, lr), "ms"},
        {"mapreduce.shuffle_ms", per(layers.shuffle_ms, lr), "ms"},
        {"mapreduce.reduce_ms", per(layers.reduce_ms, lr), "ms"},
        {"mapreduce.map_busy_ms", per(layers.map_busy_ms, lr), "ms"},
        {"mapreduce.reduce_busy_ms", per(layers.reduce_busy_ms, lr), "ms"},
        {"mapreduce.queue_wait_ms", per(layers.queue_wait_ms, lr), "ms"},
        {"mapreduce.phase_overlap_ms", per(layers.overlap_ms, lr), "ms"},
        {"mapreduce.map_output_bytes", per(layers.map_output_bytes, lr), "bytes"},
        {"mapreduce.map_output_records", per(layers.map_output_records, lr), "count"},
        {"miner.candidates", static_cast<double>(layers.pass_candidates), "count"},
        {"miner.outputs", static_cast<double>(layers.pass_outputs), "count"},
        {"miner.candidates_per_output",
         layers.pass_outputs == 0 ? 0.0
                                  : static_cast<double>(layers.pass_candidates) /
                                        static_cast<double>(layers.pass_outputs),
         "ratio"},
        {"trace.overhead_pct", overhead_pct, "%"},
    };
    for (const std::string& line : spans.Ledger()) out.notes.push_back(line);
    spans.WriteJsonl(config.work_dir + "/trace-offline-mine-seed" +
                     std::to_string(config.seed) + ".jsonl");
  }
  return out;
}

}  // namespace lashbench
