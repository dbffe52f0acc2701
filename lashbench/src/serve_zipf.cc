// serve-zipf: three client threads, one NetClient each, talk to one
// ServiceBackend worker over an NYT-CLP snapshot. In every block of ten
// requests a client sends one cold request — a distinct query never sent
// before, which mines and fills the cache — and nine hot ones drawn Zipf
// style from a hot set pre-warmed during set-up. Hot requests are wire +
// naming/encode + cache read; cold requests are executor + mining + cache
// write, so a change that trades one class for the other shows as the two
// classes moving apart.
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "net/client.h"
#include "net/service_backend.h"
#include "serve/task_spec.h"
#include "stats/filters.h"

namespace lashbench {
namespace {

using lash::Algorithm;
using lash::serve::TaskSpec;

constexpr int kClients = 3;

TaskSpec Spec(Algorithm algorithm, lash::Frequency sigma, uint32_t gamma,
              uint32_t lambda, size_t top_k) {
  TaskSpec spec;
  spec.algorithm = algorithm;
  spec.params.sigma = sigma;
  spec.params.gamma = gamma;
  spec.params.lambda = lambda;
  spec.top_k = top_k;
  return spec;
}

/// The hot set, most popular first, with Zipf (s = 1) popularity. Fixed
/// across seeds so every run has the same reply-size mix: 77% of hot
/// requests get full replies of thousands of patterns and 23% top-10
/// replies. Sorted by reply size, the hot p50 falls inside the rank-1
/// entry and the hot p90 inside the rank-2 entry, never on a boundary
/// between entries. σ values sit outside the cold pool's σ range, so no
/// cold query can hit a hot entry.
std::vector<TaskSpec> HotSet() {
  return {
      Spec(Algorithm::kLash, 20, 0, 3, 0),         // ~3.5k patterns
      Spec(Algorithm::kSequential, 20, 1, 3, 0),   // ~9k patterns
      Spec(Algorithm::kLash, 20, 0, 5, 0),         // ~5.5k patterns
      Spec(Algorithm::kLash, 40, 0, 3, 0),         // ~1k patterns
      Spec(Algorithm::kSequential, 18, 1, 5, 10),  // top-10
      Spec(Algorithm::kLash, 16, 1, 4, 10),        // top-10
      Spec(Algorithm::kMgFsm, 5, 0, 3, 10),        // top-10
      Spec(Algorithm::kSequential, 16, 0, 4, 10),  // top-10
  };
}

// Cold pool: 18 (algorithm, γ, λ) combos × kSigmaSteps σ values × the top-k
// variants. The variants of one mine are consecutive so the post-run
// reference check mines each group once.
constexpr lash::Frequency kColdSigmaBase = 22;      // hierarchical: 22..53
constexpr lash::Frequency kColdFlatSigmaBase = 7;   // MG-FSM: 7..38
constexpr size_t kSigmaSteps = 32;
constexpr size_t kTopK[] = {10, 50, 200};

/// The order in which one query combo walks `steps` σ steps (a power of
/// two), starting at `phase`: bit-reversed (van der Corput), so every window
/// of 2^m consecutive uses covers each 1/2^m slice of the σ range once and
/// a run's cost mix does not depend on how far into the pool it gets.
size_t BalancedStep(size_t use, size_t phase, size_t steps) {
  size_t i = (use + phase) % steps, reversed = 0;
  for (size_t bit = 1; bit < steps; bit <<= 1) {
    reversed = (reversed << 1) | (i & 1);
    i >>= 1;
  }
  return reversed;
}

std::vector<TaskSpec> ColdPool(uint64_t seed) {
  std::vector<TaskSpec> combos;
  for (Algorithm algorithm :
       {Algorithm::kSequential, Algorithm::kLash, Algorithm::kMgFsm}) {
    for (uint32_t gamma : {0u, 1u}) {
      for (uint32_t lambda : {3u, 4u, 5u}) {
        combos.push_back(Spec(algorithm, 0, gamma, lambda, 0));
      }
    }
  }
  lash::Rng rng(seed);
  Shuffle(&combos, &rng);
  std::vector<size_t> phases;
  for (size_t c = 0; c < combos.size(); ++c) {
    phases.push_back(static_cast<size_t>(rng.Uniform(kSigmaSteps)));
  }
  // Block b holds every combo once, each at its b-th balanced σ step.
  std::vector<TaskSpec> pool;
  for (size_t b = 0; b < kSigmaSteps; ++b) {
    for (size_t c = 0; c < combos.size(); ++c) {
      TaskSpec spec = combos[c];
      spec.params.sigma =
          static_cast<lash::Frequency>(BalancedStep(b, phases[c], kSigmaSteps)) +
          (spec.algorithm == Algorithm::kMgFsm ? kColdFlatSigmaBase : kColdSigmaBase);
      for (size_t k : kTopK) {
        spec.top_k = k;
        pool.push_back(spec);
      }
    }
  }
  return pool;
}

/// Warm-up queries: cold-pool mines with a top-k no pool query uses.
TaskSpec WarmupSpec(int pass, size_t i) {
  static const Algorithm kAlgos[] = {Algorithm::kSequential, Algorithm::kLash,
                                     Algorithm::kMgFsm};
  const Algorithm algorithm = kAlgos[i % 3];
  return Spec(algorithm,
              (algorithm == Algorithm::kMgFsm ? kColdFlatSigmaBase : kColdSigmaBase) +
                  static_cast<lash::Frequency>(i),
              static_cast<uint32_t>(i % 2), 4, 1000 + static_cast<size_t>(pass));
}

struct HotRef {
  lash::PatternMap patterns;  // rank space, for the traced re-naming
  bool flat = false;
  lash::NamedPatternList named;
};

/// One client's share of a timed phase.
struct ClientResult {
  Samples samples;
  uint64_t hot = 0, cold = 0;
  uint64_t wrong_class = 0, wrong_hot = 0;
  double server_hot_ms = 0, server_cold_ms = 0;
  double rest_hot_ms = 0, rest_cold_ms = 0;
  double name_ms = 0, encode_ms = 0, decode_ms = 0;
  double full_hot_rtt_ms = 0, full_hot_io_ms = 0;
  bool pool_exhausted = false;
};

struct World {
  std::unique_ptr<lash::Dataset> dataset;
  std::unique_ptr<lash::obs::MetricsRegistry> serve_metrics, net_metrics;
  std::unique_ptr<lash::net::ServiceBackend> backend;
  std::unique_ptr<ServerThread> server;

  void Reset() {
    server.reset();
    backend.reset();
    dataset.reset();
    serve_metrics.reset();
    net_metrics.reset();
  }
};

}  // namespace

Outcome RunServeZipf(const RunConfig& config) {
  Outcome out;
  SpanLog spans(config.trace);
  const std::string path = NytSnapshot(config.work_dir, 3000, 1000);

  const std::vector<TaskSpec> hot_set = HotSet();
  const lash::ZipfSampler zipf(hot_set.size(), 1.0);
  const std::vector<TaskSpec> cold_pool = ColdPool(config.seed);

  // Set-up: load, start the worker, warm-up passes of cold mines until
  // settled, then mine every hot entry once (fills the cache) and hit it
  // once. Repeated; the last repetition's world serves the timed phase.
  World world;
  std::vector<double> setup_s, load_ms, verify_ms;
  double first_run_ms = 0, hot_bytes = 0;
  int warm_passes = 0;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    world.Reset();
    const Stopwatch setup;
    LoadTimes times;
    world.dataset = LoadSnapshot(path, spans, &times);
    world.serve_metrics = std::make_unique<lash::obs::MetricsRegistry>();
    world.net_metrics = std::make_unique<lash::obs::MetricsRegistry>();
    lash::serve::ServiceOptions options;
    options.metrics = world.serve_metrics.get();
    world.backend = std::make_unique<lash::net::ServiceBackend>(
        std::vector<const lash::Dataset*>{world.dataset.get()}, std::move(options));
    world.server = std::make_unique<ServerThread>(world.backend.get(),
                                                  world.net_metrics.get());
    lash::net::NetClient client("127.0.0.1", world.server->port());
    warm_passes = WarmUpUntilSettled([&](int pass) {
      for (size_t i = 0; i < 6; ++i) {
        Span warm(spans, "net.mine.warmup", 0);
        const lash::net::MineReply reply = client.Mine(WarmupSpec(pass, i));
        if (rep == 0 && pass == 0 && i == 0) first_run_ms = reply.server_ms;
      }
    });
    const double bytes_before = Sample(*world.serve_metrics, "serve.cache.bytes");
    for (const TaskSpec& spec : hot_set) {
      Span warm(spans, "net.mine.hot_warmup", 0);
      client.Mine(spec);
      client.Mine(spec);
    }
    hot_bytes = Sample(*world.serve_metrics, "serve.cache.bytes") - bytes_before;
    setup_s.push_back(setup.ElapsedSeconds());
    load_ms.push_back(times.load_ms);
    verify_ms.push_back(times.verify_ms);
  }

  // Hot references, mined in process through the same facade task.
  std::vector<HotRef> hot_refs(hot_set.size());
  size_t full_entries = 0;
  for (size_t h = 0; h < hot_set.size(); ++h) {
    lash::RunResult result;
    hot_refs[h].patterns = lash::serve::MakeTask(*world.dataset, hot_set[h]).Mine(&result);
    hot_refs[h].flat = result.used_flat_hierarchy;
    hot_refs[h].named =
        lash::NamePatterns(*world.dataset, hot_refs[h].patterns, hot_refs[h].flat);
    if (hot_set[h].top_k == 0) ++full_entries;
  }
  const bool hot_fits =
      hot_bytes <= static_cast<double>(lash::serve::ServiceOptions{}.cache_bytes);
  {
    std::string sizes;
    for (const HotRef& ref : hot_refs) {
      sizes += ' ';
      sizes += std::to_string(ref.named.size());
    }
    out.notes.push_back("setup: " + std::to_string(config.setup_reps) +
                        " reps, warm-up passes " + std::to_string(warm_passes) +
                        "; corpus " + std::to_string(world.dataset->NumSequences()) +
                        " NYT-CLP sentences; hot set " + std::to_string(hot_set.size()) +
                        " entries (" + std::to_string(full_entries) +
                        " full replies), reply sizes" + sizes + "; hot-set bytes " +
                        std::to_string(static_cast<uint64_t>(hot_bytes)) +
                        " of the 64 MiB default cache; cold pool " +
                        std::to_string(cold_pool.size()) + " queries");
  }

  std::atomic<size_t> cold_cursor{0};
  AnswerLog cold_answers;
  std::atomic<uint64_t> op_ids{0};

  const auto phase = [&](SpanLog& log, double seconds, uint64_t salt) {
    std::vector<ClientResult> results(kClients);
    std::vector<std::thread> threads;
    const Stopwatch wall;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientResult& r = results[static_cast<size_t>(c)];
        r.samples.busy_ms.assign(1, 0);
        r.samples.ops.assign(1, 0);
        try {
          lash::Rng rng(config.seed * 31 + salt * 7 + static_cast<uint64_t>(c));
          lash::net::NetClient client("127.0.0.1", world.server->port());
          uint64_t cold_slot = rng.Uniform(10);
          for (uint64_t n = 0; wall.ElapsedMs() < seconds * 1000.0; ++n) {
            if (n % 10 == 0) cold_slot = rng.Uniform(10);
            const bool cold = n % 10 == cold_slot;
            size_t query = 0;
            if (cold) {
              query = cold_cursor.fetch_add(1);
              if (query >= cold_pool.size()) {
                r.pool_exhausted = true;
                break;
              }
            } else {
              query = zipf.Sample(&rng);
            }
            const TaskSpec& spec = cold ? cold_pool[query] : hot_set[query];
            const uint64_t op = ++op_ids;
            Span op_span(log, "op", op);
            ++r.samples.attempted;
            lash::net::MineReply reply;
            double ms = 0;
            try {
              Span rtt(log, "net.client_mine", op);
              reply = client.Mine(spec);
              ms = rtt.End();
            } catch (const std::exception& e) {
              std::fprintf(stderr, "lashbench: request failed: %s\n", e.what());
              ++r.samples.failed;
              continue;
            }
            r.samples.busy_ms[0] += ms;
            ++r.samples.ops[0];
            Span check(log, "bench.check", op);
            if (reply.cache_hit != !cold) ++r.wrong_class;
            if (cold) {
              ++r.cold;
              r.samples.cold_ms.push_back(ms);
              r.server_cold_ms += reply.server_ms;
              r.rest_cold_ms += ms - reply.server_ms;
              cold_answers.Record(query, FingerprintOf(reply.patterns));
              continue;
            }
            ++r.hot;
            r.samples.primary_ms.push_back(ms);
            r.server_hot_ms += reply.server_ms;
            r.rest_hot_ms += ms - reply.server_ms;
            if (!(reply.patterns == hot_refs[query].named)) ++r.wrong_hot;
            check.End();
            if (!log.enabled()) continue;
            // Traced run: the naming, encoding and decoding a hot reply costs,
            // re-executed in process on this hot entry's cached result.
            const HotRef& ref = hot_refs[query];
            Span name(log, "io.name", op);
            const lash::NamedPatternList named =
                lash::NamePatterns(*world.dataset, ref.patterns, ref.flat);
            const double name_ms = name.End();
            Span encode(log, "io.encode", op);
            std::string bytes;
            lash::EncodeNamedPatterns(&bytes, named);
            const double encode_ms = encode.End();
            Span decode(log, "io.decode", op);
            lash::ByteReader reader(bytes, "hot reply");
            const lash::NamedPatternList decoded = lash::DecodeNamedPatterns(reader);
            const double decode_ms = decode.End();
            if (decoded.size() != named.size()) ++r.wrong_hot;
            r.name_ms += name_ms;
            r.encode_ms += encode_ms;
            r.decode_ms += decode_ms;
            if (spec.top_k == 0) {
              r.full_hot_rtt_ms += ms;
              r.full_hot_io_ms += name_ms + encode_ms + decode_ms;
            }
          }
        } catch (const std::exception& e) {
          // Nothing may escape a thread; the run fails instead.
          std::fprintf(stderr, "lashbench: client %d stopped: %s\n", c, e.what());
          ++r.samples.failed;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    ClientResult total;
    for (const ClientResult& r : results) {
      total.samples.Merge(r.samples);
      total.hot += r.hot;
      total.cold += r.cold;
      total.wrong_class += r.wrong_class;
      total.wrong_hot += r.wrong_hot;
      total.server_hot_ms += r.server_hot_ms;
      total.server_cold_ms += r.server_cold_ms;
      total.rest_hot_ms += r.rest_hot_ms;
      total.rest_cold_ms += r.rest_cold_ms;
      total.name_ms += r.name_ms;
      total.encode_ms += r.encode_ms;
      total.decode_ms += r.decode_ms;
      total.full_hot_rtt_ms += r.full_hot_rtt_ms;
      total.full_hot_io_ms += r.full_hot_io_ms;
      total.pool_exhausted = total.pool_exhausted || r.pool_exhausted;
    }
    total.samples.wall_ms = wall.ElapsedMs();
    return total;
  };

  struct Counters {
    double submitted, hits, coalesced, executions, rejected, evictions;
    double bytes_out, frames_out;
  };
  const auto counters = [&] {
    const lash::obs::MetricsRegistry& s = *world.serve_metrics;
    const lash::obs::MetricsRegistry& n = *world.net_metrics;
    return Counters{Sample(s, "serve.requests.submitted"),
                    Sample(s, "serve.requests.hits"),
                    Sample(s, "serve.requests.coalesced"),
                    Sample(s, "serve.requests.executions"),
                    Sample(s, "serve.requests.rejected"),
                    Sample(s, "serve.cache.evictions"),
                    Sample(n, "net.server.bytes_out"),
                    Sample(n, "net.server.frames_out")};
  };

  SpanLog untraced(false);
  ClientResult run;
  double overhead_pct = 0;
  Counters before{}, after{};
  if (!config.trace) {
    before = counters();
    run = phase(untraced, config.seconds, 1);
    after = counters();
  } else {
    ClientResult base = phase(untraced, config.seconds / 2, 1);
    before = counters();
    run = phase(spans, config.seconds / 2, 2);
    after = counters();
    overhead_pct = OverheadPct(run.samples.primary_ms, base.samples.primary_ms);
    run.samples.attempted += base.samples.attempted;
    run.samples.failed += base.samples.failed;
    run.wrong_class += base.wrong_class;
    run.wrong_hot += base.wrong_hot;
  }

  // Cold references: each used (algorithm, σ, γ, λ) group is mined once in
  // process; its top-k variants are cut from that answer with the same
  // TopK the facade applies.
  const uint64_t wrong_cold = cold_answers.CountMismatches([&](size_t i) {
    TaskSpec full = cold_pool[i];
    full.top_k = 0;
    lash::RunResult result;
    const lash::PatternMap all = lash::serve::MakeTask(*world.dataset, full).Mine(&result);
    lash::PatternMap top;
    for (auto& [seq, freq] : lash::TopK(all, cold_pool[i].top_k)) top.emplace(seq, freq);
    return FingerprintOf(*world.dataset, top, result.used_flat_hierarchy);
  });

  // Workload shape: hot requests hit, cold ones miss, the server's hit
  // ratio is exactly the hot share, and nothing was evicted.
  const lash::serve::ServiceStats stats =
      lash::net::NetClient("127.0.0.1", world.server->port()).Stats();
  const double requests = after.submitted - before.submitted;
  const double hit_ratio = requests > 0 ? (after.hits - before.hits) / requests : 0;
  const double hot_share =
      static_cast<double>(run.hot) / static_cast<double>(run.hot + run.cold);
  bool shape_ok = true;
  const auto shape = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "lashbench: serve-zipf shape check failed: %s\n", what.c_str());
      shape_ok = false;
    }
  };
  shape(run.wrong_class == 0, std::to_string(run.wrong_class) +
                                  " hot replies missed or cold replies hit");
  shape(hit_ratio == hot_share, "hit ratio differs from the hot share");
  shape(stats.cache_evictions == 0, "cache evicted entries");
  shape(hot_fits, "hot set exceeds the 64 MiB cache");
  shape(!run.pool_exhausted, "cold pool exhausted before the run ended");

  out.attempted = run.samples.attempted;
  out.failed = run.samples.failed + run.wrong_hot + wrong_cold;
  out.correct = out.failed == 0 && shape_ok;
  out.notes.push_back(SampleNote(run.samples));
  out.notes.push_back("shape: hot " + std::to_string(run.hot) + ", cold " +
                      std::to_string(run.cold) + ", hit ratio " +
                      std::to_string(hit_ratio) + " (hot share " +
                      std::to_string(hot_share) + "), evictions " +
                      std::to_string(stats.cache_evictions) + ", cache bytes " +
                      std::to_string(stats.cache_bytes));
  out.end_to_end = EndToEnd(setup_s, run.samples);

  if (config.trace) {
    const auto per = [](double total, uint64_t n) {
      return n == 0 ? 0.0 : total / static_cast<double>(n);
    };
    const double frames = after.frames_out - before.frames_out;
    out.per_layer = {
        {"io.snapshot_load_ms", Median(load_ms), "ms"},
        {"io.verify_corpus_ms", Median(verify_ms), "ms"},
        {"io.name_ms", per(run.name_ms, run.hot), "ms"},
        {"io.encode_ms", per(run.encode_ms, run.hot), "ms"},
        {"io.decode_ms", per(run.decode_ms, run.hot), "ms"},
        {"io.share_full_hot_pct",
         run.full_hot_rtt_ms > 0 ? 100.0 * run.full_hot_io_ms / run.full_hot_rtt_ms : 0,
         "%"},
        {"api.first_run_ms", first_run_ms, "ms"},
        {"serve.server_ms.hot", per(run.server_hot_ms, run.hot), "ms"},
        {"serve.server_ms.cold", per(run.server_cold_ms, run.cold), "ms"},
        {"serve.hit_ratio", hit_ratio, "ratio"},
        {"serve.coalesced", after.coalesced - before.coalesced, "count"},
        {"serve.executions", after.executions - before.executions, "count"},
        {"serve.rejected", after.rejected - before.rejected, "count"},
        {"serve.cache_bytes", static_cast<double>(stats.cache_bytes), "bytes"},
        {"serve.cache_evictions", static_cast<double>(stats.cache_evictions), "count"},
        {"net.rtt_minus_server_ms.hot", per(run.rest_hot_ms, run.hot), "ms"},
        {"net.rtt_minus_server_ms.cold", per(run.rest_cold_ms, run.cold), "ms"},
        {"net.bytes_out_per_reply",
         frames > 0 ? (after.bytes_out - before.bytes_out) / frames : 0, "bytes"},
        {"trace.overhead_pct", overhead_pct, "%"},
    };
    for (const std::string& line : spans.Ledger()) out.notes.push_back(line);
    spans.WriteJsonl(config.work_dir + "/trace-serve-zipf-seed" +
                     std::to_string(config.seed) + ".jsonl");
  }
  return out;
}

}  // namespace lashbench
