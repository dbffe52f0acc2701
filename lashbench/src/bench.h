// Shared pieces of the repository benchmark: run configuration, the span
// log the traced runs record, closed-loop sample bookkeeping, reference
// fingerprints, cached snapshot generation, host calibration, and the
// metric report every workload returns.
#ifndef LASHBENCH_BENCH_H_
#define LASHBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/lash_api.h"
#include "io/result_io.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/timer.h"

namespace lashbench {

using lash::Stopwatch;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout: cached snapshots, span files.
  std::string work_dir;
  /// Set-up repetitions whose median is setup_s.
  int setup_reps = 5;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main(): the correctness verdict, the
/// operation counts, and both metric sets (main prints one of them).
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable lines printed before the result (sample counts,
  /// workload-shape facts).
  std::vector<std::string> notes;
};

// ---- Span log -------------------------------------------------------------

/// In-memory spans the benchmark records around its own calls into the
/// program's layers (name, start, end, parent, operation id). Disabled logs
/// record nothing; Span still times its scope so one code path serves the
/// traced and the untraced run.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_() {}

  bool enabled() const { return enabled_; }

  struct Record {
    std::string name;
    uint64_t op = 0;
    int64_t parent = -1;
    double start_ms = 0;
    double end_ms = 0;
  };

  int64_t Begin(const char* name, uint64_t op, int64_t parent);
  void End(int64_t index);

  /// Writes one JSON object per span to `path`.
  void WriteJsonl(const std::string& path) const;
  /// One line per span name: count, summed duration, summed self time
  /// (duration minus the part covered by child spans), and the self time's
  /// share of all root spans.
  std::vector<std::string> Ledger() const;

 private:
  /// Self time of every record, index-aligned with records_.
  std::vector<double> SelfTimes() const;

  bool enabled_;
  Stopwatch origin_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// RAII span: parent is the innermost open span of the calling thread.
class Span {
 public:
  Span(SpanLog& log, const char* name, uint64_t op);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span now (idempotent) and returns its duration.
  double End();
  double ElapsedMs() const { return watch_.ElapsedMs(); }

 private:
  SpanLog* log_;
  int64_t index_ = -1;
  bool open_ = true;
  double ms_ = 0;
  Stopwatch watch_;
};

// ---- Closed-loop samples --------------------------------------------------

/// Latencies and per-client busy time of one timed phase.
struct Samples {
  std::vector<double> primary_ms;  ///< The workload's majority class.
  std::vector<double> cold_ms;     ///< Requests that had to mine.
  std::vector<double> busy_ms;     ///< Per client: summed op latency.
  std::vector<uint64_t> ops;       ///< Per client: completed ops.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_ms = 0;

  void Merge(const Samples& other);
};

double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Mean latency of the traced samples over the untraced ones, as a percent
/// change (0 when either is empty).
double OverheadPct(const std::vector<double>& traced_ms,
                   const std::vector<double>& untraced_ms);

/// The end-to-end metric set every workload prints (see BENCHMARK.json).
std::vector<Metric> EndToEnd(const std::vector<double>& setup_s,
                             const Samples& samples);
/// "samples: ..." note with the count behind each percentile.
std::string SampleNote(const Samples& samples);

// ---- Reference answers ----------------------------------------------------

/// Canonical identity of one answer: pattern count plus FNV-64 of its
/// EncodeNamedPatterns bytes.
struct Fingerprint {
  uint64_t patterns = 0;
  uint64_t hash = 0;
  uint64_t bytes = 0;
  bool operator==(const Fingerprint& o) const {
    return patterns == o.patterns && hash == o.hash && bytes == o.bytes;
  }
};
Fingerprint FingerprintOf(const lash::NamedPatternList& patterns);
/// Names `patterns` through `dataset` first (canonical wire order).
Fingerprint FingerprintOf(const lash::Dataset& dataset,
                          const lash::PatternMap& patterns, bool flat);

/// Observed answers per query id, checked against references after the
/// timed phase (only the queries a run actually reached are recomputed).
class AnswerLog {
 public:
  void Record(size_t query, const Fingerprint& seen);
  /// Calls `reference(query)` once per distinct recorded query and counts
  /// every observation that differs. Prints the first mismatches to stderr.
  uint64_t CountMismatches(
      const std::function<Fingerprint(size_t)>& reference) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<size_t, Fingerprint>> seen_;
};

// ---- Inputs ---------------------------------------------------------------

/// Returns `work_dir/snapshots/<key>`, calling `make(path)` to generate it
/// when it is not cached yet (written to a temporary name, then renamed).
std::string CachedSnapshot(const std::string& work_dir, const std::string& key,
                           const std::function<void(const std::string&)>& make);

/// Cached snapshots of the corpus recipes (datagen/corpus_recipes.h) at a
/// given scale. The corpus seed is the recipe's own: every workload seed
/// mines the same corpus, so run-to-run spread measures the program and
/// the host, not how one generated corpus differs from another.
std::string NytSnapshot(const std::string& work_dir, size_t sentences, size_t lemmas);
std::string AmznSnapshot(const std::string& work_dir, size_t sessions,
                         size_t products);
/// The round-robin split of NytSnapshot() into two shards, as
/// `lash_gen --shards 2` writes it (every shard keeps the full vocabulary).
std::vector<std::string> NytShardSnapshots(const std::string& work_dir,
                                           size_t sentences, size_t lemmas);

/// FromSnapshot (mmap) + VerifyCorpus, timed into the io.* accumulators.
struct LoadTimes {
  double load_ms = 0;
  double verify_ms = 0;
};
std::unique_ptr<lash::Dataset> LoadSnapshot(const std::string& path,
                                            SpanLog& spans, LoadTimes* times);

/// Fisher-Yates shuffle driven by the library's seeded generator.
template <typename T>
void Shuffle(std::vector<T>* v, lash::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng->Uniform(i))]);
  }
}

/// Runs warm-up passes until lazy state has settled: a pass within 10% of
/// the pass before it, at most six passes. Returns the number of passes.
int WarmUpUntilSettled(const std::function<void(int pass)>& pass);

// ---- Servers and registries -----------------------------------------------

/// A NetServer running its event loop on its own thread.
class ServerThread {
 public:
  ServerThread(lash::net::Backend* backend, lash::obs::MetricsRegistry* metrics);
  ~ServerThread();
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;
  uint16_t port() const;

 private:
  std::unique_ptr<lash::net::NetServer> server_;
  std::thread thread_;
};

/// Value of one sample of a registry snapshot (0 when absent).
double Sample(const lash::obs::MetricsRegistry& registry,
              const std::string& name);
/// Sum of a histogram's recorded values in ms (mean × count).
double HistogramSumMs(const lash::obs::MetricsRegistry& registry,
                      const std::string& name);

// ---- Host -----------------------------------------------------------------

/// Peak resident set size of this process in MiB.
double PeakRssMb();
/// Wall time of a fixed integer burn on `threads` threads (each thread does
/// the same work), median of three.
double HostBurnMs(int threads);

// ---- Workloads ------------------------------------------------------------

Outcome RunOfflineMine(const RunConfig& config);
Outcome RunServeZipf(const RunConfig& config);
Outcome RunRouter2Shard(const RunConfig& config);

}  // namespace lashbench

#endif  // LASHBENCH_BENCH_H_
