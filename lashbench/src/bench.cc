#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>
#include <unordered_map>

#include "datagen/corpus_recipes.h"
#include "util/hash.h"

namespace lashbench {

// ---- Span log -------------------------------------------------------------

namespace {
thread_local std::vector<int64_t> open_spans;
}  // namespace

int64_t SpanLog::Begin(const char* name, uint64_t op, int64_t parent) {
  const double now = origin_.ElapsedMs();
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(Record{name, op, parent, now, now});
  return static_cast<int64_t>(records_.size()) - 1;
}

void SpanLog::End(int64_t index) {
  const double now = origin_.ElapsedMs();
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<size_t>(index)].end_ms = now;
}

std::vector<double> SpanLog::SelfTimes() const {
  // Children of one span run sequentially on the span's own thread, so the
  // part of the parent they cover is the sum of their durations.
  std::vector<double> self(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    self[i] = records_[i].end_ms - records_[i].start_ms;
  }
  for (const Record& r : records_) {
    if (r.parent >= 0) self[static_cast<size_t>(r.parent)] -= r.end_ms - r.start_ms;
  }
  return self;
}

void SpanLog::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "lashbench: cannot write %s\n", path.c_str());
    return;
  }
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"op\":%llu,\"parent\":%lld,"
                 "\"start_ms\":%.4f,\"end_ms\":%.4f}\n",
                 i, r.name.c_str(), static_cast<unsigned long long>(r.op),
                 static_cast<long long>(r.parent), r.start_ms, r.end_ms);
  }
  std::fclose(f);
}

std::vector<std::string> SpanLog::Ledger() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = SelfTimes();
  struct Totals {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Totals> by_name;
  double roots_ms = 0;
  for (size_t i = 0; i < records_.size(); ++i) {
    Totals& t = by_name[records_[i].name];
    ++t.count;
    t.total_ms += records_[i].end_ms - records_[i].start_ms;
    t.self_ms += self[i];
    if (records_[i].parent < 0) roots_ms += records_[i].end_ms - records_[i].start_ms;
  }
  std::vector<std::string> lines;
  for (const auto& [name, t] : by_name) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "span %-28s n=%-7llu total=%10.2fms self=%10.2fms "
                  "self_share=%5.1f%%",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_ms, t.self_ms,
                  roots_ms > 0 ? 100.0 * t.self_ms / roots_ms : 0.0);
    lines.emplace_back(line);
  }
  return lines;
}

Span::Span(SpanLog& log, const char* name, uint64_t op)
    : log_(log.enabled() ? &log : nullptr) {
  if (log_ != nullptr) {
    index_ = log_->Begin(name, op, open_spans.empty() ? -1 : open_spans.back());
    open_spans.push_back(index_);
  }
  watch_.Restart();
}

Span::~Span() { End(); }

double Span::End() {
  if (!open_) return ms_;
  ms_ = watch_.ElapsedMs();
  open_ = false;
  if (log_ != nullptr) {
    log_->End(index_);
    open_spans.pop_back();
  }
  return ms_;
}

// ---- Samples --------------------------------------------------------------

void Samples::Merge(const Samples& other) {
  primary_ms.insert(primary_ms.end(), other.primary_ms.begin(),
                    other.primary_ms.end());
  cold_ms.insert(cold_ms.end(), other.cold_ms.begin(), other.cold_ms.end());
  busy_ms.insert(busy_ms.end(), other.busy_ms.begin(), other.busy_ms.end());
  ops.insert(ops.end(), other.ops.begin(), other.ops.end());
  attempted += other.attempted;
  failed += other.failed;
  wall_ms = std::max(wall_ms, other.wall_ms);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks.
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double OverheadPct(const std::vector<double>& traced_ms,
                   const std::vector<double>& untraced_ms) {
  const double traced = Mean(traced_ms), untraced = Mean(untraced_ms);
  return traced > 0 && untraced > 0 ? 100.0 * (traced / untraced - 1.0) : 0.0;
}

std::vector<Metric> EndToEnd(const std::vector<double>& setup_s,
                             const Samples& samples) {
  // Closed loop: each client's rate is its ops over the time it had a
  // request outstanding, so the benchmark's own answer checks between
  // requests never count as system time.
  double qps = 0;
  for (size_t c = 0; c < samples.ops.size(); ++c) {
    if (samples.busy_ms[c] > 0) {
      qps += 1000.0 * static_cast<double>(samples.ops[c]) / samples.busy_ms[c];
    }
  }
  const double success =
      samples.attempted == 0
          ? 0
          : 1.0 - static_cast<double>(samples.failed) /
                      static_cast<double>(samples.attempted);
  return {
      {"setup_s", Median(setup_s), "s"},
      {"throughput_qps", qps, "1/s"},
      {"success_rate", success, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"latency_p50_ms", Percentile(samples.primary_ms, 0.5), "ms"},
      {"latency_p90_ms", Percentile(samples.primary_ms, 0.9), "ms"},
      {"cold_p50_ms", Percentile(samples.cold_ms, 0.5), "ms"},
      {"cold_p90_ms", Percentile(samples.cold_ms, 0.9), "ms"},
  };
}

std::string SampleNote(const Samples& samples) {
  // p90 needs at least ten samples above it: n * 0.1 >= 10.
  const auto enough = [](size_t n) { return n >= 100 ? "ok" : "TOO FEW"; };
  char line[256];
  std::snprintf(line, sizeof(line),
                "samples: latency n=%zu (%zu beyond p90, %s), cold n=%zu (%zu "
                "beyond p90, %s), attempted=%llu failed=%llu wall=%.1fs",
                samples.primary_ms.size(), samples.primary_ms.size() / 10,
                enough(samples.primary_ms.size()), samples.cold_ms.size(),
                samples.cold_ms.size() / 10, enough(samples.cold_ms.size()),
                static_cast<unsigned long long>(samples.attempted),
                static_cast<unsigned long long>(samples.failed),
                samples.wall_ms / 1000.0);
  return line;
}

// ---- Reference answers ----------------------------------------------------

Fingerprint FingerprintOf(const lash::NamedPatternList& patterns) {
  std::string bytes;
  lash::EncodeNamedPatterns(&bytes, patterns);
  return Fingerprint{patterns.size(), lash::FnvHashBytes(bytes.data(), bytes.size()),
                     bytes.size()};
}

Fingerprint FingerprintOf(const lash::Dataset& dataset,
                          const lash::PatternMap& patterns, bool flat) {
  return FingerprintOf(lash::NamePatterns(dataset, patterns, flat));
}

void AnswerLog::Record(size_t query, const Fingerprint& seen) {
  std::lock_guard<std::mutex> lock(mu_);
  seen_.emplace_back(query, seen);
}

uint64_t AnswerLog::CountMismatches(
    const std::function<Fingerprint(size_t)>& reference) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<size_t, Fingerprint> refs;
  uint64_t mismatches = 0;
  for (const auto& [query, seen] : seen_) {
    auto it = refs.find(query);
    if (it == refs.end()) it = refs.emplace(query, reference(query)).first;
    if (!(it->second == seen)) {
      if (++mismatches <= 5) {
        std::fprintf(stderr,
                     "lashbench: WRONG ANSWER for query %zu: %llu patterns "
                     "(%llu bytes), reference %llu patterns (%llu bytes)\n",
                     query, static_cast<unsigned long long>(seen.patterns),
                     static_cast<unsigned long long>(seen.bytes),
                     static_cast<unsigned long long>(it->second.patterns),
                     static_cast<unsigned long long>(it->second.bytes));
      }
    }
  }
  return mismatches;
}

// ---- Inputs ---------------------------------------------------------------

std::string CachedSnapshot(const std::string& work_dir, const std::string& key,
                           const std::function<void(const std::string&)>& make) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(work_dir) / "snapshots";
  fs::create_directories(dir);
  const fs::path path = dir / key;
  if (!fs::exists(path)) {
    const fs::path tmp = dir / (key + ".tmp");
    make(tmp.string());
    fs::rename(tmp, path);
  }
  return path.string();
}

namespace {

lash::NytRecipe Nyt(size_t sentences, size_t lemmas) {
  lash::NytRecipe recipe;
  recipe.sentences = sentences;
  recipe.lemmas = lemmas;
  recipe.hierarchy = lash::TextHierarchy::kCLP;
  return recipe;
}

std::string NytKey(const lash::NytRecipe& r) {
  return "nyt-clp-" + std::to_string(r.sentences) + "x" + std::to_string(r.lemmas) +
         "-seed" + std::to_string(r.seed);
}

}  // namespace

std::string NytSnapshot(const std::string& work_dir, size_t sentences, size_t lemmas) {
  const lash::NytRecipe recipe = Nyt(sentences, lemmas);
  return CachedSnapshot(work_dir, NytKey(recipe), [&](const std::string& path) {
    lash::GeneratedText data = lash::MakeNytCorpus(recipe);
    lash::Dataset::FromMemory(std::move(data.database), std::move(data.vocabulary),
                              std::move(data.hierarchy))
        .Save(path);
  });
}

std::string AmznSnapshot(const std::string& work_dir, size_t sessions,
                         size_t products) {
  lash::AmznRecipe recipe;
  recipe.sessions = sessions;
  recipe.products = products;
  recipe.levels = 8;
  const std::string key = "amzn-h8-" + std::to_string(sessions) + "x" +
                          std::to_string(products) + "-seed" +
                          std::to_string(recipe.seed);
  return CachedSnapshot(work_dir, key, [&](const std::string& path) {
    lash::GeneratedProducts data = lash::MakeAmznCorpus(recipe);
    lash::Dataset::FromMemory(std::move(data.database), std::move(data.vocabulary),
                              std::move(data.hierarchy))
        .Save(path);
  });
}

std::vector<std::string> NytShardSnapshots(const std::string& work_dir,
                                           size_t sentences, size_t lemmas) {
  const lash::NytRecipe recipe = Nyt(sentences, lemmas);
  std::vector<std::string> paths;
  for (size_t s = 0; s < 2; ++s) {
    const std::string key = NytKey(recipe) + ".shard" + std::to_string(s);
    paths.push_back(CachedSnapshot(work_dir, key, [&](const std::string& path) {
      lash::GeneratedText data = lash::MakeNytCorpus(recipe);
      lash::Database shard_db;
      for (size_t i = s; i < data.database.size(); i += 2) {
        shard_db.push_back(data.database[i]);
      }
      lash::Dataset::FromMemory(std::move(shard_db), std::move(data.vocabulary))
          .Save(path);
    }));
  }
  return paths;
}

std::unique_ptr<lash::Dataset> LoadSnapshot(const std::string& path,
                                            SpanLog& spans, LoadTimes* times) {
  Span load(spans, "io.snapshot_load", 0);
  std::unique_ptr<lash::Dataset> dataset(new lash::Dataset(
      lash::Dataset::FromSnapshot(path, lash::Dataset::LoadMode::kMmap)));
  times->load_ms += load.End();
  Span verify(spans, "io.verify_corpus", 0);
  dataset->VerifyCorpus();
  times->verify_ms += verify.End();
  return dataset;
}

int WarmUpUntilSettled(const std::function<void(int pass)>& pass) {
  double previous = 0;
  for (int p = 0; p < 6; ++p) {
    const Stopwatch watch;
    pass(p);
    const double ms = watch.ElapsedMs();
    if (p >= 1 && ms > 0.9 * previous && ms < 1.1 * previous) return p + 1;
    previous = ms;
  }
  return 6;
}

// ---- Servers and registries -----------------------------------------------

ServerThread::ServerThread(lash::net::Backend* backend,
                           lash::obs::MetricsRegistry* metrics) {
  lash::net::ServerOptions options;  // 127.0.0.1, ephemeral port.
  options.metrics = metrics;
  server_ = std::make_unique<lash::net::NetServer>(std::move(options), backend);
  thread_ = std::thread([this] { server_->Run(); });
}

ServerThread::~ServerThread() {
  server_->Shutdown();
  thread_.join();
}

uint16_t ServerThread::port() const { return server_->port(); }

double Sample(const lash::obs::MetricsRegistry& registry,
              const std::string& name) {
  for (const lash::obs::MetricSample& sample : registry.Snapshot()) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

double HistogramSumMs(const lash::obs::MetricsRegistry& registry,
                      const std::string& name) {
  return Sample(registry, name + ".mean_ms") * Sample(registry, name + ".count");
}

// ---- Host -----------------------------------------------------------------

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double HostBurnMs(int threads) {
  constexpr uint64_t kIterations = 40'000'000;
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<uint64_t> sinks(static_cast<size_t>(threads));
    Stopwatch watch;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&sinks, t] {
        uint64_t x = 0x2545F4914F6CDD1Dull + static_cast<uint64_t>(t);
        for (uint64_t i = 0; i < kIterations; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        sinks[static_cast<size_t>(t)] = x;
      });
    }
    for (std::thread& th : pool) th.join();
    runs.push_back(watch.ElapsedMs());
    [[maybe_unused]] static volatile uint64_t observed = 0;
    observed = std::accumulate(sinks.begin(), sinks.end(), uint64_t{0});
  }
  return Median(runs);
}

}  // namespace lashbench
