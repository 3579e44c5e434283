#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/rng.h"
#include "eval/evaluator.h"

namespace perfbench {

using templar::Rng;
namespace service = templar::service;

const char* const kDatasetNames[kDatasets] = {"mas", "imdb", "yelp"};

namespace {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

// Fixed seed of the popularity permutation: which gold parses are hot does
// not depend on the run seed, only which reads are drawn does.
constexpr uint64_t kPopularitySeed = 449;

// ru_maxrss of this process in MiB.
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

Corpus LoadCorpus() {
  Corpus corpus;
  const Clock::time_point start = Clock::now();
  for (const char* name : kDatasetNames) {
    auto dataset = templar::datasets::BuildByName(name);
    if (!dataset.ok()) {
      Die(std::string("dataset ") + name + ": " +
          dataset.status().ToString());
    }
    corpus.datasets.push_back(std::move(*dataset));
  }
  corpus.build_s = SecondsSince(start);
  for (size_t d = 0; d < kDatasets; ++d) {
    for (size_t i = 0; i < corpus.datasets[d].benchmark.size(); ++i) {
      corpus.items.push_back({d, i});
    }
  }
  return corpus;
}

std::vector<AppendBatch> MakeAppendStream(const Corpus& corpus,
                                          uint64_t seed) {
  Rng rng(seed ^ 0xa99e5dULL);
  std::vector<AppendBatch> batches(kAppendBatches);
  for (size_t b = 0; b < kAppendBatches; ++b) {
    AppendBatch& batch = batches[b];
    batch.dataset = b % kDatasets;
    const auto& log = corpus.datasets[batch.dataset].extra_log;
    for (size_t e = 0; e < kBatchSize; ++e) {
      batch.entries.push_back(log[rng.NextBounded(log.size())]);
    }
  }
  return batches;
}

std::vector<MixOp> MakeMixStream(const Corpus& corpus, uint64_t seed,
                                 std::vector<AppendBatch>* batches) {
  const size_t n = corpus.items.size();
  std::vector<size_t> by_rank(n);
  for (size_t i = 0; i < n; ++i) by_rank[i] = i;
  Rng(kPopularitySeed).Shuffle(&by_rank);
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }

  *batches = MakeAppendStream(corpus, seed);
  Rng rng(seed ^ 0x2e4dULL);
  std::vector<MixOp> ops;
  for (size_t r = 0; r < kAppendBatches * kReadsPerAppend; ++r) {
    const double u = rng.NextDouble() * total;
    const size_t rank = std::min<size_t>(
        n - 1, std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    ops.push_back({false, by_rank[rank]});
    if ((r + 1) % kReadsPerAppend == 0) {
      ops.push_back({true, (r + 1) / kReadsPerAppend - 1});
    }
  }
  return ops;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

double Sum(const std::vector<double>& samples) {
  double total = 0;
  for (double s : samples) total += s;
  return total;
}

double Min(const std::vector<double>& samples) {
  double best = std::numeric_limits<double>::infinity();
  for (double s : samples) best = std::min(best, s);
  return best;
}

void KeepBest(std::vector<double>* best, const std::vector<double>& sample) {
  if (best->empty()) {
    *best = sample;
    return;
  }
  for (size_t i = 0; i < sample.size(); ++i) {
    (*best)[i] = std::min((*best)[i], sample[i]);
  }
}

std::string Top1(const service::QueryResponse& response) {
  if (response.translations.empty()) return "<none>";
  const templar::nlidb::Translation& top = response.translations.front();
  return top.query.ToString() + (top.tie_for_first ? " <tie>" : "");
}

bool FqCorrect(const templar::datasets::BenchmarkQuery& gold,
               const service::QueryResponse& response) {
  if (response.translations.empty()) return false;
  return templar::eval::JudgeTranslation(
             gold, templar::Result<templar::nlidb::Translation>(
                       response.translations.front()))
      .fq_correct;
}

service::ServiceOptions CoreOptions(size_t cache_capacity) {
  service::ServiceOptions options;
  options.map_cache_capacity = cache_capacity;
  options.join_cache_capacity = cache_capacity;
  options.translate_cache_capacity = cache_capacity;
  // A 1-entry budget split over shards would still hold one entry per
  // shard; cold cores use a single shard so nothing is ever served warm.
  if (cache_capacity == 1) options.cache_shards = 1;
  return options;
}

double CreateCores(const Corpus& corpus,
                   const service::ServiceOptions& options,
                   const std::vector<std::string>& log_dirs,
                   std::vector<std::unique_ptr<service::ServiceCore>>* cores,
                   std::vector<double>* per_dataset_s) {
  cores->clear();
  double total = 0;
  for (size_t d = 0; d < kDatasets; ++d) {
    service::ServiceOptions core_options = options;
    if (!log_dirs.empty()) core_options.replication.log_dir = log_dirs[d];
    const auto& dataset = corpus.datasets[d];
    const Clock::time_point start = Clock::now();
    auto core = service::ServiceCore::Create(dataset.database.get(),
                                             dataset.lexicon.get(),
                                             dataset.extra_log, core_options);
    const double seconds = SecondsSince(start);
    if (!core.ok()) {
      Die(std::string("ServiceCore::Create ") + kDatasetNames[d] + ": " +
          core.status().ToString());
    }
    cores->push_back(std::move(*core));
    total += seconds;
    if (per_dataset_s != nullptr) per_dataset_s->push_back(seconds);
  }
  return total;
}

void EndToEnd::SetBestOfK(const std::vector<double>& best_ms) {
  translate_p50_ms = Percentile(best_ms, 0.50);
  translate_p95_ms = Percentile(best_ms, 0.95);
  translate_qps = static_cast<double>(best_ms.size()) / (Sum(best_ms) / 1000.0);
  translate_samples = best_ms.size();
}

void ReportEndToEnd(const EndToEnd& e2e, Report* report) {
  report->Metric("setup_s", Percentile(e2e.setup_s, 0.5), "s",
                 e2e.setup_s.size());
  report->Metric("translate_p50_ms", e2e.translate_p50_ms, "ms",
                 e2e.translate_samples);
  report->Metric("translate_p95_ms", e2e.translate_p95_ms, "ms",
                 e2e.translate_samples);
  report->Metric("translate_qps", e2e.translate_qps, "1/s",
                 e2e.translate_samples);
  report->Metric("append_p50_ms", Percentile(e2e.append_ms, 0.50), "ms",
                 e2e.append_ms.size());
  report->Metric("append_p95_ms", Percentile(e2e.append_ms, 0.95), "ms",
                 e2e.append_ms.size());
  report->Metric("top1_accuracy",
                 e2e.reads_judged == 0
                     ? 0.0
                     : static_cast<double>(e2e.reads_correct) /
                           static_cast<double>(e2e.reads_judged),
                 "ratio", e2e.reads_judged);
  report->Metric("success_ratio", report->SuccessRatio(), "ratio",
                 report->attempted());
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB", 1);
}

void Report::Op(bool ok, const char* what, size_t at) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 20) std::printf("FAILED: %s (operation %zu)\n", what, at);
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  if (++check_failures_ <= 20) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

int Report::Finish(const std::string& title) const {
  std::printf("== perfbench %s ==\n", title.c_str());
  std::printf("%-36s %16s  %-6s %9s\n", "metric", "value", "unit", "samples");
  for (const Entry& m : metrics_) {
    std::printf("%-36s %16.6f  %-6s %9zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("operations: %llu attempted, %llu failed; checks failed: %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(check_failures_));
  std::string json = std::string("{\"correct\": ") +
                     (correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace perfbench
