#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the repository benchmark: the 449-request corpus built
// from the three registry datasets, order statistics, the seeded request
// streams, and the report that prints every metric and the final JSON line.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "datasets/dataset.h"
#include "nlidb/nlidb.h"
#include "service/templar_service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Dataset order everywhere: MAS, IMDB, Yelp (the registry seeds).
inline constexpr size_t kDatasets = 3;
extern const char* const kDatasetNames[kDatasets];

// One benchmark request: a gold parse of one dataset.
struct Item {
  size_t dataset = 0;
  size_t index = 0;  // into Dataset::benchmark
};

// The three datasets at their fixed registry seeds and the 194 + 128 + 127
// gold parses, each a distinct translate key.
struct Corpus {
  std::vector<templar::datasets::Dataset> datasets;
  std::vector<Item> items;
  double build_s = 0;  // dataset generation time

  const templar::datasets::BenchmarkQuery& Gold(const Item& item) const {
    return datasets[item.dataset].benchmark[item.index];
  }
};

// Builds the corpus; exits the process with a message on failure.
Corpus LoadCorpus();

// The append stream of every workload and of the traced run: 210 batches of
// 4 extra-log entries, so at least ten lie beyond the 95th percentile. In
// append_mix a batch follows every 10th read. No measured front-end
// traffic fixes this mix; it is assumed.
inline constexpr size_t kAppendBatches = 210;
inline constexpr size_t kBatchSize = 4;
inline constexpr size_t kReadsPerAppend = 10;

// One AppendLogQueries batch: entries of one dataset's extra log.
struct AppendBatch {
  size_t dataset = 0;
  std::vector<std::string> entries;
};

// kAppendBatches batches of kBatchSize entries drawn uniformly from one
// dataset's extra log; the datasets take turns, so every tenant sees the
// same append rate.
std::vector<AppendBatch> MakeAppendStream(const Corpus& corpus,
                                          uint64_t seed);

// A read (item index) or an append (batch index) of the append_mix stream.
struct MixOp {
  bool append = false;
  size_t index = 0;
};

// kAppendBatches * kReadsPerAppend Zipf(1)-skewed reads over the corpus,
// with an append batch after every kReadsPerAppend reads. Popularity ranks
// are one fixed permutation of the corpus; `seed` draws the reads and the
// batches.
std::vector<MixOp> MakeMixStream(const Corpus& corpus, uint64_t seed,
                                 std::vector<AppendBatch>* batches);

// Nearest-rank percentile (q in (0, 1]) of unsorted samples.
double Percentile(std::vector<double> samples, double q);
double Sum(const std::vector<double>& samples);
double Min(const std::vector<double>& samples);

// Element-wise minimum: best[i] = min(best[i], sample[i]).
void KeepBest(std::vector<double>* best, const std::vector<double>& sample);

// The one top-1 rendering every correctness check compares.
std::string Top1(const templar::service::QueryResponse& response);

// The Translate envelope of corpus item `item` (top-1).
inline templar::service::QueryRequest TranslateRequest(const Corpus& corpus,
                                                       size_t item) {
  return templar::service::QueryRequest::Translation(
      corpus.Gold(corpus.items[item]).gold_parse, /*top_k=*/1);
}

// FQ top-1 correctness by eval::JudgeTranslation (ties count as wrong).
bool FqCorrect(const templar::datasets::BenchmarkQuery& gold,
               const templar::service::QueryResponse& response);

// ServiceCore options shared by every workload: registry defaults with the
// given result-cache capacity (1 = cold: every request computes).
templar::service::ServiceOptions CoreOptions(size_t cache_capacity);

// Creates one core per dataset over its extra log; returns the summed
// Create time. Exits on failure.
double CreateCores(
    const Corpus& corpus, const templar::service::ServiceOptions& options,
    const std::vector<std::string>& log_dirs,
    std::vector<std::unique_ptr<templar::service::ServiceCore>>* cores,
    std::vector<double>* per_dataset_s = nullptr);

// Collects checks, operation counts and metrics; prints the metric table
// and, as the last line of stdout, the result JSON.
class Report {
 public:
  // One operation attempted; `ok` false when it errored or failed a check
  // (`what` names the operation in the failure message).
  void Op(bool ok, const char* what, size_t at);
  // A run-level output check; a failure makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples);

  uint64_t attempted() const { return attempted_; }
  double SuccessRatio() const {
    return attempted_ == 0
               ? 0.0
               : static_cast<double>(attempted_ - failed_) / attempted_;
  }
  bool correct() const { return check_failures_ == 0 && failed_ == 0; }

  // Prints the table and the JSON line; returns the process exit code.
  int Finish(const std::string& title) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t check_failures_ = 0;
};

// Arguments every workload receives.
struct RunArgs {
  uint64_t seed = 1;
  int seconds = 20;
  std::string scratch_dir;  // delta-log directories live under it
};

// Appends the end-to-end metrics every workload reports: set-up time,
// per-request translate latency and throughput (already reduced by the
// workload's estimator), per-batch append latency, top-1 accuracy, success
// ratio and peak RSS.
struct EndToEnd {
  std::vector<double> setup_s;  // one per set-up in the run
  double translate_p50_ms = 0;
  double translate_p95_ms = 0;
  double translate_qps = 0;
  size_t translate_samples = 0;
  std::vector<double> append_ms;  // per AppendLogQueries batch
  size_t reads_judged = 0;
  size_t reads_correct = 0;

  // Best-of-K estimator: percentiles over each request's best latency,
  // throughput as requests over their summed best latencies.
  void SetBestOfK(const std::vector<double>& best_ms);
};
void ReportEndToEnd(const EndToEnd& e2e, Report* report);

// The two timed workloads (untraced) and the traced layer suite.
void RunColdTranslate(const RunArgs& args, const Corpus& corpus,
                      Report* report);
void RunAppendMix(const RunArgs& args, const Corpus& corpus, Report* report);
void RunTracedLayers(const RunArgs& args, const Corpus& corpus,
                     Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
