// The two timed workloads. Each runs in its own process with one client
// thread in a closed loop (the next request is sent only after the previous
// one completed) and does a fixed amount of work set by --seconds.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"

namespace perfbench {

namespace service = templar::service;
using templar::Rng;

namespace {

// Rounds of set-up plus the append stream in cold_translate, spread over
// the run. A round takes about 30 ms; best of 10 still spread over
// 0.15-0.23 of the median across ten runs.
constexpr size_t kAppendRounds = 30;

size_t Scaled(int seconds, double per_second, size_t floor) {
  return std::max(floor,
                  static_cast<size_t>(std::lround(seconds * per_second)));
}

// Times one AppendLogQueries batch; records the operation.
double TimedAppend(service::ServiceCore& target, const AppendBatch& batch,
                   size_t at, Report* report) {
  const Clock::time_point start = Clock::now();
  auto outcome = target.AppendLogQueries(batch.entries);
  const double ms = MsBetween(start, Clock::now());
  report->Op(outcome.ok() && outcome->appended == batch.entries.size(),
             "AppendLogQueries", at);
  return ms;
}

}  // namespace

// cold_translate: K replays; each builds three fresh cores whose result
// caches hold one entry and runs all 449 gold parses in a fresh seeded
// shuffle (every request computes). Each replay then appends the seeded
// batch stream to its cores and to further fresh cores, kAppendRounds in
// all. Each operation's latency is its best of K (appends: of the rounds).
void RunColdTranslate(const RunArgs& args, const Corpus& corpus,
                      Report* report) {
  const size_t replays = Scaled(args.seconds, 1.0 / 3, 3);
  const size_t n = corpus.items.size();
  const std::vector<AppendBatch> stream = MakeAppendStream(corpus, args.seed);
  Rng rng(args.seed);

  EndToEnd e2e;
  std::vector<double> best_read, best_append;
  std::vector<std::string> top1(n);
  for (size_t k = 0; k < replays; ++k) {
    std::vector<std::unique_ptr<service::ServiceCore>> cores;
    e2e.setup_s.push_back(CreateCores(corpus, CoreOptions(1), {}, &cores));

    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    rng.Shuffle(&order);
    std::vector<double> read_ms(n);
    for (size_t i : order) {
      const service::QueryRequest request = TranslateRequest(corpus, i);
      const Clock::time_point start = Clock::now();
      auto response = cores[corpus.items[i].dataset]->Translate(request);
      read_ms[i] = MsBetween(start, Clock::now());
      bool ok = response.ok() &&
                response->served_from == service::ServedFrom::kComputed &&
                !response->translations.empty();
      if (ok && k == 0) {
        top1[i] = Top1(*response);
        ++e2e.reads_judged;
        if (FqCorrect(corpus.Gold(corpus.items[i]), *response)) {
          ++e2e.reads_correct;
        }
      } else if (ok) {
        ok = Top1(*response) == top1[i];
      }
      report->Op(ok, "cold Translate (computed, top-1 stable across replays)",
                 i);
    }
    KeepBest(&best_read, read_ms);
    std::fprintf(stderr, "cold replay %zu: %.1f ms of translate\n", k,
                 Sum(read_ms));

    for (size_t round = k; round < kAppendRounds; round += replays) {
      if (round != k) {
        e2e.setup_s.push_back(CreateCores(corpus, CoreOptions(1), {}, &cores));
      }
      std::vector<double> append_ms;
      for (size_t b = 0; b < stream.size(); ++b) {
        append_ms.push_back(
            TimedAppend(*cores[stream[b].dataset], stream[b], b, report));
      }
      KeepBest(&best_append, append_ms);
    }
  }
  e2e.SetBestOfK(best_read);
  e2e.append_ms = best_append;
  ReportEndToEnd(e2e, report);
}

// append_mix: K replays from fresh state of one seeded stream — Zipf-skewed
// reads over the gold parses with an append batch after every 10th read —
// against three cores with default cache capacities, each the writer of a
// delta log (fsync_appends off) in a fresh directory. Each operation's
// latency is its best of K.
void RunAppendMix(const RunArgs& args, const Corpus& corpus, Report* report) {
  const size_t replays = Scaled(args.seconds, 1.0 / 6, 3);
  std::vector<AppendBatch> batches;
  const std::vector<MixOp> ops = MakeMixStream(corpus, args.seed, &batches);
  service::ServiceOptions options = CoreOptions(4096);
  options.replication.fsync_appends = false;

  EndToEnd e2e;
  // Three writer cores, each logging to a fresh directory under `dir`.
  auto set_up = [&](const std::filesystem::path& dir,
                    std::vector<std::unique_ptr<service::ServiceCore>>* cores) {
    std::filesystem::remove_all(dir);
    std::vector<std::string> log_dirs;
    for (const char* name : kDatasetNames) {
      std::filesystem::create_directories(dir / name);
      log_dirs.push_back((dir / name).string());
    }
    e2e.setup_s.push_back(CreateCores(corpus, options, log_dirs, cores));
  };

  std::vector<double> best_read, best_append;
  std::vector<std::string> top1;
  std::vector<service::ServedFrom> served;
  for (size_t k = 0; k < replays; ++k) {
    // setup_s is the median of kAppendRounds set-ups spread over the
    // replays; a replay runs on the first of its share.
    const std::filesystem::path dir =
        std::filesystem::path(args.scratch_dir) / "mix";
    std::vector<std::unique_ptr<service::ServiceCore>> cores;
    for (size_t round = k + replays; round < kAppendRounds; round += replays) {
      set_up(dir, &cores);
      cores.clear();
    }
    set_up(dir, &cores);

    std::vector<double> read_ms, append_ms;
    size_t read = 0;
    for (const MixOp& op : ops) {
      if (op.append) {
        const AppendBatch& batch = batches[op.index];
        append_ms.push_back(
            TimedAppend(*cores[batch.dataset], batch, op.index, report));
        continue;
      }
      const Item& item = corpus.items[op.index];
      const service::QueryRequest request = TranslateRequest(corpus, op.index);
      const Clock::time_point start = Clock::now();
      auto response = cores[item.dataset]->Translate(request);
      read_ms.push_back(MsBetween(start, Clock::now()));
      bool ok = response.ok() && !response->translations.empty();
      if (k == 0) {
        top1.push_back(ok ? Top1(*response) : "");
        served.push_back(ok ? response->served_from
                            : service::ServedFrom::kComputed);
      } else if (ok) {
        ok = Top1(*response) == top1[read] &&
             response->served_from == served[read];
      }
      report->Op(ok, "mix Translate (top-1 and disposition stable)", read);
      ++read;
    }
    if (k == 0) {
      // Accuracy after online ingestion: one untimed read of every gold
      // parse at the end of the stream. Judged over the Zipf-skewed reads,
      // where a few hot parses carry most of the weight, the figure moved
      // from 0.74 to 0.85 between seeds.
      for (size_t i = 0; i < corpus.items.size(); ++i) {
        auto response = cores[corpus.items[i].dataset]->Translate(
            TranslateRequest(corpus, i));
        const bool ok = response.ok() && !response->translations.empty();
        report->Op(ok, "mix end-of-stream Translate", i);
        ++e2e.reads_judged;
        if (ok && FqCorrect(corpus.Gold(corpus.items[i]), *response)) {
          ++e2e.reads_correct;
        }
      }
    }
    KeepBest(&best_read, read_ms);
    KeepBest(&best_append, append_ms);
    std::fprintf(stderr, "mix replay %zu: %.1f ms of translate\n", k,
                 Sum(read_ms));
    cores.clear();
    std::filesystem::remove_all(dir);
  }
  e2e.SetBestOfK(best_read);
  e2e.append_ms = best_append;
  ReportEndToEnd(e2e, report);
}

}  // namespace perfbench
