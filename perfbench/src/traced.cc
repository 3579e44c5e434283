// The traced run: per-layer numbers measured from outside the program, by
// timing calls into each module's public functions. Four sections:
//
//  cold    the 449 gold parses through ServiceCore::Translate on
//          capacity-1 cores, back to back over the bare lexicon and over a
//          counting, timing SimilarityModel decorator. Stage times come from
//          QueryResponse::timings, map self time is map minus embed time,
//          and the join counts come from the map and join stage requests.
//  hot     TenantHandle::Translate cache hits in-process vs WireClient
//          round trips to the same warm host, and the wire bytes.
//  append  a fixed append_mix stream: Stats() counters, sql::Parse and
//          AppendLogQueries cost per entry, delta-log bytes per entry; its
//          reads must equal a replay with capacity-1 caches.
//  setup   dataset generation and per-dataset ServiceCore::Create.
//
// Count metrics (calls, configurations, paths, cache counters, bytes) do
// not depend on --seed, so they repeat exactly from run to run.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "embed/similarity_model.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "replication/graph_log.h"
#include "service/tenant_registry.h"
#include "sql/parser.h"

namespace perfbench {

namespace net = templar::net;
namespace service = templar::service;
using templar::Result;
using templar::Rng;
using templar::Status;

namespace {

// ---------------------------------------------------------------------------
// The embed decorator
// ---------------------------------------------------------------------------

// Forwards every call unchanged to the dataset lexicon; counts the calls
// and sums their wall time.
class TracedSimilarity final : public templar::embed::SimilarityModel {
 public:
  explicit TracedSimilarity(const templar::embed::SimilarityModel* inner)
      : inner_(inner) {}

  double WordSimilarity(std::string_view a,
                        std::string_view b) const override {
    const Clock::time_point start = Clock::now();
    const double similarity = inner_->WordSimilarity(a, b);
    Record(start, &word_calls_);
    return similarity;
  }
  double PhraseSimilarity(std::string_view a,
                          std::string_view b) const override {
    const Clock::time_point start = Clock::now();
    const double similarity = inner_->PhraseSimilarity(a, b);
    Record(start, &phrase_calls_);
    return similarity;
  }

  uint64_t word_calls() const { return word_calls_.load(); }
  uint64_t phrase_calls() const { return phrase_calls_.load(); }
  double busy_ms() const {
    return static_cast<double>(busy_ns_.load()) / 1e6;
  }

 private:
  void Record(Clock::time_point start, std::atomic<uint64_t>* calls) const {
    busy_ns_.fetch_add(static_cast<uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - start)
                               .count()),
                       std::memory_order_relaxed);
    calls->fetch_add(1, std::memory_order_relaxed);
  }

  const templar::embed::SimilarityModel* inner_;
  mutable std::atomic<uint64_t> word_calls_{0};
  mutable std::atomic<uint64_t> phrase_calls_{0};
  mutable std::atomic<uint64_t> busy_ns_{0};
};

std::vector<size_t> Shuffled(size_t n, Rng* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng->Shuffle(&order);
  return order;
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

double Ms(std::chrono::microseconds us) {
  return static_cast<double>(us.count()) / 1000.0;
}

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

constexpr size_t kColdRounds = 3;

// One traced ServiceCore::Translate: its wall time and where it went.
struct Breakdown {
  double total_ms = std::numeric_limits<double>::infinity();
  double map_ms = 0;
  double join_ms = 0;
  double assemble_ms = 0;
  double embed_ms = 0;
  uint64_t embed_calls = 0;
};

void ColdSection(const RunArgs& args, const Corpus& corpus, Report* report) {
  const size_t n = corpus.items.size();
  Rng rng(args.seed);
  std::vector<std::unique_ptr<TracedSimilarity>> models;
  for (const auto& dataset : corpus.datasets) {
    models.push_back(
        std::make_unique<TracedSimilarity>(dataset.lexicon.get()));
  }

  // Each round builds fresh capacity-1 cores, bare and traced, and runs
  // every request through both back to back, so host drift hits both sides
  // of tracing.overhead alike. Each request's breakdown comes from its
  // fastest traced round.
  std::vector<double> bare_best;
  std::vector<Breakdown> best(n);
  std::vector<std::vector<double>> build_s(kDatasets);
  uint64_t word_calls = 0, phrase_calls = 0;
  uint64_t configurations = 0, join_calls = 0, join_paths = 0;
  for (size_t k = 0; k < kColdRounds; ++k) {
    std::vector<std::unique_ptr<service::ServiceCore>> bare, traced;
    std::vector<double> per_dataset;
    CreateCores(corpus, CoreOptions(1), {}, &bare, &per_dataset);
    for (size_t d = 0; d < kDatasets; ++d) {
      build_s[d].push_back(per_dataset[d]);
      const auto& dataset = corpus.datasets[d];
      auto core = service::ServiceCore::Create(
          dataset.database.get(), models[d].get(), dataset.extra_log,
          CoreOptions(1));
      report->Check(core.ok(), "ServiceCore::Create over the decorator");
      if (!core.ok()) return;
      traced.push_back(std::move(*core));
    }

    std::vector<double> bare_ms(n);
    for (size_t i : Shuffled(n, &rng)) {
      const size_t d = corpus.items[i].dataset;
      const service::QueryRequest request = TranslateRequest(corpus, i);
      Result<service::QueryResponse> plain = Status::Internal("unset");
      auto run_bare = [&] {
        const Clock::time_point start = Clock::now();
        plain = bare[d]->Translate(request);
        bare_ms[i] = MsBetween(start, Clock::now());
      };
      // The second of two back-to-back runs finds warmer caches, so the
      // two sides take turns going first.
      const bool bare_first = (i + k) % 2 == 0;
      if (bare_first) run_bare();
      const double embed_before = models[d]->busy_ms();
      const uint64_t calls_before =
          models[d]->word_calls() + models[d]->phrase_calls();
      const Clock::time_point start = Clock::now();
      auto decorated = traced[d]->Translate(request);
      const double total_ms = MsBetween(start, Clock::now());
      const double embed_ms = models[d]->busy_ms() - embed_before;
      const uint64_t embed_calls =
          models[d]->word_calls() + models[d]->phrase_calls() - calls_before;
      if (!bare_first) run_bare();
      const bool ok =
          plain.ok() && decorated.ok() &&
          decorated->served_from == service::ServedFrom::kComputed &&
          !decorated->translations.empty() && Top1(*plain) == Top1(*decorated);
      report->Op(ok, "decorated top-1 equals bare ServiceCore::Translate", i);
      if (ok && total_ms < best[i].total_ms) {
        best[i] = {total_ms,
                   Ms(decorated->timings.map),
                   Ms(decorated->timings.join),
                   Ms(decorated->timings.assemble), embed_ms, embed_calls};
      }

      if (k == 0) {
        // Join work per configuration, from the map and join stage
        // requests (untimed): one InferJoins per configuration, as the
        // translate pipeline runs it.
        auto configs =
            bare[d]->MapKeywords(corpus.Gold(corpus.items[i]).gold_parse);
        report->Op(configs.ok(), "ServiceCore::MapKeywords", i);
        if (!configs.ok()) continue;
        configurations += configs->size();
        for (const auto& config : *configs) {
          auto paths = bare[d]->InferJoins(config.RelationBag());
          ++join_calls;
          if (paths.ok()) join_paths += paths->size();
        }
      }
    }
    KeepBest(&bare_best, bare_ms);
    if (k == 0) {
      for (const auto& model : models) {
        word_calls += model->word_calls();
        phrase_calls += model->phrase_calls();
      }
    }
  }

  double total = 0, map = 0, join = 0, assemble = 0, embed = 0;
  uint64_t embed_calls = 0;
  double ds_total[kDatasets] = {}, ds_map[kDatasets] = {},
         ds_join[kDatasets] = {};
  std::vector<double> traced_best(n);
  for (size_t i = 0; i < n; ++i) {
    const Breakdown& b = best[i];
    const size_t d = corpus.items[i].dataset;
    traced_best[i] = b.total_ms;
    total += b.total_ms;
    map += b.map_ms;
    join += b.join_ms;
    assemble += b.assemble_ms;
    embed += b.embed_ms;
    embed_calls += b.embed_calls;
    ds_total[d] += b.total_ms;
    ds_map[d] += b.map_ms;
    ds_join[d] += b.join_ms;
  }

  const double queries = static_cast<double>(n);
  report->Metric("embed.calls_per_query",
                 static_cast<double>(word_calls + phrase_calls) / queries,
                 "count", n);
  report->Metric("embed.phrase_calls_per_query",
                 static_cast<double>(phrase_calls) / queries, "count", n);
  report->Metric("embed.us_per_call",
                 1000.0 * Ratio(embed, static_cast<double>(embed_calls)), "us",
                 embed_calls);
  report->Metric("embed.share", Ratio(embed, total), "ratio", n);
  report->Metric("map.ms_per_query", map / queries, "ms", n);
  report->Metric("map.self_share", Ratio(map - embed, total), "ratio", n);
  report->Metric("map.configs_per_query",
                 static_cast<double>(configurations) / queries, "count", n);
  for (size_t d = 0; d < kDatasets; ++d) {
    report->Metric(std::string("map.share.") + kDatasetNames[d],
                   Ratio(ds_map[d], ds_total[d]), "ratio",
                   corpus.datasets[d].benchmark.size());
  }
  report->Metric("join.calls_per_query",
                 static_cast<double>(join_calls) / queries, "count", n);
  report->Metric("join.ms_per_call",
                 Ratio(join, static_cast<double>(join_calls)), "ms",
                 join_calls);
  report->Metric("join.paths_per_call",
                 Ratio(static_cast<double>(join_paths),
                       static_cast<double>(join_calls)),
                 "count", join_calls);
  for (size_t d = 0; d < kDatasets; ++d) {
    report->Metric(std::string("join.share.") + kDatasetNames[d],
                   Ratio(ds_join[d], ds_total[d]), "ratio",
                   corpus.datasets[d].benchmark.size());
  }
  report->Metric("assemble.ms_per_query", assemble / queries, "ms", n);
  report->Metric("assemble.share", Ratio(assemble, total), "ratio", n);
  report->Metric("tracing.overhead",
                 Ratio(Percentile(traced_best, 0.5),
                       Percentile(bare_best, 0.5)),
                 "ratio", n);

  report->Metric("setup.datasets_s", corpus.build_s, "s", 1);
  for (size_t d = 0; d < kDatasets; ++d) {
    report->Metric(std::string("setup.build_s.") + kDatasetNames[d],
                   Min(build_s[d]), "s", build_s[d].size());
  }
}

// The serving stack of the hot section: one ServiceHost with the three
// tenants behind one loopback WireServer (two workers), and one WireClient
// per tenant.
struct WireStack {
  std::unique_ptr<service::ServiceHost> host;
  std::unique_ptr<net::WireServer> server;
  std::vector<std::unique_ptr<net::WireClient>> clients;
  std::vector<service::TenantHandle> tenants;

  ~WireStack() {
    for (auto& client : clients) client->Close();
    if (server) server->Stop();
  }
};

std::unique_ptr<WireStack> StartWireStack(const Corpus& corpus,
                                          Report* report) {
  auto stack = std::make_unique<WireStack>();
  service::HostOptions host_options;
  host_options.worker_threads = 1;
  stack->host = std::make_unique<service::ServiceHost>(host_options);
  for (size_t d = 0; d < kDatasets; ++d) {
    const auto& dataset = corpus.datasets[d];
    templar::Status status = stack->host->RegisterTenant(
        kDatasetNames[d], dataset.database.get(), dataset.lexicon.get(),
        dataset.extra_log);
    report->Check(status.ok(), "RegisterTenant: " + status.ToString());
    if (!status.ok()) return nullptr;
    stack->tenants.push_back(*stack->host->Tenant(kDatasetNames[d]));
  }
  net::WireServerOptions server_options;
  server_options.worker_threads = 2;
  auto server = net::WireServer::Start(stack->host.get(), server_options);
  report->Check(server.ok(), "WireServer::Start");
  if (!server.ok()) return nullptr;
  stack->server = std::move(*server);
  for (size_t d = 0; d < kDatasets; ++d) {
    net::WireClientOptions client_options;
    client_options.port = stack->server->port();
    client_options.tenant = kDatasetNames[d];
    auto client = net::WireClient::Connect(client_options);
    report->Check(client.ok(), "WireClient::Connect");
    if (!client.ok()) return nullptr;
    stack->clients.push_back(std::move(*client));
  }
  return stack;
}

constexpr size_t kHotLaps = 40;

void HotSection(const RunArgs& args, const Corpus& corpus, Report* report) {
  const size_t n = corpus.items.size();
  Rng rng(args.seed ^ 0x407ULL);
  std::unique_ptr<WireStack> stack = StartWireStack(corpus, report);
  if (!stack) return;

  // Warm-up lap: every wire ranking must equal the in-process one, which
  // every timed request then receives from the cache.
  std::vector<net::WireRequest> requests(n);
  std::vector<std::vector<net::WireTranslation>> expected(n);
  double request_bytes = 0, response_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t d = corpus.items[i].dataset;
    requests[i] = net::WireRequest::FromQueryRequest(
        TranslateRequest(corpus, i), Clock::now());
    auto warm = stack->clients[d]->Translate(requests[i]);
    auto local = stack->tenants[d].Translate(TranslateRequest(corpus, i));
    const net::WireResponse hit =
        local.ok() ? net::WireResponse::FromQueryResponse(*local)
                   : net::WireResponse{};
    report->Op(warm.ok() && local.ok() && !hit.translations.empty() &&
                   warm->translations == hit.translations,
               "warm-up wire Translate equals in-process ranking", i);
    expected[i] = hit.translations;
    std::string bytes;
    net::SerializeWireRequest(requests[i], &bytes);
    request_bytes += static_cast<double>(bytes.size());
    bytes.clear();
    net::SerializeWireResponse(hit, &bytes);
    response_bytes += static_cast<double>(bytes.size());
  }

  // Alternate in-process and wire laps so host drift hits both alike.
  std::vector<double> hit_us, wire_us;
  for (size_t lap = 0; lap < kHotLaps; ++lap) {
    for (size_t i : Shuffled(n, &rng)) {
      const size_t d = corpus.items[i].dataset;
      const service::QueryRequest request = TranslateRequest(corpus, i);
      const Clock::time_point start = Clock::now();
      auto local = stack->tenants[d].Translate(request);
      hit_us.push_back(1000.0 * MsBetween(start, Clock::now()));
      report->Op(
          local.ok() && local->served_from == service::ServedFrom::kCache,
          "in-process Translate cache hit", i);
    }
    for (size_t i : Shuffled(n, &rng)) {
      const Clock::time_point start = Clock::now();
      auto remote =
          stack->clients[corpus.items[i].dataset]->Translate(requests[i]);
      wire_us.push_back(1000.0 * MsBetween(start, Clock::now()));
      report->Op(remote.ok() &&
                     remote->served_from ==
                         static_cast<uint8_t>(service::ServedFrom::kCache) &&
                     remote->translations == expected[i],
                 "wire Translate cache hit with the in-process ranking", i);
    }
  }
  uint64_t retransmits = 0;
  for (const auto& client : stack->clients) {
    retransmits += client->Stats().retransmitted_requests;
  }
  report->Check(retransmits == 0, "wire retransmits == 0");

  const double hit_p50 = Percentile(hit_us, 0.5);
  report->Metric("service.hit_us", hit_p50, "us", hit_us.size());
  report->Metric("net.overhead_us", Percentile(wire_us, 0.5) - hit_p50, "us",
                 wire_us.size());
  report->Metric("net.request_bytes", request_bytes / n, "bytes", n);
  report->Metric("net.response_bytes", response_bytes / n, "bytes", n);
  report->Metric("net.retransmits", static_cast<double>(retransmits), "count",
                 wire_us.size());
}

// The append section's stream does not depend on --seed, so its counters
// repeat exactly.
constexpr uint64_t kAppendSeed = 1;

void AppendSection(const RunArgs& args, const Corpus& corpus,
                   Report* report) {
  std::vector<AppendBatch> batches;
  const std::vector<MixOp> ops = MakeMixStream(corpus, kAppendSeed, &batches);

  // Writer cores with default caches, logging to fresh directories.
  const std::filesystem::path dir =
      std::filesystem::path(args.scratch_dir) / "traced";
  std::filesystem::remove_all(dir);
  std::vector<std::string> log_dirs;
  for (const char* name : kDatasetNames) {
    std::filesystem::create_directories(dir / name);
    log_dirs.push_back((dir / name).string());
  }
  std::vector<std::unique_ptr<service::ServiceCore>> cores;
  service::ServiceOptions options = CoreOptions(4096);
  options.replication.fsync_appends = false;
  CreateCores(corpus, options, log_dirs, &cores);
  auto log_bytes = [&] {
    uintmax_t total = 0;
    for (const std::string& log_dir : log_dirs) {
      total += std::filesystem::file_size(
          templar::replication::GraphLog::LogPath(log_dir));
    }
    return static_cast<double>(total);
  };
  const double log_start = log_bytes();

  // Capacity-1 cores: every read recomputes at the same epoch.
  std::vector<std::unique_ptr<service::ServiceCore>> cold;
  CreateCores(corpus, CoreOptions(1), {}, &cold);

  double parse_ms = 0, append_ms = 0;
  size_t entries = 0, read = 0;
  for (const MixOp& op : ops) {
    if (op.append) {
      const AppendBatch& batch = batches[op.index];
      Clock::time_point start = Clock::now();
      bool parsed = true;
      for (const std::string& entry : batch.entries) {
        parsed = templar::sql::Parse(entry).ok() && parsed;
      }
      parse_ms += MsBetween(start, Clock::now());
      start = Clock::now();
      auto outcome = cores[batch.dataset]->AppendLogQueries(batch.entries);
      append_ms += MsBetween(start, Clock::now());
      auto cold_outcome = cold[batch.dataset]->AppendLogQueries(batch.entries);
      const bool ok = parsed && outcome.ok() && cold_outcome.ok() &&
                      outcome->appended == batch.entries.size();
      report->Op(ok, "traced AppendLogQueries", op.index);
      if (ok) entries += outcome->appended;
      continue;
    }
    const size_t d = corpus.items[op.index].dataset;
    const service::QueryRequest request = TranslateRequest(corpus, op.index);
    auto cached = cores[d]->Translate(request);
    auto fresh = cold[d]->Translate(request);
    report->Op(cached.ok() && fresh.ok() && Top1(*cached) == Top1(*fresh),
               "mix read equals capacity-1 replay", read);
    ++read;
  }

  uint64_t hits = 0, lookups = 0, invalidated = 0, retained = 0, batches_n = 0;
  for (const auto& core : cores) {
    const service::ServiceStats stats = core->Stats();
    hits += stats.translate_cache.hits;
    lookups += stats.translate_cache.hits + stats.translate_cache.misses;
    invalidated += stats.translate_cache.invalidated;
    retained += stats.translate_cache.retained;
    batches_n += stats.append_batches;
  }
  const double appended = static_cast<double>(entries);
  report->Metric("service.translate_hit_ratio",
                 Ratio(static_cast<double>(hits), static_cast<double>(lookups)),
                 "ratio", lookups);
  report->Metric("service.invalidated_per_append",
                 Ratio(static_cast<double>(invalidated),
                       static_cast<double>(batches_n)),
                 "count", batches_n);
  report->Metric("service.retained_ratio",
                 Ratio(static_cast<double>(retained),
                       static_cast<double>(retained + invalidated)),
                 "ratio", batches_n);
  report->Metric("ingest.parse_us_per_entry", 1000.0 * parse_ms / appended,
                 "us", entries);
  report->Metric("ingest.append_us_per_entry", 1000.0 * append_ms / appended,
                 "us", entries);
  report->Metric("replication.log_bytes_per_entry",
                 (log_bytes() - log_start) / appended, "bytes", entries);
  cores.clear();
  std::filesystem::remove_all(dir);
}

}  // namespace

void RunTracedLayers(const RunArgs& args, const Corpus& corpus,
                     Report* report) {
  ColdSection(args, corpus, report);
  HotSection(args, corpus, report);
  AppendSection(args, corpus, report);
}

}  // namespace perfbench
