// The AIMS benchmark: drives a real AimsServer through its typed API on the
// durable FileBlockDevice + WAL (real fsync, no modeled disk sleeps) under
// one of three workloads, checks every answer, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as one JSON line.
//
//   aims_bench --workload ingest_mixed|query_olap|live_recognition
//              --seed N --seconds S --trace 0|1 --workdir DIR
//
// See README.md next to this file for the workloads, the metric -> layer
// -> workload map, and the sizes and flush policy.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "acquisition/sampler.h"
#include "bench_util.h"
#include "common/rng.h"
#include "harness.h"
#include "server/server.h"
#include "synth/cyberglove.h"
#include "synth/virtual_classroom.h"

namespace aimsbench {
namespace {

namespace fs = std::filesystem;
using aims::Result;
using aims::Rng;
using aims::Status;
using aims::StatusCode;
using aims::server::AimsServer;
using aims::server::ClientId;
using aims::server::ExplainMode;
using aims::server::GlobalSessionId;
using aims::server::QueryOutcome;
using aims::server::QueryRequest;
using aims::server::QueryState;
using aims::server::ServerConfig;
using aims::streams::Recording;

// ---------------------------------------------------------------- sizing
// Closed-loop client threads per workload (capped by the host's cores);
// server shards and executor width equal it. On a shared host the cores a
// process gets at once vary from minute to minute, and a run with more busy
// threads than it gets measures the host's scheduler. ingest_mixed's clients
// mostly wait on fsync and shard locks (about 1.5 cores busy with 4), so it
// keeps 4; the CPU-bound read and recognition workloads use 2.
constexpr size_t kIngestClients = 4;
constexpr size_t kOlapClients = 2;
constexpr size_t kLiveClients = 2;
// live_recognition (b): sender threads shared by the open-loop streams. They
// sleep until a batch is due; one per core, so a slow batch on one stream
// rarely holds back another stream's send.
constexpr size_t kLiveSenders = 4;
// Block cache per shard. query_olap preloads several times the total.
constexpr size_t kCachePerShardBytes = 1u << 20;
// query_olap stores one session per length quantile (a power of two, for
// the popularity order).
constexpr size_t kOlapSessions = 64;
static_assert((kOlapSessions & (kOlapSessions - 1)) == 0);
// ingest_mixed: sessions per client per second of --seconds (fixed work),
// plus untimed warm-up sessions per client.
constexpr double kIngestSessionsPerClientPerSecond = 10.0;
constexpr size_t kIngestWarmupPerClient = 4;
constexpr size_t kIngestPoolPerClient = 24;
// live_recognition: open-loop streams, their frame rate and batch size.
constexpr size_t kLiveStreams = 8;
constexpr size_t kBatchFrames = 10;
constexpr double kGloveHz = aims::synth::kGloveSampleRateHz;
// Every Nth exact query runs with EXPLAIN ANALYZE and must reconcile.
constexpr uint64_t kAnalyzeEvery = 8;
// ingest_mixed: the first ANALYZE queries are also re-run one at a time
// after the measured phase, where nothing else moves the cache.
constexpr size_t kQuiescentAnalyze = 64;
// query_olap: ANALYZE queries per analyst, run one at a time on a cold
// cache after the measured phase (see QueryOlap::Run for why).
constexpr size_t kOlapAnalyzePerClient = 256;
// query_olap: queries drawn per analyst (issued in turn, cycling), and
// untimed ones per analyst before the clock starts.
constexpr size_t kOlapPoolPerClient = 16384;
constexpr uint64_t kOlapWarmupPerClient = 1000;
// Timed queries per analyst in each half of a --trace 1 run of query_olap.
constexpr uint64_t kTracedQueriesPerClient = 30000;
// ingest_mixed and live_recognition run in this many rounds.
constexpr size_t kRounds = 3;
// Closed-loop throughput (query_olap, live_recognition) is the median of
// the rates over windows of about this many seconds.
constexpr double kWindowS = 0.5;
// Setups per run of a workload whose setup takes milliseconds (query_olap,
// whose preload takes seconds, sets up kSlowSetups times); setup_s is
// their median.
constexpr size_t kFastSetups = 41;
constexpr size_t kSlowSetups = 3;

size_t NumClients(size_t want) {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<size_t>(want, hw == 0 ? 1 : hw));
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
};

// ------------------------------------------------------------- accounting
/// Operations attempted, and those that failed, were refused by admission,
/// or returned a wrong answer.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> refused{0};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> reported{0};

  void Op() { attempted.fetch_add(1, std::memory_order_relaxed); }
  void Failed(const Status& s, const char* what) {
    if (s.code() == StatusCode::kResourceExhausted) {
      refused.fetch_add(1);
    } else {
      failed.fetch_add(1);
    }
    Note(what, s.ToString());
  }
  void Wrong(const char* what, const std::string& why) {
    wrong.fetch_add(1);
    Note(what, why);
  }
  uint64_t bad() const { return failed + refused + wrong; }

 private:
  void Note(const char* what, const std::string& why) {
    if (reported.fetch_add(1) < 20) {
      std::fprintf(stderr, "aims_bench: %s: %s\n", what, why.c_str());
    }
  }
};

// ------------------------------------------------------------ ground truth
/// Prefix sums of one recording's channels: the exact answer (and the
/// magnitude it is compared at) of any range query over what was ingested.
struct Truth {
  size_t frames = 0;
  size_t channels = 0;
  std::vector<std::vector<double>> sum;  // [channel][frame + 1]
  std::vector<std::vector<double>> mass;

  explicit Truth(const Recording& rec)
      : frames(rec.num_frames()), channels(rec.num_channels()) {
    sum.assign(channels, std::vector<double>(frames + 1, 0.0));
    mass.assign(channels, std::vector<double>(frames + 1, 0.0));
    for (size_t c = 0; c < channels; ++c) {
      for (size_t f = 0; f < frames; ++f) {
        const double v = rec.frames[f].values[c];
        sum[c][f + 1] = sum[c][f] + v;
        mass[c][f + 1] = mass[c][f] + std::fabs(v);
      }
    }
  }
  double Sum(size_t c, size_t a, size_t b) const {
    return sum[c][b + 1] - sum[c][a];
  }
  double Mass(size_t c, size_t a, size_t b) const {
    return mass[c][b + 1] - mass[c][a];
  }
};

/// Draws a frame range of a stored session: length log-uniform from one
/// second of frames to the whole session, start uniform.
std::pair<size_t, size_t> DrawRange(Rng& rng, const Truth& t, double rate_hz) {
  const double min_len = std::min<double>(rate_hz, static_cast<double>(t.frames));
  const double len = std::exp(
      rng.Uniform(std::log(min_len), std::log(static_cast<double>(t.frames))));
  const size_t n = std::clamp<size_t>(static_cast<size_t>(len), 1, t.frames);
  const size_t first = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(t.frames - n)));
  return {first, first + n - 1};
}

/// The exact range query of \p channel over \p range.
QueryRequest MakeQuery(GlobalSessionId session, size_t channel,
                       std::pair<size_t, size_t> range) {
  QueryRequest q;
  q.session = session;
  q.channel = channel;
  q.first_frame = range.first;
  q.last_frame = range.second;
  return q;
}

/// Empty when the outcome answers \p q correctly against \p t.
std::string CheckQuery(const QueryRequest& q, const QueryOutcome& o,
                       const Truth& t) {
  char buf[256];
  if (!o.status.ok()) return "status " + o.status.ToString();
  if (o.state != QueryState::kComplete) {
    return std::string("state ") + aims::server::QueryStateName(o.state);
  }
  const double exact = t.Sum(q.channel, q.first_frame, q.last_frame);
  const double tol = 1e-6 * std::max(t.Mass(q.channel, q.first_frame,
                                            q.last_frame), 1e-12);
  const double err = std::fabs(o.answer.sum - exact);
  if (o.answer.count != q.last_frame - q.first_frame + 1) return "count";
  if (q.target_error_bound == 0.0 && err > tol) {
    std::snprintf(buf, sizeof(buf), "exact sum %.17g != %.17g", o.answer.sum,
                  exact);
    return buf;
  }
  if (q.target_error_bound > 0.0 &&
      (err > o.answer.error_bound + tol ||
       o.answer.error_bound > q.target_error_bound + tol)) {
    std::snprintf(buf, sizeof(buf),
                  "bounded sum off by %.6g, bound %.6g, target %.6g", err,
                  o.answer.error_bound, q.target_error_bound);
    return buf;
  }
  if (q.explain == ExplainMode::kAnalyze) {
    if (!o.breakdown.has_value()) return "ANALYZE without breakdown";
    const auto& b = *o.breakdown;
    if (!b.reconciled) {
      std::snprintf(buf, sizeof(buf),
                    "ANALYZE not reconciled: fetched %zu of %zu predicted, "
                    "%zu cold of %zu predicted cold",
                    b.blocks_fetched, b.predicted_blocks, b.blocks_read,
                    b.predicted_cold_blocks);
      return buf;
    }
  }
  return "";
}

// ----------------------------------------------------------------- inputs
/// \p n session lengths in seconds, skewed: most are a few seconds, a few
/// run to about a minute (Pareto, shape 1.5, from 2 s, capped at 60 s).
/// Lengths are the distribution's quantiles at (i + 0.5) / n in a seeded
/// order, so every seed stores the same mix of lengths.
std::vector<double> SessionSeconds(Rng& rng, size_t n) {
  std::vector<double> secs(n);
  for (size_t i = 0; i < n; ++i) {
    const double tail = 1.0 - (static_cast<double>(i) + 0.5) / n;
    secs[i] = std::min(60.0, 2.0 * std::pow(tail, -1.0 / 1.5));
  }
  rng.Shuffle(&secs);
  return secs;
}

std::vector<size_t> AllSigns(const aims::synth::CyberGloveSimulator& sim) {
  std::vector<size_t> v(sim.vocabulary().size());
  for (size_t i = 0; i < v.size(); ++i) v[i] = i;
  return v;
}

/// Signs drawn uniformly from \p signs, enough to fill about \p seconds
/// with \p rest_s of rest after each.
std::vector<size_t> RandomScript(Rng& rng, double seconds,
                                 const std::vector<size_t>& signs,
                                 double rest_s) {
  std::vector<size_t> script(
      std::max<size_t>(1, static_cast<size_t>(seconds / (0.8 + rest_s))));
  for (size_t& sign : script) {
    sign = signs[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(signs.size()) - 1))];
  }
  return script;
}

/// A glove recording of \p script performed by \p subject with \p rest_s
/// between signs; ground-truth segments in \p truth (optional).
Recording MakeGloveRecording(aims::synth::CyberGloveSimulator& sim,
                             const aims::synth::SubjectProfile& subject,
                             const std::vector<size_t>& script, double rest_s,
                             std::vector<aims::synth::SignSegment>* truth) {
  auto rec = sim.GenerateSequence(script, subject, rest_s, truth);
  AIMS_CHECK(rec.ok());
  return rec.MoveValueUnsafe();
}

/// A glove recording of exactly \p seconds (at the glove's rate) of random
/// signs by a fresh subject, cut from a longer sequence.
Recording MakeGloveSession(aims::synth::CyberGloveSimulator& sim, Rng& rng,
                           double seconds) {
  const std::vector<size_t> signs = AllSigns(sim);
  // Twice the nominal sign count: enough even for the fastest signer.
  Recording rec = MakeGloveRecording(sim, sim.MakeSubject(),
                                     RandomScript(rng, 2.0 * seconds, signs, 0.9),
                                     0.9, nullptr);
  const size_t frames =
      static_cast<size_t>(seconds * aims::synth::kGloveSampleRateHz);
  AIMS_CHECK(rec.num_frames() >= frames);
  rec.frames.resize(frames);
  return rec;
}

/// Standard normal quantile, by bisection on the CDF.
double NormalQuantile(double p) {
  double lo = -8.0, hi = 8.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

Recording MakeClassroomRecording(uint64_t seed, double seconds) {
  aims::synth::ClassroomConfig config;
  config.session_duration_s = seconds;
  aims::synth::VirtualClassroomSimulator sim(config, seed);
  return sim
      .GenerateSession(seed % 2 == 0 ? aims::synth::SubjectGroup::kControl
                                     : aims::synth::SubjectGroup::kAdhd)
      .recording;
}

// ----------------------------------------------------------------- server
ServerConfig MakeConfig(const std::string& store_dir, bool tracing,
                        size_t clients) {
  ServerConfig config;
  config.num_shards = clients;
  config.num_threads = clients;
  config.system.durability.path = store_dir;
  config.system.durability.sync_mode = aims::storage::durable::WalSyncMode::kFsync;
  config.system.durability.group_commit_ms = 0.0;
  config.system.disk_cost.simulate_io_wait = false;
  config.system.block_cache.capacity_bytes = kCachePerShardBytes;
  config.obs.enable_tracing = tracing;
  config.obs.trace_capacity = size_t{1} << 22;
  return config;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void OpenOrDie(AimsServer& server, ClientId client, bool recognition) {
  auto opened = server.OpenSession({client, recognition});
  if (!opened.ok()) {
    std::fprintf(stderr, "aims_bench: OpenSession(%" PRIu64 "): %s\n",
                 static_cast<uint64_t>(client),
                 opened.status().ToString().c_str());
    std::exit(3);
  }
}

/// Server traces keyed by label, oldest first, for grafting under the bench
/// spans that caused them. Checks that the ring dropped nothing.
struct TraceIndex {
  std::map<std::string, std::deque<aims::obs::Trace>> by_label;
  uint64_t dropped = 0;
  uint64_t unmatched = 0;

  explicit TraceIndex(AimsServer& server) {
    dropped = server.tracer().dropped();
    for (aims::obs::Trace& t : server.tracer().Snapshot()) {
      by_label[t.label()].push_back(std::move(t));
    }
  }
  void Graft(RequestTree& tree, int parent, const std::string& label) {
    auto it = by_label.find(label);
    if (it == by_label.end() || it->second.empty()) {
      ++unmatched;
      return;
    }
    tree.Attach(it->second.front(), parent);
    it->second.pop_front();
  }
};

/// What one measured phase of a workload yields.
struct Phase {
  double throughput = 0.0;   // work units per second
  double latency_p50 = 0.0;  // primary operation, ms
  double latency_p99 = 0.0;
  Report named;             // the workload's named end-to-end metrics
  LayerTimes layers;        // traced runs only
  Report counters;          // per-layer counters and ratios
};

/// Per-layer metrics every traced run prints (0 where a layer does no work
/// on the workload).
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"acquisition.sample_ms.p50", "ms"},
      {"acquisition.sessions", "count"},
      {"server.ingest.queue_wait_ms.p50", "ms"},
      {"server.ingest.queue_wait_ms.p99", "ms"},
      {"server.ingest.shard_lock_wait_ms.p99", "ms"},
      {"server.ingest.apply_lock_wait_ms.p99", "ms"},
      {"server.query.shard_lock_wait_ms.p99", "ms"},
      {"server.query.admission_wait_ms.p50", "ms"},
      {"server.query.admission_wait_ms.p99", "ms"},
      {"server.stream.overhead_ms.p50", "ms"},
      {"server.requests", "count"},
      {"server.rejected", "count"},
      {"signal.transform_ms.p50", "ms"},
      {"storage.block_write_ms.p50", "ms"},
      {"storage.ingests", "count"},
      {"storage.wal_sync_ms.p50", "ms"},
      {"storage.wal_sync_ms.p99", "ms"},
      {"storage.wal.commits", "count"},
      {"storage.wal.syncs", "count"},
      {"storage.wal.commits_per_sync", "ratio"},
      {"storage.checkpoints", "count"},
      {"storage.samples", "count"},
      {"storage.wal.bytes", "bytes"},
      {"storage.wal.bytes_per_sample", "B/sample"},
      {"storage.tslife.bytes", "bytes"},
      {"storage.tslife.bytes_per_sample", "B/sample"},
      {"storage.cache.hits", "count"},
      {"storage.cache.misses", "count"},
      {"storage.cache.hit_rate", "ratio"},
      {"storage.cache.evictions", "count"},
      {"storage.block_io_ms.p50", "ms"},
      {"propolyne.queries", "count"},
      {"propolyne.refinement_ms.p50", "ms"},
      {"propolyne.refinement_ms.p99", "ms"},
      {"propolyne.refinement_self_ms.p50", "ms"},
      {"propolyne.blocks_per_query", "blocks"},
      {"propolyne.cold_blocks_per_query", "blocks"},
      {"propolyne.bounded_blocks_fetched", "blocks"},
      {"propolyne.bounded_blocks_needed", "blocks"},
      {"propolyne.early_stop_ratio", "ratio"},
      {"propolyne.analyze.queries", "count"},
      {"recognition.frames", "count"},
      {"recognition.update_us_per_frame", "us"},
      {"recognition.segments", "count"},
      {"recognition.events", "count"},
      {"recognition.events_per_segment", "ratio"},
      {"obs.tracing_overhead_frac", "ratio"},
      {"obs.trace_dropped", "count"},
      {"obs.trace_unmatched", "count"},
      {"loadgen.late_ms.p99", "ms"},
      {"loadgen.operations", "count"},
  };
  return names;
}

/// Counters read through the public API after a phase: WAL, cache, tslife.
void ReadStorageCounters(AimsServer& server, uint64_t samples, Report* out) {
  auto health = server.GetHealth({/*force_refresh=*/true});
  if (!health.ok()) return;
  const aims::obs::WalStats& wal = health->wal;
  const aims::obs::CacheStats& cache = health->cache;
  const double s = static_cast<double>(std::max<uint64_t>(samples, 1));
  out->Set("storage.wal.commits", static_cast<double>(wal.commits), "count");
  out->Set("storage.wal.syncs", static_cast<double>(wal.syncs), "count");
  out->Set("storage.wal.commits_per_sync",
           wal.syncs == 0 ? 0.0
                          : static_cast<double>(wal.commits) /
                                static_cast<double>(wal.syncs),
           "ratio");
  out->Set("storage.checkpoints", static_cast<double>(wal.checkpoints),
           "count");
  out->Set("storage.samples", static_cast<double>(samples), "count");
  out->Set("storage.wal.bytes", static_cast<double>(wal.bytes_appended),
           "bytes");
  out->Set("storage.wal.bytes_per_sample",
           samples == 0 ? 0.0 : static_cast<double>(wal.bytes_appended) / s,
           "B/sample");
  const double seg = static_cast<double>(server.catalog().TotalSegmentBytes());
  out->Set("storage.tslife.bytes", seg, "bytes");
  out->Set("storage.tslife.bytes_per_sample", samples == 0 ? 0.0 : seg / s,
           "B/sample");
  out->Set("storage.cache.hits", static_cast<double>(cache.hits), "count");
  out->Set("storage.cache.misses", static_cast<double>(cache.misses), "count");
  out->Set("storage.cache.hit_rate", cache.HitRate(), "ratio");
  out->Set("storage.cache.evictions", static_cast<double>(cache.evictions),
           "count");
}

/// Query-side counters from QueryOutcome::breakdown, summed by the clients.
struct QueryCounters {
  uint64_t queries = 0;
  uint64_t fetched = 0;
  uint64_t cold = 0;
  uint64_t bounded_fetched = 0;
  uint64_t bounded_needed = 0;
  uint64_t analyzed = 0;
  /// ANALYZE requests seen, for the quiescent re-run.
  std::vector<QueryRequest> analyze_sample;

  void Add(const QueryRequest& q, const QueryOutcome& o) {
    ++queries;
    if (q.explain == ExplainMode::kAnalyze && o.breakdown.has_value()) {
      ++analyzed;
      if (analyze_sample.size() < kQuiescentAnalyze) analyze_sample.push_back(q);
    }
    if (o.breakdown.has_value()) {
      fetched += o.breakdown->blocks_fetched;
      cold += o.breakdown->blocks_read;
    }
    if (q.target_error_bound > 0.0) {
      bounded_fetched += o.answer.blocks_read;
      bounded_needed += o.answer.blocks_needed;
    }
  }
  void Merge(const QueryCounters& o) {
    queries += o.queries;
    fetched += o.fetched;
    cold += o.cold;
    bounded_fetched += o.bounded_fetched;
    bounded_needed += o.bounded_needed;
    analyzed += o.analyzed;
    analyze_sample.insert(analyze_sample.end(), o.analyze_sample.begin(),
                          o.analyze_sample.end());
  }
  void Emit(Report* out) const {
    const double n = static_cast<double>(std::max<uint64_t>(queries, 1));
    out->Set("propolyne.queries", static_cast<double>(queries), "count");
    out->Set("propolyne.blocks_per_query",
             queries == 0 ? 0.0 : static_cast<double>(fetched) / n, "blocks");
    out->Set("propolyne.cold_blocks_per_query",
             queries == 0 ? 0.0 : static_cast<double>(cold) / n, "blocks");
    out->Set("propolyne.bounded_blocks_fetched",
             static_cast<double>(bounded_fetched), "blocks");
    out->Set("propolyne.bounded_blocks_needed",
             static_cast<double>(bounded_needed), "blocks");
    out->Set("propolyne.early_stop_ratio",
             bounded_needed == 0 ? 0.0
                                 : static_cast<double>(bounded_fetched) /
                                       static_cast<double>(bounded_needed),
             "ratio");
    out->Set("propolyne.analyze.queries", static_cast<double>(analyzed),
             "count");
  }
};

/// Submits \p q for \p client and waits, inside bench spans when \p tree is
/// given (the server's query trace is grafted under \p parent).
Result<QueryOutcome> RunQuery(AimsServer& server, ClientId client,
                              const QueryRequest& q, RequestTree* tree,
                              int parent) {
  int span = tree != nullptr ? tree->Begin("api.SubmitQuery") : -1;
  auto submitted = server.SubmitQuery({client, q});
  if (tree != nullptr) tree->End(span);
  if (!submitted.ok()) return submitted.status();
  span = tree != nullptr ? tree->Begin("api.QueryTicket.Wait") : -1;
  QueryOutcome outcome = submitted->ticket->Wait();
  if (tree != nullptr) {
    tree->End(span);
    tree->Attach(outcome.trace, parent);
  }
  return outcome;
}

/// Re-runs the sampled ANALYZE queries one at a time, with nothing else
/// running: with the cache's residency stable between plan and execution,
/// every one must reconcile fully.
void CheckQuiescentAnalyze(AimsServer& server, ClientId client,
                           const std::vector<QueryRequest>& sample,
                           Tally& tally) {
  for (const QueryRequest& q : sample) {
    tally.Op();
    auto outcome = RunQuery(server, client, q, nullptr, -1);
    if (!outcome.ok()) {
      tally.Failed(outcome.status(), "quiescent ANALYZE");
    } else if (!(outcome->breakdown.has_value() &&
                 outcome->breakdown->reconciled)) {
      tally.Wrong("quiescent ANALYZE", "breakdown not reconciled");
    }
  }
}

/// Shared workload interface: inputs are built by Prepare (untimed), Setup
/// is what setup_s times, Run is the measured phase.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Prepare(uint64_t seed, double seconds) = 0;
  virtual std::unique_ptr<AimsServer> Setup(const std::string& dir,
                                            bool tracing) = 0;
  virtual Phase Run(std::unique_ptr<AimsServer>& server,
                    const std::string& dir, bool tracing, Tally& tally) = 0;
  /// How many times a run sets up; setup_s is the median.
  virtual size_t setups() const { return kFastSetups; }
  /// Client threads, and server shards and executor width (set by Prepare).
  size_t clients() const { return clients_; }
  /// Set for --trace 1 runs, whose two halves bound their work so the
  /// server's trace ring can hold every trace.
  bool trace_run = false;

 protected:
  size_t clients_ = 0;
};

// ============================================================ ingest_mixed
class IngestMixed : public Workload {
 public:
  void Prepare(uint64_t seed, double seconds) override {
    clients_ = NumClients(kIngestClients);
    sessions_per_client_ = std::max<size_t>(
        4, static_cast<size_t>(kIngestSessionsPerClientPerSecond * seconds));
    pools_.assign(clients_, {});
    for (size_t c = 0; c < clients_; ++c) {
      Rng rng(seed * 1000003 + c);
      aims::synth::CyberGloveSimulator glove(
          aims::synth::DefaultAslVocabulary(), seed * 7919 + c);
      // Glove and classroom sessions alternate, each type with the full
      // set of length quantiles.
      const std::vector<double> glove_s =
          SessionSeconds(rng, kIngestPoolPerClient / 2);
      const std::vector<double> room_s =
          SessionSeconds(rng, kIngestPoolPerClient / 2);
      for (size_t i = 0; i < kIngestPoolPerClient / 2; ++i) {
        pools_[c].push_back(MakeGloveSession(glove, rng, glove_s[i]));
        pools_[c].push_back(MakeClassroomRecording(rng.engine()(), room_s[i]));
      }
    }
    seed_ = seed;
  }

  std::unique_ptr<AimsServer> Setup(const std::string& dir,
                                    bool tracing) override {
    auto server = std::make_unique<AimsServer>(MakeConfig(dir, tracing, clients_));
    AIMS_CHECK(server->catalog().init_status().ok());
    for (size_t c = 0; c < clients_; ++c) OpenOrDie(*server, c + 1, false);
    return server;
  }

  Phase Run(std::unique_ptr<AimsServer>& server, const std::string& dir,
            bool tracing, Tally& tally) override {
    struct Acked {
      GlobalSessionId id;
      size_t frames;
      size_t channels;
      QueryRequest query;
      double sum;
      double bound;
    };
    struct ClientOut {
      Dist ingest_ms, query_ms, sample_ms;
      uint64_t samples = 0;
      std::vector<uint64_t> round_samples = std::vector<uint64_t>(kRounds, 0);
      std::vector<Acked> acked;
      std::vector<RequestTree> trees;
      std::vector<std::pair<int, std::string>> grafts;  // per tree
      QueryCounters qc;
    };
    std::vector<ClientOut> out(clients_);
    Phase phase;
    aims::acquisition::AdaptiveSampler sampler(aims::acquisition::SamplerConfig{});
    // The timed sessions run in kRounds rounds separated by a barrier of
    // all clients; marks[r] .. marks[r + 1] is round r.
    std::vector<Clock::time_point> marks;
    std::barrier sync(static_cast<std::ptrdiff_t>(clients_),
                      [&]() noexcept { marks.push_back(Clock::now()); });
    const size_t per_round = sessions_per_client_ / kRounds;
    auto body = [&](size_t c) {
      ClientOut& o = out[c];
      const ClientId client = c + 1;
      Rng rng(seed_ * 31 + c);
      const size_t total = kIngestWarmupPerClient + per_round * kRounds;
      for (size_t i = 0; i < total; ++i) {
        const bool timed = i >= kIngestWarmupPerClient;
        const size_t round = timed ? (i - kIngestWarmupPerClient) / per_round : 0;
        if (timed && (i - kIngestWarmupPerClient) % per_round == 0) {
          sync.arrive_and_wait();
        }
        const Recording& src = pools_[c][i % pools_[c].size()];
        RequestTree tree;
        RequestTree* tr = tracing && timed ? &tree : nullptr;
        const int root = tr ? tr->Begin("client.session") : -1;
        // Acquisition: adaptive sampling, then reconstruction on the
        // source clock — what gets stored.
        int span = tr ? tr->Begin("acquisition.sample") : -1;
        const auto s0 = Clock::now();
        auto sampled = sampler.Sample(src);
        const auto s1 = Clock::now();
        if (tr) tr->End(span);
        if (timed) tally.Op();
        if (!sampled.ok()) {
          if (timed) tally.Failed(sampled.status(), "AdaptiveSampler::Sample");
          continue;
        }
        span = tr ? tr->Begin("acquisition.reconstruct") : -1;
        Recording rec;
        rec.sample_rate_hz = src.sample_rate_hz;
        rec.frames.resize(src.num_frames());
        for (size_t f = 0; f < rec.frames.size(); ++f) {
          rec.frames[f].timestamp = src.frames[f].timestamp;
          rec.frames[f].values.resize(src.num_channels());
        }
        for (size_t ch = 0; ch < src.num_channels(); ++ch) {
          std::vector<double> v =
              sampled->ReconstructChannel(ch, src.num_frames());
          for (size_t f = 0; f < v.size(); ++f) rec.frames[f].values[ch] = v[f];
        }
        if (tr) tr->End(span);
        const Truth truth(rec);
        const uint64_t samples = rec.num_frames() * rec.num_channels();
        const std::string name =
            "c" + std::to_string(client) + "-s" + std::to_string(i);
        // Ingest: from the call to the durable acknowledgement.
        span = tr ? tr->Begin("api.IngestRecording") : -1;
        const auto i0 = Clock::now();
        auto stored = server->IngestRecording({client, name, std::move(rec)});
        const auto i1 = Clock::now();
        if (tr) tr->End(span);
        if (timed) tally.Op();
        if (!stored.ok()) {
          if (timed) tally.Failed(stored.status(), "IngestRecording");
          continue;
        }
        if (stored->num_frames != truth.frames ||
            stored->num_channels != truth.channels) {
          tally.Wrong("IngestRecording", "frame/channel count mismatch");
        }
        // One progressive query, to exactness, over the session just
        // stored.
        const size_t channel = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(truth.channels) - 1));
        QueryRequest q = MakeQuery(stored->session, channel,
                                   DrawRange(rng, truth, src.sample_rate_hz));
        if (i % kAnalyzeEvery == 0) q.explain = ExplainMode::kAnalyze;
        const auto q0 = Clock::now();
        auto outcome = RunQuery(*server, client, q, tr, root);
        const auto q1 = Clock::now();
        if (tr) tr->End(root);
        if (!timed) continue;
        tally.Op();
        if (!outcome.ok()) {
          tally.Failed(outcome.status(), "SubmitQuery");
          continue;
        }
        const std::string bad = CheckQuery(q, *outcome, truth);
        if (!bad.empty()) tally.Wrong("ingest_mixed query", bad);
        o.sample_ms.Add(MsBetween(s0, s1));
        o.ingest_ms.Add(MsBetween(i0, i1));
        o.query_ms.Add(MsBetween(q0, q1));
        o.samples += samples;
        o.round_samples[round] += samples;
        o.qc.Add(q, *outcome);
        o.acked.push_back({stored->session, truth.frames, truth.channels, q,
                           outcome->answer.sum, outcome->answer.error_bound});
        if (tr) {
          o.grafts.emplace_back(span, "ingest client=" +
                                          std::to_string(client) +
                                          " name=" + name);
          o.trees.push_back(std::move(tree));
        }
      }
      sync.arrive_and_wait();
    };
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients_; ++c) threads.emplace_back(body, c);
    for (auto& t : threads) t.join();
    const double wall_s = MsBetween(marks.front(), marks.back()) / 1000.0;
    std::vector<double> round_rate;
    for (size_t r = 0; r < kRounds; ++r) {
      uint64_t n = 0;
      for (const ClientOut& o : out) n += o.round_samples[r];
      round_rate.push_back(static_cast<double>(n) * 1000.0 /
                           MsBetween(marks[r], marks[r + 1]));
      phase.named.Set("round" + std::to_string(r) + "_samples_per_s",
                      round_rate.back(), "1/s");
    }

    Dist ingest_ms, query_ms, sample_ms;
    uint64_t samples = 0;
    QueryCounters qc;
    std::vector<Acked> acked;
    for (ClientOut& o : out) {
      ingest_ms.Merge(o.ingest_ms);
      query_ms.Merge(o.query_ms);
      sample_ms.Merge(o.sample_ms);
      samples += o.samples;
      qc.Merge(o.qc);
      acked.insert(acked.end(), o.acked.begin(), o.acked.end());
    }
    phase.throughput = Median(round_rate);
    phase.latency_p50 = ingest_ms.Quantile(0.5);
    phase.latency_p99 = ingest_ms.Quantile(0.99);
    phase.named.Set("ingest_samples_per_s", phase.throughput, "1/s");
    phase.named.Set("ingest_p50_ms", phase.latency_p50, "ms");
    phase.named.Set("ingest_p99_ms", phase.latency_p99, "ms");
    phase.named.Set("ingest_n", static_cast<double>(ingest_ms.count()),
                    "count");
    phase.named.Set("query_per_s", static_cast<double>(query_ms.count()) / wall_s,
                    "1/s");
    phase.named.Set("query_p50_ms", query_ms.Quantile(0.5), "ms");
    phase.named.Set("query_p99_ms", query_ms.Quantile(0.99), "ms");
    phase.named.Set("query_n", static_cast<double>(query_ms.count()), "count");

    if (tracing) {
      TraceIndex index(*server);
      for (ClientOut& o : out) {
        for (size_t k = 0; k < o.trees.size(); ++k) {
          index.Graft(o.trees[k], o.grafts[k].first, o.grafts[k].second);
          phase.layers.Add(o.trees[k]);
        }
      }
      phase.counters.Set("obs.trace_dropped", static_cast<double>(index.dropped),
                         "count");
      phase.counters.Set("obs.trace_unmatched",
                         static_cast<double>(index.unmatched), "count");
    }
    phase.counters.Set("acquisition.sessions",
                       static_cast<double>(sample_ms.count()), "count");
    phase.counters.Set("acquisition.sample_ms.p50", sample_ms.Quantile(0.5),
                       "ms");
    phase.counters.Set("storage.ingests",
                       static_cast<double>(ingest_ms.count()), "count");
    phase.counters.Set("loadgen.operations",
                       static_cast<double>(ingest_ms.count()), "count");
    qc.Emit(&phase.counters);
    ReadStorageCounters(*server, samples, &phase.counters);

    CheckQuiescentAnalyze(*server, 1, qc.analyze_sample, tally);

    // Durability: shut down, then reopen the same directory in a fresh
    // server. Every acknowledged session must be there with its shape and
    // answer its query identically.
    server->Shutdown();
    server.reset();
    const uint64_t store_bytes = DirBytes(dir);
    phase.named.Set("bytes_per_sample",
                    static_cast<double>(store_bytes) /
                        static_cast<double>(std::max<uint64_t>(samples, 1)),
                    "B/sample");
    phase.named.Set("store_bytes", static_cast<double>(store_bytes), "bytes");
    server = std::make_unique<AimsServer>(MakeConfig(dir, false, clients_));
    if (!server->catalog().init_status().ok()) {
      tally.Wrong("reopen", server->catalog().init_status().ToString());
      return phase;
    }
    std::map<GlobalSessionId, aims::server::CatalogSessionEntry> present;
    for (auto& e : server->catalog().ListSessions()) present[e.id] = e;
    const ClientId checker = 1000;
    OpenOrDie(*server, checker, false);
    for (const Acked& a : acked) {
      tally.Op();
      auto it = present.find(a.id);
      if (it == present.end()) {
        tally.Wrong("reopen", "acknowledged session missing");
        continue;
      }
      if (it->second.info.num_frames != a.frames ||
          it->second.info.num_channels != a.channels) {
        tally.Wrong("reopen", "session shape changed");
        continue;
      }
      QueryRequest q = a.query;
      q.explain = ExplainMode::kNone;
      auto outcome = RunQuery(*server, checker, q, nullptr, -1);
      if (!outcome.ok()) {
        tally.Failed(outcome.status(), "reopen query");
      } else if (outcome->answer.sum != a.sum ||
                 outcome->answer.error_bound != a.bound) {
        tally.Wrong("reopen", "query answer changed after reopen");
      }
    }
    phase.named.Set("recovered_sessions", static_cast<double>(present.size()),
                    "count");
    return phase;
  }

 private:
  uint64_t seed_ = 0;
  size_t sessions_per_client_ = 0;
  std::vector<std::vector<Recording>> pools_;
};

// ============================================================== query_olap
class QueryOlap : public Workload {
 public:
  void Prepare(uint64_t seed, double seconds) override {
    clients_ = NumClients(kOlapClients);
    seconds_ = seconds;
    Rng rng(seed * 2654435761u + 17);
    aims::synth::CyberGloveSimulator glove(aims::synth::DefaultAslVocabulary(),
                                           seed * 104729 + 5);
    size_t bytes = 0;
    const std::vector<double> secs = SessionSeconds(rng, kOlapSessions);
    for (size_t i = 0; i < kOlapSessions; ++i) {
      recordings_.push_back(MakeGloveSession(glove, rng, secs[i]));
      const Recording& r = recordings_.back();
      size_t padded = 1;
      while (padded < r.num_frames()) padded <<= 1;
      bytes += padded * r.num_channels() * sizeof(double);
      truths_.emplace_back(r);
    }
    store_coeff_bytes_ = bytes;
    // Preload assignment: sessions longest first, each to the client with
    // the fewest frames so far, so every seed loads the clients (and the
    // shards they route to) alike.
    std::vector<size_t> by_length(recordings_.size());
    for (size_t i = 0; i < by_length.size(); ++i) by_length[i] = i;
    std::stable_sort(by_length.begin(), by_length.end(), [&](size_t a, size_t b) {
      return truths_[a].frames > truths_[b].frames;
    });
    preload_.assign(clients_, {});
    std::vector<size_t> load(clients_, 0);
    for (size_t i : by_length) {
      const size_t c = static_cast<size_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
      preload_[c].push_back(i);
      load[c] += truths_[i].frames;
    }
    for (auto& list : preload_) std::sort(list.begin(), list.end());
    // Zipf(1) popularity. Popularity ranks take the sessions in length
    // order at bit-reversed positions, starting from the median, so the hot
    // set mixes short and long sessions alike on every seed: rank 0 is the
    // median-length session, rank 1 the shortest, rank 2 the 3/4 quantile.
    std::vector<size_t> by_len(recordings_.size());
    for (size_t i = 0; i < by_len.size(); ++i) by_len[i] = i;
    std::stable_sort(by_len.begin(), by_len.end(), [&](size_t a, size_t b) {
      return truths_[a].frames < truths_[b].frames;
    });
    zipf_.assign(recordings_.size(), 0.0);
    for (size_t r = 0; r < kOlapSessions; ++r) {
      size_t pos = 0;
      for (size_t bit = 1, rev = kOlapSessions / 2; rev > 0; bit <<= 1, rev >>= 1) {
        if (r & bit) pos |= rev;
      }
      pos ^= kOlapSessions / 2;
      zipf_[by_len[pos]] = 1.0 / static_cast<double>(r + 1);
    }
    // Each analyst's queries: a Zipf-chosen session, a uniform channel and
    // a log-uniform range. Every other query stops at a target error bound
    // (set in Run, once the store exists); every kAnalyzeEvery-th exact one
    // is also run with EXPLAIN ANALYZE after the measured phase.
    pools_.assign(clients_, {});
    for (size_t c = 0; c < clients_; ++c) {
      Rng qrng(seed * 7 + c * 131 + 3);
      for (size_t k = 0; k < kOlapPoolPerClient; ++k) {
        PoolQuery pq;
        pq.session = qrng.Categorical(zipf_);
        const Truth& t = truths_[pq.session];
        pq.query = MakeQuery(0, static_cast<size_t>(qrng.UniformInt(
                                    0, static_cast<int64_t>(t.channels) - 1)),
                             DrawRange(qrng, t, kGloveHz));
        pq.bounded = k % 2 == 1;
        pq.analyze = !pq.bounded && (k / 2) % kAnalyzeEvery == 0;
        pools_[c].push_back(pq);
      }
    }
  }

  std::unique_ptr<AimsServer> Setup(const std::string& dir,
                                    bool tracing) override {
    auto server = std::make_unique<AimsServer>(MakeConfig(dir, tracing, clients_));
    AIMS_CHECK(server->catalog().init_status().ok());
    for (size_t c = 0; c < clients_; ++c) OpenOrDie(*server, c + 1, false);
    ids_.assign(recordings_.size(), 0);
    std::atomic<bool> ok{true};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients_; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i : preload_[c]) {
          auto stored = server->IngestRecording(
              {c + 1, "archive-" + std::to_string(i), recordings_[i]});
          if (!stored.ok()) {
            std::fprintf(stderr, "aims_bench: preload: %s\n",
                         stored.status().ToString().c_str());
            ok = false;
            return;
          }
          ids_[i] = stored->session;
        }
      });
    }
    for (auto& t : threads) t.join();
    if (!ok) std::exit(3);
    return server;
  }

  size_t setups() const override { return kSlowSetups; }

  Phase Run(std::unique_ptr<AimsServer>& server, const std::string& dir,
            bool tracing, Tally& tally) override {
    // Targets of the bounded queries: the error bound the query's full
    // refinement schedule reaches halfway through, the target
    // tests/scheduler_test.cc uses. Computed through the catalog before the
    // clock starts.
    {
      std::vector<std::thread> threads;
      for (size_t c = 0; c < clients_; ++c) {
        threads.emplace_back([&, c] {
          for (PoolQuery& pq : pools_[c]) {
            pq.query.session = ids_[pq.session];
            if (!pq.bounded) continue;
            auto full = server->catalog().QueryRangeProgressive(
                pq.query.session, pq.query.channel, pq.query.first_frame,
                pq.query.last_frame);
            AIMS_CHECK(full.ok());
            const auto& steps = full->steps;
            pq.query.target_error_bound =
                steps.empty() ? 0.0 : steps[steps.size() / 2].sum_error_bound;
          }
        });
      }
      for (auto& t : threads) t.join();
    }
    struct ClientOut {
      std::vector<std::pair<double, double>> done;  // (seconds, 1) per query
      Dist ms;                                      // SubmitQuery to Wait
      LayerTimes layers;
      QueryCounters qc;
    };
    // Each analyst issues its queries one at a time, closed loop, after
    // kOlapWarmupPerClient untimed ones. Throughput is the median over
    // windows of about kWindowS, so a stall of the shared host moves a few
    // windows rather than the figure; p50 and p99 are over the whole run.
    const uint64_t cap = trace_run ? kTracedQueriesPerClient : UINT64_MAX;
    std::vector<ClientOut> out(clients_);
    std::atomic<size_t> warm{0};
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::atomic<size_t> finished{0};
    Clock::time_point start;  // written before `go` is set
    auto body = [&](size_t c) {
      ClientOut& o = out[c];
      const ClientId client = c + 1;
      const std::vector<PoolQuery>& pool = pools_[c];
      uint64_t timed_queries = 0;
      for (uint64_t k = 0;; ++k) {
        const bool timed = k >= kOlapWarmupPerClient;
        if (k == kOlapWarmupPerClient) {
          warm.fetch_add(1);
          while (!go.load()) std::this_thread::yield();
        }
        if (stop.load(std::memory_order_relaxed) || timed_queries >= cap) {
          break;
        }
        const PoolQuery& pq = pool[k % pool.size()];
        RequestTree tree;
        RequestTree* tr = tracing && timed ? &tree : nullptr;
        const int root = tr ? tr->Begin("client.query") : -1;
        const auto q0 = Clock::now();
        auto outcome = RunQuery(*server, client, pq.query, tr, root);
        const auto q1 = Clock::now();
        if (tr) tr->End(root);
        if (!timed) continue;
        tally.Op();
        ++timed_queries;
        if (!outcome.ok()) {
          tally.Failed(outcome.status(), "SubmitQuery");
          continue;
        }
        o.done.emplace_back(MsBetween(start, q1) / 1000.0, 1.0);
        o.ms.Add(MsBetween(q0, q1));
        const std::string bad =
            CheckQuery(pq.query, *outcome, truths_[pq.session]);
        if (!bad.empty()) tally.Wrong("query_olap", bad);
        o.qc.Add(pq.query, *outcome);
        if (tr) o.layers.Add(tree);
      }
      finished.fetch_add(1);
    };
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients_; ++c) threads.emplace_back(body, c);
    while (warm.load() < clients_) std::this_thread::yield();
    auto health0 = server->GetHealth({true});
    start = Clock::now();
    go.store(true);
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds_));
    while (Clock::now() < deadline && finished.load() < clients_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
    for (auto& t : threads) t.join();
    const double wall_s = MsBetween(start, Clock::now()) / 1000.0;

    std::vector<std::pair<double, double>> done;
    Dist all_ms;
    QueryCounters qc;
    Phase phase;
    for (ClientOut& o : out) {
      done.insert(done.end(), o.done.begin(), o.done.end());
      all_ms.Merge(o.ms);
      phase.layers.Merge(o.layers);
      qc.Merge(o.qc);
    }
    std::vector<double> throughputs;
    WindowRates(done, wall_s, kWindowS, &throughputs);
    phase.throughput = Median(throughputs);
    phase.latency_p50 = all_ms.Quantile(0.5);
    phase.latency_p99 = all_ms.Quantile(0.99);
    phase.named.Set("query_per_s", phase.throughput, "1/s");
    phase.named.Set("query_p50_ms", phase.latency_p50, "ms");
    phase.named.Set("query_p99_ms", phase.latency_p99, "ms");
    phase.named.Set("query_n", static_cast<double>(all_ms.count()), "count");
    phase.named.Set("windows", static_cast<double>(throughputs.size()),
                    "count");
    uint64_t samples = 0;
    for (const Truth& t : truths_) samples += t.frames * t.channels;
    const uint64_t store_bytes = DirBytes(dir);
    phase.named.Set("store_bytes", static_cast<double>(store_bytes), "bytes");
    phase.named.Set("store_coefficient_bytes",
                    static_cast<double>(store_coeff_bytes_), "bytes");
    phase.named.Set("cache_bytes",
                    static_cast<double>(kCachePerShardBytes * clients_),
                    "bytes");
    phase.named.Set("bytes_per_sample",
                    static_cast<double>(store_bytes) / static_cast<double>(samples),
                    "B/sample");
    phase.named.Set("sessions", static_cast<double>(recordings_.size()),
                    "count");
    if (tracing) {
      phase.counters.Set("obs.trace_dropped",
                         static_cast<double>(server->tracer().dropped()),
                         "count");
    }
    phase.counters.Set("loadgen.operations",
                       static_cast<double>(all_ms.count()), "count");
    qc.Emit(&phase.counters);
    ReadStorageCounters(*server, samples, &phase.counters);
    // Cache counters of the timed phase alone (the preload's writes and the
    // warm-up's misses excluded).
    auto health1 = server->GetHealth({true});
    if (health0.ok() && health1.ok()) {
      const auto& a = health0->cache;
      const auto& b = health1->cache;
      aims::obs::CacheStats d;
      d.hits = b.hits - a.hits;
      d.misses = b.misses - a.misses;
      phase.counters.Set("storage.cache.hits", static_cast<double>(d.hits),
                         "count");
      phase.counters.Set("storage.cache.misses", static_cast<double>(d.misses),
                         "count");
      phase.counters.Set("storage.cache.hit_rate", d.HitRate(), "ratio");
      phase.counters.Set("storage.cache.evictions",
                         static_cast<double>(b.evictions - a.evictions),
                         "count");
    }
    // EXPLAIN ANALYZE runs after the measured phase, on a server reopened
    // on the store, one query at a time. The plan's contract
    // (QueryPlan::predicted_cold_blocks) assumes residency only grows during
    // a run. On a full cache smaller than the store it does not: a
    // concurrent query, or the query's own cold reads, can evict a planned
    // block or bring one in between planning and fetching, and the cold
    // reads then miss the prediction. The sample fits the cold cache, so
    // nothing is evicted while it runs (analyze_evictions), and the check
    // is made in full: answer and reconciliation. The reopen also checks
    // that the preloaded store recovers.
    server->Shutdown();
    server.reset();
    server = std::make_unique<AimsServer>(MakeConfig(dir, false, clients_));
    if (!server->catalog().init_status().ok()) {
      tally.Wrong("reopen", server->catalog().init_status().ToString());
      return phase;
    }
    const ClientId checker = 1000;
    OpenOrDie(*server, checker, false);
    auto before = server->GetHealth({true});
    uint64_t analyzed = 0;
    for (size_t c = 0; c < clients_; ++c) {
      size_t taken = 0;
      for (const PoolQuery& pq : pools_[c]) {
        if (!pq.analyze) continue;
        if (taken++ == kOlapAnalyzePerClient) break;
        QueryRequest q = pq.query;
        q.explain = ExplainMode::kAnalyze;
        tally.Op();
        ++analyzed;
        auto outcome = RunQuery(*server, checker, q, nullptr, -1);
        if (!outcome.ok()) {
          tally.Failed(outcome.status(), "query_olap ANALYZE");
          continue;
        }
        const std::string bad = CheckQuery(q, *outcome, truths_[pq.session]);
        if (!bad.empty()) tally.Wrong("query_olap ANALYZE", bad);
      }
    }
    auto after = server->GetHealth({true});
    if (before.ok() && after.ok()) {
      phase.named.Set(
          "analyze_evictions",
          static_cast<double>(after->cache.evictions - before->cache.evictions),
          "count");
    }
    phase.counters.Set("propolyne.analyze.queries",
                       static_cast<double>(analyzed), "count");
    return phase;
  }

 private:
  double seconds_ = 0.0;
  size_t store_coeff_bytes_ = 0;
  std::vector<Recording> recordings_;
  std::vector<Truth> truths_;
  std::vector<double> zipf_;
  std::vector<GlobalSessionId> ids_;
  struct PoolQuery {
    size_t session;  // index into recordings_
    QueryRequest query;
    bool bounded;
    bool analyze;  // also run with EXPLAIN ANALYZE, after the timed phase
  };
  std::vector<std::vector<PoolQuery>> pools_;
  std::vector<std::vector<size_t>> preload_;  // session indices per client
};

// ======================================================== live_recognition
bool SameEvents(const std::vector<aims::recognition::RecognitionEvent>& a,
                const std::vector<aims::recognition::RecognitionEvent>& b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k].label != b[k].label || a[k].start_frame != b[k].start_frame ||
        a[k].end_frame != b[k].end_frame) {
      return false;
    }
  }
  return true;
}

class LiveRecognition : public Workload {
 public:
  void Prepare(uint64_t seed, double seconds) override {
    clients_ = NumClients(kLiveClients);
    aims::synth::CyberGloveSimulator glove(aims::synth::DefaultAslVocabulary(),
                                           seed * 15485863 + 11, 0.5);
    aims::synth::SubjectProfile reference = glove.MakeSubject();
    for (size_t s = 0; s < glove.vocabulary().size(); ++s) {
      auto rec = glove.GenerateSign(s, reference);
      AIMS_CHECK(rec.ok());
      templates_.emplace_back(glove.vocabulary()[s].name,
                              aims::benchutil::ToMatrix(*rec));
      names_.push_back(glove.vocabulary()[s].name);
    }
    // Streams of motion signs (static letters have no dynamics for the
    // stream segmenter to isolate), each a sixth of the run long. Per-frame
    // cost grows with a sign's length and tremor decides where segments
    // close, so the subjects' speed and tremor are the simulator's
    // distributions' quantiles in a seeded order, and the scripts cycle
    // through seeded permutations of the motion signs: every seed gets the
    // same mix of slow and fast signers and of signs.
    const std::vector<size_t> motion = {12, 13, 14, 15, 16, 17};
    constexpr double kRestS = 0.9;
    Rng rng(seed * 97 + 1);
    // kRounds rounds of (a) for half a stream, then (b) for a whole one.
    stream_s_ = std::max(4.0, seconds / (1.5 * kRounds));
    // (b) staggers the streams' starts over one nominal sign and its rest,
    // so their costly stretches (a sign's frames) do not arrive in step.
    stagger_s_ = 0.8 + kRestS;
    std::vector<size_t> order(kLiveStreams), tremor_order(kLiveStreams);
    for (size_t i = 0; i < kLiveStreams; ++i) order[i] = tremor_order[i] = i;
    rng.Shuffle(&order);
    rng.Shuffle(&tremor_order);
    auto quantile = [](size_t k) {
      return NormalQuantile((static_cast<double>(k) + 0.5) /
                            static_cast<double>(kLiveStreams));
    };
    std::vector<size_t> deck;
    streams_.resize(kLiveStreams);
    truths_.resize(kLiveStreams);
    for (size_t i = 0; i < kLiveStreams; ++i) {
      aims::synth::SubjectProfile subject = glove.MakeSubject();
      subject.speed_factor =
          std::clamp(1.0 + 0.25 * quantile(order[i]), 0.5, 1.8);
      subject.tremor =
          std::clamp(0.5 + 0.2 * quantile(tremor_order[i]), 0.1, 1.5);
      std::vector<size_t> script(
          static_cast<size_t>(stream_s_ / (0.8 + kRestS)));
      for (size_t& sign : script) {
        if (deck.empty()) {
          deck = motion;
          rng.Shuffle(&deck);
        }
        sign = deck.back();
        deck.pop_back();
      }
      streams_[i] =
          MakeGloveRecording(glove, subject, script, kRestS, &truths_[i]);
    }
  }

  std::unique_ptr<AimsServer> Setup(const std::string& dir,
                                    bool tracing) override {
    auto server = std::make_unique<AimsServer>(MakeConfig(dir, tracing, clients_));
    AIMS_CHECK(server->catalog().init_status().ok());
    for (const auto& [label, m] : templates_) {
      AIMS_CHECK(server->AddVocabularyEntry(label, m).ok());
    }
    return server;
  }

  Phase Run(std::unique_ptr<AimsServer>& server, const std::string&,
            bool tracing, Tally& tally) override {
    using Events = std::vector<aims::recognition::RecognitionEvent>;
    struct StreamOut {
      Events events;
      std::vector<RequestTree> trees;
      std::vector<int> graft_parent;
      std::vector<std::string> graft_label;
      uint64_t frames = 0;
      std::vector<std::pair<Clock::time_point, size_t>> done;  // per batch
    };
    // One stream = one recording fed in kBatchFrames batches. \p due (open
    // loop) is when batch k is due; null for closed loop.
    auto stream_batch = [&](StreamOut& so, ClientId client, const Recording& r,
                            size_t b, Dist* latency, Dist* late,
                            Clock::time_point due) {
      const size_t first = b * kBatchFrames;
      const size_t last = std::min(r.num_frames(), first + kBatchFrames);
      aims::server::StreamSamplesRequest req;
      req.client = client;
      req.frames.assign(r.frames.begin() + static_cast<ptrdiff_t>(first),
                        r.frames.begin() + static_cast<ptrdiff_t>(last));
      RequestTree tree;
      RequestTree* tr = tracing ? &tree : nullptr;
      const int root = tr ? tr->Begin("client.batch") : -1;
      const int span = tr ? tr->Begin("api.StreamSamples") : -1;
      const auto t0 = Clock::now();
      auto res = server->StreamSamples(std::move(req));
      const auto t1 = Clock::now();
      if (tr) {
        tr->End(span);
        tr->End(root);
      }
      tally.Op();
      if (!res.ok()) {
        tally.Failed(res.status(), "StreamSamples");
        return;
      }
      if (res->frames_pushed != last - first) {
        tally.Wrong("StreamSamples", "frames_pushed mismatch");
      }
      so.frames += res->frames_pushed;
      so.done.emplace_back(t1, res->frames_pushed);
      for (auto& e : res->events) so.events.push_back(std::move(e));
      if (latency != nullptr) latency->Add(MsBetween(due, t1));
      if (late != nullptr) late->Add(MsBetween(due, t0));
      if (tr) {
        so.graft_parent.push_back(span);
        so.graft_label.push_back("stream_samples client=" +
                                 std::to_string(client) + " frames=" +
                                 std::to_string(last - first));
        so.trees.push_back(std::move(tree));
      }
    };
    auto close = [&](StreamOut& so, ClientId client) {
      auto closed = server->CloseSession({client});
      if (!closed.ok()) {
        tally.Failed(closed.status(), "CloseSession");
      } else if (closed->final_event.has_value()) {
        so.events.push_back(*closed->final_event);
      }
    };
    auto batches = [](const Recording& r) {
      return (r.num_frames() + kBatchFrames - 1) / kBatchFrames;
    };

    // Each round runs (a) then (b). Throughput is the median over the
    // windows of every round's (a); latency is over the batches of every
    // round's (b). Every round streams the
    // same recordings and must emit the same events.
    std::vector<std::vector<std::vector<StreamOut>>> round_passes;
    std::vector<std::vector<StreamOut>> round_lat;
    std::vector<std::optional<Events>> first_pass(kLiveStreams);
    Phase phase;
    std::vector<double> window_rates;
    Dist all_latency, all_late;
    for (size_t round = 0; round < kRounds; ++round) {
      // (a) Capacity: closed-loop clients stream recordings back to back
      // (client c takes recordings c, c + clients, ... and starts over) until
      // the phase's time is up, so every client is busy to the end. The
      // events of each recording's first complete pass are kept for the
      // checks; a later complete pass must repeat them.
      std::vector<std::vector<StreamOut>>& passes = round_passes.emplace_back(clients_);
      const auto a0 = Clock::now();
      const auto a_end = a0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(0.5 * stream_s_));
      {
        std::vector<std::thread> threads;
        for (size_t c = 0; c < clients_; ++c) {
          threads.emplace_back([&, c] {
            while (true) {
              for (size_t i = c; i < kLiveStreams; i += clients_) {
                const ClientId client = 1 + i;
                StreamOut& so = passes[c].emplace_back();
                OpenOrDie(*server, client, true);
                bool complete = true;
                for (size_t b = 0; b < batches(streams_[i]); ++b) {
                  if (Clock::now() >= a_end) {
                    complete = false;
                    break;
                  }
                  stream_batch(so, client, streams_[i], b, nullptr, nullptr,
                               Clock::now());
                }
                close(so, client);
                if (!complete) return;
                if (!first_pass[i].has_value()) {
                  first_pass[i] = so.events;
                } else if (!SameEvents(*first_pass[i], so.events)) {
                  tally.Wrong("recognition", "events differ between passes");
                }
              }
            }
          });
        }
        for (auto& t : threads) t.join();
      }
      const double a_wall_s = MsBetween(a0, Clock::now()) / 1000.0;
      std::vector<std::pair<double, double>> done_a;
      uint64_t frames_a = 0;
      for (const auto& list : passes) {
        for (const StreamOut& so : list) {
          frames_a += so.frames;
          for (const auto& [t, n] : so.done) {
            done_a.emplace_back(MsBetween(a0, t) / 1000.0,
                                static_cast<double>(n));
          }
        }
      }
      WindowRates(done_a, a_wall_s, kWindowS, &window_rates);

      // (b) Latency: every stream open loop at the glove's rate; batch k of
      // stream i is due at start + offset_i + k * batch period, with the
      // offsets spread evenly over stagger_s_, and its latency counts from
      // then. kLiveSenders threads form one sender
      // pool: each takes the earliest-due batch of any stream not already
      // in flight (a stream's batches stay in order).
      std::vector<StreamOut>& lat = round_lat.emplace_back(kLiveStreams);
      const size_t senders = NumClients(kLiveSenders);
      std::vector<Dist> lat_t(senders), late_t(senders);
      for (size_t i = 0; i < kLiveStreams; ++i) OpenOrDie(*server, 101 + i, true);
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kBatchFrames / kGloveHz));
      const auto stagger = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(stagger_s_));
      const auto b0 = Clock::now() + std::chrono::milliseconds(20);
      {
        std::mutex mu;
        std::condition_variable cv;
        std::vector<size_t> next(kLiveStreams, 0);
        std::vector<bool> busy(kLiveStreams, false);
        auto due_of = [&](size_t i) {
          return b0 + period * static_cast<int64_t>(next[i]) +
                 stagger * static_cast<int64_t>(i) /
                     static_cast<int64_t>(kLiveStreams);
        };
        std::vector<std::thread> threads;
        for (size_t c = 0; c < senders; ++c) {
          threads.emplace_back([&, c] {
            std::unique_lock<std::mutex> lock(mu);
            while (true) {
              size_t best = kLiveStreams;
              bool pending = false;
              for (size_t i = 0; i < kLiveStreams; ++i) {
                if (next[i] >= batches(streams_[i])) continue;
                pending = true;
                if (busy[i]) continue;
                if (best == kLiveStreams || due_of(i) < due_of(best)) best = i;
              }
              if (!pending) break;
              if (best == kLiveStreams) {
                cv.wait(lock);
                continue;
              }
              busy[best] = true;
              const auto due = due_of(best);
              const size_t b = next[best];
              lock.unlock();
              std::this_thread::sleep_until(due);
              stream_batch(lat[best], 101 + best, streams_[best], b, &lat_t[c],
                           &late_t[c], due);
              lock.lock();
              busy[best] = false;
              ++next[best];
              cv.notify_all();
            }
          });
        }
        for (auto& t : threads) t.join();
      }
      for (size_t i = 0; i < kLiveStreams; ++i) close(lat[i], 101 + i);
      for (size_t c = 0; c < senders; ++c) {
        all_latency.Merge(lat_t[c]);
        all_late.Merge(late_t[c]);
      }

      phase.named.Set("round" + std::to_string(round) + "_frames_per_s",
                      static_cast<double>(frames_a) / a_wall_s, "1/s");
    }

    // Checks: a recording must yield the same events in both phases of
    // every round, and every event must be well formed. Accuracy is scored
    // on (b), where every recording is streamed whole.
    uint64_t segments = 0, correct = 0, events = 0;
    for (size_t i = 0; i < kLiveStreams; ++i) {
      const Events& eb = round_lat[0][i].events;
      for (const auto& lat : round_lat) {
        if (!SameEvents(eb, lat[i].events)) {
          tally.Wrong("recognition", "events differ between rounds");
        }
      }
      if (first_pass[i].has_value() && !SameEvents(*first_pass[i], eb)) {
        tally.Wrong("recognition", "events differ between phases");
      }
      for (const auto& e : eb) {
        if (e.end_frame <= e.start_frame ||
            e.end_frame > streams_[i].num_frames() ||
            std::find(names_.begin(), names_.end(), e.label) == names_.end()) {
          tally.Wrong("recognition", "malformed event");
        }
      }
      events += eb.size();
      segments += truths_[i].size();
      std::vector<bool> used(eb.size(), false);
      for (const auto& seg : truths_[i]) {
        for (size_t k = 0; k < eb.size(); ++k) {
          if (used[k] || eb[k].start_frame >= seg.end_frame ||
              eb[k].end_frame <= seg.start_frame) {
            continue;
          }
          used[k] = true;
          if (eb[k].label == names_[seg.sign_index]) ++correct;
          break;
        }
      }
    }

    phase.throughput = Median(window_rates);
    phase.latency_p50 = all_latency.Quantile(0.5);
    phase.latency_p99 = all_latency.Quantile(0.99);
    phase.named.Set("recog_frames_per_s", phase.throughput, "1/s");
    phase.named.Set("recog_batch_p50_ms", phase.latency_p50, "ms");
    phase.named.Set("recog_batch_p99_ms", phase.latency_p99, "ms");
    phase.named.Set("recog_batch_n", static_cast<double>(all_latency.count()),
                    "count");
    phase.named.Set("recog_accuracy",
                    static_cast<double>(correct) /
                        static_cast<double>(std::max<uint64_t>(segments, 1)),
                    "ratio");
    phase.named.Set("recog_segments", static_cast<double>(segments), "count");
    phase.named.Set("loadgen_late_p99_ms", all_late.Quantile(0.99), "ms");
    phase.counters.Set("recognition.segments", static_cast<double>(segments),
                       "count");
    phase.counters.Set("recognition.events", static_cast<double>(events),
                       "count");
    phase.counters.Set("recognition.events_per_segment",
                       static_cast<double>(events) /
                           static_cast<double>(std::max<uint64_t>(segments, 1)),
                       "ratio");
    phase.counters.Set("loadgen.late_ms.p99", all_late.Quantile(0.99), "ms");
    phase.counters.Set("loadgen.operations",
                       static_cast<double>(all_latency.count()), "count");
    if (tracing) {
      // Graft in the order the batches were sent: a client's traces share a
      // label and are matched oldest first.
      TraceIndex index(*server);
      uint64_t frames = 0;
      for (size_t round = 0; round < kRounds; ++round) {
        std::vector<StreamOut*> in_order;
        for (auto& list : round_passes[round]) {
          for (StreamOut& so : list) in_order.push_back(&so);
        }
        for (StreamOut& so : round_lat[round]) in_order.push_back(&so);
        for (StreamOut* so : in_order) {
          frames += so->frames;
          for (size_t k = 0; k < so->trees.size(); ++k) {
            index.Graft(so->trees[k], so->graft_parent[k], so->graft_label[k]);
            phase.layers.Add(so->trees[k]);
          }
        }
      }
      const double update_ms =
          phase.layers.Total("stream_samples/recognizer_update").Sum();
      phase.counters.Set("recognition.frames", static_cast<double>(frames),
                         "count");
      phase.counters.Set("recognition.update_us_per_frame",
                         1000.0 * update_ms /
                             static_cast<double>(std::max<uint64_t>(frames, 1)),
                         "us");
      phase.counters.Set("obs.trace_dropped", static_cast<double>(index.dropped),
                         "count");
      phase.counters.Set("obs.trace_unmatched",
                         static_cast<double>(index.unmatched), "count");
    }
    return phase;
  }

 private:
  std::vector<std::pair<std::string, aims::linalg::Matrix>> templates_;
  std::vector<std::string> names_;
  double stream_s_ = 0.0;
  double stagger_s_ = 0.0;
  std::vector<Recording> streams_;
  std::vector<std::vector<aims::synth::SignSegment>> truths_;
};

// ------------------------------------------------------------------- main
/// Per-layer metrics from a traced phase's span trees and counters.
Report LayerReport(const Phase& traced, double overhead_frac,
                   uint64_t rejected, uint64_t requests) {
  Report r;
  for (const auto& [name, unit] : LayerMetricNames()) r.Set(name, 0.0, unit);
  const LayerTimes& L = traced.layers;
  auto p = [&](const char* metric, const Dist& d, double q) {
    r.Set(metric, d.Quantile(q), "ms");
  };
  p("server.ingest.queue_wait_ms.p50", L.Total("ingest/queue_wait"), 0.5);
  p("server.ingest.queue_wait_ms.p99", L.Total("ingest/queue_wait"), 0.99);
  p("server.ingest.shard_lock_wait_ms.p99", L.Total("ingest/shard_lock"), 0.99);
  p("server.ingest.apply_lock_wait_ms.p99", L.Total("ingest/shard_apply_lock"),
    0.99);
  p("server.query.shard_lock_wait_ms.p99", L.Total("query/shard_lock"), 0.99);
  p("server.query.admission_wait_ms.p50", L.Total("query/admission_wait"), 0.5);
  p("server.query.admission_wait_ms.p99", L.Total("query/admission_wait"),
    0.99);
  p("server.stream.overhead_ms.p50", L.Self("stream_samples/stream_samples"),
    0.5);
  p("signal.transform_ms.p50", L.Self("ingest/transform"), 0.5);
  p("storage.block_write_ms.p50", L.Self("ingest/block_write"), 0.5);
  p("storage.wal_sync_ms.p50", L.Total("ingest/wal_sync"), 0.5);
  p("storage.wal_sync_ms.p99", L.Total("ingest/wal_sync"), 0.99);
  p("storage.block_io_ms.p50", L.Total("query/block_io"), 0.5);
  p("propolyne.refinement_ms.p50", L.Total("query/refinement"), 0.5);
  p("propolyne.refinement_ms.p99", L.Total("query/refinement"), 0.99);
  p("propolyne.refinement_self_ms.p50", L.Self("query/refinement"), 0.5);
  r.Set("server.requests", static_cast<double>(requests), "count");
  r.Set("server.rejected", static_cast<double>(rejected), "count");
  r.Set("obs.tracing_overhead_frac", overhead_frac, "ratio");
  // Counters and ratios the workload measured itself.
  traced.counters.ForEach(
      [&](const std::string& name, double value, const std::string& unit) {
        r.Set(name, value, unit);
      });
  return r;
}

int Usage() {
  std::fprintf(stderr,
               "usage: aims_bench --workload ingest_mixed|query_olap|"
               "live_recognition --seed N --seconds S --trace 0|1 "
               "--workdir DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::atof(val.c_str());
    else if (key == "--trace") opt.trace = val == "1";
    else if (key == "--workdir") opt.workdir = val;
    else return Usage();
  }
  if (opt.workdir.empty() || !(opt.seconds > 0.0)) return Usage();
  std::unique_ptr<Workload> w;
  if (opt.workload == "ingest_mixed") w = std::make_unique<IngestMixed>();
  else if (opt.workload == "query_olap") w = std::make_unique<QueryOlap>();
  else if (opt.workload == "live_recognition")
    w = std::make_unique<LiveRecognition>();
  else return Usage();
  w->trace_run = opt.trace;
  Origin();

  const std::string run_dir =
      opt.workdir + "/" + opt.workload + "-" + std::to_string(::getpid());
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  Tally tally;
  Report result;
  // Traced runs measure the same workload twice at half the work each:
  // untraced (the overhead baseline) and traced.
  const double work_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const auto p0 = Clock::now();
  w->Prepare(opt.seed, work_s);
  std::printf("workload %s seed %" PRIu64 " clients %zu inputs %.2f s\n",
              opt.workload.c_str(), opt.seed, w->clients(),
              MsBetween(p0, Clock::now()) / 1000.0);

  auto measure = [&](bool tracing, size_t setups, Phase* phase,
                     std::vector<double>* setup_s) {
    std::unique_ptr<AimsServer> server;
    std::string dir;
    for (size_t k = 0; k < setups; ++k) {
      if (server) {
        server.reset();
        fs::remove_all(dir);
      }
      dir = run_dir + "/store-" + std::to_string(tracing) + "-" +
            std::to_string(k);
      const auto s0 = Clock::now();
      server = w->Setup(dir, tracing);
      setup_s->push_back(MsBetween(s0, Clock::now()) / 1000.0);
    }
    *phase = w->Run(server, dir, tracing, tally);
    if (server) server->Shutdown();
    server.reset();
    fs::remove_all(dir);
  };

  // Start from a quiet disk: write back what earlier processes left dirty,
  // so their writeback does not land inside this run's fsyncs.
  ::sync();
  std::vector<double> setup_s;
  Phase main_phase;
  Phase traced;
  double overhead = 0.0;
  if (!opt.trace) {
    measure(false, w->setups(), &main_phase, &setup_s);
  } else {
    measure(false, 1, &main_phase, &setup_s);
    measure(true, 1, &traced, &setup_s);
    overhead = main_phase.throughput > 0.0
                   ? 1.0 - traced.throughput / main_phase.throughput
                   : 0.0;
  }
  fs::remove_all(run_dir);

  const uint64_t bad = tally.bad();
  std::printf("named end-to-end metrics (%s):\n",
              opt.trace ? "untraced half" : "full run");
  main_phase.named.Set("setup_s", Median(setup_s), "s");
  main_phase.named.Set("failed_frac",
                       static_cast<double>(bad) /
                           static_cast<double>(std::max<uint64_t>(
                               tally.attempted.load(), 1)),
                       "ratio");
  main_phase.named.PrintLines(stdout);
  if (!opt.trace) {
    result.Set("setup_s", Median(setup_s), "s");
    result.Set("throughput_per_s", main_phase.throughput, "1/s");
    result.Set("latency_p50_ms", main_phase.latency_p50, "ms");
    result.Set("latency_p99_ms", main_phase.latency_p99, "ms");
  } else {
    std::printf("span breakdown (traced half, ms per request):\n");
    traced.layers.Print(stdout);
    result = LayerReport(traced, overhead, tally.refused.load(),
                         tally.attempted.load());
    std::printf("per-layer metrics:\n");
    result.PrintLines(stdout);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              tally.wrong.load() == 0 ? "true" : "false",
              std::max<uint64_t>(tally.attempted.load(), 1), bad,
              result.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace aimsbench

int main(int argc, char** argv) { return aimsbench::Main(argc, argv); }
