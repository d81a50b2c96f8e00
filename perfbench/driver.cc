// Repository benchmark driver: one workload per process.
//
//   perfbench_driver --workload <bfs-web|serve-social|bc-ooc> --seed <n>
//                    --seconds <s> --trace <0|1> [--engine-threads <t>]
//                    [--work-dir <dir>]
//
// Each workload's graph is a fixed scaled stand-in of one of the paper's
// datasets; the seed generates its query stream (untimed). The driver
// prepares the artifact several times from scratch and takes the median as
// setup_s, warms the lazily built engines and caches, runs a fixed number of
// closed-loop queries, and checks a seeded sample of results against
// Backend::kCpuReference. The last line of stdout is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// additionally repeats set-up and the measured phase with span recording on
// and reports the per-layer metrics, a self-time table per span name, and the
// tracing overhead against its own untraced pass. Spans are written to
// <work-dir>/spans-<workload>-<seed>.jsonl at exit. A line starting with
// "# counts " carries the deterministic counters in every mode; the
// steadiness tool compares it across runs and engine thread counts.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/gcgt_session.h"
#include "cgr/cgr_decoder.h"
#include "cgr/cgr_graph.h"
#include "graph/generators.h"
#include "ooc/cgr_container.h"
#include "reorder/reorder.h"
#include "service/gcgt_service.h"
#include "spans.h"
#include "util/random.h"
#include "vnc/virtual_node.h"

namespace {

using namespace gcgt;
using perfbench::NowNs;
using Scope = perfbench::SpanRecorder::Scope;

double Seconds(int64_t t0, int64_t t1) { return (t1 - t0) * 1e-9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile of the ladder that still leaves at least ten
/// samples above it (nearest-rank); never the maximum.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  size_t beyond = 0;
};

Tail TailOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    if (rank >= 1 && n - rank >= 10) return {p, v[rank - 1], n - rank};
  }
  return {50.0, Median(v), n / 2};
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double ModelCycles(const TraversalMetrics& m, const simt::CostModel& cost) {
  return m.model_ms * cost.clock_ghz * 1e6;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

/// Sums of the deterministic per-query counters of one measured phase.
struct Totals {
  uint64_t queries = 0;
  double model_cycles = 0.0;
  uint64_t kernels = 0;
  simt::WarpStats warp;
  uint64_t resident_peak = 0;

  void Add(const TraversalMetrics& m, const simt::CostModel& cost) {
    ++queries;
    model_cycles += ModelCycles(m, cost);
    kernels += static_cast<uint64_t>(m.kernels);
    warp += m.warp;
    resident_peak = std::max(resident_peak, m.resident_bytes_peak);
  }
  double PerQuery(double sum) const { return queries ? sum / queries : 0.0; }
};

/// One measured pass over the workload's fixed query list.
struct Phase {
  std::vector<double> latency_ms;  // per attempted query
  std::vector<int64_t> done_ns;    // per attempted query: when it returned
  int64_t start_ns = 0;
  double wall_s = 0.0;
  double run_s = 0.0;  // summed time inside Run/Submit..get
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Totals totals;
  // serve-social only
  uint64_t cache_hits = 0;
  double submit_block_ms = 0.0;
};

struct Verdict {
  uint64_t checked = 0;
  uint64_t mismatched = 0;
};

/// The per-layer numbers a workload can report; idle layers stay zero.
struct Layers {
  double decode_ns_per_edge = 0;
  double intersect_txns_per_query = 0, intersect_ms_per_query = 0;
  double cache_hit_rate = 0, submit_block_ms = 0;
  double retries = 0, shed = 0, worker_sessions = 0;
  double ooc_write_s = 0, ooc_open_s = 0;
  double csr_model_cycles_per_query = 0, csr_ms_per_query = 0;
};

// Seeded helpers ------------------------------------------------------------

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return Mix64(seed * 0x9e3779b97f4a7c15ULL + stream);
}

/// `count` distinct query indices in [0, n), sorted: the verified sample.
std::vector<size_t> SampleIndices(uint64_t seed, size_t n, size_t count) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  Rng rng(StreamSeed(seed, 77));
  rng.Shuffle(all);
  all.resize(std::min(count, n));
  std::sort(all.begin(), all.end());
  return all;
}

/// One pass of VNC -> LLP -> CGR encode as three separate timed calls: the
/// pipeline Prepare runs, split so that each layer gets its own span and time.
struct Preprocessing {
  double vnc_s = 0, reorder_s = 0, encode_s = 0;
  double edge_reduction = 0, bits_per_edge = 0;
  double total_s() const { return vnc_s + reorder_s + encode_s; }
};

Preprocessing ProbePreprocessing(const Graph& raw, int partitions,
                                 int threads) {
  Preprocessing out;
  const int64_t t0 = NowNs();
  std::optional<VncResult> vnc;
  {
    Scope span("vnc.compress");
    vnc.emplace(VirtualNodeCompress(raw));
  }
  const int64_t t1 = NowNs();
  Graph prepared;
  {
    Scope span("reorder.apply");
    prepared = vnc->graph.Relabeled(
        ComputeOrdering(vnc->graph, ReorderMethod::kLlp, 42));
  }
  const int64_t t2 = NowNs();
  {
    Scope span("cgr.encode");
    auto cgr = partitions > 0
                   ? CgrGraph::EncodePartitioned(prepared, CgrOptions{},
                                                 partitions, threads)
                   : CgrGraph::Encode(prepared, CgrOptions{});
    out.bits_per_edge = cgr.ok() ? cgr.value().BitsPerEdge() : 0.0;
  }
  out.encode_s = Seconds(t2, NowNs());
  out.vnc_s = Seconds(t0, t1);
  out.reorder_s = Seconds(t1, t2);
  out.edge_reduction = vnc->EdgeReduction();
  return out;
}

/// Median over three sweeps of DecodeAdjacency across every node.
double DecodeNsPerEdge(const CgrGraph& cgr) {
  std::vector<double> ns;
  for (int rep = 0; rep < 3; ++rep) {
    Scope span("cgr.decode_sweep");
    uint64_t edges = 0;
    const int64_t t0 = NowNs();
    for (NodeId u = 0; u < cgr.num_nodes(); ++u) {
      edges += DecodeAdjacency(cgr, u).size();
    }
    ns.push_back(static_cast<double>(NowNs() - t0) /
                 static_cast<double>(std::max<uint64_t>(edges, 1)));
  }
  return Median(ns);
}

/// The paper's unified preprocessing (§7.2): VNC, then LLP, CGR defaults.
PrepareOptions UnifiedPrepare(int engine_threads) {
  PrepareOptions p;
  p.apply_vnc = true;
  p.reorder = ReorderMethod::kLlp;
  p.gcgt.num_threads = engine_threads;
  return p;
}

/// Moves every thread of the process onto one CPU of the process's initial
/// affinity set at a time, in turn. On a shared host a thread's speed depends
/// on its vCPU, and which vCPU is slow changes every few seconds, while the
/// scheduler keeps a busy thread on one vCPU for longer than that. Unpinned,
/// a whole run could sit on one slow or fast vCPU; rotating makes every
/// stretch of the run sample all of them alike. Threads are listed from
/// /proc/self/task; without it, nothing is pinned.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&initial_);
    if (sched_getaffinity(0, sizeof(initial_), &initial_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &initial_)) cpus_.push_back(c);
    }
  }

  /// Pins every thread to the k-th CPU of the set (mod its size).
  void Pin(size_t k) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    SetAll(one);
  }

  /// Gives every thread the initial affinity set back.
  void Release() {
    if (!cpus_.empty()) SetAll(initial_);
  }

 private:
  static void SetAll(const cpu_set_t& set) {
    std::error_code ec;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
      const pid_t tid = static_cast<pid_t>(
          std::strtol(task.path().filename().c_str(), nullptr, 10));
      if (tid > 0) sched_setaffinity(tid, sizeof(set), &set);
    }
  }

  cpu_set_t initial_;
  std::vector<int> cpus_;
};

// Workloads -----------------------------------------------------------------

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Queries per second of --seconds: the fixed query count is
  /// rate * seconds, so every count metric repeats exactly.
  virtual double QueryRate() const = 0;
  virtual int Setups() const = 0;
  virtual int DefaultEngineThreads() const = 0;
  virtual std::string Threads() const = 0;
  virtual void Generate(uint64_t seed, size_t queries) = 0;
  /// One fresh set-up, timed; the newest artifact serves the queries.
  virtual Status SetupOnce(double* seconds) = 0;
  virtual double CompressionRate() const = 0;
  virtual Status Warm() = 0;
  virtual Status Measure(Phase* phase) = 0;
  virtual Status Verify(Verdict* verdict) = 0;
  /// Counters gathered after the timed phase of every run (the "# counts"
  /// line). By default the intersect transactions of the measured phase.
  virtual Status CollectCounts(const Phase& phase, Layers* layers) {
    layers->intersect_txns_per_query =
        phase.totals.PerQuery(phase.totals.warp.intersect_txns);
    return Status::OK();
  }
  /// Timed per-layer probes of the traced run.
  virtual Status Probe(Layers* layers) = 0;
  virtual const simt::CostModel& Cost() const = 0;

  const Graph& raw() const { return raw_; }
  /// Partitions the set-up encodes into (0 = single-blob encode).
  virtual int Partitions() const { return 0; }

  int engine_threads = 1;
  uint64_t seed = 0;
  std::filesystem::path work_dir;

 protected:
  size_t queries() const { return queries_; }

  Graph raw_;
  size_t queries_ = 0;
  std::vector<NodeId> sources_;  // measured queries, then the warm-up ones
  std::vector<size_t> sample_;   // sorted indices of verified queries
};

// One client in a closed loop on one GcgtSession: query i is sent when query
// i - 1 has returned (bfs-web, bc-ooc).
class SessionWorkload : public Workload {
 public:
  int Setups() const override { return 5; }
  int DefaultEngineThreads() const override { return 3; }
  std::string Threads() const override {
    return "1 client, " + std::to_string(engine_threads) + " engine threads";
  }

  double CompressionRate() const override {
    return 32.0 * raw_.num_edges() / session_->cgr().total_bits();
  }

  const simt::CostModel& Cost() const override {
    return session_->options().gcgt.cost;
  }

  Status Warm() override {
    for (size_t i = queries(); i < sources_.size(); ++i) {
      auto r = session_->Run(MakeQuery(i));
      if (!r.ok()) return r.status();
    }
    return Status::OK();
  }

  Status Measure(Phase* phase) override {
    const size_t n = queries();
    phase->latency_ms.assign(n, 0.0);
    phase->done_ns.assign(n, 0);
    kept_.clear();
    size_t next_sample = 0;
    const int64_t start = phase->start_ns = NowNs();
    for (size_t i = 0; i < n; ++i) {
      const int64_t t0 = NowNs();
      Result<QueryResult> r = [&] {
        Scope span("api.run", i + 1);
        return session_->Run(MakeQuery(i));
      }();
      const int64_t t1 = NowNs();
      phase->latency_ms[i] = (t1 - t0) * 1e-6;
      phase->done_ns[i] = t1;
      phase->run_s += Seconds(t0, t1);
      ++phase->attempted;
      if (!r.ok()) {
        ++phase->failed;
        continue;
      }
      phase->totals.Add(r.value().metrics(), Cost());
      if (next_sample < sample_.size() && sample_[next_sample] == i) {
        kept_.emplace_back(i, std::move(r).value());
        ++next_sample;
      }
    }
    phase->wall_s = Seconds(start, NowNs());
    return Status::OK();
  }

  Status Verify(Verdict* v) override {
    for (const auto& [i, got] : kept_) {
      auto ref = session_->Run(MakeQuery(i),
                               {.backend = Backend::kCpuReference});
      if (!ref.ok()) return ref.status();
      ++v->checked;
      if (!Matches(ref.value(), got)) ++v->mismatched;
    }
    return Status::OK();
  }

  /// Decode sweep, then the first BaselineQueries() measured queries on the
  /// GPUCSR backend (its lazily decoded CSR is built by one untimed query
  /// first).
  Status Probe(Layers* layers) override {
    layers->decode_ns_per_edge = DecodeNsPerEdge(session_->cgr());
    const RunOptions csr{.backend = Backend::kCsrBaseline};
    if (auto w = session_->Run(MakeQuery(0), csr); !w.ok()) return w.status();
    const size_t n = std::min(BaselineQueries(), queries());
    double cycles = 0.0;
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      Scope span("baseline.run", i + 1);
      auto r = session_->Run(MakeQuery(i), csr);
      if (!r.ok()) return r.status();
      cycles += ModelCycles(r.value().metrics(), Cost());
    }
    layers->csr_ms_per_query = (NowNs() - t0) * 1e-6 / n;
    layers->csr_model_cycles_per_query = cycles / n;
    return Status::OK();
  }

 protected:
  virtual Query MakeQuery(size_t i) const = 0;
  /// The oracle comparison of a sampled result against the CPU reference.
  virtual bool Matches(const QueryResult& want,
                       const QueryResult& got) const = 0;
  virtual size_t BaselineQueries() const = 0;

  std::optional<GcgtSession> session_;

 private:
  std::vector<std::pair<size_t, QueryResult>> kept_;  // sampled results
};

// bfs-web: one client runs BFS from uniform sources on a uk-2007-style web
// graph prepared with VNC + LLP and CGR defaults.
class BfsWeb final : public SessionWorkload {
 public:
  double QueryRate() const override { return 40.0; }

  void Generate(uint64_t s, size_t queries) override {
    WebGraphParams p;
    p.num_nodes = 80000;
    p.avg_degree = 38;
    p.mean_host_size = 64;
    p.template_fraction = 0.60;
    p.seed = kGraphSeed;
    raw_ = GenerateWebGraph(p);
    queries_ = queries;
    Rng rng(StreamSeed(s, 2));
    while (sources_.size() < queries + kWarm) {
      const NodeId u = static_cast<NodeId>(rng.Uniform(raw_.num_nodes()));
      if (raw_.out_degree(u) > 0) sources_.push_back(u);
    }
    sample_ = SampleIndices(s, queries, 24);
  }

  Status SetupOnce(double* seconds) override {
    session_.reset();
    const int64_t t0 = NowNs();
    Result<GcgtSession> s = [&] {
      Scope span("api.prepare");
      return GcgtSession::Prepare(raw_, UnifiedPrepare(engine_threads));
    }();
    *seconds = Seconds(t0, NowNs());
    if (!s.ok()) return s.status();
    session_.emplace(std::move(s).value());
    return Status::OK();
  }

 private:
  static constexpr uint64_t kGraphSeed = 1007;  // the uk-2007 stand-in
  static constexpr size_t kWarm = 10;

  Query MakeQuery(size_t i) const override { return BfsQuery{sources_[i]}; }
  bool Matches(const QueryResult& want, const QueryResult& got) const override {
    return want.bfs().depth == got.bfs().depth;
  }
  size_t BaselineQueries() const override { return 40; }
};

// bc-ooc: single-source BC on a twitter-style graph, served from a
// partitioned CGR container written to disk, opened mmap'd and paged under a
// resident budget of a fraction of its payload.
class BcOoc final : public SessionWorkload {
 public:
  double QueryRate() const override { return 16.0; }
  int Partitions() const override { return kPartitions; }

  void Generate(uint64_t s, size_t queries) override {
    TwitterGraphParams p;
    p.num_nodes = 50000;
    p.avg_degree = 30;
    p.num_hubs = 12;
    p.seed = kGraphSeed;
    raw_ = GenerateTwitterGraph(p);
    queries_ = queries;
    sample_ = SampleIndices(s, queries, 12);
  }

  Status SetupOnce(double* seconds) override {
    session_.reset();
    container_.reset();
    PrepareOptions p = UnifiedPrepare(engine_threads);
    p.ooc_partitions = kPartitions;
    const int64_t t0 = NowNs();
    Scope setup("bench.setup");
    Result<GcgtSession> prepared = [&] {
      Scope span("api.prepare");
      return GcgtSession::Prepare(raw_, p);
    }();
    if (!prepared.ok()) return prepared.status();
    const uint64_t fp = prepared.value().artifact_fingerprint();
    const int64_t t1 = NowNs();
    {
      Scope span("ooc.write");
      Status w = ooc::WriteCgrContainer(prepared.value().cgr(), fp, Path());
      if (!w.ok()) return w;
    }
    const int64_t t2 = NowNs();
    Result<ooc::CgrContainer> opened = [&] {
      Scope span("ooc.open");
      return ooc::CgrContainer::Open(Path());
    }();
    if (!opened.ok()) return opened.status();
    const int64_t t3 = NowNs();
    container_ = std::make_unique<ooc::CgrContainer>(std::move(opened).value());
    auto view = container_->ToCgrGraphView();
    if (!view.ok()) return view.status();
    GcgtOptions g = p.gcgt;
    g.ooc_resident_bytes = std::max<uint64_t>(
        container_->PayloadBytes() * kBudgetNum / kBudgetDen, 1);
    session_.emplace(GcgtSession::Adopt(
        std::make_unique<const CgrGraph>(std::move(view).value()), g, fp));
    *seconds = Seconds(t0, NowNs());
    write_s_.push_back(Seconds(t1, t2));
    open_s_.push_back(Seconds(t2, t3));
    if (sources_.empty()) PickSources();
    return Status::OK();
  }

  Status Probe(Layers* layers) override {
    layers->ooc_write_s = Median(write_s_);
    layers->ooc_open_s = Median(open_s_);
    return SessionWorkload::Probe(layers);
  }

  ~BcOoc() override {
    session_.reset();
    container_.reset();
    std::error_code ec;
    std::filesystem::remove(Path(), ec);
  }

 private:
  static constexpr uint64_t kGraphSeed = 1010;  // the twitter stand-in
  static constexpr int kPartitions = 64;
  static constexpr uint64_t kBudgetNum = 1, kBudgetDen = 4;
  static constexpr size_t kWarm = 3;

  Query MakeQuery(size_t i) const override { return BcQuery{{sources_[i]}}; }
  bool Matches(const QueryResult& want, const QueryResult& got) const override {
    const std::vector<double>& a = want.bc().dependency;
    const std::vector<double>& b = got.bc().dependency;
    if (a.size() != b.size()) return false;
    for (size_t k = 0; k < a.size(); ++k) {
      const double scale = std::max({1.0, std::fabs(a[k]), std::fabs(b[k])});
      if (std::fabs(a[k] - b[k]) > 1e-9 * scale) return false;
    }
    return true;
  }
  size_t BaselineQueries() const override { return 12; }

  std::string Path() const {
    return (work_dir / ("bc-ooc-" + std::to_string(seed) + ".gcoc")).string();
  }

  /// Sources live in the container's (prepared) id space, which is only
  /// known after the first set-up; it is the same for every set-up.
  void PickSources() {
    const CgrGraph& cgr = session_->cgr();
    Rng rng(StreamSeed(seed, 2));
    while (sources_.size() < queries() + kWarm) {
      const NodeId u = static_cast<NodeId>(rng.Uniform(cgr.num_nodes()));
      if (!DecodeAdjacency(cgr, u).empty()) sources_.push_back(u);
    }
  }

  std::unique_ptr<ooc::CgrContainer> container_;  // outlives the view
  std::vector<double> write_s_, open_s_;
};

// serve-social: client threads submit "people you may know" TopK queries
// with Zipf-skewed sources through GcgtService with the result cache on.
class ServeSocial final : public Workload {
 public:
  double QueryRate() const override { return 160.0; }
  int Setups() const override { return 7; }
  int DefaultEngineThreads() const override { return 1; }
  std::string Threads() const override {
    return "1 client, " + std::to_string(kWorkers) +
           " service worker x " + std::to_string(engine_threads) +
           " engine thread";
  }

  void Generate(uint64_t s, size_t queries) override {
    SocialGraphParams p;
    p.num_nodes = 25000;
    p.avg_degree = 11;
    p.seed = kGraphSeed;
    raw_ = GenerateSocialGraph(p);
    queries_ = queries;
    // Zipf over popularity ranks. Popularity belongs to the dataset: ranks
    // map to a fixed node permutation (spread over the id space), and the
    // seed only draws the trace. A seeded permutation moved p50_ms by ~30%
    // between seeds, since it decides which users sit just beyond the cache.
    std::vector<NodeId> by_rank;
    for (NodeId u = 0; u < raw_.num_nodes(); ++u) {
      if (raw_.out_degree(u) > 0) by_rank.push_back(u);
    }
    Rng(kGraphSeed).Shuffle(by_rank);
    Rng rng(StreamSeed(s, 2));
    for (size_t i = 0; i < queries + kWarm; ++i) {
      sources_.push_back(by_rank[rng.Zipf(by_rank.size(), kZipfAlpha) - 1]);
    }
    sample_ = SampleIndices(s, queries, 200);
  }

  Status SetupOnce(double* seconds) override {
    service_.reset();
    ServiceOptions o;
    o.num_workers = kWorkers;
    o.worker_engine_threads = engine_threads;
    // A small LRU cache keeps the hit share stationary (about the Zipf mass
    // of the kCacheEntries hottest sources) however long the run is.
    o.cache_bytes = kCacheEntries *
                    (sizeof(QueryResult) +
                     10 * sizeof(GcgtSimilarityTopKResult::Item));
    service_ = std::make_unique<GcgtService>(o);
    const PrepareOptions p = UnifiedPrepare(engine_threads);
    const int64_t t0 = NowNs();
    Result<uint64_t> fp = [&] {
      Scope span("service.register");
      return service_->RegisterGraph(raw_, p);
    }();
    *seconds = Seconds(t0, NowNs());
    if (!fp.ok()) return fp.status();
    graph_ = fp.value();
    cost_ = service_->FindGraph(graph_)->options().gcgt.cost;
    return Status::OK();
  }

  double CompressionRate() const override {
    return 32.0 * raw_.num_edges() /
           service_->FindGraph(graph_)->cgr().total_bits();
  }

  Status Warm() override {
    // The worker builds its session and intersection engine, and the cache
    // fills with popular sources.
    RunClient(queries(), sources_.size(), nullptr);
    return Status::OK();
  }

  Status Measure(Phase* phase) override {
    const ServiceStats before = service_->Stats();
    const int64_t start = phase->start_ns = NowNs();
    RunClient(0, queries(), phase);
    phase->wall_s = Seconds(start, NowNs());
    phase->cache_hits = service_->Stats().cache.hits - before.cache.hits;
    return Status::OK();
  }

  Status Verify(Verdict* v) override {
    GcgtSession oracle = service_->FindGraph(graph_)->NewWorkerSession(1);
    for (size_t j = 0; j < sample_.size(); ++j) {
      auto ref = oracle.Run(Topk(sample_[j]),
                            {.backend = Backend::kCpuReference});
      if (!ref.ok()) return ref.status();
      ++v->checked;
      if (!kept_[j].has_value() ||
          ref.value().similarity_topk().items != *kept_[j]) {
        ++v->mismatched;
      }
    }
    return Status::OK();
  }

  /// The first kStandalone measured sources on a standalone session: no
  /// service, no cache, so every query runs the intersection engine.
  Status CollectCounts(const Phase&, Layers* layers) override {
    GcgtSession session = service_->FindGraph(graph_)->NewWorkerSession(1);
    if (auto w = session.Run(Topk(queries())); !w.ok()) return w.status();
    const size_t n = std::min(kStandalone, queries());
    uint64_t txns = 0;
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      auto r = session.Run(Topk(i));
      if (!r.ok()) return r.status();
      txns += r.value().metrics().warp.intersect_txns;
    }
    layers->intersect_ms_per_query = (NowNs() - t0) * 1e-6 / n;
    layers->intersect_txns_per_query = static_cast<double>(txns) / n;
    const ServiceStats st = service_->Stats();
    layers->retries = static_cast<double>(st.retries);
    layers->shed = static_cast<double>(st.rejected + st.shed_overload +
                                       st.shed_rate_limited);
    layers->worker_sessions = static_cast<double>(st.worker_sessions);
    return Status::OK();
  }

  Status Probe(Layers* layers) override {
    layers->decode_ns_per_edge =
        DecodeNsPerEdge(service_->FindGraph(graph_)->cgr());
    return Status::OK();
  }

  const simt::CostModel& Cost() const override { return cost_; }

 private:
  static constexpr uint64_t kGraphSeed = 1008;  // the ljournal stand-in
  // One client and one worker: with two of each, the run-to-run spread of
  // queries_per_s and p50_ms roughly doubled on a shared 4-vCPU host.
  static constexpr int kWorkers = 1;
  static constexpr size_t kWarm = 1000;
  static constexpr size_t kCacheEntries = 2000;
  static constexpr size_t kStandalone = 400;
  static constexpr double kZipfAlpha = 0.6;
  // ~60 ms of queries per CPU: each 600-query round of a 30 s run visits
  // every CPU of a 4-CPU set seven times or more.
  static constexpr size_t kSlice = 20;

  Query Topk(size_t i) const { return SimilarityTopKQuery{sources_[i], 10}; }

  /// Closed loop: the client submits queries [begin, end) in order and
  /// waits for each result before sending the next. A null `phase` is the
  /// untimed warm-up. Every kSlice queries, the client, the worker and every
  /// other thread move together to the next CPU (CpuRotation), outside the
  /// timed span of any query.
  void RunClient(size_t begin, size_t end, Phase* phase) {
    if (phase != nullptr) {
      phase->latency_ms.assign(end - begin, 0.0);
      phase->done_ns.assign(end - begin, 0);
      kept_.assign(sample_.size(), std::nullopt);
    }
    double block_ms = 0.0;
    for (size_t i = begin; i < end; ++i) {
      if ((i - begin) % kSlice == 0) rotation_.Pin((i - begin) / kSlice);
      const int64_t t0 = NowNs();
      Result<QueryResult> r = Status::Internal("unset");
      {
        Scope request("bench.query", i + 1);
        std::future<Result<QueryResult>> f;
        {
          Scope span("service.submit", i + 1);
          f = service_->Submit({.graph = graph_, .query = Topk(i)});
        }
        block_ms += (NowNs() - t0) * 1e-6;
        Scope span("service.wait", i + 1);
        r = f.get();
      }
      const int64_t t1 = NowNs();
      if (phase == nullptr) continue;
      phase->latency_ms[i - begin] = (t1 - t0) * 1e-6;
      phase->done_ns[i - begin] = t1;
      phase->run_s += Seconds(t0, t1);
      ++phase->attempted;
      if (!r.ok()) {
        ++phase->failed;
        continue;
      }
      phase->totals.Add(r.value().metrics(), Cost());
      auto it = std::lower_bound(sample_.begin(), sample_.end(), i);
      if (it != sample_.end() && *it == i) {
        kept_[it - sample_.begin()] = r.value().similarity_topk().items;
      }
    }
    rotation_.Release();
    if (phase != nullptr) phase->submit_block_ms = block_ms / (end - begin);
  }

  std::vector<std::optional<std::vector<GcgtSimilarityTopKResult::Item>>>
      kept_;  // sampled results, in sample_ order
  std::unique_ptr<GcgtService> service_;
  CpuRotation rotation_;
  uint64_t graph_ = 0;
  simt::CostModel cost_;
};

// Driver ----------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int engine_threads = -1;
  std::string work_dir = ".bench_build/perfbench";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--engine-threads") a->engine_threads = std::atoi(v.c_str());
    else if (k == "--work-dir") a->work_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "bfs-web") return std::make_unique<BfsWeb>();
  if (name == "serve-social") return std::make_unique<ServeSocial>();
  if (name == "bc-ooc") return std::make_unique<BcOoc>();
  return nullptr;
}

int Fail(const std::string& what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
               s.ToString().c_str());
  return 2;
}

struct EndToEnd {
  double setup_s, qps, p50_ms;
  Tail tail;  // value: median over rounds; percentile, beyond: per round
  size_t rounds;
};

/// The measured phase is cut into rounds of consecutive queries, at least
/// kRoundQueries each and at most kMaxRounds. queries_per_s, p50_ms and
/// tail_ms are medians over the rounds, so a slow host burst that covers a
/// few rounds, or a few expensive sources bunched in one, does not set them.
constexpr size_t kRoundQueries = 100, kMaxRounds = 8;

EndToEnd Summarize(const std::vector<double>& setups, const Phase& phase) {
  const size_t n = phase.latency_ms.size();
  const size_t rounds = std::clamp<size_t>(n / kRoundQueries, 1, kMaxRounds);
  std::vector<double> qps, p50, tail;
  Tail t;
  for (size_t r = 0; r < rounds; ++r) {
    const size_t b = r * n / rounds, e = (r + 1) * n / rounds;
    const int64_t from = b ? phase.done_ns[b - 1] : phase.start_ns;
    qps.push_back((e - b) / Seconds(from, phase.done_ns[e - 1]));
    const std::vector<double> lat(phase.latency_ms.begin() + b,
                                  phase.latency_ms.begin() + e);
    p50.push_back(Median(lat));
    t = TailOf(lat);
    tail.push_back(t.value);
  }
  t.value = Median(tail);
  return {Median(setups), Median(qps), Median(p50), t, rounds};
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <bfs-web|serve-social|"
                 "bc-ooc> --seed <n> --seconds <s> --trace <0|1> "
                 "[--engine-threads <t>] [--work-dir <dir>]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  w->seed = args.seed;
  w->work_dir = args.work_dir;
  w->engine_threads = args.engine_threads >= 0 ? args.engine_threads
                                               : w->DefaultEngineThreads();
  const size_t queries = static_cast<size_t>(
      std::max(1.0, std::round(w->QueryRate() * args.seconds)));
  perfbench::SpanRecorder& spans = perfbench::SpanRecorder::Get();

  w->Generate(args.seed, queries);  // input generation: never timed

  // The traced pass pairs every set-up with one run of the split
  // preprocessing pipeline, so host phases cancel in their difference.
  std::vector<Preprocessing> probes;
  std::vector<double> uncovered_s;
  auto setup = [&](bool traced, std::vector<double>* times) -> Status {
    for (int k = 0; k < w->Setups(); ++k) {
      double s = 0.0;
      spans.set_enabled(traced);
      Status st = w->SetupOnce(&s);
      if (st.ok() && traced) {
        probes.push_back(ProbePreprocessing(w->raw(), w->Partitions(),
                                            w->engine_threads));
        uncovered_s.push_back(s - probes.back().total_s());
      }
      spans.set_enabled(false);
      if (!st.ok()) return st;
      times->push_back(s);
    }
    return Status::OK();
  };
  // The traced pass repeats set-up, warm-up and the measured phase on fresh
  // artifacts, so it starts from the same (cold) caches as the plain pass.
  std::vector<double> setups, traced_setups;
  Phase phase, traced;
  for (int pass = 0; pass < (args.trace ? 2 : 1); ++pass) {
    const bool on = pass == 1;
    Status s = setup(on, on ? &traced_setups : &setups);
    if (!s.ok()) return Fail("set-up", s);
    if (s = w->Warm(); !s.ok()) return Fail("warm-up", s);
    spans.set_enabled(on);
    s = w->Measure(on ? &traced : &phase);
    spans.set_enabled(false);
    if (!s.ok()) return Fail("measure", s);
  }
  Verdict verdict;
  if (Status s = w->Verify(&verdict); !s.ok()) return Fail("verify", s);
  Layers layers;
  if (Status s = w->CollectCounts(phase, &layers); !s.ok()) {
    return Fail("counts", s);
  }

  const EndToEnd e2e = Summarize(setups, phase);
  const double success =
      1.0 - static_cast<double>(phase.failed + verdict.mismatched) /
                phase.attempted;
  // The JSON counts cover both passes of a traced run.
  const uint64_t attempted = phase.attempted + traced.attempted;
  const uint64_t failed = phase.failed + traced.failed + verdict.mismatched;
  const Totals& t = phase.totals;
  const double lane_steps = static_cast<double>(t.warp.active_lane_steps +
                                                t.warp.idle_lane_steps);
  layers.cache_hit_rate =
      static_cast<double>(phase.cache_hits) / phase.attempted;
  layers.submit_block_ms = phase.submit_block_ms;

  std::printf("workload %s seed %llu: %zu queries, %s, %d set-ups\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), queries,
              w->Threads().c_str(), w->Setups());
  const Tail whole = TailOf(phase.latency_ms);
  std::printf("timing metrics are medians over %zu rounds; tail_ms is p%g "
              "with %zu samples beyond it per round\n",
              e2e.rounds, e2e.tail.percentile, e2e.tail.beyond);
  std::printf("whole measured phase: %.6g queries/s, p50 %.6g ms, p%g %.6g "
              "ms with %zu samples beyond it\n",
              phase.attempted / phase.wall_s, Median(phase.latency_ms),
              whole.percentile, whole.value, whole.beyond);
  std::printf("oracle: %llu sampled results checked, %llu mismatched\n",
              static_cast<unsigned long long>(verdict.checked),
              static_cast<unsigned long long>(verdict.mismatched));

  Metrics e2e_metrics = {
      {"setup_s", e2e.setup_s, "s"},
      {"queries_per_s", e2e.qps, "1/s"},
      {"p50_ms", e2e.p50_ms, "ms"},
      {"tail_ms", e2e.tail.value, "ms"},
      {"model_cycles_per_query", t.PerQuery(t.model_cycles), "cycles"},
      {"compression_rate", w->CompressionRate(), "x"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"success_rate", success, "fraction"},
  };
  Metrics counts = {
      e2e_metrics[4], e2e_metrics[5], e2e_metrics[7],
      {"core.kernels_per_query", t.PerQuery(t.kernels), "count"},
      {"simt.steps_per_query", t.PerQuery(t.warp.steps), "count"},
      {"simt.decode_steps_per_query", t.PerQuery(t.warp.decode_steps),
       "count"},
      {"simt.mem_txns_per_query", t.PerQuery(t.warp.mem_txns), "count"},
      {"simt.idle_lane_fraction",
       lane_steps > 0 ? t.warp.idle_lane_steps / lane_steps : 0.0, "fraction"},
      {"intersect.txns_per_query", layers.intersect_txns_per_query, "count"},
      {"ooc.faults_per_query", t.PerQuery(t.warp.partition_faults), "count"},
      {"ooc.spills_per_query", t.PerQuery(t.warp.partition_spills), "count"},
      {"ooc.fault_txns_per_query", t.PerQuery(t.warp.fault_txns), "count"},
      {"ooc.resident_peak_bytes", static_cast<double>(t.resident_peak),
       "bytes"},
      {"service.cache_hit_rate", layers.cache_hit_rate, "fraction"},
  };
  std::printf("# counts %s\n", MetricsJson(counts).c_str());

  Metrics out = e2e_metrics;
  if (args.trace) {
    spans.set_enabled(true);
    Status s = w->Probe(&layers);
    spans.set_enabled(false);
    if (!s.ok()) return Fail("layer probe", s);

    const EndToEnd tr = Summarize(traced_setups, traced);
    auto overhead = [](double traced_v, double plain) {
      return plain != 0.0 ? traced_v / plain - 1.0 : 0.0;
    };
    auto median_of = [&](double Preprocessing::*field) {
      std::vector<double> v;
      for (const Preprocessing& p : probes) v.push_back(p.*field);
      return Median(v);
    };
    const double uncovered = Median(uncovered_s);
    std::printf("tracing overhead (traced / untraced - 1): setup_s %+.4f, "
                "queries_per_s %+.4f, p50_ms %+.4f, tail_ms %+.4f; the "
                "count metrics are identical by construction\n",
                overhead(tr.setup_s, e2e.setup_s), overhead(tr.qps, e2e.qps),
                overhead(tr.p50_ms, e2e.p50_ms),
                overhead(tr.tail.value, e2e.tail.value));
    std::printf("set-up minus vnc.compress + reorder.apply + cgr.encode, "
                "paired per set-up: median %.4f s uncovered (%.1f%% of the "
                "traced setup_s %.4f s)\n",
                uncovered, 100.0 * uncovered / tr.setup_s, tr.setup_s);
    std::printf("%-20s %8s %12s %14s\n", "span", "count", "self_s",
                "self_ms/call");
    for (const auto& [name, v] : spans.SelfTimes()) {
      std::printf("%-20s %8llu %12.6f %14.6f\n", name.c_str(),
                  static_cast<unsigned long long>(v.first), v.second,
                  1e3 * v.second / v.first);
    }
    const std::string span_path =
        (std::filesystem::path(args.work_dir) /
         ("spans-" + args.workload + "-" + std::to_string(args.seed) +
          ".jsonl"))
            .string();
    if (spans.WriteJsonl(span_path)) {
      std::printf("%zu spans written to %s\n", spans.spans().size(),
                  span_path.c_str());
    }
    const double host_ns_per_step =
        t.warp.steps ? phase.run_s * 1e9 / t.warp.steps : 0.0;
    out = {
        {"vnc.s", median_of(&Preprocessing::vnc_s), "s"},
        {"vnc.edge_reduction", probes.back().edge_reduction, "x"},
        {"reorder.s", median_of(&Preprocessing::reorder_s), "s"},
        {"cgr.encode_s", median_of(&Preprocessing::encode_s), "s"},
        {"cgr.bits_per_edge", probes.back().bits_per_edge, "bits"},
        {"cgr.decode_ns_per_edge", layers.decode_ns_per_edge, "ns"},
        {"core.host_ns_per_step", host_ns_per_step, "ns"},
    };
    for (size_t i = 3; i < counts.size(); ++i) {
      if (counts[i].name == "service.cache_hit_rate") continue;
      out.push_back(counts[i]);
    }
    const Metrics rest = {
        {"intersect.ms_per_query", layers.intersect_ms_per_query, "ms"},
        {"service.cache_hit_rate", layers.cache_hit_rate, "fraction"},
        {"service.submit_block_ms", layers.submit_block_ms, "ms"},
        {"service.retries", layers.retries, "count"},
        {"service.shed", layers.shed, "count"},
        {"service.worker_sessions", layers.worker_sessions, "count"},
        {"ooc.write_s", layers.ooc_write_s, "s"},
        {"ooc.open_s", layers.ooc_open_s, "s"},
        {"baseline.csr_model_cycles_per_query",
         layers.csr_model_cycles_per_query, "cycles"},
        {"baseline.csr_ms_per_query", layers.csr_ms_per_query, "ms"},
        {"trace.overhead.setup_s", overhead(tr.setup_s, e2e.setup_s),
         "fraction"},
        {"trace.overhead.queries_per_s", overhead(tr.qps, e2e.qps),
         "fraction"},
        {"trace.overhead.p50_ms", overhead(tr.p50_ms, e2e.p50_ms),
         "fraction"},
        {"trace.overhead.tail_ms", overhead(tr.tail.value, e2e.tail.value),
         "fraction"},
        {"trace.setup_uncovered_s", uncovered, "s"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
  }

  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
