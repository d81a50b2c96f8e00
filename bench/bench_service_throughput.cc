// Closed-loop load generator for the GcgtService serving tier.
//
// N client threads each submit queries back-to-back (submit, wait, record
// latency — closed loop, so the bounded queue's backpressure paces them)
// against one registered artifact. Sources are Zipf-skewed, like real
// traffic: a few hot sources dominate, so the cross-query result cache sees
// realistic hit rates. CC queries ride along every kCcEvery queries.
//
// Scenarios sweep the serving configuration over ONE fixed workload:
//   w1/nocache  - 1 worker, cache off (the serial baseline)
//   wN/nocache  - N workers, cache off (pure worker-pool scaling)
//   wN/cache    - N workers, cache on  (scaling + memoization)
//
// A second, OPEN-loop stage drives the overload-control subsystem: a
// deterministic bursty arrival trace (exponential inter-arrivals alternating
// a sub-capacity base rate with 3x-capacity Poisson bursts, mixed priority
// classes with per-class deadlines, several client ids) is dispatched at
// trace time regardless of completions, once against the legacy FIFO front
// end (overload/fifo) and once against the QoS stack — EDF + CoDel shedding
// + the watchdog (overload/qos). Rates and deadlines are calibrated to the
// machine's measured mean service time, so the trace stresses the QUEUE, not
// the host's absolute speed. Goodput and the interactive class's p99 are the
// trend-gated metrics; model_cycles is 0 for these rows (the scenarios
// complete different query subsets by design, so summed cycles would not be
// comparable).
//
// The per-query model cycles are deterministic and identical across
// scenarios (cache hits return the memoized metrics of an identical fresh
// run), so the summed model_cycles is a machine-independent trend metric;
// qps / p50 / p99 are the wall-clock serving metrics (trend-gated with the
// higher-is-better direction and a generous threshold).
//
//   $ ./bench_service_throughput [--dataset ljournal] [--queries 240]
//       [--clients 8] [--workers 4] [--json BENCH_service.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/gcgt_session.h"
#include "bench/bench_common.h"
#include "service/gcgt_service.h"
#include "util/random.h"

namespace gcgt::bench {
namespace {

constexpr int kSourcePoolSize = 64;
constexpr double kZipfAlpha = 1.2;
constexpr int kCcEvery = 20;  // every 20th query is a CC

struct Scenario {
  std::string label;
  int workers;
  bool cache;
  /// Backend every query requests (the fallback scenario asks for the
  /// Gunrock-modeled backend under a budget it cannot fit).
  Backend backend = Backend::kCgrSimt;
  /// Tight modeled device budget + CPU fallback: every query OOMs on the
  /// requested backend and is re-served degraded.
  bool oom_fallback = false;
};

struct LoadResult {
  double wall_ns = 0;
  double model_cycles = 0;
  std::vector<double> latency_ms;  // sorted on return
  ServiceStats stats;
  int errors = 0;
};

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

/// One fixed workload, identical across scenarios: Zipf-ranked BFS sources
/// from a pool of nodes with outgoing edges, a CC every kCcEvery queries.
std::vector<Query> BuildWorkload(const Graph& g, int num_queries) {
  Rng rng(20260727);
  std::vector<NodeId> pool;
  pool.reserve(kSourcePoolSize);
  while (pool.size() < kSourcePoolSize) {
    NodeId s = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
    if (g.out_degree(s) > 0) pool.push_back(s);
  }
  std::vector<Query> workload;
  workload.reserve(num_queries);
  for (int i = 0; i < num_queries; ++i) {
    if (i % kCcEvery == kCcEvery - 1) {
      workload.push_back(CcQuery{});
    } else {
      const uint64_t rank = rng.Zipf(kSourcePoolSize, kZipfAlpha) - 1;
      workload.push_back(BfsQuery{pool[rank]});
    }
  }
  return workload;
}

LoadResult RunScenario(const Graph& g, const PrepareOptions& prep,
                       const Scenario& scenario,
                       const std::vector<Query>& workload, int num_clients) {
  ServiceOptions opt;
  opt.num_workers = scenario.workers;
  opt.queue_capacity = 2 * static_cast<size_t>(num_clients);
  if (!scenario.cache) opt.cache_bytes = 0;
  if (scenario.oom_fallback) {
    opt.enable_oom_fallback = true;
    opt.fallback_backend = Backend::kCpuReference;
  }
  GcgtService service(opt);
  auto id = service.RegisterGraph(g, prep);
  if (!id.ok()) {
    std::fprintf(stderr, "register failed: %s\n",
                 id.status().ToString().c_str());
    std::exit(1);
  }

  // Contiguous slice per client; closed loop within each client.
  LoadResult out;
  std::vector<std::vector<double>> latencies(num_clients);
  std::vector<std::vector<double>> model_ms(num_clients);
  std::vector<int> errors(num_clients, 0);
  const double t0 = NowNs();
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      const size_t begin = workload.size() * c / num_clients;
      const size_t end = workload.size() * (c + 1) / num_clients;
      for (size_t i = begin; i < end; ++i) {
        const double q0 = NowNs();
        Result<QueryResult> r =
            service.Submit({id.value(), workload[i], scenario.backend}).get();
        const double q1 = NowNs();
        if (!r.ok()) {
          ++errors[c];
          continue;
        }
        latencies[c].push_back((q1 - q0) * 1e-6);
        model_ms[c].push_back(r.value().metrics().model_ms);
      }
    });
  }
  for (auto& t : clients) t.join();
  out.wall_ns = NowNs() - t0;

  const simt::CostModel cost;  // benches run the default cost model
  double total_model_ms = 0;
  for (int c = 0; c < num_clients; ++c) {
    out.errors += errors[c];
    out.latency_ms.insert(out.latency_ms.end(), latencies[c].begin(),
                          latencies[c].end());
    for (double ms : model_ms[c]) total_model_ms += ms;
  }
  out.model_cycles = ModelCycles(total_model_ms, cost);
  std::sort(out.latency_ms.begin(), out.latency_ms.end());
  out.stats = service.Stats();
  return out;
}

// ----------------------------------------------------------- overload stage

/// One entry of the deterministic open-loop arrival trace. Deadlines are
/// relative to submission (0 = none), priorities/clients are part of the
/// trace so FIFO and QoS serve the exact same offered load.
struct OverloadArrival {
  double arrival_s = 0;
  size_t query_index = 0;
  QueryPriority priority = QueryPriority::kBatch;
  uint64_t client = 0;
  double deadline_s = 0;
};

struct ServiceTimeProfile {
  double mean_s = 0;
  double max_s = 0;  // heaviest single query (a CC sweep, in practice)
};

/// Per-query service time on this machine, measured on a fresh serial
/// session. The arrival trace is expressed in multiples of the mean, so the
/// bench stresses queueing policy rather than absolute host speed; the max
/// bounds head-of-line blocking (a deadline must survive every worker being
/// busy with the heaviest query when an interactive arrival lands).
ServiceTimeProfile CalibrateServiceTime(const Graph& g,
                                        const PrepareOptions& prep,
                                        const std::vector<Query>& workload) {
  auto session = GcgtSession::Prepare(g, prep);
  if (!session.ok()) {
    std::fprintf(stderr, "calibration prepare failed: %s\n",
                 session.status().ToString().c_str());
    std::exit(1);
  }
  ServiceTimeProfile profile;
  const size_t n = std::min<size_t>(24, workload.size());
  const double t0 = NowNs();
  for (size_t i = 0; i < n; ++i) {
    const double q0 = NowNs();
    auto r = session.value().Run(workload[i]);
    if (!r.ok()) {
      std::fprintf(stderr, "calibration run failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    profile.max_s = std::max(profile.max_s, (NowNs() - q0) * 1e-9);
  }
  profile.mean_s = (NowNs() - t0) * 1e-9 / static_cast<double>(n);
  return profile;
}

/// Blocks of 32 arrivals alternate a 0.6x-capacity base rate with a
/// 3x-capacity burst; inter-arrivals are exponential (Poisson process) from
/// a fixed seed. ~25% interactive with a tight deadline a burst will break
/// under FIFO, ~45% deadline-less batch, ~30% best-effort with a loose
/// deadline; client ids cycle over four tenants. Heavyweight CC sweeps are
/// never interactive — point lookups are latency-sensitive, full-graph
/// analytics are batch by nature — and the interactive deadline budgets for
/// worst-case head-of-line blocking (every worker mid-CC on arrival).
std::vector<OverloadArrival> BuildOverloadTrace(size_t count,
                                                const ServiceTimeProfile& st,
                                                int workers) {
  Rng rng(20260808);
  const double capacity_qps = static_cast<double>(workers) / st.mean_s;
  const double base_rate = 0.6 * capacity_qps;
  const double burst_rate = 3.0 * capacity_qps;
  const double interactive_deadline_s = 10.0 * st.mean_s + 2.0 * st.max_s;
  std::vector<OverloadArrival> trace;
  trace.reserve(count);
  double t = 0;
  for (size_t i = 0; i < count; ++i) {
    const bool bursting = (i / 32) % 2 == 1;
    const double rate = bursting ? burst_rate : base_rate;
    const double u = std::max(rng.NextDouble(), 1e-12);
    t += -std::log(u) / rate;
    OverloadArrival a;
    a.arrival_s = t;
    a.query_index = i;
    a.client = rng.Uniform(4);
    const bool heavyweight = i % kCcEvery == kCcEvery - 1;
    const double pick = rng.NextDouble();
    if (pick < 0.25 && !heavyweight) {
      a.priority = QueryPriority::kInteractive;
      a.deadline_s = interactive_deadline_s;
    } else if (pick < 0.70 || heavyweight) {
      a.priority = QueryPriority::kBatch;
      a.deadline_s = 0;  // throughput work: no deadline
    } else {
      a.priority = QueryPriority::kBestEffort;
      a.deadline_s = 25.0 * st.mean_s;
    }
    trace.push_back(a);
  }
  return trace;
}

struct OverloadResult {
  double wall_ns = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;  // shed + expired + rejected + deadline-exceeded
  uint64_t interactive_ok = 0;
  uint64_t interactive_total = 0;
  /// Response time of EVERY interactive arrival, failures counted at a
  /// fixed penalty (20x mean service time). The penalty makes the tail
  /// goodput-aware: a discipline that sheds an interactive query scores the
  /// penalty, one that serves it scores its real latency — so survivor bias
  /// cannot make a discipline look fast by failing the slow queries.
  std::vector<double> interactive_response_ms;  // sorted
  ServiceStats stats;
};

OverloadResult RunOverloadScenario(const Graph& g, const PrepareOptions& prep,
                                   const std::vector<Query>& workload,
                                   const std::vector<OverloadArrival>& trace,
                                   bool qos, int workers, double mean_s) {
  ServiceOptions opt;
  opt.num_workers = workers;
  // Deep enough that admission never rejects: every arrival is accepted and
  // the two QUEUEING disciplines alone decide its fate.
  opt.queue_capacity = 1024;
  opt.cache_bytes = 0;  // every admitted query does full work in both modes
  opt.qos.edf = qos;
  if (qos) {
    const auto mean = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(mean_s));
    opt.qos.shed_target = 4 * mean;
    opt.qos.shed_interval = 10 * mean;
    opt.qos.watchdog_interval =
        std::max<std::chrono::nanoseconds>(mean, std::chrono::microseconds(200));
  } else {
    // The A/B baseline is the pre-QoS service: global FIFO, no shedding, no
    // watchdog.
    opt.qos.watchdog_interval = std::chrono::nanoseconds(0);
  }
  GcgtService service(opt);
  auto id = service.RegisterGraph(g, prep);
  if (!id.ok()) {
    std::fprintf(stderr, "register failed: %s\n",
                 id.status().ToString().c_str());
    std::exit(1);
  }

  struct Pending {
    std::future<Result<QueryResult>> future;
    size_t index;
    double submit_ns;
  };
  OverloadResult out;
  std::vector<char> query_ok(trace.size(), 0);
  std::vector<double> latency_ms(trace.size(), -1);
  std::mutex mu;
  std::vector<Pending> pending;
  std::atomic<bool> dispatched{false};

  // The collector polls outstanding futures so each completion gets a
  // timestamp close to its fulfillment (the dispatcher cannot block on
  // .get(): the loop must stay open under overload).
  std::thread collector([&] {
    for (;;) {
      // Read the flag BEFORE scanning: if dispatch had finished by then,
      // every push happened-before the scan, so an empty scan really means
      // drained (no submission can slip in after the last poll).
      const bool was_dispatched = dispatched.load(std::memory_order_acquire);
      bool drained;
      {
        std::lock_guard<std::mutex> lock(mu);
        for (size_t i = 0; i < pending.size();) {
          Pending& p = pending[i];
          if (p.future.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
            const double done_ns = NowNs();
            Result<QueryResult> r = p.future.get();
            query_ok[p.index] = r.ok() ? 1 : 0;
            latency_ms[p.index] = (done_ns - p.submit_ns) * 1e-6;
            pending[i] = std::move(pending.back());
            pending.pop_back();
          } else {
            ++i;
          }
        }
        drained = pending.empty();
      }
      if (drained && was_dispatched) return;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  const double t0 = NowNs();
  for (const OverloadArrival& a : trace) {
    // Open loop: wait for the trace time, then submit no matter how far
    // behind the service is.
    const double target_ns = t0 + a.arrival_s * 1e9;
    const double now_ns = NowNs();
    if (target_ns > now_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          static_cast<int64_t>(target_ns - now_ns)));
    }
    ServiceQuery q{id.value(), workload[a.query_index % workload.size()]};
    q.priority = a.priority;
    q.client_id = a.client;
    if (a.deadline_s > 0) {
      q.cancel = CancelToken::WithDeadline(
          CancelToken::Clock::now() +
          std::chrono::duration_cast<CancelToken::Clock::duration>(
              std::chrono::duration<double>(a.deadline_s)));
    }
    auto submitted = service.TrySubmit(std::move(q));
    if (!submitted.ok()) continue;  // admission-control shed: a failure row
    std::lock_guard<std::mutex> lock(mu);
    pending.push_back(Pending{std::move(submitted.value()), a.query_index,
                              NowNs()});
  }
  dispatched.store(true, std::memory_order_release);
  collector.join();
  out.wall_ns = NowNs() - t0;
  service.Shutdown();

  const double penalty_ms = 20.0 * mean_s * 1e3;
  for (size_t i = 0; i < trace.size(); ++i) {
    const bool interactive =
        trace[i].priority == QueryPriority::kInteractive;
    if (interactive) ++out.interactive_total;
    if (query_ok[i]) {
      ++out.ok;
      if (interactive) {
        ++out.interactive_ok;
        out.interactive_response_ms.push_back(latency_ms[i]);
      }
    } else {
      ++out.failed;
      if (interactive) out.interactive_response_ms.push_back(penalty_ms);
    }
  }
  std::sort(out.interactive_response_ms.begin(),
            out.interactive_response_ms.end());
  out.stats = service.Stats();
  return out;
}

int Main(int argc, char** argv) {
  std::string dataset = "ljournal";
  int num_queries = 240;
  int num_clients = 8;
  int num_workers = 4;
  int overload_queries = 384;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--dataset") == 0) dataset = argv[i + 1];
    if (std::strcmp(argv[i], "--queries") == 0) num_queries = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--clients") == 0) num_clients = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--workers") == 0) num_workers = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--overload-queries") == 0)
      overload_queries = std::atoi(argv[i + 1]);
  }
  JsonReport json(argc, argv);

  // BuildDataset has already applied VNC + LLP reordering; the service
  // session only encodes. Worker engines are serial (num_threads = 1): the
  // serving tier parallelizes across workers, not inside one engine.
  Dataset d = BuildDataset(dataset);
  PrepareOptions prep;
  prep.gcgt.num_threads = 1;
  const std::vector<Query> workload = BuildWorkload(d.graph, num_queries);

  // The degraded scenario serves the same workload on the Gunrock-modeled
  // backend under a device budget its 2.6x memory factor cannot fit: every
  // query OOMs and is re-served on the CPU fallback, marked degraded. Its
  // model_cycles is 0 (the CPU reference carries no simulated-GPU metrics),
  // so the trend gate skips that column and compares qps/p99 only.
  PrepareOptions tight = prep;
  {
    const uint64_t v = d.graph.num_nodes();
    const uint64_t csr_bfs = 4 * (v + 1) + 4 * d.graph.num_edges() + 12 * v;
    tight.gcgt.device.memory_bytes = static_cast<uint64_t>(
        static_cast<double>(csr_bfs) * tight.gunrock_memory_factor * 0.9);
  }

  const Scenario scenarios[] = {
      {"w1/nocache", 1, false},
      {"w" + std::to_string(num_workers) + "/nocache", num_workers, false},
      {"w" + std::to_string(num_workers) + "/cache", num_workers, true},
      {"w" + std::to_string(num_workers) + "/degraded", num_workers, true,
       Backend::kCsrGunrock, /*oom_fallback=*/true},
  };

  std::printf("service throughput: %s, %d queries, %d clients, Zipf(%d, %.1f)\n",
              dataset.c_str(), num_queries, num_clients, kSourcePoolSize,
              kZipfAlpha);
  std::printf("%-12s %10s %10s %10s %10s %10s %10s %12s\n", "scenario",
              "qps", "p50_ms", "p99_ms", "mean_ms", "hit_rate", "degraded",
              "engines");
  for (const Scenario& scenario : scenarios) {
    LoadResult r = RunScenario(d.graph, scenario.oom_fallback ? tight : prep,
                               scenario, workload, num_clients);
    if (r.errors > 0) {
      std::fprintf(stderr, "%d queries failed\n", r.errors);
      return 1;
    }
    const double wall_s = r.wall_ns * 1e-9;
    const double qps = workload.size() / wall_s;
    const double p50 = Quantile(r.latency_ms, 0.5);
    const double p99 = Quantile(r.latency_ms, 0.99);
    double mean = 0;
    for (double ms : r.latency_ms) mean += ms;
    mean /= r.latency_ms.empty() ? 1 : r.latency_ms.size();
    const uint64_t lookups = r.stats.cache.hits + r.stats.cache.misses;
    const double hit_rate =
        lookups ? static_cast<double>(r.stats.cache.hits) / lookups : 0.0;

    std::printf("%-12s %10.1f %10.3f %10.3f %10.3f %10.2f %10llu %12llu\n",
                scenario.label.c_str(), qps, p50, p99, mean, hit_rate,
                static_cast<unsigned long long>(r.stats.degraded),
                static_cast<unsigned long long>(r.stats.worker_sessions));
    json.Add(dataset + "/" + scenario.label, r.wall_ns, r.model_cycles,
             {{"qps", Cell(qps, 0, 2)},
              {"p50_ms", Cell(p50, 0, 4)},
              {"p99_ms", Cell(p99, 0, 4)},
              {"mean_ms", Cell(mean, 0, 4)},
              {"cache_hit_rate", Cell(hit_rate, 0, 3)},
              {"cache_hits", std::to_string(r.stats.cache.hits)},
              {"degraded", std::to_string(r.stats.degraded)},
              {"workers", std::to_string(scenario.workers)},
              {"clients", std::to_string(num_clients)}});
  }

  // -------- open-loop bursty overload: FIFO front end vs the QoS stack ----
  const int overload_workers = std::max(2, num_workers / 2);
  const ServiceTimeProfile service_time =
      CalibrateServiceTime(d.graph, prep, workload);
  const double mean_s = service_time.mean_s;
  const std::vector<OverloadArrival> trace = BuildOverloadTrace(
      static_cast<size_t>(overload_queries), service_time, overload_workers);
  std::printf(
      "\noverload: %d arrivals, %d workers, mean service %.3f ms "
      "(max %.3f ms), burst 3x capacity\n",
      overload_queries, overload_workers, mean_s * 1e3,
      service_time.max_s * 1e3);
  std::printf("%-14s %12s %12s %12s %8s %8s %8s\n", "scenario",
              "goodput_qps", "iact_qps", "iact_p99", "ok", "shed",
              "expired");
  for (const bool qos : {false, true}) {
    OverloadResult r = RunOverloadScenario(d.graph, prep, workload, trace,
                                           qos, overload_workers, mean_s);
    const double wall_s = r.wall_ns * 1e-9;
    const double goodput = static_cast<double>(r.ok) / wall_s;
    const double iact_goodput =
        static_cast<double>(r.interactive_ok) / wall_s;
    const double iact_p99 = Quantile(r.interactive_response_ms, 0.99);
    const std::string label = qos ? "overload/qos" : "overload/fifo";
    const uint64_t shed = r.stats.shed_overload + r.stats.shed_rate_limited +
                          r.stats.rejected;
    std::printf("%-14s %12.1f %12.1f %12.3f %8llu %8llu %8llu\n",
                label.c_str(), goodput, iact_goodput, iact_p99,
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(r.stats.expired_in_queue));
    // model_cycles is 0 by design: the two modes complete different query
    // subsets, so summed deterministic cycles would not be comparable (the
    // model-cycle trend gate skips zero-baseline rows).
    json.Add(dataset + "/" + label, r.wall_ns, 0.0,
             {{"goodput_qps", Cell(goodput, 0, 2)},
              {"interactive_goodput_qps", Cell(iact_goodput, 0, 2)},
              {"interactive_p99_ms", Cell(iact_p99, 0, 4)},
              {"ok", std::to_string(r.ok)},
              {"failed", std::to_string(r.failed)},
              {"interactive_ok", std::to_string(r.interactive_ok)},
              {"interactive_total", std::to_string(r.interactive_total)},
              {"shed_overload", std::to_string(r.stats.shed_overload)},
              {"expired_in_queue", std::to_string(r.stats.expired_in_queue)},
              {"deadline_exceeded", std::to_string(r.stats.deadline_exceeded)},
              {"workers", std::to_string(overload_workers)}});
  }
  return 0;
}

}  // namespace
}  // namespace gcgt::bench

int main(int argc, char** argv) { return gcgt::bench::Main(argc, argv); }
