// Decode-free set-intersection sweep: per dataset, triangle counting and a
// Zipf-repeated Jaccard pair batch under two engine configurations —
//   full-decode   decode every adjacency into scratch, merge element-wise
//                 (the "decompress-then-intersect" strawman)
//   decode-free   merge interval runs and residuals straight off the
//                 compressed stream (the tentpole path)
//
// Both execute the same intersection semantics, so their results must
// be BIT-IDENTICAL to each other and to the CPU reference; this bench
// cross-checks that and exits nonzero on any mismatch. It also enforces the
// headline claim — decode-free strictly undercuts full-decode on modeled
// cycles for every scenario — and exits nonzero on a violation, so the
// committed BENCH_intersect.json can never record a regression of the
// paper's main effect. Every row is deterministic (bit-exact simulator, no
// randomness beyond fixed seeds): check_trend.py gates model_cycles AND
// intersect_txns at 0% drift.
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "util/random.h"

namespace {

template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool SameResult(const gcgt::QueryResult& a, const gcgt::QueryResult& b) {
  using gcgt::QueryKind;
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case QueryKind::kTriangle:
      return a.triangle().triangles == b.triangle().triangles &&
             SameBits(a.triangle().per_vertex, b.triangle().per_vertex);
    case QueryKind::kJaccard:
      return a.jaccard().common == b.jaccard().common &&
             a.jaccard().jaccard == b.jaccard().jaccard &&
             a.jaccard().degree_u == b.jaccard().degree_u &&
             a.jaccard().degree_v == b.jaccard().degree_v;
    default:
      return false;
  }
}

/// Zipf-ish endpoint: low prepared ids are the high-degree nodes after the
/// degree-aware reorders, and real workloads hit hot vertices repeatedly.
gcgt::NodeId ZipfNode(gcgt::Rng& rng, gcgt::NodeId n) {
  const gcgt::NodeId hot = std::max<gcgt::NodeId>(1, n / 64);
  return static_cast<gcgt::NodeId>(
      rng.Bernoulli(0.75) ? rng.Uniform(hot) : rng.Uniform(n));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcgt;
  using bench::Cell;
  bench::JsonReport json(argc, argv);
  std::printf(
      "== Decode-free set intersection: triangle + Zipf Jaccard batch "
      "(model ms) ==\n\n");

  struct ModeSpec {
    const char* label;
    bool full_decode;
  };
  const ModeSpec kModes[] = {
      {"full-decode", true},
      {"decode-free", false},
  };
  constexpr int kJaccardPairs = 64;

  auto datasets = bench::BuildDatasets();
  std::printf("%-10s %-9s %14s %14s %10s\n", "dataset", "app",
              "full-decode", "decode-free", "cpu-ms");

  int violations = 0;
  for (const auto& d : datasets) {
    // One session per mode. The intersect knobs participate in the artifact
    // fingerprint, but the encoded bits are identical — only the engine's
    // merge strategy (and therefore the modeled charges) differs.
    std::vector<std::pair<std::string, GcgtSession>> sessions;
    for (const ModeSpec& m : kModes) {
      PrepareOptions popt;
      popt.gcgt.intersect_full_decode = m.full_decode;
      auto s = GcgtSession::Prepare(d.graph, popt);
      if (!s.ok()) {
        std::fprintf(stderr, "prepare failed (%s/%s): %s\n", d.name.c_str(),
                     m.label, s.status().ToString().c_str());
        return 1;
      }
      sessions.emplace_back(m.label, std::move(s).value());
    }
    const simt::CostModel cost = sessions[0].second.options().gcgt.cost;

    // Fixed Zipf-repeated pair batch per dataset (deterministic).
    Rng rng(0x5eed + d.graph.num_nodes());
    std::vector<Query> pairs;
    for (int i = 0; i < kJaccardPairs; ++i) {
      pairs.push_back(JaccardQuery{ZipfNode(rng, d.graph.num_nodes()),
                                   ZipfNode(rng, d.graph.num_nodes())});
    }

    // Runs `queries` on one session; returns {wall_ns, model_cycles,
    // intersect_txns} and appends results for the cross-check.
    auto run_batch = [&](GcgtSession& session, const std::vector<Query>& qs,
                         std::vector<QueryResult>* out, double* cycles,
                         uint64_t* txns, double* model_ms) -> double {
      *cycles = 0;
      *txns = 0;
      *model_ms = 0;
      const double t0 = bench::NowNs();
      for (const Query& q : qs) {
        auto r = session.Run(q, {.backend = Backend::kCgrSimt});
        if (!r.ok()) {
          std::fprintf(stderr, "query failed (%s): %s\n", d.name.c_str(),
                       r.status().ToString().c_str());
          std::exit(1);
        }
        const TraversalMetrics& m = r.value().metrics();
        *cycles += bench::ModelCycles(m.model_ms, cost);
        *txns += m.warp.intersect_txns;
        *model_ms += m.model_ms;
        if (out) out->push_back(std::move(r).value());
      }
      return bench::NowNs() - t0;
    };

    auto run_app = [&](const char* app, const std::vector<Query>& qs) {
      std::printf("%-10s %-9s", d.name.c_str(), app);
      std::vector<std::vector<QueryResult>> results(sessions.size());
      std::vector<double> cycles(sessions.size());
      std::vector<double> mode_ms(sessions.size());
      for (size_t i = 0; i < sessions.size(); ++i) {
        uint64_t txns = 0;
        const double wall = run_batch(sessions[i].second, qs, &results[i],
                                      &cycles[i], &txns, &mode_ms[i]);
        json.Add(d.name + "/" + app + "/" + sessions[i].first, wall,
                 cycles[i], {{"intersect_txns", std::to_string(txns)}});
        std::printf(" %14s", Cell(mode_ms[i], 14, 3).c_str());
      }
      // CPU reference: the bit-identity oracle for every mode.
      std::vector<QueryResult> cpu;
      const double cpu_t0 = bench::NowNs();
      for (const Query& q : qs) {
        auto r = sessions[0].second.Run(q, {.backend = Backend::kCpuReference});
        if (!r.ok()) {
          std::fprintf(stderr, "cpu reference failed (%s): %s\n",
                       d.name.c_str(), r.status().ToString().c_str());
          std::exit(1);
        }
        cpu.push_back(std::move(r).value());
      }
      std::printf(" %10s\n",
                  Cell((bench::NowNs() - cpu_t0) / 1e6, 10, 1).c_str());

      for (size_t i = 0; i < sessions.size(); ++i) {
        for (size_t q = 0; q < qs.size(); ++q) {
          if (!SameResult(results[i][q], cpu[q])) {
            std::fprintf(stderr,
                         "MISMATCH: %s/%s/%s query %zu differs from the CPU "
                         "reference\n",
                         d.name.c_str(), app, sessions[i].first.c_str(), q);
            ++violations;
          }
        }
      }
      // The headline effect: merging off the compressed stream must beat
      // decompress-then-intersect on modeled cycles.
      if (!(cycles[1] < cycles[0])) {
        std::fprintf(stderr,
                     "VIOLATION: %s/%s decode-free (%.0f cycles) does not "
                     "undercut full-decode (%.0f cycles)\n",
                     d.name.c_str(), app, cycles[1], cycles[0]);
        ++violations;
      }
    };

    run_app("triangle", {TriangleCountQuery{}});
    run_app("jaccard64", pairs);
    std::printf("\n");
  }

  if (violations > 0) {
    std::fprintf(stderr, "%d violation(s)\n", violations);
    return 1;
  }
  std::printf("all modes bit-identical to the CPU reference; decode-free "
              "undercuts full-decode everywhere\n");
  return 0;
}
