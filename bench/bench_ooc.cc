// Out-of-core tier sweep: one partitioned CGR container per dataset, served
// under a shrinking resident budget (100% -> 12.5% of the encoded payload)
// with the in-core session as the reference row.
//
// The pager is a modeled overlay — decode always reads the full encoded
// bits, so BFS/CC/BC labels must be BIT-IDENTICAL to the in-core run at
// every budget point; this bench cross-checks that and exits nonzero on any
// mismatch. What the budget changes is the modeled cost: partition faults
// and spills add external-tier transactions (CostModel::
// external_latency_multiplier), so model_cycles grows as the budget shrinks
// while the in-core row stays flat. Every row is deterministic (the pager
// runs in frontier order), so check_trend.py gates model_cycles at 0% drift
// across ALL rows, not just the in-core one.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "ooc/cgr_container.h"

namespace {

// Bitwise vector equality (doubles compared as raw bytes: the runs execute
// identical operation sequences, so even float results must match exactly).
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
    case QueryKind::kBfs:
      return SameBits(a.bfs().depth, b.bfs().depth);
    case QueryKind::kCc:
      return SameBits(a.cc().component, b.cc().component);
    case QueryKind::kBc:
      return SameBits(a.bc().dependency, b.bc().dependency) &&
             SameBits(a.bc().depth, b.bc().depth) &&
             SameBits(a.bc().sigma, b.bc().sigma);
    case QueryKind::kTriangle:
      return a.triangle().triangles == b.triangle().triangles &&
             SameBits(a.triangle().per_vertex, b.triangle().per_vertex);
    case QueryKind::kCommonNeighbor:
      return SameBits(a.common_neighbors().common,
                      b.common_neighbors().common);
    case QueryKind::kJaccard:
      return a.jaccard().common == b.jaccard().common &&
             a.jaccard().jaccard == b.jaccard().jaccard;
    case QueryKind::kSimilarityTopK:
      return a.similarity_topk().items == b.similarity_topk().items;
    case QueryKind::kKCore:
      return SameBits(a.kcore().in_core, b.kcore().in_core) &&
             a.kcore().core_size == b.kcore().core_size;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcgt;
  using bench::Cell;
  bench::JsonReport json(argc, argv);
  std::printf("== Out-of-core tier: resident-budget sweep (model ms) ==\n\n");

  constexpr int kPartitions = 8;
  // Budget points as 1/64ths of the encoded payload: 100%, 50%, 25%, 12.5%.
  struct BudgetPoint {
    const char* label;
    uint64_t num64;
  };
  const BudgetPoint kBudgets[] = {
      {"resident100", 64}, {"resident50", 32},
      {"resident25", 16},  {"resident12.5", 8},
  };

  auto datasets = bench::BuildDatasets();
  std::printf("%-10s %-4s %12s %12s %12s %12s %12s\n", "dataset", "app",
              "in-core", "100%", "50%", "25%", "12.5%");

  const std::filesystem::path container_path =
      std::filesystem::temp_directory_path() / "gcgt_bench_ooc.gcoc";
  int mismatches = 0;

  for (const auto& d : datasets) {
    // One partitioned encode per dataset; the same artifact serves the
    // in-core row (no budget => pager disabled) and, via the container
    // round-trip, every budget row. EncodePartitioned is byte-identical to
    // the serial encode, so "in-core" here is the plain session.
    PrepareOptions popt;
    popt.ooc_partitions = kPartitions;
    auto prepared = GcgtSession::Prepare(d.graph, popt);
    if (!prepared.ok()) continue;
    GcgtSession& incore = prepared.value();
    const simt::CostModel cost = incore.options().gcgt.cost;

    if (auto w = ooc::WriteCgrContainer(incore.cgr(),
                                        incore.artifact_fingerprint(),
                                        container_path.string());
        !w.ok()) {
      std::fprintf(stderr, "container write failed (%s): %s\n",
                   d.name.c_str(), w.ToString().c_str());
      return 1;
    }
    auto container = ooc::CgrContainer::Open(container_path.string());
    if (!container.ok()) {
      std::fprintf(stderr, "container open failed (%s): %s\n", d.name.c_str(),
                   container.status().ToString().c_str());
      return 1;
    }
    const uint64_t payload_bytes = container.value().PayloadBytes();

    // Container-backed sessions, one per budget point, all over the same
    // opened container (ToCgrGraph copies the payload per session).
    std::vector<std::pair<std::string, GcgtSession>> paged;
    for (const BudgetPoint& b : kBudgets) {
      auto cgr = container.value().ToCgrGraph();
      if (!cgr.ok()) {
        std::fprintf(stderr, "container decode failed (%s): %s\n",
                     d.name.c_str(), cgr.status().ToString().c_str());
        return 1;
      }
      GcgtOptions gopt;
      gopt.ooc_resident_bytes = std::max<uint64_t>(payload_bytes * b.num64 / 64,
                                                   1);
      paged.emplace_back(
          b.label,
          GcgtSession::Adopt(
              std::make_unique<const CgrGraph>(std::move(cgr).value()), gopt,
              incore.artifact_fingerprint()));
    }

    NodeId source = bench::BfsSources(d.graph, 1)[0];
    auto run_app = [&](const char* app, const Query& query) {
      std::printf("%-10s %-4s", d.name.c_str(), app);
      const double t0 = bench::NowNs();
      auto ref = incore.Run(query, {.backend = Backend::kCgrSimt});
      const double ref_wall = bench::NowNs() - t0;
      json.Add(d.name + "/" + app + "/in-core", ref.ok() ? ref_wall : 0.0,
               ref.ok()
                   ? bench::ModelCycles(ref.value().metrics().model_ms, cost)
                   : 0.0,
               {{"oom", ref.ok() ? "0" : "1"},
                {"partition_faults", "0"},
                {"partition_spills", "0"},
                {"resident_bytes_peak", "0"},
                {"straggler_cycles",
                 bench::CyclesField(
                     ref.ok() ? ref.value().metrics().straggler_cycles
                              : 0.0)}});
      std::printf(" %12s",
                  ref.ok() ? Cell(ref.value().metrics().model_ms, 12, 3).c_str()
                           : Cell("OOM", 12).c_str());

      for (auto& [label, session] : paged) {
        const double t1 = bench::NowNs();
        auto r = session.Run(query, {.backend = Backend::kCgrSimt});
        const double wall = bench::NowNs() - t1;
        if (ref.ok() && r.ok() &&
            !SameResult(ref.value(), r.value())) {
          std::fprintf(stderr,
                       "MISMATCH: %s/%s/%s differs from the in-core result\n",
                       d.name.c_str(), app, label.c_str());
          ++mismatches;
        }
        std::vector<std::pair<std::string, std::string>> extra = {
            {"oom", r.ok() ? "0" : "1"}};
        if (r.ok()) {
          const TraversalMetrics& m = r.value().metrics();
          extra.emplace_back("partition_faults",
                             std::to_string(m.warp.partition_faults));
          extra.emplace_back("partition_spills",
                             std::to_string(m.warp.partition_spills));
          extra.emplace_back("resident_bytes_peak",
                             std::to_string(m.resident_bytes_peak));
        }
        extra.emplace_back(
            "straggler_cycles",
            bench::CyclesField(r.ok() ? r.value().metrics().straggler_cycles
                                      : 0.0));
        json.Add(d.name + "/" + app + "/" + label, r.ok() ? wall : 0.0,
                 r.ok()
                     ? bench::ModelCycles(r.value().metrics().model_ms, cost)
                     : 0.0,
                 extra);
        std::printf(" %12s",
                    r.ok() ? Cell(r.value().metrics().model_ms, 12, 3).c_str()
                           : Cell("OOM", 12).c_str());
      }
      std::printf("\n");
    };

    run_app("BFS", BfsQuery{source});
    run_app("CC", CcQuery{});
    run_app("BC", BcQuery{{source}});
    std::printf("\n");
  }

  std::error_code ec;
  std::filesystem::remove(container_path, ec);
  if (mismatches != 0) {
    std::fprintf(stderr, "%d budget point(s) diverged from in-core\n",
                 mismatches);
    return 1;
  }
  return 0;
}
