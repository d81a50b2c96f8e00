// Shared infrastructure for the paper-figure benchmarks: the five scaled
// synthetic datasets standing in for uk-2002 / uk-2007 / ljournal / twitter /
// brain (see DESIGN.md "Substitutions"), the unified preprocessing pipeline
// of §7.2 (virtual-node compression + node reordering), the paper-ratio
// device-memory budget, and table formatting helpers.
#ifndef GCGT_BENCH_BENCH_COMMON_H_
#define GCGT_BENCH_BENCH_COMMON_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "api/gcgt_session.h"
#include "cgr/cgr_graph.h"
#include "graph/graph.h"
#include "reorder/reorder.h"
#include "simt/cost_model.h"
#include "vnc/virtual_node.h"

namespace gcgt::bench {

struct Dataset {
  std::string name;
  /// Raw generated graph (before preprocessing). Only populated when the
  /// dataset was rebuilt — on a preprocessing-cache hit (see BuildDatasets)
  /// it stays empty and only raw_edges is restored.
  Graph raw;
  /// After the unified preprocessing: VNC then reordering (paper §7.2).
  Graph graph;
  /// Edge count of the raw graph (compression rates are charged against the
  /// preprocessed graph the engines actually traverse, like the paper).
  EdgeId raw_edges = 0;
  double vnc_reduction = 1.0;
};

/// Builds all five scaled datasets with the given reordering (Table 2
/// default: LLP). Deterministic.
///
/// The preprocessed graph (VNC + reordering, the expensive part) is cached
/// on disk as binary CSR, keyed by (name, reorder, vnc, format version), in
/// the directory named by $GCGT_BENCH_CACHE (default "gcgt_bench_cache"
/// under the working directory; set GCGT_BENCH_CACHE=off to disable). The
/// pipeline is deterministic, so a cache hit is bit-identical to a rebuild;
/// delete the directory after changing generators or preprocessing.
std::vector<Dataset> BuildDatasets(
    ReorderMethod reorder = ReorderMethod::kLlp,
    bool apply_vnc = true);

/// Builds one dataset by name ("uk-2002", "uk-2007", "ljournal", "twitter",
/// "brain").
Dataset BuildDataset(const std::string& name,
                     ReorderMethod reorder = ReorderMethod::kLlp,
                     bool apply_vnc = true);

/// Raw (unpreprocessed) generator output for Table 1.
Graph BuildRawGraph(const std::string& name);

std::vector<std::string> DatasetNames();

/// Query session over an already-preprocessed dataset graph (BuildDataset
/// has applied VNC + reordering, so the session only encodes): serves
/// GCGT/GPUCSR/Gunrock/CPU queries. `device_budget_bytes` == 0 keeps the
/// DeviceSpec default; `level` selects the GCGT scheduling ladder rung.
Result<GcgtSession> PreparedSession(const Graph& graph,
                                    uint64_t device_budget_bytes = 0,
                                    const CgrOptions& cgr = {},
                                    GcgtLevel level = GcgtLevel::kFull);

/// One BfsQuery per source, ready for GcgtSession::RunBatch.
std::vector<Query> BfsBatch(const std::vector<NodeId>& sources);

/// Simulated device-memory budget: the paper's 12 GB scaled by the ratio
/// 12 GB / (twitter CSR bytes), applied to the scaled twitter dataset, so
/// every engine's footprint keeps the paper's capacity ratios and the OOMs
/// land in the same places (Gunrock on uk-2007 and twitter).
uint64_t DeviceBudgetBytes(const std::vector<Dataset>& datasets);

/// BFS sources used by all figure benches (fixed for reproducibility; the
/// paper averages 100 random sources, we average kNumSources).
inline constexpr int kNumSources = 3;
std::vector<NodeId> BfsSources(const Graph& g, int count = kNumSources);

/// Wall-clock helper: median-of-3 milliseconds of fn().
double WallMs(const std::function<void()>& fn, int repeats = 3);

/// Formats "12.34" or "OOM" style cells right-aligned to width.
std::string Cell(double value, int width, int precision = 2);
std::string Cell(const std::string& s, int width);

/// Result of a simulated-GPU run averaged over sources.
struct TimedResult {
  double ms = 0.0;
  bool oom = false;
};

/// Compression rate against the RAW edge count: (raw_edges * 32) / bits of
/// the representation (the paper's "32 / bits per edge" with the unified
/// preprocessing counted as compression).
double RateVsRaw(EdgeId raw_edges, uint64_t representation_bits);

/// Simulator model milliseconds -> modeled device cycles (CyclesToMs
/// inverse), the unit bench JSON artifacts record for trend checking.
double ModelCycles(double model_ms, const simt::CostModel& cost);

/// A modeled cycle count as a JSON extra field, rounded to whole cycles.
std::string CyclesField(double cycles);

/// Monotonic host clock in ns, for JsonReport wall_ns fields.
double NowNs();

/// One point of a CGR-parameter sweep (Figs. 11, 12, 14).
struct SweepVariant {
  std::string label;
  CgrOptions options;
};

class JsonReport;

/// Encodes every dataset with every variant, runs full-GCGT BFS, and prints
/// "dataset  variant  bfs_ms  rate" rows. When `json` is non-null, each
/// (dataset, variant) point additionally becomes one JSON row
/// ("dataset/variant", wall ns of the simulated runs, total modeled cycles,
/// compression rate).
void RunCgrSweep(const std::vector<Dataset>& datasets,
                 const std::vector<SweepVariant>& variants,
                 JsonReport* json = nullptr);

/// Machine-readable benchmark output. A bench main constructs one from its
/// argv; when `--json <path>` (or `--json=<path>`) was passed, every Add()
/// becomes one object in a JSON array written to <path> on destruction:
///   {"scenario": "...", "wall_ns": ..., "model_cycles": ..., <extra>...}
/// wall_ns is measured host time for the scenario; model_cycles is the
/// simulator's cycle count (0 for CPU baselines). Extra fields are emitted
/// as strings. This gives future PRs a stable artifact to track the perf
/// trajectory (e.g. BENCH_fig8.json).
class JsonReport {
 public:
  JsonReport(int argc, char** argv);
  ~JsonReport();

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  bool enabled() const { return !path_.empty(); }

  void Add(const std::string& scenario, double wall_ns, double model_cycles,
           const std::vector<std::pair<std::string, std::string>>& extra = {});

  /// Writes the file now (also called by the destructor once).
  void Write();

 private:
  std::string path_;
  std::vector<std::string> rows_;
  bool written_ = false;
};

}  // namespace gcgt::bench

#endif  // GCGT_BENCH_BENCH_COMMON_H_
