// Paper Fig. 9: impact of applying the GCGT optimizations incrementally
// (Intuitive -> +TwoPhase -> +TaskStealing -> +WarpCentric ->
// +ResidualSegmentation = full GCGT), plus this implementation's sixth rung,
// +HubSplit. Levels 0-3 run on the unsegmented CGR, the last two on the
// segmented layout (that is the encoding residual segmentation introduces).
// Annotations are relative to full GCGT, like the paper's "3.3x .. 1.0x"
// labels.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "cgr/cgr_graph.h"

int main(int argc, char** argv) {
  using namespace gcgt;
  bench::JsonReport json(argc, argv);
  std::printf("== Fig. 9: optimization impact (BFS model ms, x = vs GCGT) ==\n\n");

  auto datasets = bench::BuildDatasets();
  const GcgtLevel levels[] = {GcgtLevel::kIntuitive, GcgtLevel::kTwoPhase,
                              GcgtLevel::kTaskStealing, GcgtLevel::kWarpCentric,
                              GcgtLevel::kFull, GcgtLevel::kHubSplit};

  std::printf("%-10s", "dataset");
  for (GcgtLevel level : levels) {
    std::printf(" %26s", GcgtLevelName(level));
  }
  std::printf("\n");

  for (const auto& d : datasets) {
    // Encode each layout once; every ladder rung is a session attached to
    // the shared encoding (one engine per rung serving the whole batch).
    CgrOptions unseg;
    unseg.segment_len_bytes = 0;
    auto cgr_unseg = CgrGraph::Encode(d.graph, unseg);
    auto cgr_seg = CgrGraph::Encode(d.graph, CgrOptions{});
    if (!cgr_unseg.ok() || !cgr_seg.ok()) continue;
    auto batch = bench::BfsBatch(bench::BfsSources(d.graph));

    std::vector<double> ms;
    for (GcgtLevel level : levels) {
      GcgtOptions opt;
      opt.level = level;
      GcgtSession session = GcgtSession::Attach(
          level >= GcgtLevel::kFull ? cgr_seg.value() : cgr_unseg.value(),
          opt);
      double total = 0;
      const double t0 = bench::NowNs();
      auto results = session.RunBatch(batch);
      if (results.ok()) {
        for (const QueryResult& r : results.value()) {
          total += r.metrics().model_ms;
        }
      }
      json.Add(d.name + "/" + GcgtLevelName(level), bench::NowNs() - t0,
               bench::ModelCycles(total, opt.cost));
      ms.push_back(total / batch.size());
    }
    const double full = ms[static_cast<size_t>(GcgtLevel::kFull)];
    std::printf("%-10s", d.name.c_str());
    for (double m : ms) {
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%.3fms (%.1fx)", m,
                    full > 0 ? m / full : 0.0);
      std::printf(" %26s", cell);
    }
    std::printf("\n");
  }
  return 0;
}
