// Kernel-level time model: warps scheduled onto parallel warp slots.
#ifndef GCGT_SIMT_MACHINE_H_
#define GCGT_SIMT_MACHINE_H_

#include <cstdint>
#include <vector>

#include "simt/cost_model.h"
#include "simt/warp.h"

namespace gcgt::simt {

/// Elapsed cycles for one kernel whose warps take `warp_cycles` each, on
/// `slots` parallel warp slots: greedy (list-scheduling) makespan. This is
/// how dynamic warp scheduling behaves and is what surfaces the paper's
/// load-imbalance effects (a few heavy warps dominate the level time).
double Makespan(const std::vector<double>& warp_cycles, int slots);

/// Accumulates per-kernel stats for a multi-kernel computation (e.g. one BFS:
/// one kernel per level).
class KernelTimeline {
 public:
  explicit KernelTimeline(const CostModel& model) : model_(model) {}

  /// Records one kernel launch with the given per-warp stats. A warp occupies
  /// its slot for start_cycles + Cycles(): a warp that must wait for another
  /// warp's work holds its slot while it waits, which never undercharges.
  void AddKernel(const std::vector<WarpStats>& warps);

  /// Forgets everything recorded so far (the cost model stays). Lets one
  /// timeline be reused across queries without reconstruction.
  void Reset() {
    total_cycles_ = 0;
    straggler_cycles_ = 0;
    num_kernels_ = 0;
    aggregate_ = WarpStats{};
  }

  double total_cycles() const { return total_cycles_; }
  double TotalMs() const { return model_.CyclesToMs(total_cycles_); }
  /// Sum over kernels of (makespan - balanced bound), the balanced bound
  /// being the kernel's summed warp cycles spread evenly over the parallel
  /// warp slots: the cycles lost to a few long warps.
  double straggler_cycles() const { return straggler_cycles_; }
  int num_kernels() const { return num_kernels_; }
  const WarpStats& aggregate() const { return aggregate_; }

 private:
  CostModel model_;
  double total_cycles_ = 0;
  double straggler_cycles_ = 0;
  int num_kernels_ = 0;
  WarpStats aggregate_;
  std::vector<double> cycles_;  // per-warp scratch, reused across kernels
};

}  // namespace gcgt::simt

#endif  // GCGT_SIMT_MACHINE_H_
