#include "simt/machine.h"

#include <algorithm>
#include <queue>

namespace gcgt::simt {

double Makespan(const std::vector<double>& warp_cycles, int slots) {
  if (warp_cycles.empty()) return 0.0;
  if (slots <= 1) {
    double sum = 0;
    for (double c : warp_cycles) sum += c;
    return sum;
  }
  // Every warp fits a slot of its own and starts at 0, so the greedy
  // schedule below would return the largest duration; skip its heap.
  if (warp_cycles.size() <= static_cast<size_t>(slots)) {
    return *std::max_element(warp_cycles.begin(), warp_cycles.end());
  }
  // Greedy list scheduling in submission order (hardware does not sort work),
  // tracked with a min-heap of slot finish times.
  std::priority_queue<double, std::vector<double>, std::greater<>> finish;
  double makespan = 0.0;
  for (double c : warp_cycles) {
    double start = 0.0;
    if (static_cast<int>(finish.size()) >= slots) {
      start = finish.top();
      finish.pop();
    }
    double end = start + c;
    finish.push(end);
    makespan = std::max(makespan, end);
  }
  return makespan;
}

void KernelTimeline::AddKernel(const std::vector<WarpStats>& warps) {
  cycles_.clear();
  double sum = 0;
  for (const WarpStats& w : warps) {
    cycles_.push_back(w.start_cycles + w.Cycles(model_));
    sum += cycles_.back();
    aggregate_ += w;
  }
  const int slots = model_.parallel_warp_slots();
  const double makespan = Makespan(cycles_, slots);
  total_cycles_ += model_.kernel_launch_cycles + makespan;
  straggler_cycles_ += makespan - sum / std::max(slots, 1);
  ++num_kernels_;
}

}  // namespace gcgt::simt
