#include "reorder/reorder.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <queue>

#include "util/random.h"
#include "util/thread_pool.h"

namespace gcgt {
namespace {

std::vector<NodeId> IdentityOrder(NodeId n) {
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  return perm;
}

std::vector<EdgeId> InDegrees(const Graph& g) {
  std::vector<EdgeId> in_deg(g.num_nodes(), 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.Neighbors(u)) ++in_deg[v];
  }
  return in_deg;
}

// Order nodes by descending in-degree (ties by original id, so the result is
// deterministic).
std::vector<NodeId> DegSortOrder(const Graph& g) {
  std::vector<EdgeId> in_deg = InDegrees(g);
  std::vector<NodeId> by_rank(g.num_nodes());
  std::iota(by_rank.begin(), by_rank.end(), 0);
  std::stable_sort(by_rank.begin(), by_rank.end(), [&](NodeId a, NodeId b) {
    return in_deg[a] > in_deg[b];
  });
  std::vector<NodeId> perm(g.num_nodes());
  for (NodeId rank = 0; rank < g.num_nodes(); ++rank) perm[by_rank[rank]] = rank;
  return perm;
}

// BFS visit order over the undirected view, starting components at their
// highest-degree unvisited node.
std::vector<NodeId> BfsOrder(const Graph& g, const Graph& reverse) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> roots(n);
  std::iota(roots.begin(), roots.end(), 0);
  std::stable_sort(roots.begin(), roots.end(), [&](NodeId a, NodeId b) {
    return g.out_degree(a) > g.out_degree(b);
  });

  std::vector<NodeId> perm(n, kInvalidNode);
  NodeId next_id = 0;
  std::deque<NodeId> queue;
  for (NodeId root : roots) {
    if (perm[root] != kInvalidNode) continue;
    perm[root] = next_id++;
    queue.push_back(root);
    while (!queue.empty()) {
      NodeId u = queue.front();
      queue.pop_front();
      auto visit = [&](NodeId v) {
        if (perm[v] == kInvalidNode) {
          perm[v] = next_id++;
          queue.push_back(v);
        }
      };
      for (NodeId v : g.Neighbors(u)) visit(v);
      for (NodeId v : reverse.Neighbors(u)) visit(v);
    }
  }
  return perm;
}

// Gorder-lite: greedy sequence; a candidate's priority is the number of its
// (undirected) neighbors placed within the last `window` positions. Lazy
// max-heap with stale entries; priorities are decremented when a neighbor
// leaves the window.
std::vector<NodeId> GorderOrder(const Graph& g, const Graph& reverse,
                                int window) {
  const NodeId n = g.num_nodes();
  std::vector<int64_t> priority(n, 0);
  std::vector<uint8_t> placed(n, 0);
  std::vector<NodeId> sequence;
  sequence.reserve(n);

  using Entry = std::pair<int64_t, NodeId>;  // (priority snapshot, node)
  std::priority_queue<Entry> heap;
  // Seed with the globally highest-degree node; the heap lazily self-heals.
  NodeId seed_node = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (g.out_degree(u) > g.out_degree(seed_node)) seed_node = u;
    heap.push({0, u});
  }
  priority[seed_node] = 1;
  heap.push({1, seed_node});

  auto bump = [&](NodeId v, int64_t delta) {
    if (placed[v]) return;
    priority[v] += delta;
    if (delta > 0) heap.push({priority[v], v});
  };

  while (sequence.size() < n) {
    NodeId chosen = kInvalidNode;
    while (!heap.empty()) {
      auto [p, v] = heap.top();
      heap.pop();
      if (placed[v] || p != priority[v]) continue;  // stale entry
      chosen = v;
      break;
    }
    if (chosen == kInvalidNode) {
      // Heap exhausted by staleness; pick the first unplaced node.
      for (NodeId u = 0; u < n; ++u) {
        if (!placed[u]) {
          chosen = u;
          break;
        }
      }
    }
    placed[chosen] = 1;
    sequence.push_back(chosen);
    for (NodeId v : g.Neighbors(chosen)) bump(v, +1);
    for (NodeId v : reverse.Neighbors(chosen)) bump(v, +1);
    // Slide the window: the node leaving it stops contributing.
    if (sequence.size() > static_cast<size_t>(window)) {
      NodeId old = sequence[sequence.size() - window - 1];
      for (NodeId v : g.Neighbors(old)) bump(v, -1);
      for (NodeId v : reverse.Neighbors(old)) bump(v, -1);
    }
  }

  std::vector<NodeId> perm(n);
  for (NodeId rank = 0; rank < n; ++rank) perm[sequence[rank]] = rank;
  return perm;
}

}  // namespace

namespace internal {

LabelLayer::LabelLayer(const Graph& g, const Graph& reverse)
    : label(g.num_nodes()), order(g.num_nodes()), stats(g.num_nodes()) {
  size_t max_degree = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    max_degree = std::max<size_t>(
        max_degree, g.out_degree(u) + reverse.out_degree(u));
  }
  touched.reserve(max_degree);
}

// One label-propagation layer at resolution gamma: nodes adopt the label
// maximizing (#neighbors with label) - gamma * label_volume. Neighbor-label
// tallying uses a timestamped counter array so each update is O(degree).
int PropagateLabels(const Graph& g, const Graph& reverse, double gamma,
                    int iterations, Rng& rng, LabelLayer& layer) {
  std::vector<NodeId>& label = layer.label;
  std::vector<LabelLayer::LabelStats>& stats = layer.stats;
  std::iota(label.begin(), label.end(), 0);
  std::iota(layer.order.begin(), layer.order.end(), 0);
  std::fill(stats.begin(), stats.end(), LabelLayer::LabelStats{});
  uint32_t current = 0;
  auto tally = [&](NodeId v) {
    LabelLayer::LabelStats& s = stats[label[v]];
    if (s.stamp != current) {
      s.stamp = current;
      s.count = 0;
      layer.touched.push_back(label[v]);
    }
    ++s.count;
  };

  for (int it = 0; it < iterations; ++it) {
    rng.Shuffle(layer.order);
    bool changed = false;
    for (NodeId u : layer.order) {
      ++current;
      layer.touched.clear();
      for (NodeId v : g.Neighbors(u)) tally(v);
      for (NodeId v : reverse.Neighbors(u)) tally(v);
      if (layer.touched.empty()) continue;
      NodeId best = label[u];
      double best_score = -1e300;
      for (NodeId l : layer.touched) {
        double vol =
            static_cast<double>(stats[l].volume) - (l == label[u] ? 1 : 0);
        double score = static_cast<double>(stats[l].count) - gamma * vol;
        if (score > best_score) {
          best_score = score;
          best = l;
        }
      }
      if (best != label[u]) {
        --stats[label[u]].volume;
        ++stats[best].volume;
        label[u] = best;
        changed = true;
      }
    }
    if (!changed) return it + 1;
  }
  return iterations;
}

// The layers share nothing but the Rng, and every sweep draws n - 1 values,
// so a layer's start state is Rng(seed) advanced past the draws of the layers
// before it. Each round runs the layers not yet accepted concurrently, each
// from the state it has if every earlier layer runs all its sweeps, then
// accepts them in order: the first always, each later one only while the
// layer before it did run all its sweeps. A layer that stopped early moves
// the start of every later layer, and those run again in the next round.
std::vector<NodeId> LlpOrder(const Graph& g, const Graph& reverse,
                             uint64_t seed, ThreadPool& pool) {
  const NodeId n = g.num_nodes();
  constexpr int kLayers = 4;
  constexpr int kSweeps = 4;
  const double gammas[kLayers] = {1.0, 1.0 / 4, 1.0 / 16, 0.0};
  const uint64_t sweep_draws = n > 1 ? n - 1 : 0;
  std::vector<LabelLayer> layers;
  layers.reserve(kLayers);
  for (int i = 0; i < kLayers; ++i) layers.emplace_back(g, reverse);
  uint64_t start[kLayers] = {};
  int sweeps[kLayers] = {};
  int accepted = 0;
  uint64_t next_start = 0;
  while (accepted < kLayers) {
    for (int i = accepted; i < kLayers; ++i) {
      start[i] = next_start +
                 static_cast<uint64_t>(i - accepted) * kSweeps * sweep_draws;
    }
    pool.ParallelFor(kLayers - accepted, 1,
                     [&](size_t, size_t begin, size_t end) {
                       for (size_t i = accepted + begin; i < accepted + end;
                            ++i) {
                         Rng rng(seed);
                         rng.Discard(start[i]);
                         sweeps[i] = PropagateLabels(g, reverse, gammas[i],
                                                     kSweeps, rng, layers[i]);
                       }
                     });
    do {
      next_start = start[accepted] +
                   static_cast<uint64_t>(sweeps[accepted]) * sweep_draws;
      ++accepted;
    } while (accepted < kLayers && sweeps[accepted - 1] == kSweeps);
  }

  // order[rank] = node; layers refine the ordering fine -> coarse, the
  // coarsest layer applied last forms the primary grouping.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<NodeId> label_rank(n);
  for (const LabelLayer& layer : layers) {
    const std::vector<NodeId>& label = layer.label;
    // Renumber cluster labels by first occurrence in the current order (the
    // LLP trick): sorting then groups each cluster without scrambling the
    // macro order established by earlier layers.
    std::fill(label_rank.begin(), label_rank.end(), kInvalidNode);
    NodeId next_rank = 0;
    for (NodeId node : order) {
      if (label_rank[label[node]] == kInvalidNode) {
        label_rank[label[node]] = next_rank++;
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return label_rank[label[a]] < label_rank[label[b]];
    });
  }
  std::vector<NodeId> perm(n);
  for (NodeId rank = 0; rank < n; ++rank) perm[order[rank]] = rank;
  return perm;
}

}  // namespace internal

std::vector<NodeId> ComputeOrdering(const Graph& g, ReorderMethod method,
                                    uint64_t seed) {
  if (g.num_nodes() == 0) return {};
  switch (method) {
    case ReorderMethod::kOriginal:
      return IdentityOrder(g.num_nodes());
    case ReorderMethod::kDegSort:
      return DegSortOrder(g);
    case ReorderMethod::kBfsOrder: {
      Graph reverse = g.Reversed();
      return BfsOrder(g, reverse);
    }
    case ReorderMethod::kGorder: {
      Graph reverse = g.Reversed();
      return GorderOrder(g, reverse, /*window=*/5);
    }
    case ReorderMethod::kLlp: {
      Graph reverse = g.Reversed();
      return internal::LlpOrder(g, reverse, seed, SharedThreadPool());
    }
  }
  return IdentityOrder(g.num_nodes());
}

Status ValidatePermutation(const std::vector<NodeId>& perm, NodeId n) {
  if (perm.size() != n) return Status::InvalidArgument("permutation size");
  std::vector<uint8_t> seen(n, 0);
  for (NodeId p : perm) {
    if (p >= n) return Status::InvalidArgument("permutation value out of range");
    if (seen[p]) return Status::InvalidArgument("permutation value repeated");
    seen[p] = 1;
  }
  return Status::OK();
}

std::vector<NodeId> InvertPermutation(const std::vector<NodeId>& perm) {
  std::vector<NodeId> inv(perm.size());
  for (NodeId old_id = 0; old_id < perm.size(); ++old_id) {
    inv[perm[old_id]] = old_id;
  }
  return inv;
}

Graph ApplyReordering(const Graph& g, ReorderMethod method, uint64_t seed) {
  return g.Relabeled(ComputeOrdering(g, method, seed));
}

}  // namespace gcgt
