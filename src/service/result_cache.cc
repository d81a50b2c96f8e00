#include "service/result_cache.h"

#include <algorithm>
#include <bit>

namespace gcgt {

std::vector<NodeId> CanonicalBcSources(std::vector<NodeId> sources) {
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  return sources;
}

void CanonicalizePairQuery(Query& query) {
  if (auto* cn = std::get_if<CommonNeighborQuery>(&query)) {
    if (cn->v < cn->u) std::swap(cn->u, cn->v);
    return;
  }
  if (auto* jc = std::get_if<JaccardQuery>(&query)) {
    if (jc->v < jc->u) std::swap(jc->u, jc->v);
  }
}

ResultCache::ResultCache(size_t max_bytes, size_t num_shards) {
  const size_t n = std::bit_ceil(num_shards < 1 ? size_t{1} : num_shards);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  bytes_per_shard_ = max_bytes / n;
}

bool ResultCache::Cacheable(const Query& query) {
  (void)query;
  return true;  // BC included: keyed by its canonical source set
}

std::optional<ResultCacheKey> ResultCache::KeyFor(uint64_t fingerprint,
                                                  Backend backend,
                                                  const Query& query) {
  ResultCacheKey key;
  key.fingerprint = fingerprint;
  key.backend = backend;
  if (const auto* bfs = std::get_if<BfsQuery>(&query)) {
    key.kind = QueryKind::kBfs;
    key.source = bfs->source;
    return key;
  }
  if (std::holds_alternative<CcQuery>(query)) {
    key.kind = QueryKind::kCc;
    key.source = 0;
    return key;
  }
  if (const auto* bc = std::get_if<BcQuery>(&query)) {
    key.kind = QueryKind::kBc;
    key.source = 0;
    key.bc_sources = CanonicalBcSources(bc->sources);
    return key;
  }
  if (std::holds_alternative<TriangleCountQuery>(query)) {
    key.kind = QueryKind::kTriangle;
    return key;
  }
  if (const auto* cn = std::get_if<CommonNeighborQuery>(&query)) {
    key.kind = QueryKind::kCommonNeighbor;
    key.source = std::min(cn->u, cn->v);
    key.source2 = std::max(cn->u, cn->v);
    return key;
  }
  if (const auto* jc = std::get_if<JaccardQuery>(&query)) {
    key.kind = QueryKind::kJaccard;
    key.source = std::min(jc->u, jc->v);
    key.source2 = std::max(jc->u, jc->v);
    return key;
  }
  if (const auto* topk = std::get_if<SimilarityTopKQuery>(&query)) {
    key.kind = QueryKind::kSimilarityTopK;
    key.source = topk->source;
    key.param = topk->k;
    return key;
  }
  const auto& kc = std::get<KCoreQuery>(query);
  key.kind = QueryKind::kKCore;
  key.param = kc.k;
  return key;
}

size_t ResultCache::ResultBytes(const QueryResult& result) {
  size_t bytes = sizeof(QueryResult);
  switch (result.kind()) {
    case QueryKind::kBfs:
      bytes += result.bfs().depth.capacity() * sizeof(uint32_t);
      break;
    case QueryKind::kCc:
      bytes += result.cc().component.capacity() * sizeof(NodeId);
      break;
    case QueryKind::kBc:
      bytes += result.bc().dependency.capacity() * sizeof(double) +
               result.bc().depth.capacity() * sizeof(uint32_t) +
               result.bc().sigma.capacity() * sizeof(double);
      break;
    case QueryKind::kTriangle:
      bytes += result.triangle().per_vertex.capacity() * sizeof(uint64_t);
      break;
    case QueryKind::kCommonNeighbor:
      bytes += result.common_neighbors().common.capacity() * sizeof(NodeId);
      break;
    case QueryKind::kJaccard:
      break;  // scalar payload
    case QueryKind::kSimilarityTopK:
      bytes += result.similarity_topk().items.capacity() *
               sizeof(GcgtSimilarityTopKResult::Item);
      break;
    case QueryKind::kKCore:
      bytes += result.kcore().in_core.capacity();
      break;
  }
  return bytes;
}

std::shared_ptr<const QueryResult> ResultCache::Lookup(
    const ResultCacheKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // refresh
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->result;
}

void ResultCache::Insert(const ResultCacheKey& key,
                         std::shared_ptr<const QueryResult> result) {
  const size_t bytes = ResultBytes(*result);
  const size_t budget = bytes_per_shard_.load(std::memory_order_relaxed);
  if (bytes > budget) return;  // would evict the whole shard
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (auto it = shard.map.find(key); it != shard.map.end()) {
    // Two workers raced on the same miss; the values are bit-identical
    // (deterministic engines), so keep the resident one and its recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  TrimShardLocked(shard, budget >= bytes ? budget - bytes : 0);
  shard.lru.push_front(Entry{key, std::move(result), bytes});
  shard.map.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  insertions_.fetch_add(1, std::memory_order_relaxed);
}

void ResultCache::TrimShardLocked(Shard& shard, size_t budget) {
  while (shard.bytes > budget && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ResultCache::SetBudget(size_t max_bytes) {
  const size_t per_shard = max_bytes / shards_.size();
  bytes_per_shard_.store(per_shard, std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    TrimShardLocked(*shard, per_shard);
  }
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.budget = budget();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->map.size();
    stats.bytes += shard->bytes;
  }
  return stats;
}

void ResultCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->map.clear();
    shard->bytes = 0;
  }
}

}  // namespace gcgt
