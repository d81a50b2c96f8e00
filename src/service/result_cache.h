// Cross-query result cache of the serving tier: a sharded LRU keyed by
// {artifact fingerprint, backend, query key}.
//
// Every query kind memoizes whole results. BFS and CC keys are trivial
// (source / nothing); BC keys carry the CANONICAL source set — sorted
// ascending, duplicates removed — and the service rewrites every BC query to
// that form before running it (see GcgtService::Serve), so the executed
// query and the cache key always agree and equivalent submissions ({3,1},
// {1,3,3}) share one entry. The pair-shaped intersection queries
// (CommonNeighbor/Jaccard) are symmetric in their endpoints, so the service
// rewrites them to canonical {min(u,v), max(u,v)} order the same way and
// {u,v} / {v,u} share one entry; triangle counts and k-core memoize per
// artifact (keyed only by kind, plus k for k-core). Results are pure functions of the prepared
// artifact (which the fingerprint pins, engine options included) and the
// canonical query, so a hit is bit-identical to a fresh run — result vectors
// AND metrics, which the engines produce deterministically.
//
// Sharding: each shard is an independent mutex + LRU list + hash map, and a
// key's shard is a pure function of its hash, so concurrent workers only
// contend when they touch the same shard. Capacity is a byte budget
// (result vectors dominate) split evenly across shards; eviction is LRU per
// shard. Values are shared by const pointer — an evicted entry stays alive
// for readers already holding it.
#ifndef GCGT_SERVICE_RESULT_CACHE_H_
#define GCGT_SERVICE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/gcgt_session.h"
#include "util/random.h"

namespace gcgt {

/// Exact identity of a cacheable query result. Compared field-for-field on
/// lookup — hash collisions can never serve a wrong result.
struct ResultCacheKey {
  uint64_t fingerprint = 0;            ///< artifact (graph + options) id
  Backend backend = Backend::kCgrSimt;
  QueryKind kind = QueryKind::kBfs;
  NodeId source = 0;    ///< BFS source / pair min / similarity source
  NodeId source2 = 0;   ///< pair queries: the canonical max endpoint
  uint32_t param = 0;   ///< similarity k / k-core k
  /// BC only: the canonical source set (sorted, deduped). Empty otherwise.
  std::vector<NodeId> bc_sources;

  bool operator==(const ResultCacheKey&) const = default;

  uint64_t Hash() const {
    uint64_t h = Mix64(fingerprint ^ (static_cast<uint64_t>(backend) << 32));
    h = Mix64(h ^ (static_cast<uint64_t>(kind) << 40) ^ source);
    h = Mix64(h ^ (uint64_t{source2} << 32) ^ param);
    for (NodeId s : bc_sources) h = Mix64(h ^ s);
    return h;
  }
};

/// Canonical form of a BC source set: sorted ascending, duplicates removed.
/// The service rewrites every BC query to this form before serving it, so
/// the executed query matches the cache key exactly (bit-identical hits).
std::vector<NodeId> CanonicalBcSources(std::vector<NodeId> sources);

/// Rewrites a symmetric pair query (CommonNeighbor/Jaccard) to canonical
/// {min(u, v), max(u, v)} endpoint order in place; other kinds are left
/// untouched. The service applies this at admission, like BC sources.
void CanonicalizePairQuery(Query& query);

struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;        ///< lookups that found nothing (incl. expired)
  uint64_t insertions = 0;
  uint64_t evictions = 0;     ///< entries dropped to fit the byte budget
  size_t entries = 0;         ///< resident entries right now
  size_t bytes = 0;           ///< resident approximate bytes right now
  size_t budget = 0;          ///< byte budget right now (shrunk by brownout)
};

class ResultCache {
 public:
  /// `max_bytes` is the total budget across all shards; `num_shards` is
  /// rounded up to a power of two (>= 1).
  ResultCache(size_t max_bytes, size_t num_shards);

  /// The cacheability rule: every query kind memoizes whole results (BC
  /// under its canonical source set).
  static bool Cacheable(const Query& query);

  /// The cache key for a cacheable (artifact, backend, query), nullopt
  /// otherwise. Call with the CALLER-id-space query (as submitted): the key
  /// must match what a client would resubmit, not internal prepared ids.
  static std::optional<ResultCacheKey> KeyFor(uint64_t fingerprint,
                                              Backend backend,
                                              const Query& query);

  /// nullptr on miss. A hit refreshes LRU recency.
  std::shared_ptr<const QueryResult> Lookup(const ResultCacheKey& key);

  /// Inserts (or refreshes) a result; evicts LRU entries of the shard until
  /// its byte share fits. Results larger than a whole shard are not cached.
  void Insert(const ResultCacheKey& key,
              std::shared_ptr<const QueryResult> result);

  /// Approximate heap bytes of one cached result (the eviction weight).
  static size_t ResultBytes(const QueryResult& result);

  /// Brownout hook (see GcgtService watchdog): re-budgets the cache to
  /// `max_bytes` total (split evenly across shards) and immediately trims
  /// each shard's LRU tail to fit. Thread-safe; restoring a larger budget
  /// later just lets shards grow back.
  void SetBudget(size_t max_bytes);
  /// Current total byte budget across all shards.
  size_t budget() const {
    return bytes_per_shard_.load(std::memory_order_relaxed) * shards_.size();
  }

  ResultCacheStats Stats() const;
  void Clear();

 private:
  struct Entry {
    ResultCacheKey key;
    std::shared_ptr<const QueryResult> result;
    size_t bytes = 0;
  };
  struct KeyHash {
    size_t operator()(const ResultCacheKey& k) const { return k.Hash(); }
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<ResultCacheKey, std::list<Entry>::iterator, KeyHash> map;
    size_t bytes = 0;
  };

  Shard& ShardFor(const ResultCacheKey& key) {
    return *shards_[key.Hash() & (shards_.size() - 1)];
  }

  /// Evicts the shard's LRU tail until its bytes fit `budget`.
  void TrimShardLocked(Shard& shard, size_t budget);

  /// Per-shard byte budget; atomic because SetBudget (watchdog thread)
  /// races benignly with Insert's budget reads on worker threads.
  std::atomic<size_t> bytes_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace gcgt

#endif  // GCGT_SERVICE_RESULT_CACHE_H_
