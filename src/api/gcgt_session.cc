#include "api/gcgt_session.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "baseline/cpu_bfs.h"
#include "baseline/cpu_reference.h"
#include "cgr/cgr_decoder.h"
#include "util/random.h"

namespace gcgt {

namespace {

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return Mix64(h ^ (v + 0x9e3779b97f4a7c15ULL));
}

uint64_t HashCombine(uint64_t h, double v) {
  return HashCombine(h, std::bit_cast<uint64_t>(v));
}

/// The result-affecting PrepareOptions fields. num_threads is excluded
/// (results and metrics are bit-identical across host thread counts);
/// everything else — preprocessing, codec, scheduling level, cost model,
/// device budget — changes either result vectors or cached metrics.
uint64_t HashOptions(uint64_t h, const PrepareOptions& o) {
  h = HashCombine(h, static_cast<uint64_t>(o.apply_vnc));
  h = HashCombine(h, static_cast<uint64_t>(o.vnc.min_cluster_size));
  h = HashCombine(h, static_cast<uint64_t>(o.vnc.min_pattern_size));
  h = HashCombine(h, static_cast<uint64_t>(o.vnc.num_passes));
  h = HashCombine(h, o.vnc.seed);
  h = HashCombine(h, static_cast<uint64_t>(o.reorder));
  h = HashCombine(h, o.reorder_seed);
  h = HashCombine(h, static_cast<uint64_t>(o.cgr.codec));
  h = HashCombine(h, static_cast<uint64_t>(o.cgr.scheme));
  h = HashCombine(h, static_cast<uint64_t>(o.cgr.min_interval_len));
  h = HashCombine(h, static_cast<uint64_t>(o.cgr.segment_len_bytes));
  h = HashCombine(h, static_cast<uint64_t>(o.ooc_partitions));
  h = HashCombine(h, static_cast<uint64_t>(o.gcgt.level));
  h = HashCombine(h, static_cast<uint64_t>(o.gcgt.lanes));
  h = HashCombine(h, static_cast<uint64_t>(o.gcgt.warp_centric_min_residuals));
  h = HashCombine(h, o.gcgt.ooc_resident_bytes);
  h = HashCombine(h, o.gcgt.cost.cycles_per_step);
  h = HashCombine(h, o.gcgt.cost.cycles_per_decode_step);
  h = HashCombine(h, o.gcgt.cost.cycles_per_append_step);
  h = HashCombine(h, o.gcgt.cost.cycles_per_shared_op);
  h = HashCombine(h, o.gcgt.cost.cycles_per_mem_txn);
  h = HashCombine(h, o.gcgt.cost.cycles_per_atomic);
  h = HashCombine(h, o.gcgt.cost.cycles_per_intersect_op);
  h = HashCombine(h, static_cast<uint64_t>(o.gcgt.intersect_full_decode));
  h = HashCombine(h, o.gcgt.cost.external_latency_multiplier);
  h = HashCombine(h, o.gcgt.cost.kernel_launch_cycles);
  h = HashCombine(h, static_cast<uint64_t>(o.gcgt.cost.cache_line_bytes));
  h = HashCombine(h, static_cast<uint64_t>(o.gcgt.cost.num_sms));
  h = HashCombine(h, static_cast<uint64_t>(o.gcgt.cost.warps_per_sm));
  h = HashCombine(h, o.gcgt.cost.clock_ghz);
  h = HashCombine(h, o.gcgt.device.memory_bytes);
  h = HashCombine(h, o.gunrock_memory_factor);
  return h;
}

}  // namespace

uint64_t CombineOptionsFingerprint(uint64_t h, const PrepareOptions& options) {
  return HashOptions(h, options);
}

uint64_t ComputeArtifactFingerprint(const Graph& graph,
                                    const PrepareOptions& options) {
  uint64_t h = 0x6763677466707631ULL;  // "gcgtfpv1"
  h = HashCombine(h, static_cast<uint64_t>(graph.num_nodes()));
  for (EdgeId off : graph.offsets()) h = HashCombine(h, uint64_t{off});
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.Neighbors(u)) h = HashCombine(h, uint64_t{v});
  }
#ifndef NDEBUG
  // The codec id must be fingerprint-affecting: artifacts differing only in
  // codec have different encoded bits and must never dedup onto one registry
  // slot or serve each other's cached results.
  PrepareOptions alt = options;
  alt.cgr.codec = options.cgr.codec == CodecId::kCgr ? CodecId::kStreamVByte
                                                     : CodecId::kCgr;
  assert(HashOptions(h, options) != HashOptions(h, alt));
#endif
  return HashOptions(h, options);
}

/// RAII enforcement of the single-caller contract: trips a debug assert when
/// two Run/RunBatch calls overlap on one session. Free in release builds.
class GcgtSession::RunScope {
 public:
  explicit RunScope([[maybe_unused]] CallerCheck& check)
#ifndef NDEBUG
      : check_(&check) {
    const bool was_busy = check_->busy.exchange(true, std::memory_order_acquire);
    assert(!was_busy &&
           "GcgtSession::Run/RunBatch is single-caller: overlapping queries "
           "on one session race on the engine scratch. Use per-thread "
           "AttachClone() sessions (see GcgtService).");
  }
  ~RunScope() { check_->busy.store(false, std::memory_order_release); }

 private:
  CallerCheck* check_;
#else
  {
  }
#endif
};

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kCgrSimt: return "GCGT";
    case Backend::kCsrBaseline: return "GPUCSR";
    case Backend::kCsrGunrock: return "Gunrock";
    case Backend::kCpuReference: return "CPU";
  }
  return "?";
}

Result<GcgtSession> GcgtSession::Prepare(const Graph& graph,
                                         const PrepareOptions& options) {
  return Prepare(graph, options, ComputeArtifactFingerprint(graph, options));
}

Result<GcgtSession> GcgtSession::Prepare(const Graph& graph,
                                         const PrepareOptions& options,
                                         uint64_t fingerprint) {
  if (Status s = options.cgr.Validate(); !s.ok()) return s;

  GcgtSession session;
  session.options_ = options;
  session.fingerprint_ = fingerprint;
  session.has_fingerprint_ = true;

  session.caller_nodes_ = graph.num_nodes();
  Graph prepared;
  if (options.apply_vnc) {
    VncResult vnc = VirtualNodeCompress(graph, options.vnc);
    session.vnc_reduction_ = vnc.EdgeReduction();
    session.vnc_virtual_nodes_ = vnc.num_virtual_nodes();
    prepared = std::move(vnc.graph);
  } else {
    prepared = graph;
  }
  if (options.reorder != ReorderMethod::kOriginal) {
    // Keep the permutation: queries stay in the caller's id space and the
    // session translates sources/results across it.
    session.perm_ =
        ComputeOrdering(prepared, options.reorder, options.reorder_seed);
    prepared = prepared.Relabeled(session.perm_);
  }

  if (options.ooc_partitions < 0) {
    return Status::InvalidArgument("ooc_partitions must be >= 0");
  }
  auto cgr = options.ooc_partitions > 0
                 ? CgrGraph::EncodePartitioned(prepared, options.cgr,
                                               options.ooc_partitions,
                                               options.gcgt.num_threads)
                 : CgrGraph::Encode(prepared, options.cgr);
  if (!cgr.ok()) return cgr.status();

  // The uncompressed `prepared` copy is NOT retained: a session serving only
  // compressed (kCgrSimt) queries holds nothing but the CgrGraph, and the
  // baseline backends rebuild the CSR losslessly on first use via graph().
  session.owned_cgr_ =
      std::make_unique<const CgrGraph>(std::move(cgr.value()));
  session.cgr_ = session.owned_cgr_.get();
  session.InitEngine();
  return session;
}

GcgtSession GcgtSession::Attach(const CgrGraph& cgr,
                                const GcgtOptions& options) {
  GcgtSession session;
  session.options_.gcgt = options;
  session.options_.cgr = cgr.options();
  session.cgr_ = &cgr;
  session.caller_nodes_ = cgr.num_nodes();
  // The fingerprint stays lazy (see artifact_fingerprint): parameter sweeps
  // Attach once per engine variant and never ask for it.
  session.InitEngine();
  return session;
}

uint64_t GcgtSession::artifact_fingerprint() const {
  if (!has_fingerprint_) {
    // Attach has no input graph to fingerprint; hash the encode itself (the
    // bits pin graph + codec) plus the result-affecting engine options.
    uint64_t h = 0x6763677466707632ULL;  // "gcgtfpv2"
    h = HashCombine(h, cgr_->total_bits());
    for (uint8_t byte : cgr_->bits()) h = HashCombine(h, uint64_t{byte});
    // The partition plan must be identity-affecting: P=4 and P=8 encodes of
    // one graph have IDENTICAL bits (EncodePartitioned reproduces the serial
    // layout) but page differently under a budget, so their metrics differ.
    for (const CgrPartition& p : cgr_->partitions()) {
      h = HashCombine(h, (uint64_t{p.node_begin} << 32) | p.node_end);
    }
    PrepareOptions fp_opt;
    fp_opt.gcgt = options_.gcgt;
    fp_opt.cgr = cgr_->options();
    fp_opt.ooc_partitions = static_cast<int>(cgr_->partitions().size());
    fingerprint_ = HashOptions(h, fp_opt);
    has_fingerprint_ = true;
  }
  return fingerprint_;
}

GcgtSession GcgtSession::Attach(const CgrGraph& cgr, const Graph& graph,
                                const GcgtOptions& options) {
  GcgtSession session = Attach(cgr, options);
  session.graph_ = std::make_shared<const Graph>(graph);
  return session;
}

GcgtSession GcgtSession::Adopt(std::unique_ptr<const CgrGraph> cgr,
                               const GcgtOptions& options) {
  GcgtSession session = Attach(*cgr, options);
  session.owned_cgr_ = std::move(cgr);
  return session;
}

GcgtSession GcgtSession::Adopt(std::unique_ptr<const CgrGraph> cgr,
                               const GcgtOptions& options,
                               uint64_t fingerprint) {
  GcgtSession session = Adopt(std::move(cgr), options);
  session.fingerprint_ = fingerprint;
  session.has_fingerprint_ = true;
  return session;
}

GcgtSession GcgtSession::AttachClone(int num_threads_override) const {
  GcgtSession clone;
  clone.options_ = options_;
  if (num_threads_override >= 0) {
    clone.options_.gcgt.num_threads = num_threads_override;
  }
  clone.perm_ = perm_;
  clone.caller_nodes_ = caller_nodes_;
  clone.fingerprint_ = fingerprint_;
  clone.has_fingerprint_ = has_fingerprint_;
  clone.cgr_ = cgr_;  // borrowed: the clone must not outlive *this
  clone.graph_ = graph_;        // shared if already built, else lazy per clone
  clone.reversed_ = reversed_;
  clone.vnc_reduction_ = vnc_reduction_;
  clone.vnc_virtual_nodes_ = vnc_virtual_nodes_;
  clone.InitEngine();
  return clone;
}

void GcgtSession::InitEngine() {
  engine_ = std::make_unique<CgrTraversalEngine>(*cgr_, options_.gcgt);
  pipeline_ = std::make_unique<TraversalPipeline>(*engine_);
}

const Graph& GcgtSession::graph() const {
  if (!graph_) {
    // Rebuild the uncompressed CSR from the codec (the CGR encoding is
    // lossless); cached for the session's lifetime.
    EdgeList edges;
    edges.reserve(cgr_->num_edges());
    for (NodeId u = 0; u < cgr_->num_nodes(); ++u) {
      for (NodeId v : DecodeAdjacency(*cgr_, u)) edges.emplace_back(u, v);
    }
    graph_ = std::make_shared<const Graph>(
        Graph::FromEdges(cgr_->num_nodes(), edges));
  }
  return *graph_;
}

const Graph& GcgtSession::reversed() const {
  if (!reversed_) reversed_ = std::make_shared<const Graph>(graph().Reversed());
  return *reversed_;
}

CsrEngineOptions GcgtSession::CsrOptions(bool gunrock) const {
  CsrEngineOptions o;
  o.lanes = options_.gcgt.lanes;
  o.cost = options_.gcgt.cost;
  o.device = options_.gcgt.device;
  o.gunrock = gunrock;
  o.gunrock_memory_factor = options_.gunrock_memory_factor;
  return o;
}

Status GcgtSession::TranslateQuery(Query& query) const {
  if (auto* bfs = std::get_if<BfsQuery>(&query)) {
    if (bfs->source >= caller_nodes_) {
      return Status::InvalidArgument("BFS source out of range");
    }
    bfs->source = ToPrepared(bfs->source);
    return Status::OK();
  }
  if (auto* bc = std::get_if<BcQuery>(&query)) {
    if (bc->sources.empty()) {
      return Status::InvalidArgument("BC query needs at least one source");
    }
    for (NodeId& s : bc->sources) {
      if (s >= caller_nodes_) {
        return Status::InvalidArgument("BC source out of range");
      }
      s = ToPrepared(s);
    }
    return Status::OK();
  }
  if (auto* cn = std::get_if<CommonNeighborQuery>(&query)) {
    if (cn->u >= caller_nodes_ || cn->v >= caller_nodes_) {
      return Status::InvalidArgument("common-neighbor endpoint out of range");
    }
    cn->u = ToPrepared(cn->u);
    cn->v = ToPrepared(cn->v);
    return Status::OK();
  }
  if (auto* jc = std::get_if<JaccardQuery>(&query)) {
    if (jc->u >= caller_nodes_ || jc->v >= caller_nodes_) {
      return Status::InvalidArgument("Jaccard endpoint out of range");
    }
    jc->u = ToPrepared(jc->u);
    jc->v = ToPrepared(jc->v);
    return Status::OK();
  }
  if (auto* topk = std::get_if<SimilarityTopKQuery>(&query)) {
    if (topk->source >= caller_nodes_) {
      return Status::InvalidArgument("similarity source out of range");
    }
    topk->source = ToPrepared(topk->source);
  }
  // TriangleCountQuery / KCoreQuery carry no node ids.
  return Status::OK();
}

void GcgtSession::RemapResult(QueryResult& result) const {
  if (IdentityIdSpace()) return;

  // label_out[u] = label_prepared[ToPrepared(u)], truncated to real nodes.
  auto remap = [&](auto& labels) {
    std::remove_reference_t<decltype(labels)> out(caller_nodes_);
    for (NodeId u = 0; u < caller_nodes_; ++u) out[u] = labels[ToPrepared(u)];
    labels = std::move(out);
  };

  if (auto* bfs = std::get_if<GcgtBfsResult>(&result.value_)) {
    remap(bfs->depth);
    return;
  }
  if (auto* bc = std::get_if<GcgtBcResult>(&result.value_)) {
    remap(bc->dependency);
    remap(bc->depth);
    remap(bc->sigma);
    return;
  }
  if (auto* cc = std::get_if<GcgtCcResult>(&result.value_)) {
    // CC: component labels are node ids; canonicalize each component to the
    // smallest caller id it contains (virtual nodes fold into the components
    // they connect, so the partition over real nodes is preserved).
    std::vector<NodeId> canonical(cgr_->num_nodes(), kInvalidNode);
    std::vector<NodeId> out(caller_nodes_);
    for (NodeId u = 0; u < caller_nodes_; ++u) {
      NodeId rep = cc->component[ToPrepared(u)];
      if (canonical[rep] == kInvalidNode) canonical[rep] = u;  // u ascends: min
      out[u] = canonical[rep];
    }
    cc->component = std::move(out);
    return;
  }
  if (auto* tri = std::get_if<GcgtTriangleResult>(&result.value_)) {
    // The global count stays that of the prepared graph (§7.2 semantics);
    // the per-vertex credits are restricted to real nodes.
    remap(tri->per_vertex);
    return;
  }
  if (auto* cn = std::get_if<GcgtCommonNeighborResult>(&result.value_)) {
    // Membership scan in ascending CALLER order: drops virtual nodes and
    // returns a sorted caller-space list.
    std::vector<uint8_t> member(cgr_->num_nodes(), 0);
    for (NodeId c : cn->common) member[c] = 1;
    std::vector<NodeId> out;
    out.reserve(cn->common.size());
    for (NodeId u = 0; u < caller_nodes_; ++u) {
      if (member[ToPrepared(u)]) out.push_back(u);
    }
    cn->common = std::move(out);
    cn->count = cn->common.size();
    return;
  }
  if (std::holds_alternative<GcgtJaccardResult>(result.value_)) {
    return;  // scalar scores; no node ids to remap
  }
  if (auto* topk = std::get_if<GcgtSimilarityTopKResult>(&result.value_)) {
    // Candidates were masked to real nodes by the engine; translate each id.
    // Score ordering (computed over prepared ids) is preserved.
    std::vector<NodeId> inv(cgr_->num_nodes(), kInvalidNode);
    for (NodeId u = 0; u < caller_nodes_; ++u) inv[ToPrepared(u)] = u;
    for (auto& item : topk->items) item.node = inv[item.node];
    return;
  }
  auto& kcore = std::get<GcgtKCoreResult>(result.value_);
  remap(kcore.in_core);
  kcore.core_size = static_cast<NodeId>(
      std::count(kcore.in_core.begin(), kcore.in_core.end(), uint8_t{1}));
}

Result<QueryResult> GcgtSession::Run(const Query& query,
                                     const RunOptions& run) {
  RunScope single_caller(busy_);  // see the threading contract on Run()
  Query translated = query;
  if (Status s = TranslateQuery(translated); !s.ok()) return s;

  // The intersection query families bypass the traversal pipeline entirely:
  // they run on the per-backend IntersectEngine, which does its own cancel
  // polling and device-footprint admission.
  if (translated.index() >= static_cast<size_t>(QueryKind::kTriangle)) {
    Result<QueryResult> result =
        RunIntersect(translated, run.backend, run.cancel);
    if (!result.ok()) return result;
    RemapResult(result.value());
    return result;
  }

  // Install this query's token (the default token clears a previous one);
  // the pipeline polls it once per traversal round, so kCgrSimt queries
  // abort mid-flight. An aborted query leaves only per-query state behind —
  // the next query's Reset() clears it, keeping the session reusable.
  pipeline_->SetCancelToken(run.cancel);

  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    switch (run.backend) {
      case Backend::kCgrSimt: return RunCgr(translated, run.trace);
      case Backend::kCsrBaseline:
        return RunCsr(translated, /*gunrock=*/false, run.cancel);
      case Backend::kCsrGunrock:
        return RunCsr(translated, /*gunrock=*/true, run.cancel);
      case Backend::kCpuReference: return RunCpu(translated, run.cancel);
    }
    return Status::InvalidArgument("unknown backend");
  }();
  if (!result.ok()) return result;
  RemapResult(result.value());
  return result;
}

Result<std::vector<QueryResult>> GcgtSession::RunBatch(
    std::span<const Query> queries, const RunOptions& run) {
  std::vector<QueryResult> out;
  out.reserve(queries.size());
  for (const Query& query : queries) {
    auto result = Run(query, run);
    if (!result.ok()) return result.status();
    out.push_back(std::move(result.value()));
  }
  return out;
}

namespace {

/// Folds per-source metrics of a multi-source BC into one aggregate.
void AccumulateMetrics(TraversalMetrics& total, const TraversalMetrics& one) {
  total.model_ms += one.model_ms;
  total.kernels += one.kernels;
  total.device_bytes = std::max(total.device_bytes, one.device_bytes);
  total.resident_bytes_peak =
      std::max(total.resident_bytes_peak, one.resident_bytes_peak);
  total.warp += one.warp;
}

/// Shared multi-source BC accumulation of the baseline backends:
/// dependency sums across sources, depth/sigma keep the last source's
/// labels, metrics aggregate. `run_source`: NodeId -> Result<GcgtBcResult>.
template <typename RunSource>
Result<QueryResult> AccumulateBcSources(const BcQuery& bc, NodeId num_nodes,
                                        RunSource&& run_source) {
  GcgtBcResult total;
  total.dependency.assign(num_nodes, 0.0);
  for (NodeId source : bc.sources) {
    Result<GcgtBcResult> r = run_source(source);
    if (!r.ok()) return r.status();
    GcgtBcResult one = std::move(r.value());
    for (NodeId i = 0; i < num_nodes; ++i) {
      total.dependency[i] += one.dependency[i];
    }
    total.depth = std::move(one.depth);
    total.sigma = std::move(one.sigma);
    AccumulateMetrics(total.metrics, one.metrics);
  }
  return QueryResult(std::move(total));
}

}  // namespace

Result<QueryResult> GcgtSession::RunCgr(const Query& query, StepTrace* trace) {
  if (const auto* bfs = std::get_if<BfsQuery>(&query)) {
    auto r = GcgtBfs(*pipeline_, bfs->source, trace);
    if (!r.ok()) return r.status();
    return QueryResult(std::move(r.value()));
  }
  if (std::holds_alternative<CcQuery>(query)) {
    auto r = GcgtCc(*pipeline_);
    if (!r.ok()) return r.status();
    return QueryResult(std::move(r.value()));
  }

  // Sources were validated and translated by Run().
  const auto& bc = std::get<BcQuery>(query);
  const uint64_t v = cgr_->num_nodes();
  pipeline_->Reset();
  if (Status s = pipeline_->ReserveDevice(BcAuxBytes(v), "GCGT BC"); !s.ok()) {
    return s;
  }
  GcgtBcResult result;
  result.dependency.assign(v, 0.0);
  for (NodeId source : bc.sources) {
    if (Status s = GcgtBcAccumulate(*pipeline_, source, bc_scratch_,
                                    result.dependency);
        !s.ok()) {
      return s;
    }
  }
  result.depth = bc_scratch_.depth;
  result.sigma = bc_scratch_.sigma;
  result.metrics = pipeline_->Metrics();
  return QueryResult(std::move(result));
}

std::span<const uint8_t> GcgtSession::RealMask() const {
  if (IdentityIdSpace()) return {};  // every prepared node is a caller node
  if (real_mask_.empty()) {
    real_mask_.assign(cgr_->num_nodes(), 0);
    for (NodeId u = 0; u < caller_nodes_; ++u) real_mask_[ToPrepared(u)] = 1;
  }
  return real_mask_;
}

Result<QueryResult> GcgtSession::RunIntersect(const Query& query,
                                              Backend backend,
                                              const CancelToken& cancel) {
  using intersect::IntersectEngine;

  if (backend == Backend::kCpuReference) {
    GCGT_RETURN_NOT_OK(cancel.Check());
    const Graph& g = graph();
    if (std::holds_alternative<TriangleCountQuery>(query)) {
      return QueryResult(intersect::CpuTriangleCount(g));
    }
    if (const auto* cn = std::get_if<CommonNeighborQuery>(&query)) {
      return QueryResult(intersect::CpuCommonNeighbors(g, cn->u, cn->v));
    }
    if (const auto* jc = std::get_if<JaccardQuery>(&query)) {
      return QueryResult(intersect::CpuJaccard(g, jc->u, jc->v));
    }
    if (const auto* topk = std::get_if<SimilarityTopKQuery>(&query)) {
      return QueryResult(
          intersect::CpuSimilarityTopK(g, topk->source, topk->k, RealMask()));
    }
    const auto& kc = std::get<KCoreQuery>(query);
    return QueryResult(intersect::CpuKCore(g, kc.k));
  }

  IntersectEngine* eng = nullptr;
  switch (backend) {
    case Backend::kCgrSimt:
      if (!isect_cgr_) {
        isect_cgr_ = std::make_unique<IntersectEngine>(*cgr_, options_.gcgt);
      }
      eng = isect_cgr_.get();
      break;
    case Backend::kCsrBaseline:
      if (!isect_csr_) {
        isect_csr_ = std::make_unique<IntersectEngine>(
            graph(), options_.gcgt, /*gunrock=*/false, 1.0);
      }
      eng = isect_csr_.get();
      break;
    case Backend::kCsrGunrock:
      if (!isect_gunrock_) {
        isect_gunrock_ = std::make_unique<IntersectEngine>(
            graph(), options_.gcgt, /*gunrock=*/true,
            options_.gunrock_memory_factor);
      }
      eng = isect_gunrock_.get();
      break;
    case Backend::kCpuReference:
      break;  // handled above
  }
  if (eng == nullptr) return Status::InvalidArgument("unknown backend");

  auto wrap = [](auto r) -> Result<QueryResult> {
    if (!r.ok()) return r.status();
    return QueryResult(std::move(r.value()));
  };
  if (std::holds_alternative<TriangleCountQuery>(query)) {
    return wrap(eng->TriangleCount(cancel));
  }
  if (const auto* cn = std::get_if<CommonNeighborQuery>(&query)) {
    return wrap(eng->CommonNeighbors(cn->u, cn->v, cancel));
  }
  if (const auto* jc = std::get_if<JaccardQuery>(&query)) {
    return wrap(eng->Jaccard(jc->u, jc->v, cancel));
  }
  if (const auto* topk = std::get_if<SimilarityTopKQuery>(&query)) {
    return wrap(eng->SimilarityTopK(topk->source, topk->k, RealMask(), cancel));
  }
  const auto& kc = std::get<KCoreQuery>(query);
  return wrap(eng->KCore(kc.k, cancel));
}

Result<QueryResult> GcgtSession::RunCsr(const Query& query, bool gunrock,
                                        const CancelToken& cancel) {
  GCGT_RETURN_NOT_OK(cancel.Check());
  const Graph& g = graph();
  const CsrEngineOptions opt = CsrOptions(gunrock);

  if (const auto* bfs = std::get_if<BfsQuery>(&query)) {
    auto r = CsrBfs(g, bfs->source, opt);
    if (!r.ok()) return r.status();
    return QueryResult(std::move(r.value()));
  }
  if (std::holds_alternative<CcQuery>(query)) {
    auto r = CsrCc(g, opt);
    if (!r.ok()) return r.status();
    return QueryResult(std::move(r.value()));
  }

  const auto& bc = std::get<BcQuery>(query);
  return AccumulateBcSources(bc, g.num_nodes(),
                             [&](NodeId source) -> Result<GcgtBcResult> {
                               if (Status s = cancel.Check(); !s.ok()) return s;
                               return CsrBc(g, source, opt);
                             });
}

Result<QueryResult> GcgtSession::RunCpu(const Query& query,
                                        const CancelToken& cancel) {
  GCGT_RETURN_NOT_OK(cancel.Check());
  const Graph& g = graph();

  if (const auto* bfs = std::get_if<BfsQuery>(&query)) {
    GcgtBfsResult r;
    r.depth = SerialBfs(g, bfs->source);  // kBfsUnreached == kUnvisited
    return QueryResult(std::move(r));
  }
  if (std::holds_alternative<CcQuery>(query)) {
    GcgtCcResult r;
    r.component = SerialCc(g);
    return QueryResult(std::move(r));
  }

  const auto& bc = std::get<BcQuery>(query);
  return AccumulateBcSources(
      bc, g.num_nodes(), [&](NodeId source) -> Result<GcgtBcResult> {
        if (Status s = cancel.Check(); !s.ok()) return s;
        SerialBcResult r = SerialBc(g, source);
        GcgtBcResult one;  // no simulated device: metrics stay zero
        one.dependency = std::move(r.dependency);
        one.depth = std::move(r.depth);
        one.sigma = std::move(r.sigma);
        return one;
      });
}

}  // namespace gcgt
