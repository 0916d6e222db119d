//! The query engine: scatter/gather serving over a [`ShardedIndex`], on a
//! persistent shard-pinned worker pool. A single index is served as the
//! one-shard case ([`ShardedIndex::from_index`] with one shard adopts the
//! index's postings as they are).
//!
//! Every counting pass is structured as **typed requests to pinned shard
//! cells** ([`imm_exec::PinnedPool`]): each cell permanently owns one
//! [`ShardSegment`] plus its mutable serving state (alive flags, audience
//! masks, a marking scratch bitset), and a request round-trip replaces
//! the per-round thread spawn that made PR 5's scatter/gather slower than
//! the single index (`BENCH_5.json`). A pool with no workers serves every
//! request inline on the calling thread through the same protocol.
//!
//! * **Spread / Marginal**: each shard counts covered sets among *its own*
//!   range using its local postings and a shard-sized marking bitset; the
//!   gathered per-shard counts sum to exactly the whole-collection tally.
//! * **Top-K**: CELF lazy greedy (Leskovec et al., KDD 2007) over **merged
//!   bounds held engine-side**. Greedy max coverage is prefix-stable (the
//!   first `k` seeds of a budget-`k+Δ` selection are the budget-`k`
//!   selection), so the engine keeps one shared greedy prefix and only
//!   ever *extends* it: asking for `k` and later `k+5` plays five new
//!   rounds. The frontier holds one `(bound, vertex)` entry per vertex;
//!   the merged live counts start as the sum of the per-shard degrees and
//!   are kept exact by the retire stream: each round scatters one
//!   `ShardRequest::Retire`, every shard flips its own covered sets and
//!   streams back their global ids (in recycled buffers), and the engine
//!   walks those sets once to decrement the merged counts. Revalidating a
//!   popped frontier entry is therefore a local array read — a CELF round
//!   costs exactly one message round-trip per shard. Ties break toward the
//!   smaller vertex id and zero-gain rounds emit deterministically, exactly
//!   like the batch selection kernels — so the seeds are byte-identical to
//!   `select_seeds` over the same collection for any shard count and any
//!   worker-thread count.

use crate::index::ShardedIndex;
use crate::segment::ShardSegment;
use efficient_imm::ArgmaxFrontier;
use imm_exec::{Pinned, PinnedPool, ScatterError, WakeMode};
use imm_graph::{CsrGraph, EdgeWeights, GraphDelta};
use imm_numa::Topology;
use imm_rrr::{BitSet, NodeId};
use imm_service::{
    CacheStats, DynamicError, Query, QueryCache, QueryKey, QueryResponse, RefreshStats,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// Default response-cache capacity of a new engine.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Attempts for idempotent scatters before giving up: every retry first
/// respawns dead workers, so only a plan injecting worker deaths at a
/// sustained 100% rate can exhaust this.
const SCATTER_RETRIES: usize = 8;

/// Global id of an RRR set (its index in the shared collection).
type GlobalSetId = u32;

/// Which per-shard alive session a request operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Session {
    /// The persistent whole-index greedy session.
    Fresh,
    /// The audience-restricted session (serialized under the greedy lock).
    Masked,
}

/// One pinned worker's state: a permanent shard assignment plus the
/// mutable serving state for that shard.
struct ShardCell {
    /// The served index; `None` only mid-`apply_delta` (Release/Install).
    index: Option<Arc<ShardedIndex>>,
    shard: usize,
    /// Alive flags of the fresh session, one per local set.
    fresh_alive: Vec<bool>,
    /// Alive flags of the masked session, when one is open.
    masked_alive: Option<Vec<bool>>,
    /// Coverage-marking bitset of Spread/Marginal requests, sized to the
    /// shard on install and left clear between requests.
    scratch: BitSet,
}

/// The typed request vocabulary a pinned shard cell serves.
enum ShardRequest {
    /// Live-set count of one vertex in the given session — the
    /// distributed revalidation probe. The hot path revalidates against
    /// engine-side merged counts; this request is the consistency
    /// cross-check (debug assertions, tests).
    LiveCount { vertex: NodeId, session: Session },
    /// Retire this shard's live sets containing `vertex`, streaming their
    /// global ids into `buf` (recycled round to round by the engine).
    Retire { vertex: NodeId, session: Session, buf: Vec<GlobalSetId> },
    /// Open the masked session: the shard's sets containing an audience
    /// vertex become alive; responds with the shard's per-vertex counts.
    MaskedInit { audience: Arc<BitSet> },
    /// Close the masked session.
    MaskedClear,
    /// Postings walk: with no `candidate`, count this shard's sets covered
    /// by `seeds` (Spread); with one, the sets it adds over them (Marginal).
    Coverage { seeds: Arc<Vec<NodeId>>, candidate: Option<NodeId> },
    /// Drop the cell's index handle (first half of `apply_delta`, so the
    /// engine holds the only reference while rebuilding).
    Release,
    /// Serve this index from now on, with a fully-alive fresh session.
    Install { index: Arc<ShardedIndex> },
}

enum ShardResponse {
    Unit,
    Count(usize),
    Counts(Vec<u64>),
    Retired { buf: Vec<GlobalSetId> },
}

impl ShardCell {
    /// A cell serving `shard` of `index`, with a fully-alive fresh session.
    fn new(index: Arc<ShardedIndex>, shard: usize) -> Self {
        let len = index.segments()[shard].len();
        ShardCell {
            index: Some(index),
            shard,
            fresh_alive: vec![true; len],
            masked_alive: None,
            scratch: BitSet::new(len),
        }
    }

    /// Disjoint borrows of the serving state: the shard's segment and the
    /// requested session's alive flags (mutable), without cloning the
    /// index handle per request.
    fn segment_and_alive(&mut self, session: Session) -> (&ShardSegment, &mut Vec<bool>) {
        let index = self.index.as_ref().expect("shard cell has an installed index");
        let segment = &index.segments()[self.shard];
        let alive = match session {
            Session::Fresh => &mut self.fresh_alive,
            Session::Masked => self.masked_alive.as_mut().expect("masked session is open"),
        };
        (segment, alive)
    }

    fn retire(
        &mut self,
        vertex: NodeId,
        session: Session,
        mut buf: Vec<GlobalSetId>,
    ) -> ShardResponse {
        buf.clear();
        let (segment, alive) = self.segment_and_alive(session);
        let start = segment.start() as GlobalSetId;
        for &lsid in segment.postings(vertex) {
            let slot = &mut alive[lsid as usize];
            if *slot {
                *slot = false;
                buf.push(start + lsid);
            }
        }
        ShardResponse::Retired { buf }
    }

    /// Serve [`ShardRequest::Coverage`]. The marks go into the cell's
    /// scratch bitset and exactly those bits are cleared again before
    /// returning, so a request costs the postings it walks, not the shard
    /// size. A walk that panicked (the pool catches it and keeps the cell)
    /// leaves marks behind; the next request finds the set count non-zero
    /// and wipes them first. Out-of-range vertices cover nothing.
    fn coverage(&mut self, seeds: &[NodeId], candidate: Option<NodeId>) -> usize {
        if !self.scratch.is_empty() {
            self.scratch.clear();
        }
        let index = self.index.as_ref().expect("shard cell has an installed index");
        let segment = &index.segments()[self.shard];
        let n = index.num_nodes();
        let in_range = |v: &&NodeId| (**v as usize) < n;
        let mut covered = 0usize;
        for &seed in seeds.iter().filter(in_range) {
            for &lsid in segment.postings(seed) {
                covered += usize::from(self.scratch.insert(lsid as usize));
            }
        }
        let count = match candidate {
            None => covered,
            Some(c) if in_range(&&c) => {
                segment.postings(c).iter().filter(|&&l| !self.scratch.contains(l as usize)).count()
            }
            Some(_) => 0,
        };
        for &seed in seeds.iter().filter(in_range) {
            for &lsid in segment.postings(seed) {
                self.scratch.remove(lsid as usize);
            }
        }
        count
    }

    fn masked_init(&mut self, audience: &BitSet) -> ShardResponse {
        let index = self.index.as_ref().expect("shard cell has an installed index");
        let segment = &index.segments()[self.shard];
        let collection = index.collection();
        let n = index.num_nodes();
        let mut alive = vec![false; segment.len()];
        for v in audience.iter() {
            if v < n {
                for &lsid in segment.postings(v as NodeId) {
                    alive[lsid as usize] = true;
                }
            }
        }
        let mut counts = vec![0u64; n];
        let slice = segment.slice(collection);
        for (lsid, live) in alive.iter().enumerate() {
            if *live {
                slice.get(lsid).for_each(|v| counts[v as usize] += 1);
            }
        }
        self.masked_alive = Some(alive);
        ShardResponse::Counts(counts)
    }
}

impl Pinned for ShardCell {
    type Request = ShardRequest;
    type Response = ShardResponse;

    fn serve(&mut self, request: ShardRequest) -> ShardResponse {
        match request {
            ShardRequest::LiveCount { vertex, session } => {
                let (segment, alive) = self.segment_and_alive(session);
                let live = segment.postings(vertex).iter().filter(|&&l| alive[l as usize]).count();
                ShardResponse::Count(live)
            }
            ShardRequest::Retire { vertex, session, buf } => self.retire(vertex, session, buf),
            ShardRequest::MaskedInit { audience } => self.masked_init(&audience),
            ShardRequest::MaskedClear => {
                self.masked_alive = None;
                ShardResponse::Unit
            }
            ShardRequest::Coverage { seeds, candidate } => {
                ShardResponse::Count(self.coverage(&seeds, candidate))
            }
            ShardRequest::Release => {
                self.index = None;
                ShardResponse::Unit
            }
            ShardRequest::Install { index } => {
                *self = ShardCell::new(index, self.shard);
                ShardResponse::Unit
            }
        }
    }
}

impl ShardResponse {
    fn count(self) -> usize {
        match self {
            ShardResponse::Count(c) => c,
            _ => unreachable!("shard answered with the wrong response kind"),
        }
    }

    fn counts(self) -> Vec<u64> {
        match self {
            ShardResponse::Counts(c) => c,
            _ => unreachable!("shard answered with the wrong response kind"),
        }
    }

    fn retired(self) -> Vec<GlobalSetId> {
        match self {
            ShardResponse::Retired { buf } => buf,
            _ => unreachable!("shard answered with the wrong response kind"),
        }
    }
}

/// The engine-side distributed greedy state: merged live counts plus the
/// CELF frontier, fed by the gathered per-shard retire streams.
#[derive(Debug)]
struct DistributedGreedy {
    /// Exact merged live count per vertex (sum of the shards' live sets
    /// containing it), maintained from the retire streams.
    merged: Vec<u64>,
    /// CELF frontier over `merged`: one entry per vertex outside an
    /// in-flight round, popped in the selection kernels' tie order.
    frontier: ArgmaxFrontier,
    covered_after: Vec<usize>,
    seeds: Vec<NodeId>,
    /// Recycled per-shard retire buffers (one per shard, reused each
    /// round so steady-state rounds allocate nothing).
    bufs: Vec<Vec<GlobalSetId>>,
    /// Set when a scattered round failed mid-flight (a worker died with
    /// retire responses in hand): the alive flags and the merged counts
    /// may disagree, so the next greedy use must rebuild the session
    /// from scratch before trusting either.
    needs_reset: bool,
}

impl DistributedGreedy {
    fn from_merged(merged: Vec<u64>, shards: usize) -> Self {
        let frontier = ArgmaxFrontier::new(merged.iter().copied());
        DistributedGreedy {
            merged,
            frontier,
            covered_after: Vec::new(),
            seeds: Vec::new(),
            bufs: vec![Vec::new(); shards],
            needs_reset: false,
        }
    }

    /// Pop the round's argmax, revalidating stale bounds against the
    /// merged live counts (a local read). Merged counts only fall as sets
    /// retire, so the pop is the selection kernels' argmax. The caller
    /// re-admits the winner once the round has retired its sets.
    fn pop_argmax(&mut self) -> (NodeId, u64) {
        let merged = &self.merged;
        let (v, live, pops) =
            self.frontier.pop(|v| merged[v as usize]).expect("one entry per vertex");
        // Metric totals are folded in once per round, not per pop; the last
        // pop is the accepted argmax, the rest were stale.
        imm_service::metrics::CELF_ROUNDS.increment();
        imm_service::metrics::CELF_HEAP_POPS.add(pops);
        imm_service::metrics::CELF_REVALIDATIONS.add(pops - 1);
        (v, live)
    }
}

/// The query-serving engine over a [`ShardedIndex`] (a single index is its
/// one-shard case), answering the [`Query`] vocabulary with results
/// byte-identical for every shard count.
///
/// The engine is `Sync`: Spread/Marginal queries scatter one request per
/// shard, and each request is served under that shard's cell lock (the
/// cell's scratch bitset depends on it), so concurrent queries serialize
/// per shard — at one shard, on one lock. Top-K extensions serialize on
/// the shared greedy prefix, and responses are memoized in an LRU cache
/// keyed on normalized queries. Execution runs on an embedded
/// [`PinnedPool`]: one cell per shard, with worker threads only where the
/// host (and [`WakeMode`]) can profit from them. Dropping the engine shuts
/// the pool down cleanly.
#[derive(Debug)]
pub struct ShardedEngine {
    index: Arc<ShardedIndex>,
    pool: PinnedPool<ShardCell>,
    /// Merged per-vertex degrees — the reset state of the greedy bounds.
    base_counts: Vec<u64>,
    greedy: Mutex<DistributedGreedy>,
    cache: QueryCache,
}

impl ShardedEngine {
    /// Engine sized to the process-global execution configuration (see
    /// `imm_exec::configure_global`) with the default cache capacity.
    pub fn new(index: Arc<ShardedIndex>) -> Self {
        let threads = imm_exec::global().num_threads();
        Self::with_options(index, threads, DEFAULT_CACHE_CAPACITY)
    }

    /// Engine with explicit parallelism and cache capacity (0 disables
    /// caching). `threads` counts the serving thread, so at most
    /// `threads - 1` pinned workers spawn ([`WakeMode::Auto`]); results
    /// are identical for every value.
    pub fn with_options(index: Arc<ShardedIndex>, threads: usize, cache_capacity: usize) -> Self {
        Self::with_runtime(index, threads, cache_capacity, WakeMode::Auto)
    }

    /// Engine with an explicit pinned-pool wake policy; the parity suites
    /// use [`WakeMode::Always`] to force real cross-thread serving.
    /// Workers are NUMA-placed against the detected machine topology (see
    /// [`Self::with_runtime_on`]).
    pub fn with_runtime(
        index: Arc<ShardedIndex>,
        threads: usize,
        cache_capacity: usize,
        wake: WakeMode,
    ) -> Self {
        Self::with_runtime_on(index, threads, cache_capacity, wake, Topology::detect())
    }

    /// Engine with an explicit wake policy *and* an explicit machine
    /// topology. On a multi-node topology the pinned workers are placed
    /// across nodes (pinned on start, serving counted local/remote, shard
    /// scratch accounted node-locally); a single-node topology skips
    /// placement and counts `numa_single_node_fallbacks`. Production goes
    /// through [`Topology::detect`]; tests inject synthetic machines.
    pub fn with_runtime_on(
        index: Arc<ShardedIndex>,
        threads: usize,
        cache_capacity: usize,
        wake: WakeMode,
        topology: Topology,
    ) -> Self {
        // The engine records the service_* query/cache/CELF metrics and
        // shard_* metrics of its own, so both families must be registered.
        imm_service::metrics::register();
        crate::metrics::register();
        let threads = threads.max(1);
        let placement =
            crate::placement::plan_pool_placement(topology, index.num_shards(), threads);
        let shard_lens: Vec<usize> = index.segments().iter().map(|s| s.len()).collect();
        crate::placement::account_scratch_regions(topology, placement.as_ref(), &shard_lens);
        let cells = (0..index.num_shards())
            .map(|shard| ShardCell::new(Arc::clone(&index), shard))
            .collect();
        let pool = PinnedPool::with_placement(cells, threads, wake, placement);
        let base_counts = merged_degrees(&index);
        let greedy = Mutex::new(DistributedGreedy::from_merged(base_counts.clone(), pool.len()));
        ShardedEngine { index, pool, base_counts, greedy, cache: QueryCache::new(cache_capacity) }
    }

    /// The sharded index this engine serves.
    pub fn index(&self) -> &Arc<ShardedIndex> {
        &self.index
    }

    /// Hit/miss counters of the response cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of pinned worker threads serving this engine's shards
    /// (0 means the serving thread answers every request inline).
    pub fn num_workers(&self) -> usize {
        self.pool.num_workers()
    }

    /// Point-in-time queue depth of each pinned shard cell.
    ///
    /// This is a racy snapshot (a depth can change before the vector
    /// returns) — callers wanting a *metric* should sample it
    /// periodically into a max-over-window gauge (see
    /// `imm_exec::QueueDepthSampler`) rather than report one read.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.pool.queue_depths()
    }

    /// Refresh the served index against a graph mutation (shard-routed;
    /// see [`ShardedIndex::apply_delta`]), then reset the distributed
    /// greedy state and drop the response cache.
    ///
    /// Protocol: the cells first *release* their index handles so the
    /// engine holds the only reference while rebuilding (no hidden
    /// deep-copy in `Arc::make_mut`), then the rebuilt index is
    /// *installed* back — even when the refresh fails, so the engine
    /// always serves a consistent index afterwards.
    pub fn apply_delta(
        &mut self,
        graph: &CsrGraph,
        weights: &EdgeWeights,
        delta: &GraphDelta,
    ) -> Result<(CsrGraph, EdgeWeights, RefreshStats), DynamicError> {
        let shards = self.pool.len();
        // Release/Install are idempotent, so worker deaths mid-rollout are
        // retried (each retry respawns the dead worker first); only a plan
        // injecting deaths at a sustained 100% rate can get past this, and
        // then a loud panic beats silently serving half-installed cells.
        let released = scatter_idempotent(&self.pool, |_| ShardRequest::Release)
            .unwrap_or_else(|e| panic!("release scatter retries exhausted mid-refresh: {e}"));
        for response in released {
            debug_assert!(matches!(response, ShardResponse::Unit));
        }
        let result = Arc::make_mut(&mut self.index).apply_delta(graph, weights, delta);
        let installed = scatter_idempotent(&self.pool, |_| ShardRequest::Install {
            index: Arc::clone(&self.index),
        })
        .unwrap_or_else(|e| panic!("install scatter retries exhausted mid-refresh: {e}"));
        for response in installed {
            debug_assert!(matches!(response, ShardResponse::Unit));
        }
        self.base_counts = merged_degrees(&self.index);
        *self.greedy.lock() = DistributedGreedy::from_merged(self.base_counts.clone(), shards);
        self.cache.clear();
        result
    }

    /// Answer one query, consulting the response cache first.
    ///
    /// Panics if the pinned pool lost workers beyond what its checked
    /// twin [`try_execute`](Self::try_execute) could degrade — only
    /// reachable under injected faults; fault-aware callers (the serving
    /// daemon) use the checked API.
    pub fn execute(&self, query: &Query) -> QueryResponse {
        self.try_execute(query).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Answer one query, consulting the response cache first; a worker
    /// death mid-scatter degrades to a structured [`ScatterError`]
    /// instead of a panic, and the engine heals itself on the next call
    /// (dead workers respawn, dirty greedy sessions rebuild).
    pub fn try_execute(&self, query: &Query) -> Result<QueryResponse, ScatterError> {
        // The one place query metrics are recorded: the queries/sec meter,
        // hit/miss counters, and the per-query-type latency histogram
        // around the miss-path compute (hits return in nanoseconds and
        // would drown the percentiles, so they are counted, not timed). A
        // failed compute is not cached (and caches nothing in its place).
        imm_service::metrics::QUERY_RATE.mark();
        let key = QueryKey::from_query(query);
        if let Some(hit) = self.cache.get(&key) {
            imm_service::metrics::CACHE_HITS.increment();
            return Ok(hit);
        }
        imm_service::metrics::CACHE_MISSES.increment();
        let latency = match query {
            Query::TopK { .. } => &imm_service::metrics::TOPK_LATENCY,
            Query::Spread { .. } => &imm_service::metrics::SPREAD_LATENCY,
            Query::Marginal { .. } => &imm_service::metrics::MARGINAL_LATENCY,
        };
        let response = latency.time(|| self.try_execute_uncached(query))?;
        self.cache.insert(key, response.clone());
        Ok(response)
    }

    /// Answer one query without touching the cache.
    ///
    /// Panics under unrecoverable worker loss, like
    /// [`execute`](Self::execute); see
    /// [`try_execute_uncached`](Self::try_execute_uncached).
    pub fn execute_uncached(&self, query: &Query) -> QueryResponse {
        self.try_execute_uncached(query).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Answer one query without touching the cache, degrading worker
    /// deaths to structured errors.
    pub fn try_execute_uncached(&self, query: &Query) -> Result<QueryResponse, ScatterError> {
        match query {
            Query::TopK { k, audience: None } => self.top_k(*k),
            Query::TopK { k, audience: Some(audience) } => self.masked_top_k(*k, audience),
            Query::Spread { seeds } => Ok(QueryResponse::spread_from_tallies(
                self.coverage(seeds, None)?,
                self.index.num_sets(),
                self.index.num_nodes(),
            )),
            Query::Marginal { seeds, candidate } => Ok(QueryResponse::marginal_from_tallies(
                self.coverage(seeds, Some(*candidate))?,
                self.index.num_sets(),
                self.index.num_nodes(),
            )),
        }
    }

    /// Fan a batch of queries across `threads` tasks, preserving input
    /// order in the returned responses.
    ///
    /// Panics under unrecoverable worker loss, like
    /// [`execute`](Self::execute); see
    /// [`try_execute_batch`](Self::try_execute_batch).
    pub fn execute_batch(&self, queries: &[Query], threads: usize) -> Vec<QueryResponse> {
        self.try_execute_batch(queries, threads).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fan a batch of queries across `threads` tasks of the shared
    /// executor, preserving input order. If any query hits a worker death
    /// the whole batch reports the first such [`ScatterError`] in input
    /// order — per-query salvage is the caller's policy (the serving
    /// daemon answers a structured degraded error and lets clients retry
    /// against the healed pool).
    pub fn try_execute_batch(
        &self,
        queries: &[Query],
        threads: usize,
    ) -> Result<Vec<QueryResponse>, ScatterError> {
        let chunk = queries.len().div_ceil(threads.max(1)).max(1);
        let mut slots: Vec<Option<Result<QueryResponse, ScatterError>>> = vec![None; queries.len()];
        rayon::scope(|s| {
            for (q_chunk, r_chunk) in queries.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                s.spawn(move |_| {
                    for (query, slot) in q_chunk.iter().zip(r_chunk) {
                        *slot = Some(self.try_execute(query));
                    }
                });
            }
        });
        slots.into_iter().map(|slot| slot.expect("every slot is filled by its task")).collect()
    }

    /// Rebuild the persistent fresh greedy session when a failed retire
    /// round left it dirty ([`DistributedGreedy::needs_reset`]): reinstall
    /// the index on every cell (resetting the alive flags), rebuild the
    /// merged counts and frontier from the base degrees, and drop the
    /// cache. A no-op on a clean session. On failure the dirty flag
    /// stays set, so the next call tries again.
    fn ensure_fresh_session(&self, state: &mut DistributedGreedy) -> Result<(), ScatterError> {
        if !state.needs_reset {
            return Ok(());
        }
        let installed = scatter_idempotent(&self.pool, |_| ShardRequest::Install {
            index: Arc::clone(&self.index),
        })?;
        for response in installed {
            debug_assert!(matches!(response, ShardResponse::Unit));
        }
        *state = DistributedGreedy::from_merged(self.base_counts.clone(), self.pool.len());
        self.cache.clear();
        Ok(())
    }

    /// Run greedy rounds until `min(k, n)` seeds are selected. Rounds
    /// already played are never repeated. Each round scatters one retire
    /// request per shard (served by the shard's pinned worker, or inline
    /// when the pool has none) and walks the gathered retire stream to
    /// keep the merged counts exact. A retire round is NOT idempotent — a
    /// worker death mid-round loses responses whose alive flags already
    /// flipped — so a failure marks the session dirty
    /// ([`DistributedGreedy::needs_reset`]) instead of retrying, and the
    /// next use rebuilds it from scratch.
    fn extend_to(
        &self,
        state: &mut DistributedGreedy,
        k: usize,
        session: Session,
    ) -> Result<(), ScatterError> {
        let n = self.index.num_nodes();
        let collection = self.index.collection();
        while state.seeds.len() < k.min(n) {
            let (best, best_count) = state.pop_argmax();
            state.seeds.push(best);
            let covered_so_far = state.covered_after.last().copied().unwrap_or(0);
            if best_count == 0 {
                // No alive set contains any vertex: later seeds are emitted
                // deterministically with zero gain (the all-zero argmax is
                // the smallest vertex id) and the vertex stays a candidate,
                // exactly like the selection kernels.
                state.covered_after.push(covered_so_far);
                state.frontier.push(best, 0);
                continue;
            }
            // Scatter: each shard retires its own covered sets and streams
            // back their global ids; gather decrements the merged counts.
            crate::metrics::GATHER_ROUNDS.increment();
            let bufs = std::mem::take(&mut state.bufs);
            let responses = match self.pool.try_scatter(
                bufs.into_iter()
                    .enumerate()
                    .map(|(s, buf)| (s, ShardRequest::Retire { vertex: best, session, buf })),
            ) {
                Ok(responses) => responses,
                Err(e) => {
                    // The round's retire stream is gone: shards that served
                    // before the death already flipped alive flags the
                    // merged counts never saw. Only a full session rebuild
                    // reconciles them. The recycled buffers died with their
                    // envelopes; restock so the rebuilt session can scatter.
                    state.bufs = vec![Vec::new(); self.pool.len()];
                    state.needs_reset = true;
                    return Err(e);
                }
            };
            let mut covered = covered_so_far;
            for response in responses {
                let buf = response.retired();
                crate::metrics::RETIRE_WALK_SETS.record(buf.len() as u64);
                covered += buf.len();
                for &gsid in &buf {
                    collection.get(gsid as usize).for_each(|v| state.merged[v as usize] -= 1);
                }
                state.bufs.push(buf);
            }
            debug_assert_eq!(
                state.merged[best as usize], 0,
                "retiring every live set containing the seed zeroes its count"
            );
            debug_assert_eq!(
                self.scattered_live_count(best, session).unwrap_or(0),
                0,
                "shard alive flags agree with the merged counts"
            );
            state.covered_after.push(covered);
            // Re-admit with the post-retirement merged count (zero).
            state.frontier.push(best, state.merged[best as usize]);
        }
        Ok(())
    }

    /// Sum of the shards' live counts for one vertex — the distributed
    /// revalidation probe, used to cross-check the merged counts.
    fn scattered_live_count(
        &self,
        vertex: NodeId,
        session: Session,
    ) -> Result<usize, ScatterError> {
        let responses =
            scatter_idempotent(&self.pool, |_| ShardRequest::LiveCount { vertex, session })?;
        Ok(responses.into_iter().map(ShardResponse::count).sum())
    }

    fn top_k(&self, k: usize) -> Result<QueryResponse, ScatterError> {
        let take = k.min(self.index.num_nodes());
        let mut state = self.greedy.lock();
        self.ensure_fresh_session(&mut state)?;
        self.extend_to(&mut state, k, Session::Fresh)?;
        let seeds = state.seeds[..take].to_vec();
        let covered = if take == 0 { 0 } else { state.covered_after[take - 1] };
        drop(state);
        Ok(self.topk_response(seeds, covered))
    }

    fn masked_top_k(&self, k: usize, audience: &BitSet) -> Result<QueryResponse, ScatterError> {
        // The masked session lives in the shard cells; holding the greedy
        // lock serializes it against both fresh Top-K and other masks.
        let _session = self.greedy.lock();
        let audience = Arc::new(audience.clone());
        let n = self.index.num_nodes();
        let shards = self.pool.len();
        let mut merged = vec![0u64; n];
        let init = scatter_idempotent(&self.pool, |_| ShardRequest::MaskedInit {
            audience: Arc::clone(&audience),
        })?;
        for response in init {
            for (v, c) in response.counts().into_iter().enumerate() {
                merged[v] += c;
            }
        }
        let mut state = DistributedGreedy::from_merged(merged, shards);
        let extended = self.extend_to(&mut state, k, Session::Masked);
        // Close the masked session even when extension failed — MaskedClear
        // is idempotent and a dirty masked session must not outlive the
        // query (the throwaway greedy state dies here either way).
        let cleared = scatter_idempotent(&self.pool, |_| ShardRequest::MaskedClear);
        extended?;
        for response in cleared? {
            debug_assert!(matches!(response, ShardResponse::Unit));
        }
        let take = k.min(n);
        let covered = if take == 0 { 0 } else { state.covered_after[take - 1] };
        Ok(self.topk_response(state.seeds[..take].to_vec(), covered))
    }

    fn topk_response(&self, seeds: Vec<NodeId>, covered: usize) -> QueryResponse {
        QueryResponse::top_k_from_tallies(
            seeds,
            covered,
            self.index.num_sets(),
            self.index.num_nodes(),
        )
    }

    /// Scatter one [`ShardRequest::Coverage`] walk and sum the per-shard
    /// counts: exactly the whole-collection tally.
    fn coverage(&self, seeds: &[NodeId], candidate: Option<NodeId>) -> Result<usize, ScatterError> {
        let seeds = Arc::new(seeds.to_vec());
        let make = |_| ShardRequest::Coverage { seeds: Arc::clone(&seeds), candidate };
        Ok(scatter_idempotent(&self.pool, make)?.into_iter().map(ShardResponse::count).sum())
    }
}

/// Scatter one request per shard, retrying on worker deaths. Only valid
/// for *idempotent* requests (degrees, postings walks, install/release,
/// session init/clear): a retry re-serves shards that already answered,
/// which must not change their state beyond what a first serve does.
/// Retire streams are NOT idempotent and never come through here.
fn scatter_idempotent(
    pool: &PinnedPool<ShardCell>,
    make: impl Fn(usize) -> ShardRequest,
) -> Result<Vec<ShardResponse>, ScatterError> {
    let mut last = ScatterError { lost: 0 };
    for _ in 0..SCATTER_RETRIES {
        match pool.try_scatter((0..pool.len()).map(|s| (s, make(s)))) {
            Ok(responses) => return Ok(responses),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Merged per-vertex degrees across all shards: the fresh-session live
/// counts before any retirement, read straight off the immutable
/// segments. Also the natural probe for the load-imbalance gauge — each
/// shard's degree total *is* its postings work — so the gauge refreshes
/// wherever the merged counts do (engine construction and delta refresh).
fn merged_degrees(index: &ShardedIndex) -> Vec<u64> {
    let mut merged = vec![0u64; index.num_nodes()];
    for segment in index.segments() {
        for (v, count) in merged.iter_mut().enumerate() {
            *count += segment.degree(v as NodeId);
        }
    }
    let per_shard: Vec<u64> = index.segments().iter().map(|s| s.postings_entries()).collect();
    crate::metrics::record_shard_work(&per_shard);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use imm_rrr::{RrrCollection, RrrSet};
    use imm_service::IndexMeta;
    use std::panic::{self, AssertUnwindSafe};

    fn sharded_index(num_nodes: usize, sets: &[&[NodeId]], shards: usize) -> Arc<ShardedIndex> {
        let mut c = RrrCollection::new(num_nodes);
        for s in sets {
            c.push(RrrSet::sorted(s.to_vec()));
        }
        Arc::new(ShardedIndex::from_parts(c, IndexMeta::default(), None, shards).unwrap())
    }

    fn sharded_engine(num_nodes: usize, sets: &[&[NodeId]], shards: usize) -> ShardedEngine {
        ShardedEngine::new(sharded_index(num_nodes, sets, shards))
    }

    /// The paper's Figure 3 sets; hand-checkable greedy trajectory.
    fn figure3_sets() -> Vec<&'static [NodeId]> {
        vec![&[0, 1], &[1], &[2, 4], &[1, 4], &[1, 4, 5], &[3], &[0, 3], &[2]]
    }

    fn figure3(shards: usize) -> ShardedEngine {
        sharded_engine(6, &figure3_sets(), shards)
    }

    /// The one-shard case (a single index) and a split one.
    const SHARD_COUNTS: [usize; 2] = [1, 3];

    #[test]
    fn top_k_follows_the_hand_computed_greedy_trajectory_for_any_shard_count() {
        // Counts [2,4,2,2,3,1]: seed 1 (4 sets), then 2 (ties 3, smaller id
        // wins; 2 more sets), then 3 (the last two sets).
        for shards in [1usize, 2, 3, 5, 8] {
            let engine = figure3(shards);
            match engine.execute(&Query::top_k(3)) {
                QueryResponse::TopK { seeds, coverage_fraction, estimated_influence } => {
                    assert_eq!(seeds, vec![1, 2, 3], "{shards} shards");
                    assert!((coverage_fraction - 1.0).abs() < 1e-12);
                    assert!((estimated_influence - 6.0).abs() < 1e-12);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn forced_worker_mode_matches_inline_serving() {
        for threads in [2usize, 4] {
            let engine = ShardedEngine::with_runtime(
                sharded_index(6, &figure3_sets(), 3),
                threads,
                0,
                WakeMode::Always,
            );
            assert!(engine.num_workers() >= 1, "Always mode must spawn workers");
            let inline = figure3(3);
            for query in [
                Query::top_k(3),
                Query::Spread { seeds: vec![1, 3] },
                Query::Marginal { seeds: vec![1], candidate: 3 },
                Query::audience_top_k(2, BitSet::from_iter_with_capacity(6, [3, 4])),
            ] {
                assert_eq!(
                    engine.execute_uncached(&query),
                    inline.execute_uncached(&query),
                    "threads={threads} {query:?}"
                );
            }
        }
    }

    #[test]
    fn spread_and_marginal_match_hand_computation() {
        for shards in SHARD_COUNTS {
            let engine = figure3(shards);
            // Seeds {1,3}: sets 0,1,3,4 (via 1) + 5,6 (via 3) = 6 of 8.
            match engine.execute(&Query::Spread { seeds: vec![1, 3] }) {
                QueryResponse::Spread { coverage_fraction, estimate } => {
                    assert!((coverage_fraction - 0.75).abs() < 1e-12, "6 of 8 sets");
                    assert!((estimate - 4.5).abs() < 1e-12);
                }
                other => panic!("unexpected {other:?}"),
            }
            // Duplicates and order don't change the answer.
            assert_eq!(
                engine.execute_uncached(&Query::Spread { seeds: vec![3, 1, 1, 3] }),
                engine.execute_uncached(&Query::Spread { seeds: vec![1, 3] }),
            );
            match engine.execute(&Query::Marginal { seeds: vec![1], candidate: 3 }) {
                QueryResponse::Marginal { gain_fraction, .. } => {
                    assert!((gain_fraction - 0.25).abs() < 1e-12, "sets 5 and 6 are new");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn marginal_is_the_spread_difference() {
        for shards in SHARD_COUNTS {
            let engine = figure3(shards);
            let base = vec![1u32];
            for candidate in 0..6u32 {
                let with: Vec<u32> = base.iter().copied().chain([candidate]).collect();
                let (s_with, s_base) = match (
                    engine.execute_uncached(&Query::Spread { seeds: with }),
                    engine.execute_uncached(&Query::Spread { seeds: base.clone() }),
                ) {
                    (
                        QueryResponse::Spread { estimate: a, .. },
                        QueryResponse::Spread { estimate: b, .. },
                    ) => (a, b),
                    other => panic!("unexpected {other:?}"),
                };
                match engine.execute_uncached(&Query::Marginal { seeds: base.clone(), candidate }) {
                    QueryResponse::Marginal { gain, .. } => assert!(
                        (gain - (s_with - s_base)).abs() < 1e-9,
                        "{shards} shards, candidate {candidate}"
                    ),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn out_of_range_vertices_cover_nothing() {
        for shards in SHARD_COUNTS {
            let engine = figure3(shards);
            match engine.execute(&Query::Spread { seeds: vec![100] }) {
                QueryResponse::Spread { coverage_fraction, .. } => {
                    assert_eq!(coverage_fraction, 0.0)
                }
                other => panic!("unexpected {other:?}"),
            }
            match engine.execute(&Query::Marginal { seeds: vec![1], candidate: 100 }) {
                QueryResponse::Marginal { gain, .. } => assert_eq!(gain, 0.0),
                other => panic!("unexpected {other:?}"),
            }
            // An out-of-range seed next to an in-range one is simply skipped.
            assert_eq!(
                engine.execute_uncached(&Query::Spread { seeds: vec![100, 3] }),
                engine.execute_uncached(&Query::Spread { seeds: vec![3] }),
            );
        }
    }

    #[test]
    fn growing_the_budget_reuses_the_distributed_prefix() {
        for shards in [1usize, 4] {
            let engine = figure3(shards);
            let one = engine.execute(&Query::top_k(1));
            let three = engine.execute(&Query::top_k(3));
            let fresh = figure3(shards).execute(&Query::top_k(3));
            assert_eq!(three, fresh, "incremental extension must equal a fresh selection");
            match (one, three) {
                (
                    QueryResponse::TopK { seeds: s1, coverage_fraction: f1, .. },
                    QueryResponse::TopK { seeds: s3, .. },
                ) => {
                    assert_eq!(s1, s3[..1].to_vec(), "smaller budget is a prefix");
                    assert!((f1 - 0.5).abs() < 1e-12, "vertex 1 covers 4 of 8 sets");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn shrinking_the_budget_reads_the_prefix_without_new_rounds() {
        for shards in SHARD_COUNTS {
            let engine = figure3(shards);
            let three = engine.execute(&Query::top_k(3));
            let played = engine.greedy.lock().seeds.len();
            let two = engine.execute(&Query::top_k(2));
            assert_eq!(engine.greedy.lock().seeds.len(), played, "no new rounds");
            match (three, two) {
                (
                    QueryResponse::TopK { seeds: s3, .. },
                    QueryResponse::TopK { seeds: s2, coverage_fraction, .. },
                ) => {
                    assert_eq!(s2, s3[..2].to_vec());
                    assert!((coverage_fraction - 0.75).abs() < 1e-12, "seeds {{1,2}} cover 6 of 8");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn budget_beyond_coverage_emits_deterministic_zero_gain_seeds() {
        // Two sets over 4 vertices; after vertices 0 and 2 everything is
        // covered and further rounds emit vertex 0 (kernel behaviour).
        for shards in SHARD_COUNTS {
            let engine = sharded_engine(4, &[&[0], &[2]], shards);
            match engine.execute(&Query::top_k(4)) {
                QueryResponse::TopK { seeds, coverage_fraction, .. } => {
                    assert_eq!(seeds, vec![0, 2, 0, 0], "{shards} shards");
                    assert!((coverage_fraction - 1.0).abs() < 1e-12);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn budget_is_clamped_to_the_vertex_count() {
        for shards in SHARD_COUNTS {
            let engine = sharded_engine(3, &[&[0, 1], &[2]], shards);
            match engine.execute(&Query::top_k(10)) {
                QueryResponse::TopK { seeds, .. } => assert_eq!(seeds.len(), 3, "{shards} shards"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn audience_masks_match_the_hand_computation() {
        for shards in SHARD_COUNTS {
            let engine = figure3(shards);
            // Audience {5}: only set 4 ({1,4,5}) touches it. Vertices 1, 4, 5
            // tie at count 1; the smallest id wins, retiring the only
            // eligible set, and the second round emits the deterministic
            // zero-gain seed.
            let audience = BitSet::from_iter_with_capacity(6, [5]);
            match engine.execute(&Query::audience_top_k(2, audience)) {
                QueryResponse::TopK { seeds, coverage_fraction, .. } => {
                    assert_eq!(seeds, vec![1, 0]);
                    assert!((coverage_fraction - 0.125).abs() < 1e-12, "1 of 8 sets");
                }
                other => panic!("unexpected {other:?}"),
            }
            // Audience {3}: sets 5 ({3}) and 6 ({0,3}) are eligible; vertex 3
            // covers both in one round.
            let audience = BitSet::from_iter_with_capacity(6, [3]);
            match engine.execute(&Query::audience_top_k(1, audience)) {
                QueryResponse::TopK { seeds, coverage_fraction, .. } => {
                    assert_eq!(seeds, vec![3]);
                    assert!((coverage_fraction - 0.25).abs() < 1e-12, "sets 5 and 6");
                }
                other => panic!("unexpected {other:?}"),
            }
            // A fresh Top-K right after a masked one: the masked session must
            // not leak into the persistent fresh state.
            match engine.execute(&Query::top_k(3)) {
                QueryResponse::TopK { seeds, .. } => assert_eq!(seeds, vec![1, 2, 3]),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn full_audience_equals_the_unrestricted_selection() {
        for shards in SHARD_COUNTS {
            let engine = figure3(shards);
            let full = BitSet::from_iter_with_capacity(6, 0..6);
            for k in [1usize, 3, 6] {
                assert_eq!(
                    engine.execute_uncached(&Query::audience_top_k(k, full.clone())),
                    engine.execute_uncached(&Query::top_k(k)),
                    "{shards} shards, k = {k}"
                );
            }
            // Out-of-range audience vertices select nothing extra (and don't
            // panic): an audience entirely outside the graph masks every set
            // out.
            let outside = BitSet::from_iter_with_capacity(99, [98]);
            match engine.execute(&Query::audience_top_k(1, outside)) {
                QueryResponse::TopK { seeds, coverage_fraction, .. } => {
                    assert_eq!(seeds, vec![0], "zero-gain round emits the smallest vertex");
                    assert_eq!(coverage_fraction, 0.0);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn empty_index_answers_zeroes() {
        for shards in SHARD_COUNTS {
            let engine = sharded_engine(5, &[], shards);
            assert_eq!(
                engine.execute(&Query::Spread { seeds: vec![1] }),
                QueryResponse::Spread { coverage_fraction: 0.0, estimate: 0.0 }
            );
            match engine.execute(&Query::top_k(2)) {
                QueryResponse::TopK { seeds, coverage_fraction, .. } => {
                    assert_eq!(seeds.len(), 2, "zero-gain seeds are still emitted");
                    assert_eq!(coverage_fraction, 0.0);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn cache_serves_repeated_queries() {
        let engine = figure3(2);
        let q = Query::Spread { seeds: vec![1, 3] };
        let first = engine.execute(&q);
        assert_eq!(first, engine.execute(&q));
        // Normalization: a permuted duplicate-carrying variant also hits.
        assert_eq!(first, engine.execute(&Query::Spread { seeds: vec![3, 1, 3] }));
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn batch_preserves_order_and_matches_sequential_execution() {
        let engine = figure3(3);
        let queries: Vec<Query> = (1..=4)
            .map(Query::top_k)
            .chain((0..6).map(|v| Query::Spread { seeds: vec![v] }))
            .chain((0..6).map(|v| Query::Marginal { seeds: vec![1], candidate: v }))
            .collect();
        let sequential: Vec<QueryResponse> =
            queries.iter().map(|q| figure3(3).execute_uncached(q)).collect();
        for threads in [1usize, 2, 4] {
            assert_eq!(engine.execute_batch(&queries, threads), sequential, "threads={threads}");
        }
        assert!(engine.execute_batch(&[], 4).is_empty());
    }

    #[test]
    fn merged_counts_match_the_distributed_live_probe() {
        let engine = figure3(3);
        let _ = engine.execute(&Query::top_k(2));
        let state = engine.greedy.lock();
        for v in 0..6u32 {
            assert_eq!(
                engine.scattered_live_count(v, Session::Fresh).unwrap() as u64,
                state.merged[v as usize],
                "vertex {v}"
            );
        }
    }

    /// Postings that put a set id beyond the index's θ into one vertex's
    /// list — what a corrupt mapped file (whose payload checksum the mapped
    /// path skips) would serve: offsets, then set ids.
    #[derive(Debug)]
    struct CorruptPostings(Vec<u64>, Vec<u32>);

    impl imm_service::PostingsSource for CorruptPostings {
        fn offsets(&self) -> &[u64] {
            &self.0
        }
        fn set_ids(&self) -> &[u32] {
            &self.1
        }
    }

    #[test]
    fn a_walk_that_panics_leaves_no_marks_for_later_requests() {
        let reference = figure3(1);
        let honest = &reference.index().segments()[0];
        let (mut offsets, mut set_ids) = (vec![0u64], Vec::new());
        for v in 0..6u32 {
            set_ids.extend_from_slice(honest.postings(v));
            if v == 5 {
                set_ids.push(99);
            }
            offsets.push(set_ids.len() as u64);
        }
        let corrupt = imm_service::SketchIndex::from_mapped_parts(
            reference.index().collection().clone(),
            IndexMeta::default(),
            None,
            Arc::new(CorruptPostings(offsets, set_ids)),
        )
        .unwrap();
        let corrupt = Arc::new(ShardedIndex::from_index(corrupt, 1).unwrap());
        for mode in [WakeMode::Auto, WakeMode::Always] {
            let engine = ShardedEngine::with_runtime(corrupt.clone(), 2, 0, mode);
            // Vertex 4 marks sets 2, 3, 4; vertex 5 then reaches id 99 and
            // the walk panics before the clearing pass.
            let poisoned = Query::Spread { seeds: vec![4, 5] };
            let walk = panic::catch_unwind(AssertUnwindSafe(|| engine.execute(&poisoned)));
            assert!(walk.is_err(), "{mode:?}: the bad set id must fail the walk");
            for q in [
                Query::Spread { seeds: vec![2] },
                Query::Spread { seeds: vec![1, 3] },
                Query::Marginal { seeds: vec![0], candidate: 4 },
            ] {
                assert_eq!(engine.execute(&q), reference.execute(&q), "{mode:?}: {q:?}");
            }
        }
    }
}
