//! Sharded concurrent anytime trees: parallel descent across subtree shards.
//!
//! The paper's anytime premise is that insertion quality scales with the
//! budget the system can spend per object.  On multi-core hardware that
//! budget is bounded by single-threaded descent — so this module partitions
//! the object space into `K` independent [`AnytimeTree`] shards and runs the
//! batched descent engine of [`crate::descent`] on all of them **in
//! parallel**:
//!
//! * a pluggable [`ShardRouter`] assigns every incoming object to a shard
//!   (the default [`CheapestRouter`] routes to the shard whose running root
//!   aggregate is closest; the data-independent [`FixedPartitionRouter`]
//!   deals objects round-robin and is the reference router for equivalence
//!   tests),
//! * [`ShardedAnytimeTree::insert_batch`] splits the batch by shard and
//!   descends every shard on its own scoped thread
//!   (`std::thread::scope` — no extra dependencies), one
//!   [`DescentCursor`](crate::DescentCursor) per shard as the concurrency
//!   unit,
//! * each shard's `finish_batch` is its single synchronisation point for
//!   structural changes, and the per-shard [`BatchOutcome`]s are merged
//!   ([`DepthHistogram::merge`], [`DescentStats::merge`]) into one
//!   [`ShardedBatchOutcome`] in input order.
//!
//! Because shards never share nodes, no locking is needed: the coordinator
//! routes (cheap, one distance per shard), the shards descend, and the merge
//! is a histogram fold.  A sharded tree with one shard performs exactly the
//! plain tree's steps, which the equivalence property tests lock down.
//!
//! Reads have **one path**: [`ShardSet`] is implemented once for any slice
//! of [`TreeView`]s, so the live shards, the pinned snapshot shards and a
//! plain tree or snapshot (the one-shard slice) fold their per-shard
//! frontiers through the same code.  Density queries refine the shards in
//! parallel; outlier scoring is one sequential widest-bound-first loop
//! over the shard cursors whose budget caps the *total* node reads.
//!
//! [`ShardedAnytimeTree::snapshot`] pins every shard's published epoch
//! into a `Vec` of `Send + Sync` [`TreeSnapshot`]s, which is itself a
//! shard set.  The layer also runs
//! **pipelined**: [`ShardedAnytimeTree::pipelined_batch`] drains a
//! mini-batch through the per-shard writers *while* readers refine a query
//! batch against that pre-batch snapshot — reads and writes overlap on the
//! same index without locks, and the readers' answers are exactly the
//! pre-batch answers (`tests/snapshot_isolation.rs`).

use crate::descent::{BatchOutcome, DepthHistogram, DescentStats};
use crate::model::InsertModel;
use crate::query::{
    OutlierScore, OutlierVerdict, QueryAnswer, QueryCursor, QueryModel, QueryStats, RefineOrder,
    TreeView,
};
use crate::snapshot::TreeSnapshot;
use crate::summary::Summary;
use crate::tree::{AnytimeTree, InsertOutcome};
use bt_index::PageGeometry;

/// The policy assigning incoming objects to shards.
///
/// The router sees the object's routing point and the coordinator's running
/// per-shard aggregates (`None` for shards that have received nothing yet)
/// and returns the index of the shard the object descends into.  Routers may
/// keep state (e.g. a round-robin counter), hence `&mut self`.
pub trait ShardRouter<S: Summary> {
    /// Chooses the shard for an object whose routing point is `point`.
    ///
    /// `aggregates[k]` is the running aggregate of everything routed to
    /// shard `k` so far (`None` while the shard is empty).  The returned
    /// index must be `< aggregates.len()`.
    fn route(&mut self, point: &[f64], aggregates: &[Option<S>]) -> usize;
}

/// The default router: cheapest routing over the per-shard root aggregates.
///
/// While any shard is still empty the next empty shard wins (so all `K`
/// shards are seeded before costs are compared); afterwards the object goes
/// to the shard whose aggregate centre is closest
/// ([`Summary::sq_dist_to`]).  Over clustered data this converges to one
/// subtree region per shard — the "shard the arena by subtree" layout.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheapestRouter;

impl<S: Summary> ShardRouter<S> for CheapestRouter {
    fn route(&mut self, point: &[f64], aggregates: &[Option<S>]) -> usize {
        if let Some(empty) = aggregates.iter().position(Option::is_none) {
            return empty;
        }
        aggregates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let da = a.as_ref().map_or(f64::INFINITY, |s| s.sq_dist_to(point));
                let db = b.as_ref().map_or(f64::INFINITY, |s| s.sq_dist_to(point));
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(k, _)| k)
            .expect("sharded trees have at least one shard")
    }
}

/// A data-independent router dealing objects round-robin across the shards.
///
/// Deterministic and oblivious to the routing point, so an external
/// simulation can reproduce the exact partition — the reference router for
/// the sharded-vs-plain equivalence property tests, and a reasonable choice
/// for uniformly mixed streams.
#[derive(Debug, Clone, Default)]
pub struct FixedPartitionRouter {
    next: usize,
}

impl<S: Summary> ShardRouter<S> for FixedPartitionRouter {
    fn route(&mut self, _point: &[f64], aggregates: &[Option<S>]) -> usize {
        let shard = self.next % aggregates.len();
        self.next += 1;
        shard
    }
}

/// The sharded tree's single concurrency dispatch: runs `run` over every
/// `(shard, state)` pair, giving each *busy* pair its own scoped thread
/// when more than one pair is busy and running everything else inline (so
/// a 1-shard tree performs exactly the plain tree's steps, with no thread
/// overhead).  Every parallel path (batched insertion, frontier
/// refinement, batched queries) goes through here, so the dispatch policy
/// exists exactly once.
fn dispatch_busy<A: Send, B: Send>(
    pairs: Vec<(A, B)>,
    busy: impl Fn(&A, &B) -> bool,
    run: impl Fn(A, B) + Sync,
) {
    if pairs.iter().filter(|(a, b)| busy(a, b)).count() <= 1 {
        for (a, b) in pairs {
            run(a, b);
        }
        return;
    }
    std::thread::scope(|scope| {
        let run = &run;
        for (a, b) in pairs {
            if busy(&a, &b) {
                scope.spawn(move || run(a, b));
            } else {
                run(a, b);
            }
        }
    });
}

/// A routed batch, ready for the per-shard writers: the per-shard object
/// lists, the per-shard input indices (to restore input order in the merged
/// report) and the batch size.
type RoutedBatch<O> = (Vec<Vec<O>>, Vec<Vec<usize>>, usize);

/// The merged result of one [`ShardedAnytimeTree::insert_batch`] call.
#[derive(Debug, Clone)]
pub struct ShardedBatchOutcome {
    /// Per-object outcomes, in input order (regardless of which shard an
    /// object descended).
    pub outcomes: Vec<InsertOutcome>,
    /// Reached-leaf vs. parked-at-depth histogram merged over all shards.
    pub depths: DepthHistogram,
    /// Descent-engine work merged over all shards (summed refreshes, node
    /// visits, splits) for this batch alone.
    pub stats: DescentStats,
    /// How many of the batch's objects each shard received.
    pub objects_per_shard: Vec<usize>,
}

/// `K` independent anytime trees behind one insertion facade.
///
/// Shards never share nodes, so each one can run the full batched descent
/// engine on its own thread without synchronisation; the coordinator only
/// routes objects (one [`ShardRouter`] decision per object) and merges the
/// per-shard reports.  See the [module docs](crate::shard) for the design.
#[derive(Debug, Clone)]
pub struct ShardedAnytimeTree<S: Summary, L, R = CheapestRouter> {
    shards: Vec<AnytimeTree<S, L>>,
    /// Running aggregate of everything routed to each shard — routing state
    /// only (never refreshed/decayed), not a substitute for the shard trees'
    /// own summaries.
    aggregates: Vec<Option<S>>,
    /// Objects routed to each shard so far (router-skew observability).
    sizes: Vec<usize>,
    router: R,
    route_scratch: Vec<f64>,
}

impl<S: Summary, L, R: Default> ShardedAnytimeTree<S, L, R> {
    /// Creates `num_shards` empty shards for `dims`-dimensional data with a
    /// default-constructed router.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0` or `dims == 0`.
    #[must_use]
    pub fn new(dims: usize, geometry: PageGeometry, num_shards: usize) -> Self {
        Self::with_router(dims, geometry, num_shards, R::default())
    }
}

impl<S: Summary, L, R> ShardedAnytimeTree<S, L, R> {
    /// Creates `num_shards` empty shards routed by `router`.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0` or `dims == 0`.
    #[must_use]
    pub fn with_router(dims: usize, geometry: PageGeometry, num_shards: usize, router: R) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        Self {
            shards: (0..num_shards)
                .map(|_| AnytimeTree::new(dims, geometry))
                .collect(),
            aggregates: vec![None; num_shards],
            sizes: vec![0; num_shards],
            router,
            route_scratch: Vec::new(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Dimensionality of the indexed data.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.shards[0].dims()
    }

    /// Fanout / leaf-capacity parameters shared by every shard.
    #[must_use]
    pub fn geometry(&self) -> PageGeometry {
        self.shards[0].geometry()
    }

    /// Read access to the shard trees.
    #[must_use]
    pub fn shards(&self) -> &[AnytimeTree<S, L>] {
        &self.shards
    }

    /// Objects routed to each shard so far — the direct skew measure for the
    /// configured [`ShardRouter`] (a future work-stealing layer rebalances
    /// exactly this).
    ///
    /// Counted at **routing time**, not at epoch-publish time: during a
    /// pipelined batch ([`Self::pipelined_batch`]) the whole batch is routed
    /// before the per-shard writers drain it, so `shard_sizes` already
    /// includes the in-flight batch while each shard's published epoch — and
    /// any [`Self::snapshot`] pinned before the batch — still reflects
    /// the pre-batch state.  The counts and the snapshot agree again as soon
    /// as every shard's `finish_batch` has published.
    #[must_use]
    pub fn shard_sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Takes a cheap, immutable snapshot of **every shard** at its current
    /// published epoch: one [`TreeSnapshot`] per shard, each pinning its
    /// shard's epoch registry.
    ///
    /// The returned shards answer the full [`ShardSet`] read surface
    /// bit-identically to querying this tree's [`Self::shards`] at snapshot
    /// time, and they are `Send + Sync`, so reader threads can refine
    /// against them while writers drain later batches into the live shards
    /// — the pipelined mode below does exactly that.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TreeSnapshot<S, L>> {
        self.shards.iter().map(AnytimeTree::snapshot).collect()
    }

    /// Total number of reachable nodes across all shards.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.shards.iter().map(AnytimeTree::num_nodes).sum()
    }

    /// Height of the tallest shard (a single empty leaf root has height 1).
    #[must_use]
    pub fn height(&self) -> usize {
        self.shards
            .iter()
            .map(AnytimeTree::height)
            .max()
            .unwrap_or(1)
    }

    /// The descent-engine work counters merged over all shards.
    #[must_use]
    pub fn stats(&self) -> DescentStats {
        let mut merged = DescentStats::default();
        for shard in &self.shards {
            merged.merge(shard.stats());
        }
        merged
    }

    /// Total payload-summary refresh operations over all shards.
    #[must_use]
    pub fn summary_refreshes(&self) -> u64 {
        self.stats().summary_refreshes
    }
}

impl<S: Summary, L, R: ShardRouter<S>> ShardedAnytimeTree<S, L, R> {
    /// Routes one object: asks the router for a shard and folds the object
    /// into that shard's running aggregate.
    fn route_object<M>(&mut self, model: &M, obj: &M::Object) -> usize
    where
        M: InsertModel<S, LeafItem = L>,
    {
        let point = model.route_point(obj, &mut self.route_scratch);
        let shard = self.router.route(point, &self.aggregates);
        assert!(shard < self.shards.len(), "router chose shard {shard}");
        match &mut self.aggregates[shard] {
            Some(agg) => model.absorb_into(agg, obj),
            slot @ None => *slot = Some(model.summary_of(obj)),
        }
        self.sizes[shard] += 1;
        shard
    }

    /// Inserts one object with `budget` descent steps into the shard the
    /// router assigns it.  A batch of one on that shard — no threads.
    pub fn insert<M>(&mut self, model: &mut M, obj: M::Object, budget: usize) -> InsertOutcome
    where
        M: InsertModel<S, LeafItem = L>,
        L: Clone,
    {
        let shard = self.route_object(model, &obj);
        self.shards[shard].insert(model, obj, budget)
    }

    /// Inserts a mini-batch of objects, each with a budget of `budget`
    /// descent steps, descending every shard's share **in parallel** on
    /// scoped threads.
    ///
    /// The coordinator routes the whole batch first (objects keep their
    /// relative order within a shard, so hitchhiker pickup behaves exactly
    /// as the plain tree's batched insertion does), then every shard with
    /// work runs [`AnytimeTree::insert_batch`] concurrently; each shard's
    /// `finish_batch` is its single synchronisation point for structural
    /// changes.  `make_model` constructs one insertion model per worker —
    /// models are per-shard scratch state and never cross threads.
    ///
    /// When only one shard receives work the batch runs inline on the
    /// calling thread, so a 1-shard tree performs exactly the plain tree's
    /// steps.
    pub fn insert_batch<M, F>(
        &mut self,
        make_model: &F,
        objs: Vec<M::Object>,
        budget: usize,
    ) -> ShardedBatchOutcome
    where
        M: InsertModel<S, LeafItem = L>,
        M::Object: Send,
        S: Send + Sync,
        L: Send + Sync + Clone,
        F: Fn() -> M + Sync,
    {
        let (per_shard_objs, per_shard_idx, total) = self.route_batch(make_model, objs);
        self.descend_routed(make_model, per_shard_objs, per_shard_idx, total, budget)
    }

    /// Routes a whole batch through the coordinator: returns the per-shard
    /// object lists, the per-shard input indices (to restore input order in
    /// the merged report) and the batch size.
    fn route_batch<M, F>(&mut self, make_model: &F, objs: Vec<M::Object>) -> RoutedBatch<M::Object>
    where
        M: InsertModel<S, LeafItem = L>,
        F: Fn() -> M + Sync,
    {
        let total = objs.len();
        let num_shards = self.shards.len();
        let mut per_shard_objs: Vec<Vec<M::Object>> = (0..num_shards).map(|_| Vec::new()).collect();
        let mut per_shard_idx: Vec<Vec<usize>> = (0..num_shards).map(|_| Vec::new()).collect();
        let router_model = make_model();
        for (i, obj) in objs.into_iter().enumerate() {
            let shard = self.route_object(&router_model, &obj);
            per_shard_idx[shard].push(i);
            per_shard_objs[shard].push(obj);
        }
        (per_shard_objs, per_shard_idx, total)
    }

    /// Descends an already-routed batch: every busy shard drains its share
    /// on its own scoped thread and the per-shard reports are merged in
    /// input order.
    fn descend_routed<M, F>(
        &mut self,
        make_model: &F,
        per_shard_objs: Vec<Vec<M::Object>>,
        per_shard_idx: Vec<Vec<usize>>,
        total: usize,
        budget: usize,
    ) -> ShardedBatchOutcome
    where
        M: InsertModel<S, LeafItem = L>,
        M::Object: Send,
        S: Send + Sync,
        L: Send + Sync + Clone,
        F: Fn() -> M + Sync,
    {
        let num_shards = self.shards.len();
        let objects_per_shard: Vec<usize> = per_shard_objs.iter().map(Vec::len).collect();
        let mut results: Vec<Option<BatchOutcome>> = (0..num_shards).map(|_| None).collect();
        dispatch_busy(
            self.shards
                .iter_mut()
                .zip(per_shard_objs.into_iter().zip(results.iter_mut()))
                .collect(),
            |_, (objs, _)| !objs.is_empty(),
            |shard, (objs, slot)| {
                if !objs.is_empty() {
                    let mut model = make_model();
                    *slot = Some(shard.insert_batch(&mut model, objs, budget));
                }
            },
        );

        let mut outcomes = vec![InsertOutcome::ReachedLeaf; total];
        let mut depths = DepthHistogram::default();
        let mut stats = DescentStats::default();
        for (result, indices) in results.into_iter().zip(per_shard_idx) {
            let Some(batch) = result else {
                debug_assert!(indices.is_empty(), "shard with work produced no outcome");
                continue;
            };
            depths.merge(&batch.depths);
            stats.merge(&batch.stats);
            for (i, outcome) in indices.into_iter().zip(batch.outcomes) {
                outcomes[i] = outcome;
            }
        }
        ShardedBatchOutcome {
            outcomes,
            depths,
            stats,
            objects_per_shard,
        }
    }

    /// The **pipelined mode**: drains a mini-batch through the per-shard
    /// writers *while* reader threads refine a query batch against the
    /// pre-batch snapshot — inserts and queries overlap on the same index
    /// without locks.
    ///
    /// Concretely: the coordinator pins a [`Self::snapshot`] (the
    /// pre-batch epochs), routes the whole batch, then a scoped writer
    /// thread drains every busy shard's share (exactly
    /// [`Self::insert_batch`]) while the calling thread answers the query
    /// batch against the frozen shards through [`ShardSet::query_batch`].
    /// Writers copy-on-write any node the snapshot still pins, so the
    /// returned answers are **exactly the pre-batch answers** —
    /// bit-identical to calling [`ShardSet::query_batch`] on
    /// [`Self::shards`] before the batch (property-tested in
    /// `tests/snapshot_isolation.rs`).
    ///
    /// `query_model` must use the *pre-batch* global normaliser for that
    /// equivalence to extend across shards.
    ///
    /// # Panics
    ///
    /// Panics if any query has the wrong dimensionality.
    #[allow(clippy::too_many_arguments)]
    pub fn pipelined_batch<M, F, Q>(
        &mut self,
        make_model: &F,
        objs: Vec<M::Object>,
        budget: usize,
        query_model: &Q,
        queries: &[Vec<f64>],
        order: RefineOrder,
        query_budget: usize,
    ) -> PipelinedOutcome
    where
        M: InsertModel<S, LeafItem = L>,
        M::Object: Send,
        S: Send + Sync,
        L: Send + Sync + Clone,
        R: Send,
        Q: QueryModel<S, LeafItem = L> + Sync,
        F: Fn() -> M + Sync,
    {
        let snapshot = self.snapshot();
        let (per_shard_objs, per_shard_idx, total) = self.route_batch(make_model, objs);
        let (insert, (answers, query_stats)) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                self.descend_routed(make_model, per_shard_objs, per_shard_idx, total, budget)
            });
            let read = snapshot.query_batch(query_model, queries, order, query_budget);
            (writer.join().expect("writer thread completed"), read)
        });
        PipelinedOutcome {
            insert,
            answers,
            query_stats,
        }
    }
}

/// The folded result of one sharded anytime query: per-shard frontier
/// partials summed into one global mixture answer.
///
/// The fold is plain summation, so it requires every shard's [`QueryModel`]
/// to use the same *global* normaliser (e.g. the total object count across
/// shards).  Because each shard's `[lower, upper]` interval can only tighten
/// with budget (the [`query`](crate::query) module's nesting contract), the
/// folded interval inherits the monotonicity guarantee: more per-shard
/// budget never worsens the global bound.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedQueryAnswer {
    /// Point estimate of the global answer (sum of the shard estimates).
    pub estimate: f64,
    /// Certain lower bound on the fully refined global answer.
    pub lower: f64,
    /// Certain upper bound on the fully refined global answer.
    pub upper: f64,
    /// Total refinement steps (node reads) across all shards.
    pub nodes_read: usize,
    /// Refinement steps each shard spent.
    pub per_shard_nodes: Vec<usize>,
}

impl ShardedQueryAnswer {
    /// Width of the folded bound interval (non-increasing in budget).
    #[must_use]
    pub fn uncertainty(&self) -> f64 {
        (self.upper - self.lower).max(0.0)
    }

    /// The single-tree shape of this answer (dropping the per-shard split).
    #[must_use]
    pub fn as_answer(&self) -> QueryAnswer {
        QueryAnswer {
            estimate: self.estimate,
            lower: self.lower,
            upper: self.upper,
            nodes_read: self.nodes_read,
        }
    }

    fn empty(num_shards: usize) -> Self {
        ShardedQueryAnswer {
            estimate: 0.0,
            lower: 0.0,
            upper: 0.0,
            nodes_read: 0,
            per_shard_nodes: vec![0; num_shards],
        }
    }

    /// Adds shard `k`'s partial answer into the fold — the single place the
    /// fold arithmetic lives, shared by the one-shot, batched, pipelined
    /// and outlier-scoring paths.
    fn accumulate(&mut self, k: usize, partial: &QueryAnswer) {
        self.estimate += partial.estimate;
        self.lower += partial.lower;
        self.upper += partial.upper;
        self.nodes_read += partial.nodes_read;
        self.per_shard_nodes[k] += partial.nodes_read;
    }

    fn fold(cursors: &[QueryCursor]) -> Self {
        let mut answer = ShardedQueryAnswer::empty(cursors.len());
        answer.refold(cursors);
        answer
    }

    /// Re-folds the cursors' current partials in place, without
    /// allocating — the outlier loop re-folds after every node read.
    fn refold(&mut self, cursors: &[QueryCursor]) {
        self.estimate = 0.0;
        self.lower = 0.0;
        self.upper = 0.0;
        self.nodes_read = 0;
        self.per_shard_nodes.fill(0);
        for (k, cursor) in cursors.iter().enumerate() {
            self.accumulate(k, &cursor.answer());
        }
    }
}

/// The merged result of one [`ShardedAnytimeTree::pipelined_batch`] call:
/// the insert-side report plus the query answers computed against the
/// pre-batch snapshot while the batch was draining.
#[derive(Debug, Clone)]
pub struct PipelinedOutcome {
    /// The insert-side report (identical in shape to
    /// [`ShardedAnytimeTree::insert_batch`]'s).
    pub insert: ShardedBatchOutcome,
    /// Per-query folded answers — **exactly** what
    /// [`ShardSet::query_batch`] on the live shards would have returned
    /// before the batch.
    pub answers: Vec<ShardedQueryAnswer>,
    /// The readers' merged work counters.
    pub query_stats: QueryStats,
}

/// The per-shard cursors' work counters, merged.
fn merged_stats(cursors: &[QueryCursor]) -> QueryStats {
    let mut stats = QueryStats::default();
    for cursor in cursors {
        stats.merge(cursor.stats());
    }
    stats
}

/// The shard whose next widest-bound refinement is widest (ties go to the
/// lowest shard index), or `None` when no shard can refine.
fn widest_shard(cursors: &mut [QueryCursor]) -> Option<usize> {
    let mut widest: Option<(usize, f64)> = None;
    for (k, cursor) in cursors.iter_mut().enumerate() {
        if let Some(idx) = cursor.peek_next(RefineOrder::WidestBound) {
            let element = &cursor.elements()[idx];
            let width = element.upper - element.lower;
            if widest.is_none_or(|(_, w)| width > w) {
                widest = Some((k, width));
            }
        }
    }
    widest.map(|(k, _)| k)
}

/// The read surface of a set of shard views — the one query path.
///
/// Implemented once for any slice of [`TreeView`]s, so the live shards
/// ([`ShardedAnytimeTree::shards`]), the pinned snapshot shards
/// ([`ShardedAnytimeTree::snapshot`]) and a plain tree or snapshot (the
/// one-shard case, `std::slice::from_ref(&tree)`) all answer through
/// literally the same code.  It is the only query entry point: a single
/// view has no read methods of its own beyond the cursor primitives.  The
/// model must use the *global* normaliser (e.g. the total object count
/// across shards) so per-shard partial answers fold by summation.
pub trait ShardSet<S: Summary, L> {
    /// Begins `query` on every shard and refines each shard's frontier up
    /// to `budget` node reads **in parallel** (one scoped thread per
    /// non-empty shard; inline when at most one shard holds data, so a
    /// one-shard set performs exactly the single tree's steps).  Returns
    /// the per-shard cursors for the caller to fold.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    #[must_use]
    fn refine_frontiers<M>(
        &self,
        model: &M,
        query: &[f64],
        order: RefineOrder,
        budget: usize,
    ) -> Vec<QueryCursor>
    where
        M: QueryModel<S, LeafItem = L> + Sync;

    /// One-shot query: [`Self::refine_frontiers`] folded into one global
    /// mixture answer whose bounds inherit each shard's monotonicity.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    #[must_use]
    fn query_with_budget<M>(
        &self,
        model: &M,
        query: &[f64],
        order: RefineOrder,
        budget: usize,
    ) -> ShardedQueryAnswer
    where
        M: QueryModel<S, LeafItem = L> + Sync;

    /// Refines a batch of queries: every shard processes the **whole
    /// batch** through one reused cursor (in parallel, like
    /// [`Self::refine_frontiers`]), then the per-shard partials are folded
    /// per query.  Returns the per-query global answers plus the merged
    /// [`QueryStats`].  The query histograms get one observation per
    /// folded answer, exactly as from [`Self::query_with_budget`].
    ///
    /// # Panics
    ///
    /// Panics if any query has the wrong dimensionality.
    #[must_use]
    fn query_batch<M>(
        &self,
        model: &M,
        queries: &[Vec<f64>],
        order: RefineOrder,
        budget: usize,
    ) -> (Vec<ShardedQueryAnswer>, QueryStats)
    where
        M: QueryModel<S, LeafItem = L> + Sync;

    /// Anytime outlier scoring: refines the folded density bounds one node
    /// read at a time until the verdict against `threshold` is certain,
    /// the **total** node reads across shards reach `budget`, or nothing
    /// is refinable.
    ///
    /// Each step refines the shard whose next widest-bound element is
    /// widest (ties go to the lowest shard index), sequentially on the
    /// calling thread, so `budget` bounds the answer's `nodes_read` at any
    /// shard count, and a one-shard set performs exactly the single-tree
    /// widest-bound-first steps.  How early the verdict comes depends on
    /// the model's bound tightness: MBR-backed bounds decide far-away
    /// outliers almost immediately, while a distance-blind peak upper
    /// bound resolves inliers quickly but needs deep refinement to certify
    /// an outlier.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    #[must_use]
    fn outlier_score<M>(
        &self,
        model: &M,
        query: &[f64],
        threshold: f64,
        budget: usize,
    ) -> OutlierScore
    where
        M: QueryModel<S, LeafItem = L>;
}

impl<S, L, V> ShardSet<S, L> for [V]
where
    S: Summary + Send + Sync,
    L: Send + Sync,
    V: TreeView<S, L> + Sync,
{
    fn refine_frontiers<M>(
        &self,
        model: &M,
        query: &[f64],
        order: RefineOrder,
        budget: usize,
    ) -> Vec<QueryCursor>
    where
        M: QueryModel<S, LeafItem = L> + Sync,
    {
        let mut cursors: Vec<QueryCursor> = self.iter().map(|_| QueryCursor::new()).collect();
        dispatch_busy(
            self.iter().zip(cursors.iter_mut()).collect(),
            |shard, _| !shard.node(shard.root()).is_empty(),
            |shard, cursor| {
                shard.begin_query(model, query, cursor);
                shard.refine_query_up_to(model, order, budget, cursor);
            },
        );
        cursors
    }

    fn query_with_budget<M>(
        &self,
        model: &M,
        query: &[f64],
        order: RefineOrder,
        budget: usize,
    ) -> ShardedQueryAnswer
    where
        M: QueryModel<S, LeafItem = L> + Sync,
    {
        let started = crate::obs::boundary_timer();
        let cursors = self.refine_frontiers(model, query, order, budget);
        let folded = ShardedQueryAnswer::fold(&cursors);
        crate::obs::record_query_answer(&folded.as_answer(), started);
        crate::obs::record_query_stats(&merged_stats(&cursors));
        folded
    }

    fn query_batch<M>(
        &self,
        model: &M,
        queries: &[Vec<f64>],
        order: RefineOrder,
        budget: usize,
    ) -> (Vec<ShardedQueryAnswer>, QueryStats)
    where
        M: QueryModel<S, LeafItem = L> + Sync,
    {
        let mut recorder = crate::obs::QueryBatchRecorder::new();
        let mut per_shard: Vec<(Vec<QueryAnswer>, QueryStats)> =
            self.iter().map(|_| Default::default()).collect();
        dispatch_busy(
            self.iter().zip(per_shard.iter_mut()).collect(),
            |shard, _| !shard.node(shard.root()).is_empty(),
            |shard, (partials, stats)| {
                let mut cursor = QueryCursor::new();
                partials.reserve_exact(queries.len());
                for query in queries {
                    shard.begin_query(model, query, &mut cursor);
                    shard.refine_query_up_to(model, order, budget, &mut cursor);
                    partials.push(cursor.answer());
                }
                *stats = *cursor.stats();
            },
        );
        let mut stats = QueryStats::default();
        let mut answers: Vec<ShardedQueryAnswer> = queries
            .iter()
            .map(|_| ShardedQueryAnswer::empty(self.len()))
            .collect();
        for (k, (partials, shard_stats)) in per_shard.iter().enumerate() {
            stats.merge(shard_stats);
            for (answer, partial) in answers.iter_mut().zip(partials) {
                answer.accumulate(k, partial);
            }
        }
        for answer in &answers {
            recorder.record(&answer.as_answer());
        }
        recorder.finish(&stats);
        (answers, stats)
    }

    fn outlier_score<M>(
        &self,
        model: &M,
        query: &[f64],
        threshold: f64,
        budget: usize,
    ) -> OutlierScore
    where
        M: QueryModel<S, LeafItem = L>,
    {
        let started = crate::obs::boundary_timer();
        let mut cursors: Vec<QueryCursor> = self
            .iter()
            .map(|shard| shard.new_query(model, query))
            .collect();
        let mut folded = ShardedQueryAnswer::fold(&cursors);
        let mut answer = folded.as_answer();
        let mut verdict = answer.verdict(threshold);
        let mut step: u32 = 0;
        while verdict == OutlierVerdict::Undecided && answer.nodes_read < budget {
            let Some(k) = widest_shard(&mut cursors) else {
                break;
            };
            self[k].refine_query(model, RefineOrder::WidestBound, &mut cursors[k]);
            step += 1;
            folded.refold(&cursors);
            answer = folded.as_answer();
            verdict = answer.verdict(threshold);
            crate::obs::record_refine_step(
                step,
                answer.nodes_read as u64,
                answer.uncertainty(),
                verdict != OutlierVerdict::Undecided,
            );
        }
        crate::obs::record_verdict(verdict);
        crate::obs::record_query_answer(&answer, started);
        crate::obs::record_query_stats(&merged_stats(&cursors));
        OutlierScore { answer, verdict }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Entry, NodeKind};

    /// A minimal distance-routed payload: (weight, component sums).
    #[derive(Debug, Clone, PartialEq)]
    struct Blob {
        weight: f64,
        sum: Vec<f64>,
    }

    impl Blob {
        fn center_of(&self) -> Vec<f64> {
            self.sum.iter().map(|s| s / self.weight).collect()
        }
    }

    impl Summary for Blob {
        type Ctx = ();
        fn merge(&mut self, other: &Self, _ctx: ()) {
            self.weight += other.weight;
            for (a, b) in self.sum.iter_mut().zip(&other.sum) {
                *a += b;
            }
        }
        fn weight(&self) -> f64 {
            self.weight
        }
        fn sq_dist_to(&self, point: &[f64]) -> f64 {
            self.center_of()
                .iter()
                .zip(point)
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        }
        fn center(&self) -> Vec<f64> {
            self.center_of()
        }
    }

    /// A buffered model storing blobs directly at leaf level.
    struct BlobModel;

    impl InsertModel<Blob> for BlobModel {
        type Object = Blob;
        type LeafItem = Blob;
        const BUFFERED: bool = true;

        fn ctx(&self) {}
        fn route_point<'a>(&self, obj: &'a Blob, scratch: &'a mut Vec<f64>) -> &'a [f64] {
            scratch.clear();
            scratch.extend(obj.center_of());
            scratch
        }
        fn summary_of(&self, obj: &Blob) -> Blob {
            obj.clone()
        }
        fn absorb_into(&self, summary: &mut Blob, obj: &Blob) {
            summary.merge(obj, ());
        }
        fn merge_buffer_into_object(&self, obj: &mut Blob, buffer: Blob) {
            obj.merge(&buffer, ());
        }
        fn insert_into_leaf(&mut self, items: &mut Vec<Blob>, obj: Blob) {
            items.push(obj);
        }
        fn summarize_leaf_items(&self, items: &[Blob]) -> Blob {
            let mut s = items[0].clone();
            for i in &items[1..] {
                s.merge(i, ());
            }
            s
        }
        fn split_leaf_items(
            &self,
            items: Vec<Blob>,
            geometry: &PageGeometry,
        ) -> (Vec<Blob>, Vec<Blob>) {
            let centers: Vec<Vec<f64>> = items.iter().map(Summary::center).collect();
            let (a, b) = crate::split::polar_partition(&centers, geometry.max_leaf);
            crate::split::distribute(items, &a, &b)
        }
    }

    fn blob(x: f64, y: f64) -> Blob {
        Blob {
            weight: 1.0,
            sum: vec![x, y],
        }
    }

    fn geometry() -> PageGeometry {
        PageGeometry {
            min_fanout: 1,
            max_fanout: 3,
            min_leaf: 1,
            max_leaf: 3,
        }
    }

    fn stream(n: usize) -> Vec<Blob> {
        (0..n)
            .map(|i| {
                let c = if i % 2 == 0 { 0.0 } else { 20.0 };
                blob(c + (i % 5) as f64 * 0.1, c + (i % 7) as f64 * 0.1)
            })
            .collect()
    }

    fn tree_weight(tree: &AnytimeTree<Blob, Blob>) -> f64 {
        let mut total = 0.0;
        for id in tree.reachable() {
            match &tree.node(id).kind {
                NodeKind::Leaf { items } => total += items.iter().map(|b| b.weight).sum::<f64>(),
                NodeKind::Inner { entries } => {
                    total += entries.iter().map(Entry::buffered_weight).sum::<f64>();
                }
            }
        }
        total
    }

    fn sharded_weight<R>(tree: &ShardedAnytimeTree<Blob, Blob, R>) -> f64 {
        tree.shards().iter().map(tree_weight).sum()
    }

    #[test]
    fn single_shard_matches_the_plain_tree() {
        let points = stream(150);
        let mut plain = AnytimeTree::new(2, geometry());
        let mut sharded: ShardedAnytimeTree<Blob, Blob> = ShardedAnytimeTree::new(2, geometry(), 1);
        let mut model = BlobModel;
        for chunk in points.chunks(16) {
            let a = plain.insert_batch(&mut model, chunk.to_vec(), 3);
            let b = sharded.insert_batch(&|| BlobModel, chunk.to_vec(), 3);
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.depths, b.depths);
            assert_eq!(a.stats, b.stats);
            assert_eq!(b.objects_per_shard, vec![chunk.len()]);
        }
        assert_eq!(plain.num_nodes(), sharded.num_nodes());
        assert_eq!(plain.height(), sharded.height());
        assert_eq!(plain.stats(), &sharded.stats());
        assert!((tree_weight(&plain) - sharded_weight(&sharded)).abs() < 1e-9);
    }

    #[test]
    fn fixed_partition_router_deals_round_robin() {
        let mut sharded: ShardedAnytimeTree<Blob, Blob, FixedPartitionRouter> =
            ShardedAnytimeTree::new(2, geometry(), 3);
        let result = sharded.insert_batch(&|| BlobModel, stream(31), usize::MAX);
        assert_eq!(result.objects_per_shard, vec![11, 10, 10]);
        assert_eq!(result.outcomes.len(), 31);
        assert_eq!(result.depths.total(), 31);
        // The next batch continues the rotation where the last one stopped.
        let result = sharded.insert_batch(&|| BlobModel, stream(2), usize::MAX);
        assert_eq!(result.objects_per_shard, vec![0, 1, 1]);
    }

    #[test]
    fn cheapest_router_seeds_every_shard_then_routes_by_distance() {
        let mut sharded: ShardedAnytimeTree<Blob, Blob> = ShardedAnytimeTree::new(2, geometry(), 2);
        let model = BlobModel;
        // First two objects seed the two empty shards in order.
        assert_eq!(sharded.route_object(&model, &blob(0.0, 0.0)), 0);
        assert_eq!(sharded.route_object(&model, &blob(20.0, 20.0)), 1);
        // From now on distance decides.
        assert_eq!(sharded.route_object(&model, &blob(1.0, 1.0)), 0);
        assert_eq!(sharded.route_object(&model, &blob(19.0, 19.0)), 1);
        assert!(sharded.aggregates.iter().all(Option::is_some));
    }

    #[test]
    fn parallel_batches_conserve_mass_and_merge_reports() {
        let points = stream(320);
        let mut sharded: ShardedAnytimeTree<Blob, Blob> = ShardedAnytimeTree::new(2, geometry(), 4);
        let mut total_stats = DescentStats::default();
        for chunk in points.chunks(64) {
            let result = sharded.insert_batch(&|| BlobModel, chunk.to_vec(), usize::MAX);
            assert_eq!(result.outcomes.len(), chunk.len());
            assert_eq!(result.depths.total(), chunk.len());
            assert_eq!(result.depths.reached_leaf, chunk.len());
            assert_eq!(result.objects_per_shard.iter().sum::<usize>(), chunk.len());
            total_stats.merge(&result.stats);
        }
        assert!((sharded_weight(&sharded) - 320.0).abs() < 1e-9);
        // The merged per-batch deltas add up to the merged per-shard totals.
        assert_eq!(total_stats, sharded.stats());
        // Every shard saw work: two clusters spread over four seeded shards.
        for shard in sharded.shards() {
            assert!(shard.stats().batches > 0);
        }
    }

    #[test]
    fn empty_batches_are_no_ops_on_both_paths() {
        let mut plain = AnytimeTree::new(2, geometry());
        let mut sharded: ShardedAnytimeTree<Blob, Blob> = ShardedAnytimeTree::new(2, geometry(), 1);
        let mut model = BlobModel;
        let a = plain.insert_batch(&mut model, Vec::new(), 3);
        let b = sharded.insert_batch(&|| BlobModel, Vec::new(), 3);
        assert!(a.outcomes.is_empty() && b.outcomes.is_empty());
        assert_eq!(a.stats, DescentStats::default());
        assert_eq!(plain.stats(), &sharded.stats());
        assert_eq!(plain.stats(), &DescentStats::default());
    }

    #[test]
    fn zero_budget_batches_park_across_shards() {
        let mut sharded: ShardedAnytimeTree<Blob, Blob> = ShardedAnytimeTree::new(2, geometry(), 2);
        let _ = sharded.insert_batch(&|| BlobModel, stream(60), usize::MAX);
        assert!(sharded.height() > 1);
        let result = sharded.insert_batch(&|| BlobModel, stream(8), 0);
        assert_eq!(result.depths.reached_leaf, 0);
        assert_eq!(result.depths.parked_total(), 8);
        assert!((sharded_weight(&sharded) - 68.0).abs() < 1e-9);
    }

    #[test]
    fn single_object_insert_routes_and_descends() {
        let mut sharded: ShardedAnytimeTree<Blob, Blob> = ShardedAnytimeTree::new(2, geometry(), 2);
        let mut model = BlobModel;
        for p in stream(40) {
            let outcome = sharded.insert(&mut model, p, usize::MAX);
            assert_eq!(outcome, InsertOutcome::ReachedLeaf);
        }
        assert!((sharded_weight(&sharded) - 40.0).abs() < 1e-9);
        assert_eq!(sharded.stats().batches, 40);
    }

    #[test]
    fn sharded_trees_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<AnytimeTree<Blob, Blob>>();
        assert_send::<crate::DescentCursor<Blob>>();
        assert_send::<crate::QueryCursor>();
        assert_send::<ShardedAnytimeTree<Blob, Blob, CheapestRouter>>();
        assert_send::<ShardedAnytimeTree<Blob, Blob, FixedPartitionRouter>>();
    }

    /// A toy density model over blobs: `w/n * exp(-d²)` with trivially
    /// nested bounds `(0, w/n)`; exact at leaf level.
    struct BlobQueryModel {
        n: f64,
    }

    impl QueryModel<Blob> for BlobQueryModel {
        type LeafItem = Blob;
        fn summary_contribution(&self, query: &[f64], summary: &Blob) -> f64 {
            summary.weight / self.n * (-summary.sq_dist_to(query)).exp()
        }
        fn summary_bounds(&self, _query: &[f64], summary: &Blob) -> (f64, f64) {
            (0.0, summary.weight / self.n)
        }
        fn leaf_contribution(&self, query: &[f64], item: &Blob) -> f64 {
            self.summary_contribution(query, item)
        }
        fn leaf_sq_dist(&self, query: &[f64], item: &Blob) -> f64 {
            item.sq_dist_to(query)
        }
        fn leaf_weight(&self, item: &Blob) -> f64 {
            item.weight
        }
        fn summarize_leaf_items(&self, items: &[Blob]) -> Blob {
            let mut s = items[0].clone();
            for i in &items[1..] {
                s.merge(i, ());
            }
            s
        }
    }

    #[test]
    fn shard_sizes_track_routing() {
        let mut sharded: ShardedAnytimeTree<Blob, Blob, FixedPartitionRouter> =
            ShardedAnytimeTree::new(2, geometry(), 3);
        assert_eq!(sharded.shard_sizes(), &[0, 0, 0]);
        let _ = sharded.insert_batch(&|| BlobModel, stream(31), usize::MAX);
        assert_eq!(sharded.shard_sizes(), &[11, 10, 10]);
        let _ = sharded.insert_batch(&|| BlobModel, stream(2), usize::MAX);
        assert_eq!(sharded.shard_sizes(), &[11, 11, 11]);
    }

    #[test]
    fn one_shard_query_matches_the_plain_tree() {
        let points = stream(150);
        let mut plain = AnytimeTree::new(2, geometry());
        let mut sharded: ShardedAnytimeTree<Blob, Blob> = ShardedAnytimeTree::new(2, geometry(), 1);
        let mut model = BlobModel;
        for chunk in points.chunks(16) {
            let _ = plain.insert_batch(&mut model, chunk.to_vec(), 3);
            let _ = sharded.insert_batch(&|| BlobModel, chunk.to_vec(), 3);
        }
        let query = [1.0, 1.0];
        for budget in [0usize, 1, 3, 8, usize::MAX] {
            let reference = std::slice::from_ref(&plain)
                .query_with_budget(
                    &BlobQueryModel { n: 150.0 },
                    &query,
                    RefineOrder::BestFirst,
                    budget,
                )
                .as_answer();
            let folded = sharded.shards().query_with_budget(
                &BlobQueryModel { n: 150.0 },
                &query,
                RefineOrder::BestFirst,
                budget,
            );
            assert_eq!(folded.as_answer(), reference, "budget {budget}");
            assert_eq!(folded.per_shard_nodes, vec![reference.nodes_read]);
        }
    }

    #[test]
    fn sharded_query_folds_the_full_mixture() {
        // Fully refined, the partition is invisible: the folded sum over
        // shards equals the plain tree's fully refined sum.
        let points = stream(200);
        let mut plain = AnytimeTree::new(2, geometry());
        let mut sharded: ShardedAnytimeTree<Blob, Blob> = ShardedAnytimeTree::new(2, geometry(), 4);
        let mut model = BlobModel;
        for chunk in points.chunks(32) {
            let _ = plain.insert_batch(&mut model, chunk.to_vec(), usize::MAX);
            let _ = sharded.insert_batch(&|| BlobModel, chunk.to_vec(), usize::MAX);
        }
        let model = BlobQueryModel { n: 200.0 };
        let shards = sharded.shards();
        for query in [[0.1, 0.2], [20.0, 20.1], [10.0, 10.0]] {
            let reference = std::slice::from_ref(&plain).query_with_budget(
                &model,
                &query,
                RefineOrder::BestFirst,
                usize::MAX,
            );
            let folded =
                shards.query_with_budget(&model, &query, RefineOrder::BestFirst, usize::MAX);
            assert!(
                (folded.estimate - reference.estimate).abs() <= 1e-12 * (1.0 + reference.estimate),
                "estimate mismatch at {query:?}"
            );
            assert!(folded.uncertainty() < 1e-12);
        }
        // Batched multi-query path agrees with the one-shot path.
        let queries: Vec<Vec<f64>> = vec![vec![0.1, 0.2], vec![20.0, 20.1]];
        let (answers, stats) = shards.query_batch(&model, &queries, RefineOrder::BestFirst, 5);
        assert_eq!(answers.len(), 2);
        assert_eq!(stats.queries, 2 * 4); // every shard begins every query
        for (answer, query) in answers.iter().zip(&queries) {
            let one_shot = shards.query_with_budget(&model, query, RefineOrder::BestFirst, 5);
            assert_eq!(answer, &one_shot);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _: ShardedAnytimeTree<Blob, Blob> = ShardedAnytimeTree::new(2, geometry(), 0);
    }
}
