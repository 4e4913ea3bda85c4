//! # bt-anytree — the shared anytime-index core
//!
//! Kranen's VLDB 2009 thesis is that the Bayes tree "is essentially an index
//! structure", and that the stream-clustering extension (ClusTree) is the
//! *same* index with micro-clusters instead of kernels.  This crate owns the
//! machinery both trees share so that it exists exactly once:
//!
//! * the **node arena** ([`AnytimeTree`], [`arena`]): versioned nodes laid
//!   out in contiguous **epoch pages** (`Arc`-shared arrays of up to
//!   [`PAGE_CAP`] nodes) behind a slot table that keeps [`NodeId`]s stable.
//!   Every node carries the epoch of the batch that last mutated it, and
//!   mutation is **copy-on-write at node granularity with page-granular
//!   sharing detection**: a write mutates in place while no pinned snapshot
//!   shares the page (one reference-count check — the no-reader fast path
//!   never copies) and otherwise retires the old version by appending the
//!   copy to the open page, so the nodes one batch touches land next to
//!   each other in memory,
//! * **epoch-pinned snapshots** ([`snapshot`]): `finish_batch` publishes a
//!   new root epoch, [`AnytimeTree::snapshot`] pins it (a spine clone plus
//!   one registry pin) and returns an owned, `Send + Sync`
//!   [`TreeSnapshot`] whose query answers stay bit-identical to pin time
//!   while later batches mutate the tree.  Retired node versions are owned
//!   only by the snapshots that pinned them, so they are reclaimed exactly
//!   when the last such snapshot drops ([`EpochRegistry`] records the pins,
//!   the `Arc` drop frees the memory).  A held snapshot catches up in place
//!   via [`TreeSnapshot::refresh`]: only the spine chunks and pages the
//!   intervening batches actually replaced are re-pinned, everything
//!   untouched is reused pointer-for-pointer ([`SnapshotRefresh`] reports
//!   the reuse counters),
//! * **entries generic over a payload** ([`Summary`]): merge / weight /
//!   distance / decay, plus an optional MBR hook that routes descent and
//!   splits through `bt_index::rstar` choose-subtree and the R* topological
//!   split,
//! * **budgeted descent** with a pluggable per-level step cost
//!   ([`InsertModel::step_cost`]), implemented as an iterative, resumable
//!   cursor engine ([`descent`]): a [`DescentCursor`] holds one in-flight
//!   insertion (node, depth, remaining budget, carried object plus picked-up
//!   hitchhikers) and advances one node per step — no recursion, and the
//!   literal stop/resume-anywhere anytime contract,
//! * **mini-batch insertion** ([`AnytimeTree::insert_batch`]): a batch
//!   shares one summary refresh per visited node, one routing scratch
//!   allocation per tree, and one overflow resolution per node after the
//!   batch drains, reporting a reached-leaf vs. parked-at-depth
//!   [`DepthHistogram`],
//! * **hitchhiker / park buffers**: an object that runs out of budget is
//!   parked in its entry's buffer and carried further down by a later
//!   descent through the same entry,
//! * **split and overflow propagation** with `(min, max)` fanout taken from
//!   [`bt_index::PageGeometry`], including the root split and the
//!   merge-instead-of-split fallback used when there is no time to split,
//! * the **anytime query engine** ([`query`]): the query-side mirror of the
//!   descent engine — a payload-generic [`QueryModel`] scores summaries and
//!   leaf items against a query point, a resumable [`QueryCursor`] refines a
//!   best-first frontier one node read at a time (per-tree scratch/frontier
//!   reuse, a **per-order lazy selection heap** property-tested to pop the
//!   identical sequence as the reference scan, [`QueryStats`] counters
//!   alongside [`DescentStats`]), partial answers carry certain
//!   `[lower, upper]` bounds that can only tighten with budget, and
//!   insert-free workloads such as anytime **outlier scoring**
//!   ([`ShardSet::outlier_score`]) plug in with just a
//!   `Summary` + `QueryModel`.  The whole engine runs on the [`TreeView`]
//!   abstraction, so live trees and pinned [`TreeSnapshot`]s answer
//!   through literally the same code,
//! * the **structure-of-arrays scoring layout** ([`SummaryBlock`],
//!   [`BlockScratch`], re-exported from `bt_stats::block`): the hot "score
//!   every entry of this node" step — subtree routing in the descent engine
//!   and frontier scoring/bounds in the query engine — gathers the node's
//!   summaries into reusable dimension-major weight/mean/variance/box
//!   columns and runs the batch kernels of `bt_stats::kernel` over all
//!   entries in one autovectorizable pass ([`QueryModel::score_entries`],
//!   [`Summary::CENTER_ROUTED`]).  The scalar per-entry path remains the
//!   behavioural reference: block overrides are bit-identical in the
//!   default `f64` column mode (property-tested), and the opt-in
//!   [`BlockPrecision::F32`] mode narrows only the stored columns while
//!   every accumulation stays scalar `f64`,
//! * the **sharding layer** ([`shard`]): a [`ShardedAnytimeTree`] partitions
//!   the object space into `K` independent shard trees behind a pluggable
//!   [`ShardRouter`] and descends every shard's share of a mini-batch in
//!   parallel on scoped threads — one cursor per shard as the concurrency
//!   unit, each shard's `finish_batch` its single synchronisation point,
//!   per-shard reports merged via [`DepthHistogram::merge`] and
//!   [`DescentStats::merge`], and runs the query engine the same way:
//!   per-shard frontiers refined concurrently and folded into one global
//!   mixture whose bounds inherit each shard's monotonicity.  [`ShardSet`]
//!   is the only query entry point: implemented once for a slice of
//!   views, it serves live shards, snapshot shards and a plain tree or
//!   snapshot (the one-shard slice) through one density path, one batched
//!   path and one outlier loop, whose budget caps the total node reads.
//!   There is one snapshot type, [`TreeSnapshot`]: a sharded tree's
//!   [`ShardedAnytimeTree::snapshot`] is a `Vec` of them, one per shard.
//!   On top sits the **pipelined mode**
//!   ([`ShardedAnytimeTree::pipelined_batch`]): writer threads drain a
//!   mini-batch per shard while reader threads refine query frontiers
//!   against the pre-batch shard snapshots — property-tested to return
//!   exactly the pre-batch answers.  The core carries no lock on any hot path, so
//!   `AnytimeTree<S, L>: Send + Sync` whenever the payloads are,
//! * the **observability boundary** ([`obs`]): every batch, query and
//!   snapshot refresh folds its [`DescentStats`] / [`QueryStats`] /
//!   [`SnapshotRefresh`] delta into the process-global [`bt_obs`] metric
//!   registry (latency and bound-width histograms included) and emits
//!   span-trace events for the refinement lifecycle — the hot loops never
//!   touch an atomic, and disabled recording costs one relaxed load per
//!   boundary.
//!
//! Consumers instantiate the core by choosing a payload (`bayestree`: an
//! MBR + cluster-feature summary over raw kernel points; `clustree`: a
//! decaying micro-cluster) and implementing [`InsertModel`] for the handful
//! of decisions that genuinely differ between workloads (leaf insertion
//! policy, leaf splitting, buffering).  Everything else — descent order,
//! buffer bookkeeping, split propagation, height tracking — is shared.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod arena;
pub mod descent;
pub mod model;
pub mod node;
pub mod obs;
pub mod query;
pub mod shard;
pub mod snapshot;
pub mod split;
pub mod summary;
pub mod tree;

pub use arena::{
    ArenaSpine, EpochPin, EpochRegistry, NodeArena, SnapshotRefresh, VersionedNode, PAGE_CAP,
    SLOT_CHUNK,
};
pub use bt_obs;
pub use bt_stats::{
    BlockCacheSlot, BlockPrecision, BlockScratch, CachedBlock, Columns, GatheredBlock, SummaryBlock,
};
pub use descent::{BatchOutcome, CursorStep, DepthHistogram, DescentCursor, DescentStats};
pub use model::InsertModel;
pub use node::{Entry, Node, NodeId, NodeKind};
pub use query::{
    BlockCacheRef, ElementOrigin, OutlierScore, OutlierVerdict, QueryAnswer, QueryCursor,
    QueryElement, QueryModel, QueryStats, RefineOrder, SummaryScore, TreeView,
};
pub use shard::{
    CheapestRouter, FixedPartitionRouter, PipelinedOutcome, ShardRouter, ShardSet,
    ShardedAnytimeTree, ShardedBatchOutcome, ShardedQueryAnswer,
};
pub use snapshot::TreeSnapshot;
pub use split::{distribute, merge_closest_pair, polar_partition};
pub use summary::Summary;
pub use tree::{AnytimeTree, InsertOutcome};
