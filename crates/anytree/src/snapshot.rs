//! Epoch-pinned tree snapshots: query a tree while a batch is in flight.
//!
//! A [`TreeSnapshot`] is the read side of the epoch-versioned arena
//! ([`crate::arena`]): taking one costs an [`ArenaSpine`] capture
//! (`O(chunks + pages)` pointer copies — no node payload is touched) plus
//! one pin of the published epoch in the tree's [`EpochRegistry`].  The
//! snapshot is an owned value — it borrows nothing from the tree — so it
//! can be sent to reader threads (`Send + Sync` whenever the payloads are)
//! and queried through the full anytime engine ([`TreeView`]) while the
//! writer keeps inserting batches into the live tree.
//!
//! **Isolation guarantee**: every answer computed against a snapshot is
//! bit-identical to the answer the live tree would have given at the moment
//! the snapshot was taken.  The writer never mutates a node the snapshot
//! can reach — copy-on-write retires the node onto a fresh epoch page and
//! repoints the slot table, leaving the pinned page untouched
//! (`tests/snapshot_isolation.rs` locks this down for both tree
//! instantiations and their sharded variants).
//!
//! **Reclamation rule**: a retired node version lives on an epoch page
//! owned only by the snapshot spines that reference it, so its memory is
//! freed exactly when the last snapshot taken before the version was
//! replaced is dropped.  The registry pin is released by the snapshot's
//! `Drop`; no collector runs.
//!
//! **Incremental refresh** ([`TreeSnapshot::refresh`]): a long-lived reader
//! that wants to move its snapshot forward does not pay a fresh capture —
//! the spine is diffed against the live arena by pointer equality and only
//! the slot chunks and epoch pages touched since the pin are replaced; the
//! untouched majority is reused as-is.  The returned [`SnapshotRefresh`]
//! counters make the reuse observable.

use crate::arena::{ArenaSpine, EpochPin, EpochRegistry, SnapshotRefresh};
use crate::node::{Node, NodeId};
use crate::query::{BlockCacheRef, TreeView};
use crate::summary::Summary;
use crate::tree::AnytimeTree;
use std::sync::Arc;

/// A cheap, immutable, point-in-time view of an [`AnytimeTree`]
/// (crate::AnytimeTree), pinned to the epoch that was published when it was
/// taken.
///
/// Created by [`AnytimeTree::snapshot`](crate::AnytimeTree::snapshot);
/// queried through [`TreeView`] exactly like the live tree.
#[derive(Debug, Clone)]
pub struct TreeSnapshot<S: Summary, L> {
    spine: ArenaSpine<S, L>,
    root: NodeId,
    height: usize,
    dims: usize,
    pin: EpochPin,
}

impl<S: Summary, L> TreeSnapshot<S, L> {
    /// Captures a snapshot from the raw parts (called by
    /// [`AnytimeTree::snapshot`](crate::AnytimeTree::snapshot)).
    #[must_use]
    pub(crate) fn capture(
        spine: ArenaSpine<S, L>,
        root: NodeId,
        height: usize,
        dims: usize,
        epoch: u64,
        registry: Arc<EpochRegistry>,
    ) -> Self {
        Self {
            spine,
            root,
            height,
            dims,
            pin: EpochPin::new(registry, epoch),
        }
    }

    /// Moves this snapshot forward to `tree`'s current state **in place**,
    /// replacing only the slot chunks and epoch pages the tree has touched
    /// since this snapshot was taken (or last refreshed) and reusing the
    /// untouched rest by pointer equality.  The pin is repointed to the
    /// tree's current published epoch.
    ///
    /// Equivalent to dropping this snapshot and taking a fresh one, but the
    /// diff makes the cost proportional to the write delta instead of the
    /// spine size — and the returned [`SnapshotRefresh`] counters prove it.
    ///
    /// # Panics
    ///
    /// Panics if `tree` is not the tree this snapshot was taken from (the
    /// epoch registries differ).
    pub fn refresh(&mut self, tree: &AnytimeTree<S, L>) -> SnapshotRefresh {
        assert!(
            self.pin.same_registry(tree.arena().registry()),
            "snapshot refreshed against a different tree"
        );
        let report = tree.arena().refresh_spine(&mut self.spine);
        self.root = tree.root();
        self.height = tree.height();
        self.pin.repin(tree.epoch());
        crate::obs::record_snapshot_refresh(&report);
        report
    }

    /// Dimensionality of the indexed data.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The arena index of the root node at snapshot time.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Height of the tree at snapshot time.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The published epoch this snapshot pins.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.pin.epoch()
    }

    /// Read access to a node as of snapshot time.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node<S, L> {
        self.spine.node(id)
    }

    /// The version stamp of a node as of snapshot time (the epoch of the
    /// batch that last mutated it — always `<=` [`Self::epoch`] for
    /// reachable nodes of a snapshot taken between batches).
    #[must_use]
    pub fn node_version(&self, id: NodeId) -> u64 {
        self.spine.version(id)
    }

    /// Number of arena slots captured (including orphaned nodes).
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.spine.len()
    }
}

impl<S: Summary, L> TreeView<S, L> for TreeSnapshot<S, L> {
    fn dims(&self) -> usize {
        TreeSnapshot::dims(self)
    }

    fn root(&self) -> NodeId {
        TreeSnapshot::root(self)
    }

    fn node(&self, id: NodeId) -> &Node<S, L> {
        TreeSnapshot::node(self, id)
    }

    fn height(&self) -> usize {
        TreeSnapshot::height(self)
    }

    fn block_cache(&self, id: NodeId) -> Option<BlockCacheRef<'_>> {
        Some(BlockCacheRef {
            slot: self.spine.cache_slot(id),
            version: self.spine.version(id),
            // Snapshot pages are copy-on-write immutable: any later live
            // mutation retires the node onto a fresh page first, so a block
            // gathered here can never go stale at this stamp.
            cacheable: true,
        })
    }

    fn prefetch_node(&self, id: NodeId) {
        self.spine.prefetch(id);
    }
}

#[cfg(test)]
mod tests {
    use crate::model::InsertModel;
    use crate::query::{QueryModel, RefineOrder, TreeView};
    use crate::shard::{ShardSet, ShardedQueryAnswer};
    use crate::summary::Summary;
    use crate::tree::AnytimeTree;
    use bt_index::PageGeometry;

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

    struct BlobQueryModel;

    impl QueryModel<Blob> for BlobQueryModel {
        type LeafItem = Blob;
        fn summary_contribution(&self, query: &[f64], summary: &Blob) -> f64 {
            summary.weight * (-summary.sq_dist_to(query)).exp()
        }
        fn summary_bounds(&self, _query: &[f64], summary: &Blob) -> (f64, f64) {
            (0.0, summary.weight)
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

    /// One view's answer, read as the one-shard set.
    fn answer<V>(view: &V, query: &[f64], order: RefineOrder, budget: usize) -> ShardedQueryAnswer
    where
        V: TreeView<Blob, Blob> + Sync,
    {
        std::slice::from_ref(view).query_with_budget(&BlobQueryModel, query, order, budget)
    }

    #[test]
    fn snapshot_pins_the_published_epoch_and_tracks_nothing_new() {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        let _ = tree.insert_batch(&mut model, stream(60), usize::MAX);
        assert_eq!(tree.epoch(), 1);
        let snapshot = tree.snapshot();
        assert_eq!(snapshot.epoch(), 1);
        assert_eq!(tree.pinned_snapshots(), 1);
        assert_eq!(tree.oldest_pinned_epoch(), Some(1));
        let height_before = snapshot.height();
        let nodes_before = TreeView::num_nodes(&snapshot);

        // Keep inserting: the tree moves on, the snapshot does not.
        for _ in 0..5 {
            let _ = tree.insert_batch(&mut model, stream(60), usize::MAX);
        }
        assert!(tree.epoch() > 1);
        assert_eq!(snapshot.epoch(), 1);
        assert_eq!(snapshot.height(), height_before);
        assert_eq!(TreeView::num_nodes(&snapshot), nodes_before);
        assert!(tree.num_nodes() > nodes_before);

        drop(snapshot);
        assert_eq!(tree.pinned_snapshots(), 0);
        assert_eq!(tree.oldest_pinned_epoch(), None);
    }

    #[test]
    fn writes_without_snapshots_never_copy() {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        for chunk in stream(240).chunks(16) {
            let _ = tree.insert_batch(&mut model, chunk.to_vec(), usize::MAX);
        }
        assert_eq!(tree.retired_nodes(), 0, "no-reader fast path must not COW");
    }

    #[test]
    fn pinned_snapshot_answers_stay_bit_identical_under_writes() {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        let _ = tree.insert_batch(&mut model, stream(150), 3);
        let pre_batch = tree.clone();
        let snapshot = tree.snapshot();

        // Mutate heavily while the snapshot is pinned.
        for chunk in stream(300).chunks(32) {
            let _ = tree.insert_batch(&mut model, chunk.to_vec(), usize::MAX);
        }
        assert!(tree.retired_nodes() > 0, "pinned snapshot must force COW");

        for (i, query) in [[0.3, 0.1], [20.0, 20.2], [10.0, 10.0]].iter().enumerate() {
            for order in [
                RefineOrder::BreadthFirst,
                RefineOrder::BestFirst,
                RefineOrder::WidestBound,
            ] {
                for budget in [0usize, 1, 5, usize::MAX] {
                    let expected = answer(&pre_batch, query, order, budget);
                    let got = answer(&snapshot, query, order, budget);
                    assert_eq!(got, expected, "query {i}, {order:?}, budget {budget}");
                }
            }
        }
        // The live tree has genuinely moved past the snapshot.
        let live = answer(&tree, &[0.3, 0.1], RefineOrder::BestFirst, 0);
        let frozen = answer(&snapshot, &[0.3, 0.1], RefineOrder::BestFirst, 0);
        assert!((live.estimate - frozen.estimate).abs() > 1e-12);
    }

    #[test]
    fn dropping_the_snapshot_restores_the_in_place_fast_path() {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        let _ = tree.insert_batch(&mut model, stream(100), usize::MAX);
        let snapshot = tree.snapshot();
        let _ = tree.insert_batch(&mut model, stream(50), usize::MAX);
        let copied_while_pinned = tree.retired_nodes();
        assert!(copied_while_pinned > 0);
        drop(snapshot);
        let _ = tree.insert_batch(&mut model, stream(50), usize::MAX);
        let _ = tree.insert_batch(&mut model, stream(50), usize::MAX);
        assert_eq!(
            tree.retired_nodes(),
            copied_while_pinned,
            "after the pin is gone, writes go in place again"
        );
    }

    #[test]
    fn snapshots_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::TreeSnapshot<Blob, Blob>>();
    }

    #[test]
    fn refresh_catches_up_and_reuses_untouched_storage() {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        for chunk in stream(200).chunks(25) {
            let _ = tree.insert_batch(&mut model, chunk.to_vec(), usize::MAX);
        }
        let mut snapshot = tree.snapshot();
        let _ = tree.insert_batch(&mut model, stream(50), usize::MAX);

        let report = snapshot.refresh(&tree);
        assert_eq!(snapshot.epoch(), tree.epoch());
        assert_eq!(tree.pinned_snapshots(), 1, "refresh repins, not re-pins");
        assert_eq!(tree.oldest_pinned_epoch(), Some(tree.epoch()));
        // The refreshed snapshot answers exactly like the live tree.
        for query in [[0.3, 0.1], [20.0, 20.2], [10.0, 10.0]] {
            let live = answer(&tree, &query, RefineOrder::BestFirst, usize::MAX);
            let fresh = answer(&snapshot, &query, RefineOrder::BestFirst, usize::MAX);
            assert_eq!(fresh, live);
        }
        // A refresh right after catching up reuses everything.
        let idle = snapshot.refresh(&tree);
        assert_eq!(idle.chunks_refreshed, 0);
        assert_eq!(idle.pages_refreshed, 0);
        assert!(idle.chunks_reused > 0 && idle.pages_reused > 0);
        // The first refresh reused at least as much as it replaced would
        // suggest: some storage was untouched by the 50-object batch.
        assert!(report.chunks_reused + report.chunks_refreshed >= 1);
    }

    #[test]
    #[should_panic(expected = "different tree")]
    fn refresh_against_a_foreign_tree_panics() {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        let _ = tree.insert_batch(&mut model, stream(30), usize::MAX);
        let mut snapshot = tree.snapshot();
        let other: AnytimeTree<Blob, Blob> = AnytimeTree::new(2, geometry());
        let _ = snapshot.refresh(&other);
    }

    #[test]
    fn node_versions_never_exceed_the_snapshot_epoch() {
        let mut tree = AnytimeTree::new(2, geometry());
        let mut model = BlobModel;
        for chunk in stream(120).chunks(24) {
            let _ = tree.insert_batch(&mut model, chunk.to_vec(), usize::MAX);
        }
        let snapshot = tree.snapshot();
        for id in TreeView::reachable(&snapshot) {
            assert!(snapshot.node_version(id) <= snapshot.epoch());
        }
    }
}
