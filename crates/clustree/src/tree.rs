//! The anytime clustering index (ClusTree-style).
//!
//! The tree stores micro-clusters at leaf level and aggregated cluster
//! features in its inner entries, exactly like the Bayes tree stores kernels
//! and CFs.  Three ideas from Section 4.2 make it *anytime*:
//!
//! * **Budgeted insertion** — an arriving object descends towards the closest
//!   entry; each step costs one node read.  When the budget is exhausted the
//!   object is **parked** in the entry's hitchhiker buffer instead of
//!   descending further.
//! * **Hitchhikers** — a later object descending through the same entry picks
//!   the buffered objects up and carries them one level further down, so
//!   parked mass eventually reaches the leaves without dedicated time.
//! * **Exponential decay and entry reuse** — every cluster feature ages with
//!   `2^(-lambda * dt)`; leaf entries whose decayed weight falls below an
//!   irrelevance threshold are reused for new data, keeping the model's size
//!   constant while staying up to date.
//!
//! As a consequence the tree's granularity adapts itself to the stream speed:
//! slow streams grant deep descents and fine micro-clusters, fast streams
//! park objects high up and keep the model coarse.
//!
//! The arena, the budgeted descent with its park/hitchhiker bookkeeping and
//! the split/overflow propagation all live in the shared
//! [`bt_anytree::AnytimeTree`] core — the same core the Bayes tree is built
//! on.  This module only supplies the micro-cluster payload policy: nearest
//! -centre routing, absorb-or-reuse leaf insertion, the polar split, and the
//! merge-closest fallback when there is no time to split.

use crate::microcluster::{DecayCtx, MicroCluster};
use bt_anytree::{AnytimeTree, InsertModel, Node, NodeId, NodeKind};
use bt_index::PageGeometry;

pub use bt_anytree::{BatchOutcome, DepthHistogram, InsertOutcome};

/// Configuration of the anytime clustering tree.
#[derive(Debug, Clone)]
pub struct ClusTreeConfig {
    /// Maximum number of entries per node (inner and leaf alike).
    pub max_entries: usize,
    /// Minimum number of entries a split must place in each node.
    pub min_entries: usize,
    /// Exponential decay rate `lambda` (0 disables decay).
    pub decay_lambda: f64,
    /// Leaf entries whose decayed weight drops below this threshold are
    /// considered irrelevant and may be reused for new data.
    pub irrelevance_threshold: f64,
    /// Whether splits are allowed to propagate (disallowing them caps the
    /// tree size; parked objects and merges absorb all growth).
    pub allow_splits: bool,
}

impl Default for ClusTreeConfig {
    fn default() -> Self {
        Self {
            max_entries: 3,
            min_entries: 1,
            decay_lambda: 0.0,
            irrelevance_threshold: 0.1,
            allow_splits: true,
        }
    }
}

impl ClusTreeConfig {
    /// Asserts the configuration's invariants (shared by the plain and
    /// sharded constructors, so both reject exactly the same configs).
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot support a node split.
    pub(crate) fn validate(&self) {
        assert!(self.max_entries >= 2, "need at least two entries per node");
        assert!(
            self.min_entries >= 1 && self.min_entries * 2 <= self.max_entries + 1,
            "min entries must allow a split"
        );
    }

    /// The `(min, max)` fanout this configuration induces on the shared
    /// core (the same capacity governs inner and leaf nodes).
    pub(crate) fn geometry(&self) -> PageGeometry {
        PageGeometry {
            min_fanout: self.min_entries,
            max_fanout: self.max_entries,
            min_leaf: self.min_entries,
            max_leaf: self.max_entries,
        }
    }
}

/// The micro-cluster insertion policy over the shared core (also driven by
/// the sharded tree in [`crate::sharded`]).
pub(crate) struct ClusModel<'a> {
    pub(crate) config: &'a ClusTreeConfig,
    pub(crate) now: f64,
}

impl ClusModel<'_> {
    fn lambda(&self) -> f64 {
        self.config.decay_lambda
    }
}

impl InsertModel<MicroCluster> for ClusModel<'_> {
    type Object = MicroCluster;
    type LeafItem = MicroCluster;
    const BUFFERED: bool = true;

    fn ctx(&self) -> DecayCtx {
        DecayCtx {
            now: self.now,
            lambda: self.lambda(),
        }
    }

    fn route_point<'a>(&self, obj: &'a MicroCluster, scratch: &'a mut Vec<f64>) -> &'a [f64] {
        obj.center_into(scratch);
        scratch
    }

    fn summary_of(&self, obj: &MicroCluster) -> MicroCluster {
        obj.clone()
    }

    fn absorb_into(&self, summary: &mut MicroCluster, obj: &MicroCluster) {
        summary.merge(obj, self.lambda());
    }

    fn merge_buffer_into_object(&self, obj: &mut MicroCluster, buffer: MicroCluster) {
        obj.merge(&buffer, self.lambda());
    }

    fn refresh_leaf_items(&self, items: &mut [MicroCluster]) {
        for mc in items {
            mc.decay_to(self.now, self.lambda());
        }
    }

    /// Absorbed as a fresh entry if there is room, replacing the lightest
    /// irrelevant (aged-out) entry otherwise; a genuine overflow is left for
    /// the core to split or collapse.
    fn insert_into_leaf(&mut self, items: &mut Vec<MicroCluster>, obj: MicroCluster) {
        if items.len() < self.config.max_entries {
            items.push(obj);
            return;
        }
        let irrelevant = items
            .iter()
            .enumerate()
            .filter(|(_, mc)| mc.weight() < self.config.irrelevance_threshold)
            .min_by(|(_, a), (_, b)| {
                a.weight()
                    .partial_cmp(&b.weight())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i);
        if let Some(idx) = irrelevant {
            items[idx] = obj;
            return;
        }
        items.push(obj);
    }

    fn summarize_leaf_items(&self, items: &[MicroCluster]) -> MicroCluster {
        let lambda = self.lambda();
        let mut summary = items[0].clone();
        for mc in &items[1..] {
            summary.merge(mc, lambda);
        }
        summary.decay_to(self.now, lambda);
        summary
    }

    fn split_leaf_items(
        &self,
        items: Vec<MicroCluster>,
        _geometry: &PageGeometry,
    ) -> (Vec<MicroCluster>, Vec<MicroCluster>) {
        let centers: Vec<Vec<f64>> = items.iter().map(MicroCluster::center).collect();
        let (first, second) = bt_anytree::polar_partition(&centers, self.config.max_entries);
        bt_anytree::distribute(items, &first, &second)
    }

    fn collapse_leaf_items(&self, items: &mut Vec<MicroCluster>) {
        bt_anytree::merge_closest_pair(items, self.ctx());
    }

    fn may_split(&self, has_time: bool) -> bool {
        self.config.allow_splits && has_time
    }
}

/// The anytime stream-clustering index.
#[derive(Debug, Clone)]
pub struct ClusTree {
    config: ClusTreeConfig,
    core: AnytimeTree<MicroCluster, MicroCluster>,
    num_inserted: usize,
    current_time: f64,
}

impl ClusTree {
    /// Creates an empty tree for `dims`-dimensional points.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or the configuration is inconsistent.
    #[must_use]
    pub fn new(dims: usize, config: ClusTreeConfig) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        config.validate();
        let core = AnytimeTree::new(dims, config.geometry());
        Self {
            config,
            core,
            num_inserted: 0,
            current_time: 0.0,
        }
    }

    /// Dimensionality of the clustered points.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.core.dims()
    }

    /// Number of objects inserted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.num_inserted
    }

    /// Whether no objects have been inserted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_inserted == 0
    }

    /// The configuration the tree was created with.
    #[must_use]
    pub fn config(&self) -> &ClusTreeConfig {
        &self.config
    }

    /// Height of the tree (a single leaf root has height 1).
    #[must_use]
    pub fn height(&self) -> usize {
        self.core.height()
    }

    /// The latest timestamp seen.
    #[must_use]
    pub fn current_time(&self) -> f64 {
        self.current_time
    }

    /// Read access to the underlying shared arena tree (for inspection and
    /// invariant tests).
    #[must_use]
    pub fn core(&self) -> &AnytimeTree<MicroCluster, MicroCluster> {
        &self.core
    }

    /// Inserts an object observed at `timestamp` with a budget of
    /// `node_budget` node reads.
    ///
    /// A budget of 0 parks the object at the root level immediately.
    ///
    /// # Panics
    ///
    /// Panics if the point has the wrong dimensionality.
    pub fn insert(&mut self, point: &[f64], timestamp: f64, node_budget: usize) -> InsertOutcome {
        assert_eq!(point.len(), self.dims(), "point dimensionality mismatch");
        self.current_time = self.current_time.max(timestamp);
        self.num_inserted += 1;
        let payload = MicroCluster::from_point(point, timestamp);
        let mut model = ClusModel {
            config: &self.config,
            now: timestamp,
        };
        self.core.insert(&mut model, payload, node_budget)
    }

    /// Inserts a mini-batch of objects observed at `timestamp`, each with a
    /// budget of `node_budget` node reads, through the core's batched
    /// descent engine ([`bt_anytree::descent`]).
    ///
    /// Within the batch every visited node refreshes (decays) its entry
    /// summaries once instead of once per object — observably equivalent for
    /// objects sharing a timestamp, since decay is idempotent at a fixed
    /// instant — and overflowing nodes split once after the batch drains.
    /// Objects are routed in input order, so a later object picks up
    /// hitchhikers parked by an earlier one exactly as sequential insertion
    /// would.  The returned [`BatchOutcome`] carries the per-object outcomes
    /// plus the reached-leaf vs. parked-at-depth histogram.
    ///
    /// # Panics
    ///
    /// Panics if any point has the wrong dimensionality.
    pub fn insert_batch(
        &mut self,
        points: &[Vec<f64>],
        timestamp: f64,
        node_budget: usize,
    ) -> BatchOutcome {
        let dims = self.dims();
        assert!(
            points.iter().all(|p| p.len() == dims),
            "point dimensionality mismatch"
        );
        self.current_time = self.current_time.max(timestamp);
        self.num_inserted += points.len();
        let payloads: Vec<MicroCluster> = points
            .iter()
            .map(|p| MicroCluster::from_point(p, timestamp))
            .collect();
        let mut model = ClusModel {
            config: &self.config,
            now: timestamp,
        };
        self.core.insert_batch(&mut model, payloads, node_budget)
    }

    /// Number of payload-summary refresh (decay) operations performed by
    /// descents so far.  Batched insertion refreshes each visited node once
    /// per batch, so it grows this counter strictly slower than sequential
    /// insertion.
    #[must_use]
    pub fn summary_refreshes(&self) -> u64 {
        self.core.summary_refreshes()
    }

    /// The published epoch of the versioned arena (batches committed so
    /// far); [`ClusTree::snapshot`](crate::view) pins this value.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.core.epoch()
    }

    /// Retired node copies created by copy-on-write so far — zero as long
    /// as no snapshot (and no cloned tree, which shares the arena slots the
    /// same way) overlaps a write.
    #[must_use]
    pub fn retired_nodes(&self) -> u64 {
        self.core.retired_nodes()
    }

    /// Number of live snapshots currently pinning an epoch of this tree.
    #[must_use]
    pub fn pinned_snapshots(&self) -> usize {
        self.core.pinned_snapshots()
    }

    /// All current micro-clusters: the leaf entries plus any non-empty
    /// hitchhiker buffers, decayed to the tree's current time.
    #[must_use]
    pub fn micro_clusters(&self) -> Vec<MicroCluster> {
        micro_clusters_over(
            std::slice::from_ref(&self.core),
            self.current_time,
            self.config.decay_lambda,
        )
    }

    /// Number of current micro-clusters.
    #[must_use]
    pub fn num_micro_clusters(&self) -> usize {
        self.micro_clusters().len()
    }

    /// Total decayed weight currently represented by the tree.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.micro_clusters().iter().map(MicroCluster::weight).sum()
    }

    /// Number of nodes in the tree.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.core.num_nodes()
    }

    /// Validates internal consistency: every node within capacity (plus the
    /// bounded directory slack a deferred split may leave behind) and all
    /// aggregated weights non-negative.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        validate_node(&self.core, &self.config, self.core.root())
    }
}

/// The micro-clusters of a set of shard views — every shard's leaf items
/// plus non-empty hitchhiker buffers, shard-major — decayed to `now` with
/// the weightless dropped.  The one body behind the plain, sharded and
/// snapshot `micro_clusters`: the offline step folds over the shards.
pub(crate) fn micro_clusters_over<V: bt_anytree::TreeView<MicroCluster, MicroCluster>>(
    shards: &[V],
    now: f64,
    lambda: f64,
) -> Vec<MicroCluster> {
    let mut out = Vec::new();
    for shard in shards {
        for id in shard.reachable() {
            match &shard.node(id).kind {
                NodeKind::Leaf { items } => out.extend(items.iter().cloned()),
                NodeKind::Inner { entries } => {
                    out.extend(entries.iter().filter_map(|e| e.buffer.clone()));
                }
            }
        }
    }
    for mc in &mut out {
        mc.decay_to(now, lambda);
    }
    out.retain(|mc| mc.weight() > f64::EPSILON);
    out
}

/// Validates one core (sub)tree: every node within capacity (plus the
/// bounded directory slack a deferred split may leave behind), all
/// aggregated weights non-negative, and every stored micro-cluster, entry
/// summary and buffer finite ([`MicroCluster::is_finite`]) — one NaN
/// poisons every density bound above it.  Shared by the plain and sharded
/// trees.
pub(crate) fn validate_node(
    core: &AnytimeTree<MicroCluster, MicroCluster>,
    config: &ClusTreeConfig,
    node_id: NodeId,
) -> Result<(), String> {
    let node: &Node<MicroCluster, MicroCluster> = core.node(node_id);
    // Inner nodes may temporarily exceed capacity by one when a split was
    // deferred for lack of time; anything beyond that is a bug.
    let slack = usize::from(!node.is_leaf());
    if node.len() > config.max_entries + slack {
        return Err(format!(
            "node {node_id} has {} entries (capacity {})",
            node.len(),
            config.max_entries
        ));
    }
    match &node.kind {
        NodeKind::Leaf { items } => {
            for mc in items {
                if !mc.is_finite() {
                    return Err(format!("leaf {node_id} holds a non-finite micro-cluster"));
                }
                if mc.weight() < 0.0 {
                    return Err(format!("leaf {node_id} has a negative weight"));
                }
            }
        }
        NodeKind::Inner { entries } => {
            for (i, entry) in entries.iter().enumerate() {
                if !(entry.summary.is_finite()
                    && entry.buffer.as_ref().is_none_or(MicroCluster::is_finite))
                {
                    return Err(format!(
                        "entry {i} of node {node_id} stores a non-finite summary"
                    ));
                }
                if entry.weight() < 0.0 || entry.buffered_weight() < 0.0 {
                    return Err(format!("node {node_id} has a negative weight"));
                }
                validate_node(core, config, entry.child)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_stats::vector;

    fn two_cluster_stream(n: usize) -> Vec<(Vec<f64>, f64)> {
        (0..n)
            .map(|i| {
                let c = if i % 2 == 0 { 0.0 } else { 20.0 };
                let jitter = (i % 9) as f64 * 0.1;
                (vec![c + jitter, c - jitter], i as f64)
            })
            .collect()
    }

    #[test]
    fn inserting_builds_micro_clusters() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for (p, t) in two_cluster_stream(300) {
            tree.insert(&p, t, 10);
        }
        assert_eq!(tree.len(), 300);
        assert!(tree.num_micro_clusters() >= 2);
        tree.validate().expect("valid tree");
        // Without decay, no mass is lost.
        assert!((tree.total_weight() - 300.0).abs() < 1e-6);
    }

    #[test]
    fn zero_budget_parks_objects() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        // Grow a small tree first.
        for (p, t) in two_cluster_stream(50) {
            tree.insert(&p, t, 10);
        }
        assert!(tree.height() > 1);
        let outcome = tree.insert(&[0.0, 0.0], 51.0, 0);
        assert!(matches!(outcome, InsertOutcome::Parked { depth: 1 }));
        // The parked object still counts toward the total weight.
        assert!((tree.total_weight() - 51.0).abs() < 1e-6);
    }

    #[test]
    fn hitchhikers_are_carried_down_later() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for (p, t) in two_cluster_stream(60) {
            tree.insert(&p, t, 10);
        }
        // Park a few objects.
        for i in 0..5 {
            tree.insert(&[0.5, 0.5], 60.0 + i as f64, 0);
        }
        // Subsequent descents with budget pick the buffers up again; mass is
        // conserved throughout.
        for i in 0..20 {
            tree.insert(&[0.4, 0.4], 70.0 + i as f64, 10);
        }
        assert!((tree.total_weight() - 85.0).abs() < 1e-6);
        tree.validate().expect("valid");
    }

    #[test]
    fn small_budget_keeps_tree_smaller() {
        let build = |budget: usize| {
            let mut tree = ClusTree::new(2, ClusTreeConfig::default());
            for (p, t) in two_cluster_stream(400) {
                tree.insert(&p, t, budget);
            }
            tree.num_nodes()
        };
        let small = build(1);
        let large = build(20);
        assert!(
            small <= large,
            "faster stream (budget 1) built a bigger tree: {small} vs {large}"
        );
    }

    #[test]
    fn decay_forgets_old_clusters() {
        let config = ClusTreeConfig {
            decay_lambda: 0.5,
            ..ClusTreeConfig::default()
        };
        let mut tree = ClusTree::new(2, config);
        // Old cluster around (0, 0).
        for i in 0..100 {
            tree.insert(&[0.0 + (i % 5) as f64 * 0.01, 0.0], i as f64 * 0.01, 5);
        }
        // Much later, a new cluster around (30, 30).
        for i in 0..100 {
            tree.insert(
                &[30.0, 30.0 + (i % 5) as f64 * 0.01],
                100.0 + i as f64 * 0.01,
                5,
            );
        }
        let mcs = tree.micro_clusters();
        let old_weight: f64 = mcs
            .iter()
            .filter(|m| m.center()[0] < 15.0)
            .map(MicroCluster::weight)
            .sum();
        let new_weight: f64 = mcs
            .iter()
            .filter(|m| m.center()[0] >= 15.0)
            .map(MicroCluster::weight)
            .sum();
        assert!(
            new_weight > old_weight * 10.0,
            "old {old_weight} vs new {new_weight}"
        );
    }

    #[test]
    fn disallowing_splits_caps_the_tree() {
        let config = ClusTreeConfig {
            allow_splits: false,
            ..ClusTreeConfig::default()
        };
        let mut tree = ClusTree::new(2, config);
        for (p, t) in two_cluster_stream(500) {
            tree.insert(&p, t, 10);
        }
        assert_eq!(tree.height(), 1);
        assert!(tree.num_micro_clusters() <= 3);
        assert!((tree.total_weight() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn micro_cluster_centers_track_the_two_clusters() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for (p, t) in two_cluster_stream(400) {
            tree.insert(&p, t, 10);
        }
        let mcs = tree.micro_clusters();
        let near_low = mcs
            .iter()
            .any(|m| vector::dist(&m.center(), &[0.2, -0.2]) < 2.0);
        let near_high = mcs
            .iter()
            .any(|m| vector::dist(&m.center(), &[20.2, 19.8]) < 2.0);
        assert!(near_low && near_high);
    }

    #[test]
    fn validate_catches_nothing_on_fresh_tree() {
        let tree = ClusTree::new(3, ClusTreeConfig::default());
        assert!(tree.validate().is_ok());
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dims_panics() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        tree.insert(&[1.0], 0.0, 1);
    }

    #[test]
    fn batch_of_one_matches_sequential_insertion() {
        let stream = two_cluster_stream(250);
        let mut sequential = ClusTree::new(2, ClusTreeConfig::default());
        let mut batched = ClusTree::new(2, ClusTreeConfig::default());
        for (i, (p, t)) in stream.iter().enumerate() {
            let budget = i % 6;
            let a = sequential.insert(p, *t, budget);
            let b = batched.insert_batch(std::slice::from_ref(p), *t, budget);
            assert_eq!(a, b.outcomes[0]);
        }
        assert_eq!(sequential.num_nodes(), batched.num_nodes());
        assert_eq!(sequential.height(), batched.height());
        assert!((sequential.total_weight() - batched.total_weight()).abs() < 1e-9);
        batched.validate().expect("valid tree");
    }

    #[test]
    fn batched_inserts_conserve_mass_and_stay_valid() {
        let stream = two_cluster_stream(512);
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for (batch_idx, chunk) in stream.chunks(32).enumerate() {
            let points: Vec<Vec<f64>> = chunk.iter().map(|(p, _)| p.clone()).collect();
            let result = tree.insert_batch(&points, batch_idx as f64, 8);
            assert_eq!(result.outcomes.len(), points.len());
            assert_eq!(result.depths.total(), points.len());
        }
        assert_eq!(tree.len(), 512);
        assert!((tree.total_weight() - 512.0).abs() < 1e-6);
        tree.validate().expect("valid tree");
    }

    #[test]
    fn zero_budget_batch_parks_and_reports_the_depth_histogram() {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for (p, t) in two_cluster_stream(60) {
            tree.insert(&p, t, 10);
        }
        assert!(tree.height() > 1);
        let points: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.1, 0.0]).collect();
        let result = tree.insert_batch(&points, 61.0, 0);
        assert_eq!(result.depths.reached_leaf, 0);
        assert_eq!(result.depths.parked_total(), 10);
        assert_eq!(result.depths.mean_parked_depth(), Some(1.0));
        assert!((tree.total_weight() - 70.0).abs() < 1e-6);
    }

    #[test]
    fn batched_insertion_refreshes_fewer_summaries() {
        let stream = two_cluster_stream(600);
        let mut sequential = ClusTree::new(2, ClusTreeConfig::default());
        for (p, t) in &stream {
            sequential.insert(p, *t, 10);
        }
        let mut batched = ClusTree::new(2, ClusTreeConfig::default());
        for (batch_idx, chunk) in stream.chunks(64).enumerate() {
            let points: Vec<Vec<f64>> = chunk.iter().map(|(p, _)| p.clone()).collect();
            batched.insert_batch(&points, batch_idx as f64, 10);
        }
        assert!(
            batched.summary_refreshes() < sequential.summary_refreshes(),
            "batched {} vs sequential {}",
            batched.summary_refreshes(),
            sequential.summary_refreshes()
        );
    }
}
