//! The clustering extension's instantiation of the shared anytime query
//! engine: anytime micro-cluster retrieval and density scoring.
//!
//! Two insert-free workloads run over the same index the stream writes to:
//!
//! * **Anytime k-NN micro-cluster retrieval**
//!   ([`ClusTree::anytime_knn`]) — at budget 0 the answer is the root-level
//!   cluster summaries; every node read splits the frontier element closest
//!   to the query into finer clusters, so the returned neighbours sharpen
//!   from coarse inner aggregates to leaf micro-clusters as budget grows —
//!   retrieval *at any tree level*.
//! * **Anytime density scoring / outlier detection**
//!   ([`ClusTree::anytime_density`], [`ClusTree::outlier_score`]) — the
//!   [`ClusQueryModel`] scores a micro-cluster by the Gaussian product
//!   kernel evaluated at the cluster's *exact* per-dimension mean squared
//!   distance to the query, `E[(x_d - q_d)²] = (c_d - q_d)² + var_d`, which
//!   the cluster feature yields in closed form.  Because `exp(-t)` is convex
//!   this is a Jensen lower bound on the raw-point kernel sum, and the bound
//!   sums over any partition of the points: refining an element can only
//!   *raise* the score toward the leaf-granularity value.  Together with the
//!   trivial per-weight peak upper bound this gives the nested
//!   `[lower, upper]` interval the engine's monotonicity contract asks for.
//!
//! Upper-bound tightness: micro-clusters carry an **optional MBR** alongside
//! the CF ([`MicroCluster::mbr`]), so the upper bound is the distance-aware
//! `weight * K(nearest point of box)` — every summarised point (and hence
//! every child mean, by convexity) lies inside the box, the product kernel
//! decreases with per-dimension distance, and a merged cluster's box is the
//! union of its parts, so the boxes *nest* up the tree exactly as the
//! monotonicity contract requires.  Clusters without a box (reconstructed
//! from a bare CF) fall back to the distance-blind per-weight kernel peak —
//! the only sound nested choice a bare CF offers.  (A deviation-box bound
//! from `sqrt(n·var)` looks tempting but is *not* nested: a small child's
//! box can stick out past its parent's, which would break the contract.)
//! With the MBR bound, far-away outliers are certified after few reads
//! instead of needing refinement down to leaf granularity.
//!
//! Decay caveat: summaries are scored as stored (queries never mutate the
//! tree), so with a non-zero decay rate the bounds are exact only up to the
//! usual temporal-multiplicity approximation; with `lambda == 0` they are
//! exact.

use crate::microcluster::MicroCluster;
use crate::tree::ClusTree;
use bt_anytree::{
    ElementOrigin, Entry, NodeKind, OutlierScore, QueryAnswer, QueryCursor, QueryElement,
    QueryModel, QueryStats, RefineOrder, ShardSet, ShardedQueryAnswer, SummaryScore, TreeView,
};
use bt_stats::kernel::{
    gaussian_log_term, gaussian_log_terms_block, nearest_point_log_kernel,
    nearest_point_log_kernels_block, smoothed_farthest_log_kernel,
    smoothed_farthest_log_kernels_block, sq_dists_block,
};
use bt_stats::{BlockPrecision, GatheredBlock};

/// The micro-cluster query model: a smoothed Gaussian kernel score with
/// certain, monotone bounds computable from cluster features alone.
///
/// For sharded trees every shard must use the *same* global total weight, so
/// the per-shard partial scores fold by summation.
#[derive(Debug, Clone)]
pub struct ClusQueryModel {
    total_weight: f64,
    bandwidth: Vec<f64>,
    lambda: f64,
    precision: BlockPrecision,
}

impl ClusQueryModel {
    /// A model normalising by `total_weight` (clamped away from zero) with a
    /// per-dimension smoothing bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if any bandwidth component is non-positive.
    #[must_use]
    pub fn new(total_weight: f64, bandwidth: Vec<f64>, lambda: f64) -> Self {
        assert!(
            bandwidth.iter().all(|h| *h > 0.0),
            "bandwidths must be positive"
        );
        Self {
            total_weight: total_weight.max(f64::MIN_POSITIVE),
            bandwidth,
            lambda,
            precision: BlockPrecision::F64,
        }
    }

    /// Opts the block scoring path into a column precision —
    /// [`BlockPrecision::F32`] halves the memory bandwidth of the batch
    /// kernels at the cost of quantising the gathered means, variances,
    /// centres and MBR corners to `f32` (query, bandwidth, weights and all
    /// accumulation stay `f64`).  The default `F64` path is bit-identical
    /// to the scalar reference.
    #[must_use]
    pub fn with_precision(mut self, precision: BlockPrecision) -> Self {
        self.precision = precision;
        self
    }

    /// The global weight normaliser.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Log of the smoothed kernel: the Gaussian product kernel evaluated at
    /// the cluster's exact per-dimension root-mean-squared distance to the
    /// query, via the same per-dimension [`gaussian_log_term`] every other
    /// kernel evaluation in the workspace uses.
    fn smoothed_log_kernel(&self, query: &[f64], mc: &MicroCluster) -> f64 {
        let cf = mc.cf();
        let n = cf.weight().max(f64::MIN_POSITIVE);
        let ls = cf.linear_sum();
        let ss = cf.squared_sum();
        let mut acc = 0.0;
        for d in 0..query.len() {
            let mean = ls[d] / n;
            let var = (ss[d] / n - mean * mean).max(0.0);
            let t = (query[d] - mean) * (query[d] - mean) + var;
            acc += gaussian_log_term(t.sqrt(), self.bandwidth[d]);
        }
        acc
    }

    /// Log of the kernel's peak value (distance 0, zero variance) — the
    /// per-unit-weight upper bound for clusters without a bounding box.
    fn peak_log_kernel(&self) -> f64 {
        self.bandwidth
            .iter()
            .map(|h| gaussian_log_term(0.0, *h))
            .sum()
    }

    /// Log of the per-unit-weight upper bound: the product kernel at the
    /// nearest point of the cluster's MBR when one is stored (distance-aware
    /// and nested, since child boxes lie inside their parent's — the shared
    /// [`nearest_point_log_kernel`] the Bayes-tree bounds also use), the
    /// kernel peak otherwise.
    fn upper_log_kernel(&self, query: &[f64], mc: &MicroCluster) -> f64 {
        let Some(mbr) = mc.mbr() else {
            return self.peak_log_kernel();
        };
        nearest_point_log_kernel(query, mbr.lower(), mbr.upper(), &self.bandwidth)
    }

    /// Log of the per-unit-weight lower bound: the Jensen bound
    /// ([`Self::smoothed_log_kernel`]) sharpened — when a box is stored —
    /// with the **smoothing-aware MBR floor**
    /// ([`smoothed_farthest_log_kernel`]): every summarised point lies in
    /// the box, so its distance is at most the farthest-corner distance and
    /// any descendant cluster's per-dimension variance is at most the
    /// box-confined maximum `(width/2)²`.  Both floors are certain and both
    /// nest (child boxes lie inside their parent's), so the max keeps the
    /// engine's monotone-refinement contract.
    ///
    /// Honesty note: for a cluster whose CF is *consistent* with its box
    /// (all mass inside, as with `lambda == 0`), the Jensen bound already
    /// dominates the MBR floor — the exact mean distance and variance are
    /// never worse than the corner/width caps.  The floor earns its keep as
    /// a certain backstop when CF arithmetic has drifted (entry moves
    /// subtract features; decay fades weights while boxes never shrink), at
    /// the cost of one more batch kernel pass.
    fn lower_log_kernel(&self, query: &[f64], mc: &MicroCluster) -> f64 {
        let jensen = self.smoothed_log_kernel(query, mc);
        match mc.mbr() {
            Some(mbr) => jensen.max(smoothed_farthest_log_kernel(
                query,
                mbr.lower(),
                mbr.upper(),
                &self.bandwidth,
            )),
            None => jensen,
        }
    }
}

impl QueryModel<MicroCluster> for ClusQueryModel {
    type LeafItem = MicroCluster;

    fn summary_contribution(&self, query: &[f64], summary: &MicroCluster) -> f64 {
        summary.weight() / self.total_weight * self.smoothed_log_kernel(query, summary).exp()
    }

    fn summary_bounds(&self, query: &[f64], summary: &MicroCluster) -> (f64, f64) {
        let scale = summary.weight() / self.total_weight;
        (
            scale * self.lower_log_kernel(query, summary).exp(),
            scale * self.upper_log_kernel(query, summary).exp(),
        )
    }

    fn leaf_contribution(&self, query: &[f64], item: &MicroCluster) -> f64 {
        self.summary_contribution(query, item)
    }

    fn leaf_sq_dist(&self, query: &[f64], item: &MicroCluster) -> f64 {
        item.sq_dist_to(query)
    }

    fn leaf_weight(&self, item: &MicroCluster) -> f64 {
        item.weight()
    }

    fn summarize_leaf_items(&self, items: &[MicroCluster]) -> MicroCluster {
        let mut summary = items[0].clone();
        for mc in &items[1..] {
            summary.merge(mc, self.lambda);
        }
        summary
    }

    fn block_precision(&self) -> BlockPrecision {
        self.precision
    }

    /// Block gather: packs the node's entries into the structure-of-arrays
    /// block (weights, smoothed means / variances, routing centres, MBR
    /// corners) so [`QueryModel::score_gathered`] can evaluate the Jensen
    /// kernel, both bounds and the geometric priority with the
    /// dimension-major batch kernels — one vectorized pass per quantity.
    ///
    /// The gather replicates the scalar arithmetic exactly (`ls / n` for
    /// the smoothed mean, `ls * (1/n)` for the routing centre — different
    /// roundings, hence two column sets; variance floored at `0.0`, not the
    /// Gaussian floor), and it is a pure function of `entries` — the engine
    /// caches it per node, keyed by the node's version stamp.  Nodes with a
    /// box-less entry gather without box columns; scoring falls back to
    /// scalar bounds for such nodes, keeping the values unchanged.
    fn gather_entries(&self, entries: &[Entry<MicroCluster>], out: &mut GatheredBlock) -> bool {
        let dims = self.bandwidth.len();
        let len = entries.len();
        let block = &mut out.block;
        block.set_precision(self.precision);
        block.reset(dims, len);
        out.centers.set_precision(self.precision);
        out.centers.reset(dims * len);
        let all_boxes = entries.iter().all(|e| e.summary.mbr().is_some());
        if all_boxes {
            block.enable_boxes();
        }
        for (i, entry) in entries.iter().enumerate() {
            let mc = &entry.summary;
            let cf = mc.cf();
            block.set_weight(i, mc.weight());
            let n = cf.weight().max(f64::MIN_POSITIVE);
            let ls = cf.linear_sum();
            let ss = cf.squared_sum();
            for d in 0..dims {
                let mean = ls[d] / n;
                let var = (ss[d] / n - mean * mean).max(0.0);
                block.set_mean(d, i, mean);
                block.set_var(d, i, var);
            }
            if cf.is_empty() {
                for d in 0..dims {
                    out.centers.set(d * len + i, 0.0);
                }
            } else {
                let inv_n = 1.0 / cf.weight();
                for (d, &l) in ls.iter().enumerate() {
                    out.centers.set(d * len + i, l * inv_n);
                }
            }
            if all_boxes {
                let mbr = mc.mbr().expect("all entries carry a box");
                let (lo, hi) = (mbr.lower(), mbr.upper());
                for d in 0..dims {
                    block.set_lower(d, i, lo[d]);
                    block.set_upper(d, i, hi[d]);
                }
            }
        }
        true
    }

    /// Block scoring over gathered columns: Jensen kernel, MBR-sharpened
    /// bounds and geometric priority for all entries at once.  In the
    /// default [`BlockPrecision::F64`] mode the scores are bit-identical to
    /// the per-summary reference; box-less nodes (no box columns gathered)
    /// compute their bounds through the per-entry scalar fallback.
    fn score_gathered(
        &self,
        query: &[f64],
        entries: &[Entry<MicroCluster>],
        gathered: &GatheredBlock,
        lanes: &mut [Vec<f64>; 4],
        out: &mut Vec<SummaryScore>,
    ) {
        let block = &gathered.block;
        let len = block.len();
        let all_boxes = block.has_boxes();
        let [jensen, far, near, dist] = lanes;
        gaussian_log_terms_block(
            query,
            &self.bandwidth,
            block.mean(),
            Some(block.var()),
            len,
            jensen,
        );
        sq_dists_block(query, &gathered.centers, len, dist);
        if all_boxes {
            smoothed_farthest_log_kernels_block(
                query,
                &self.bandwidth,
                block.lower(),
                block.upper(),
                len,
                far,
            );
            nearest_point_log_kernels_block(
                query,
                &self.bandwidth,
                block.lower(),
                block.upper(),
                len,
                near,
            );
        }
        out.clear();
        out.reserve(len);
        for (i, entry) in entries.iter().enumerate() {
            let weight = block.weights()[i];
            let scale = weight / self.total_weight;
            let (lower, upper) = if all_boxes {
                (scale * jensen[i].max(far[i]).exp(), scale * near[i].exp())
            } else {
                let mc = &entry.summary;
                (
                    scale * self.lower_log_kernel(query, mc).exp(),
                    scale * self.upper_log_kernel(query, mc).exp(),
                )
            };
            out.push(SummaryScore {
                weight,
                contribution: scale * jensen[i].exp(),
                lower,
                upper,
                min_dist_sq: dist[i],
            });
        }
    }

    /// Leaf block gather: leaf items are micro-clusters, so the gather is
    /// the entry gather minus the box columns — leaves are exact, their
    /// bounds collapse onto the contribution and never touch a box kernel.
    fn gather_leaf_items(&self, items: &[MicroCluster], out: &mut GatheredBlock) -> bool {
        let dims = self.bandwidth.len();
        let len = items.len();
        let block = &mut out.block;
        block.set_precision(self.precision);
        block.reset(dims, len);
        out.centers.set_precision(self.precision);
        out.centers.reset(dims * len);
        for (i, mc) in items.iter().enumerate() {
            let cf = mc.cf();
            block.set_weight(i, mc.weight());
            let n = cf.weight().max(f64::MIN_POSITIVE);
            let ls = cf.linear_sum();
            let ss = cf.squared_sum();
            for d in 0..dims {
                let mean = ls[d] / n;
                let var = (ss[d] / n - mean * mean).max(0.0);
                block.set_mean(d, i, mean);
                block.set_var(d, i, var);
            }
            if cf.is_empty() {
                for d in 0..dims {
                    out.centers.set(d * len + i, 0.0);
                }
            } else {
                let inv_n = 1.0 / cf.weight();
                for (d, &l) in ls.iter().enumerate() {
                    out.centers.set(d * len + i, l * inv_n);
                }
            }
        }
        true
    }

    /// Leaf block scoring: one Jensen-kernel pass and one centre-distance
    /// pass score every leaf micro-cluster at once, bit-identically (in
    /// `F64` mode) to the per-item scalar loop.
    fn score_gathered_leaves(
        &self,
        query: &[f64],
        _items: &[MicroCluster],
        gathered: &GatheredBlock,
        lanes: &mut [Vec<f64>; 4],
        out: &mut Vec<SummaryScore>,
    ) {
        let block = &gathered.block;
        let len = block.len();
        let [jensen, dist, _, _] = lanes;
        gaussian_log_terms_block(
            query,
            &self.bandwidth,
            block.mean(),
            Some(block.var()),
            len,
            jensen,
        );
        sq_dists_block(query, &gathered.centers, len, dist);
        out.clear();
        out.reserve(len);
        for i in 0..len {
            let weight = block.weights()[i];
            let contribution = weight / self.total_weight * jensen[i].exp();
            out.push(SummaryScore {
                weight,
                contribution,
                lower: contribution,
                upper: contribution,
                min_dist_sq: dist[i],
            });
        }
    }
}

/// One retrieved neighbour: a micro-cluster (or inner aggregate) at the
/// frontier's current granularity.
#[derive(Debug, Clone)]
pub struct ClusterNeighbor {
    /// Centre of the cluster.
    pub center: Vec<f64>,
    /// (Stored, undecayed) weight of the cluster.
    pub weight: f64,
    /// RMS radius of the cluster.
    pub radius: f64,
    /// Squared distance from the query to the cluster centre.
    pub sq_dist: f64,
    /// Depth of the cluster's frontier element (1 = root level).
    pub depth: usize,
    /// Whether the cluster could be refined further with more budget.
    pub refinable: bool,
}

/// The (budget-dependent) answer of one anytime k-NN retrieval.
#[derive(Debug, Clone)]
pub struct KnnAnswer {
    /// The up-to-`k` closest clusters at the reached granularity, sorted by
    /// ascending centre distance.
    pub neighbors: Vec<ClusterNeighbor>,
    /// Refinement steps (node reads) the retrieval spent.
    pub nodes_read: usize,
}

/// Total stored weight at root level of one core tree view (entry summaries
/// cover their subtrees *and* their buffers, so this is everything) — live
/// trees and pinned snapshots alike.
fn stored_weight<V: TreeView<MicroCluster, MicroCluster>>(core: &V) -> f64 {
    match &core.node(core.root()).kind {
        NodeKind::Inner { entries } => entries.iter().map(|e| e.summary.weight()).sum(),
        NodeKind::Leaf { items } => items.iter().map(MicroCluster::weight).sum(),
    }
}

/// Materialises the micro-cluster behind a frontier element.
pub(crate) fn element_cluster<V: TreeView<MicroCluster, MicroCluster>>(
    core: &V,
    model: &ClusQueryModel,
    element: &QueryElement,
) -> MicroCluster {
    match element.origin {
        ElementOrigin::Entry { node, index } => core.node(node).entries()[index].summary.clone(),
        ElementOrigin::Buffer { node, index } => core.node(node).entries()[index]
            .buffer
            .clone()
            .expect("buffer element refers to an occupied buffer"),
        ElementOrigin::LeafItem { node, index } => core.node(node).items()[index].clone(),
        ElementOrigin::RootLeaf => model.summarize_leaf_items(core.node(core.root()).items()),
    }
}

/// The micro-cluster query model over a set of shard views — normalised by
/// the **global** stored weight across `shards`, so per-shard partial
/// scores fold by summation; a plain tree or snapshot is the one-shard
/// slice.  The one construction behind every `query_model`.
///
/// # Panics
///
/// Panics if the bandwidth has the wrong dimensionality or a non-positive
/// component.
pub(crate) fn shard_query_model<V: TreeView<MicroCluster, MicroCluster>>(
    shards: &[V],
    bandwidth: &[f64],
    decay_lambda: f64,
) -> ClusQueryModel {
    assert_eq!(
        bandwidth.len(),
        shards[0].dims(),
        "bandwidth dimensionality mismatch"
    );
    let total: f64 = shards.iter().map(stored_weight).sum();
    ClusQueryModel::new(total, bandwidth.to_vec(), decay_lambda)
}

/// Anytime k-NN micro-cluster retrieval over a set of shard views — the
/// one body behind the plain, snapshot and sharded `anytime_knn`s: every
/// shard's frontier refines closest-first (up to `budget` node reads
/// each, in parallel across shards), then the shard frontiers are folded
/// into one ranking and the `k` closest clusters are returned.
pub(crate) fn anytime_knn_over<V>(
    shards: &[V],
    decay_lambda: f64,
    x: &[f64],
    k: usize,
    budget: usize,
) -> KnnAnswer
where
    V: TreeView<MicroCluster, MicroCluster> + Sync,
{
    let started = bt_anytree::obs::boundary_timer();
    let model = shard_query_model(shards, &vec![1.0; shards[0].dims()], decay_lambda);
    let cursors = shards.refine_frontiers(&model, x, RefineOrder::ClosestFirst, budget);
    let mut stats = QueryStats::default();
    for cursor in &cursors {
        stats.merge(cursor.stats());
    }
    bt_anytree::obs::record_external_query(&stats, started);
    knn_from_cursors(shards, &cursors, &model, k)
}

/// Maps refined per-shard cursors' frontiers to their `k` closest clusters.
fn knn_from_cursors<V: TreeView<MicroCluster, MicroCluster>>(
    shards: &[V],
    cursors: &[QueryCursor],
    model: &ClusQueryModel,
    k: usize,
) -> KnnAnswer {
    let mut ranked: Vec<(usize, usize)> = Vec::new();
    for (shard_idx, cursor) in cursors.iter().enumerate() {
        for element_idx in 0..cursor.elements().len() {
            ranked.push((shard_idx, element_idx));
        }
    }
    ranked.sort_by(|a, b| {
        let da = cursors[a.0].elements()[a.1].min_dist_sq;
        let db = cursors[b.0].elements()[b.1].min_dist_sq;
        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
    });
    ranked.truncate(k);
    let neighbors = ranked
        .into_iter()
        .map(|(shard_idx, element_idx)| {
            let element = &cursors[shard_idx].elements()[element_idx];
            let mc = element_cluster(&shards[shard_idx], model, element);
            ClusterNeighbor {
                center: mc.center(),
                weight: mc.weight(),
                radius: mc.radius(),
                sq_dist: element.min_dist_sq,
                depth: element.depth,
                refinable: element.is_refinable(),
            }
        })
        .collect();
    KnnAnswer {
        neighbors,
        nodes_read: cursors.iter().map(QueryCursor::nodes_read).sum(),
    }
}

impl ClusTree {
    /// The micro-cluster query model of this tree: normalised by the stored
    /// total weight, smoothing with `bandwidth`, merging with the tree's
    /// decay rate.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth has the wrong dimensionality or a
    /// non-positive component.
    #[must_use]
    pub fn query_model(&self, bandwidth: &[f64]) -> ClusQueryModel {
        shard_query_model(
            std::slice::from_ref(self.core()),
            bandwidth,
            self.config().decay_lambda,
        )
    }

    /// Budget-bracketed anytime density score: refines the frontier in the
    /// given order for up to `budget` node reads and returns the smoothed
    /// kernel score with its certain `[lower, upper]` bounds — the
    /// one-shard case of [`ShardSet::query_with_budget`].
    ///
    /// # Panics
    ///
    /// Panics if the query or bandwidth has the wrong dimensionality.
    #[must_use]
    pub fn anytime_density(
        &self,
        x: &[f64],
        bandwidth: &[f64],
        order: RefineOrder,
        budget: usize,
    ) -> QueryAnswer {
        std::slice::from_ref(self.core())
            .query_with_budget(&self.query_model(bandwidth), x, order, budget)
            .as_answer()
    }

    /// Refines a batch of density queries through one reused cursor — the
    /// one-shard case of [`ShardSet::query_batch`].
    ///
    /// # Panics
    ///
    /// Panics if any query or the bandwidth has the wrong dimensionality.
    #[must_use]
    pub fn density_batch(
        &self,
        queries: &[Vec<f64>],
        bandwidth: &[f64],
        order: RefineOrder,
        budget: usize,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        let (answers, stats) = std::slice::from_ref(self.core()).query_batch(
            &self.query_model(bandwidth),
            queries,
            order,
            budget,
        );
        (
            answers.iter().map(ShardedQueryAnswer::as_answer).collect(),
            stats,
        )
    }

    /// Anytime k-NN micro-cluster retrieval: refines the frontier closest
    /// -first for up to `budget` node reads and returns the `k` clusters
    /// nearest to `x` at the reached granularity — root-level aggregates at
    /// budget 0, leaf micro-clusters once the neighbourhood is fully
    /// refined.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    #[must_use]
    pub fn anytime_knn(&self, x: &[f64], k: usize, budget: usize) -> KnnAnswer {
        anytime_knn_over(
            std::slice::from_ref(self.core()),
            self.config().decay_lambda,
            x,
            k,
            budget,
        )
    }

    /// Anytime outlier scoring against a density `threshold` (widest bound
    /// first, early exit once the verdict is certain).
    ///
    /// # Panics
    ///
    /// Panics if the query or bandwidth has the wrong dimensionality.
    #[must_use]
    pub fn outlier_score(
        &self,
        x: &[f64],
        bandwidth: &[f64],
        threshold: f64,
        budget: usize,
    ) -> OutlierScore {
        std::slice::from_ref(self.core()).outlier_score(
            &self.query_model(bandwidth),
            x,
            threshold,
            budget,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ClusTreeConfig;
    use bt_anytree::OutlierVerdict;
    use bt_stats::BlockScratch;

    fn two_cluster_tree(n: usize, budget: usize) -> ClusTree {
        let mut tree = ClusTree::new(2, ClusTreeConfig::default());
        for i in 0..n {
            let c = if i % 2 == 0 { 0.0 } else { 20.0 };
            let jitter = (i % 9) as f64 * 0.1;
            tree.insert(&[c + jitter, c - jitter], i as f64, budget);
        }
        tree
    }

    #[test]
    fn knn_at_budget_zero_returns_root_level_clusters() {
        let tree = two_cluster_tree(300, 10);
        assert!(tree.height() > 1);
        let answer = tree.anytime_knn(&[0.0, 0.0], 2, 0);
        assert_eq!(answer.nodes_read, 0);
        assert!(!answer.neighbors.is_empty());
        for n in &answer.neighbors {
            assert_eq!(n.depth, 1, "budget 0 must stay at root level");
        }
    }

    #[test]
    fn knn_sharpens_with_budget() {
        let tree = two_cluster_tree(400, 10);
        let query = [0.3, -0.3];
        let coarse = tree.anytime_knn(&query, 1, 0);
        let fine = tree.anytime_knn(&query, 1, 200);
        // The closest cluster after refinement is at least as close and at
        // least as deep as the coarse answer.
        assert!(fine.neighbors[0].sq_dist <= coarse.neighbors[0].sq_dist + 1e-9);
        assert!(fine.neighbors[0].depth >= coarse.neighbors[0].depth);
        // Fully refined near the query: the best neighbour is a leaf-level
        // micro-cluster in the low cluster.
        assert!(fine.neighbors[0].center[0] < 10.0);
    }

    #[test]
    fn knn_ranks_by_distance_and_caps_at_k() {
        let tree = two_cluster_tree(300, 10);
        let answer = tree.anytime_knn(&[20.0, 19.0], 3, 50);
        assert!(answer.neighbors.len() <= 3);
        for pair in answer.neighbors.windows(2) {
            assert!(pair[0].sq_dist <= pair[1].sq_dist);
        }
        // The nearest neighbour belongs to the high cluster.
        assert!(answer.neighbors[0].center[0] > 10.0);
    }

    #[test]
    fn density_bounds_tighten_monotonically() {
        let tree = two_cluster_tree(400, 8);
        let bandwidth = [2.0, 2.0];
        let query = [1.0, -1.0];
        let mut last = f64::INFINITY;
        let mut last_lower = 0.0;
        for budget in [0usize, 1, 2, 4, 8, 16, 64, usize::MAX] {
            let answer = tree.anytime_density(&query, &bandwidth, RefineOrder::WidestBound, budget);
            assert!(answer.lower <= answer.upper + 1e-12);
            assert!(
                answer.lower >= last_lower - 1e-12,
                "budget {budget}: lower bound regressed"
            );
            assert!(
                answer.uncertainty() <= last + 1e-12,
                "budget {budget}: uncertainty grew"
            );
            last = answer.uncertainty();
            last_lower = answer.lower;
        }
    }

    #[test]
    fn parked_mass_is_covered_by_the_frontier() {
        // Insert with tiny budgets so hitchhiker buffers hold real mass.
        let tree = two_cluster_tree(300, 1);
        let model = tree.query_model(&[1.0, 1.0]);
        let mut cursor = tree.core().new_query(&model, &[0.0, 0.0]);
        while tree
            .core()
            .refine_query(&model, RefineOrder::BreadthFirst, &mut cursor)
        {}
        assert!((cursor.total_weight() - 300.0).abs() < 1e-6);
    }

    #[test]
    fn outlier_verdicts_are_certain_for_clear_cases() {
        let tree = two_cluster_tree(400, 10);
        let bandwidth = [1.0, 1.0];
        let far = tree.outlier_score(&[500.0, 500.0], &bandwidth, 1e-6, 10_000);
        assert_eq!(far.verdict, OutlierVerdict::Outlier);
        let near = tree.outlier_score(&[0.2, -0.2], &bandwidth, 1e-6, 10_000);
        assert_eq!(near.verdict, OutlierVerdict::Inlier);
    }

    #[test]
    fn block_scores_match_the_scalar_reference_bitwise() {
        let tree = two_cluster_tree(400, 10);
        let model = tree.query_model(&[1.5, 0.8]);
        let mut scratch = BlockScratch::new();
        let mut scores = Vec::new();
        let mut inner_nodes = 0;
        for query in [[0.4, -0.2], [20.0, 19.5], [10.0, 10.0], [-80.0, 120.0]] {
            for id in TreeView::reachable(tree.core()) {
                let node = tree.core().node(id);
                let NodeKind::Inner { entries } = &node.kind else {
                    continue;
                };
                inner_nodes += 1;
                model.score_entries(&query, entries, &mut scratch, &mut scores);
                assert_eq!(scores.len(), entries.len());
                for (entry, score) in entries.iter().zip(&scores) {
                    let summary = &entry.summary;
                    let (lower, upper) = model.summary_bounds(&query, summary);
                    assert_eq!(score.weight.to_bits(), summary.weight().to_bits());
                    assert_eq!(
                        score.contribution.to_bits(),
                        model.summary_contribution(&query, summary).to_bits()
                    );
                    assert_eq!(score.lower.to_bits(), lower.to_bits());
                    assert_eq!(score.upper.to_bits(), upper.to_bits());
                    assert_eq!(
                        score.min_dist_sq.to_bits(),
                        model.summary_sq_dist(&query, summary).to_bits()
                    );
                }
            }
        }
        assert!(inner_nodes > 0, "tree too small to exercise the block path");
    }

    #[test]
    fn smoothed_mbr_floor_keeps_the_lower_bound_sound_and_monotone() {
        // Same contract as density_bounds_tighten_monotonically, but checked
        // against the fully refined value: the sharpened lower bound must
        // never overshoot it at any budget.
        let tree = two_cluster_tree(400, 10);
        let bandwidth = [1.0, 1.0];
        for query in [[0.5, 0.5], [10.0, 10.0], [40.0, -7.0]] {
            let exact =
                tree.anytime_density(&query, &bandwidth, RefineOrder::WidestBound, usize::MAX);
            for budget in [0usize, 1, 3, 9, 27] {
                let partial =
                    tree.anytime_density(&query, &bandwidth, RefineOrder::WidestBound, budget);
                assert!(
                    partial.lower <= exact.estimate + 1e-12,
                    "budget {budget}: lower bound {} overshoots refined value {}",
                    partial.lower,
                    exact.estimate
                );
                assert!(partial.upper + 1e-12 >= exact.estimate);
            }
        }
    }

    #[test]
    fn density_batch_matches_one_shot() {
        let tree = two_cluster_tree(200, 10);
        let bandwidth = [1.5, 1.5];
        let queries = vec![vec![0.0, 0.0], vec![20.0, -20.0]];
        let (answers, stats) = tree.density_batch(&queries, &bandwidth, RefineOrder::BestFirst, 6);
        assert_eq!(stats.queries, 2);
        for (answer, q) in answers.iter().zip(&queries) {
            assert_eq!(
                *answer,
                tree.anytime_density(q, &bandwidth, RefineOrder::BestFirst, 6)
            );
        }
    }
}
