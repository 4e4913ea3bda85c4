//! The Bayes tree structure (Definition 2).
//!
//! A Bayes tree with fanout parameters `(m, M)` and leaf capacity `(l, L)` is
//! a balanced multidimensional index whose inner entries additionally carry
//! cluster features, so that every level — and more generally every frontier
//! — stores a complete Gaussian mixture model of the entire data at some
//! granularity.
//!
//! Structurally the tree is a thin instantiation of the shared
//! [`bt_anytree::AnytimeTree`] core (node arena, descent, split
//! propagation) with the [`KernelSummary`](crate::node::KernelSummary)
//! payload and raw kernel centres as leaf items.  The structure is built
//! either incrementally ([`crate::insert`]) or by one of the bulk loaders
//! ([`crate::bulk`]).

use crate::node::{
    node_cluster_feature, node_mbr, Entry, Node, NodeId, StoredElement, StoredSummary,
};
use bt_anytree::{AnytimeTree, Summary};
use bt_index::PageGeometry;
use bt_stats::bandwidth::silverman_bandwidth;
use bt_stats::kernel::{GaussianKernel, Kernel};

/// The Bayes tree: an R*-tree–style hierarchy of Gaussian mixture models.
///
/// The stored-mode parameter `E` (default `f64`) selects how entry
/// summaries are *stored*; see [`crate::node`] for the precision contract.
/// [`BayesTreeF32`](crate::BayesTreeF32) is the half-width alias and
/// [`BayesTreeQuantized`](crate::BayesTreeQuantized) the 16-bit
/// block-exponent alias.
#[derive(Debug, Clone)]
pub struct BayesTree<E: StoredElement = f64> {
    core: AnytimeTree<E::Summary, Vec<f64>>,
    num_points: usize,
    bandwidth: Vec<f64>,
}

impl<E: StoredElement> BayesTree<E> {
    /// Creates an empty tree for `dims`-dimensional kernels.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0`.
    #[must_use]
    pub fn new(dims: usize, geometry: PageGeometry) -> Self {
        Self {
            core: AnytimeTree::new(dims, geometry),
            num_points: 0,
            bandwidth: vec![1.0; dims],
        }
    }

    /// The 4 KiB-page geometry at this tree's *stored* mode: inner entries
    /// narrow with the stored scalar width
    /// ([`StoredElement::SCALAR_BYTES`]), so an `f32` tree packs roughly
    /// twice — and a [`Quantized`](crate::node::Quantized) tree roughly
    /// four times — the fanout into the same physical page: a shallower
    /// tree where every budgeted node read covers that much more summary
    /// mass.  Leaves hold exact full-width observations in every mode, so
    /// the leaf capacity is unchanged.
    ///
    /// Use [`bt_index::PageGeometry::default_for_dims`] instead when
    /// multiple modes must share one geometry (e.g. structural A/B
    /// comparisons).
    ///
    /// # Panics
    ///
    /// Panics if a 4 KiB page cannot hold at least two entries (very high
    /// `dims`).
    #[must_use]
    pub fn paged_geometry(dims: usize) -> PageGeometry {
        PageGeometry::from_page_size_for_scalar(4096, dims, E::SCALAR_BYTES)
    }

    /// Dimensionality of the stored kernels.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.core.dims()
    }

    /// Fanout / leaf-capacity parameters of the tree.
    #[must_use]
    pub fn geometry(&self) -> PageGeometry {
        self.core.geometry()
    }

    /// Number of stored observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.num_points
    }

    /// Whether the tree stores no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_points == 0
    }

    /// Height of the tree (a single leaf root has height 1).
    #[must_use]
    pub fn height(&self) -> usize {
        self.core.height()
    }

    /// The per-dimension kernel bandwidth used for leaf-level kernels.
    #[must_use]
    pub fn bandwidth(&self) -> &[f64] {
        &self.bandwidth
    }

    /// Overrides the kernel bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth vector has the wrong dimensionality or a
    /// non-positive component.
    pub fn set_bandwidth(&mut self, bandwidth: Vec<f64>) {
        assert_eq!(
            bandwidth.len(),
            self.dims(),
            "bandwidth dimensionality mismatch"
        );
        assert!(
            bandwidth.iter().all(|h| *h > 0.0),
            "bandwidths must be positive"
        );
        self.bandwidth = bandwidth;
    }

    /// Recomputes the kernel bandwidth with Silverman's rule over all stored
    /// observations (the paper's data-independent default).
    pub fn fit_bandwidth(&mut self) {
        let points = self.all_points();
        if !points.is_empty() {
            self.bandwidth = silverman_bandwidth(&points, self.dims());
        }
    }

    /// The arena index of the root node.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.core.root()
    }

    /// Read access to a node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node<E> {
        self.core.node(id)
    }

    /// Number of nodes reachable from the root.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.core.num_nodes()
    }

    /// All observations stored at leaf level (in arbitrary order).
    #[must_use]
    pub fn all_points(&self) -> Vec<Vec<f64>> {
        all_points_over(std::slice::from_ref(&self.core), self.num_points)
    }

    /// The entries the anytime descent starts from: the root's entries, or a
    /// synthetic single entry summarising the root when the root is a leaf.
    #[must_use]
    pub fn root_entries(&self) -> Vec<Entry<E>> {
        match &self.core.node(self.root()).kind {
            bt_anytree::NodeKind::Inner { entries } => entries.clone(),
            bt_anytree::NodeKind::Leaf { items } => {
                if items.is_empty() {
                    Vec::new()
                } else {
                    vec![self.summarise(self.root())]
                }
            }
        }
    }

    /// Builds the entry (MBR + CF + pointer) describing `child`.
    ///
    /// # Panics
    ///
    /// Panics if `child` is empty.
    #[must_use]
    pub fn summarise(&self, child: NodeId) -> Entry<E> {
        let model = crate::insert::KernelModel { dims: self.dims() };
        self.core.summarize_node(&model, child)
    }

    /// Evaluates the full kernel density estimate `p(x)` by reading every
    /// leaf kernel — the model the anytime frontier converges to.
    #[must_use]
    pub fn full_kernel_density(&self, x: &[f64]) -> f64 {
        full_kernel_density_over(
            std::slice::from_ref(&self.core),
            x,
            &self.bandwidth,
            self.num_points,
        )
    }

    /// The complete mixture model stored at tree level `level` (0 = root
    /// entries), as `(weight, gaussian)`-style entries.
    ///
    /// Level `height - 1` (and anything deeper) returns one entry per leaf
    /// node; levels beyond the directory return leaf-node summaries rather
    /// than raw kernels.
    #[must_use]
    pub fn level_entries(&self, level: usize) -> Vec<Entry<E>> {
        let mut current = self.root_entries();
        for _ in 0..level {
            let mut next = Vec::new();
            let mut expanded_any = false;
            for e in &current {
                match &self.core.node(e.child).kind {
                    bt_anytree::NodeKind::Inner { entries } => {
                        next.extend(entries.iter().cloned());
                        expanded_any = true;
                    }
                    bt_anytree::NodeKind::Leaf { .. } => next.push(e.clone()),
                }
            }
            current = next;
            if !expanded_any {
                break;
            }
        }
        current
    }

    /// Validates the structural invariants of Definition 2 plus the
    /// consistency of the aggregated statistics.  Returns a description of
    /// the first violation found.
    ///
    /// `require_balanced` should be `true` for iteratively built and
    /// bottom-up bulk-loaded trees; the EM top-down bulk load may legally
    /// produce an unbalanced tree (Section 3.1).
    ///
    /// # Errors
    ///
    /// Returns `Err` with a human-readable description of the violated
    /// invariant.
    pub fn validate(&self, require_balanced: bool) -> Result<(), String> {
        validate_shards(
            std::slice::from_ref(&self.core),
            &self.geometry(),
            self.num_points,
            require_balanced,
        )
    }

    // ------------------------------------------------------------------
    // Crate-internal construction helpers (used by insert and bulk).
    // ------------------------------------------------------------------

    /// The shared arena-tree core (crate-internal: insertion and bulk
    /// loading build through it).
    pub(crate) fn core_mut(&mut self) -> &mut AnytimeTree<E::Summary, Vec<f64>> {
        &mut self.core
    }

    /// Read access to the shared core (crate-internal: the query engine
    /// refines frontiers through it).
    pub(crate) fn core(&self) -> &AnytimeTree<E::Summary, Vec<f64>> {
        &self.core
    }

    /// Adds a node to the arena and returns its id.
    pub(crate) fn push_node(&mut self, node: Node<E>) -> NodeId {
        self.core.push_node(node)
    }

    /// Mutable access to a node (test-only; production mutation goes through
    /// the shared core's insertion and the bulk loaders).
    #[cfg(test)]
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node<E> {
        self.core.node_mut(id)
    }

    /// Replaces the root node id and height (used by bulk loaders).
    pub(crate) fn set_root(&mut self, root: NodeId, height: usize) {
        self.core.set_root(root, height);
    }

    /// Publishes the bulk loaders' assembled nodes as an epoch, so a
    /// freshly bulk-built tree satisfies the same `node_version <= epoch`
    /// snapshot invariant as an incrementally built one.
    pub(crate) fn publish_bulk_epoch(&mut self) {
        self.core.publish_epoch();
    }

    /// Sets the stored observation count (used by bulk loaders).
    pub(crate) fn set_num_points(&mut self, n: usize) {
        self.num_points = n;
    }

    /// Increments the stored observation count (used by insertion).
    pub(crate) fn increment_points(&mut self) {
        self.num_points += 1;
    }

    /// Adds `count` to the stored observation count (used by batched
    /// insertion).
    pub(crate) fn add_points(&mut self, count: usize) {
        self.num_points += count;
    }

    /// Number of payload-summary refresh operations performed by descents so
    /// far — batched insertion refreshes each visited node once per batch,
    /// so it grows this counter strictly slower than sequential insertion.
    #[must_use]
    pub fn summary_refreshes(&self) -> u64 {
        self.core.summary_refreshes()
    }

    /// The published epoch of the versioned arena (batches committed so
    /// far); [`BayesTree::snapshot`](crate::view) pins this value.
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

    /// Maximum leaf depth below `node` (a leaf has depth 1).  Used by the
    /// bulk loaders to record the height of a freshly assembled tree.
    pub(crate) fn measure_depth(&self, node: NodeId) -> usize {
        self.core.measure_depth(node)
    }
}

/// All observations stored at leaf level across a set of shard views
/// (shard-major, arbitrary order within a shard) — the one leaf walk
/// behind the plain and the sharded tree's `all_points`.
pub(crate) fn all_points_over<S: Summary>(
    shards: &[AnytimeTree<S, Vec<f64>>],
    num_points: usize,
) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(num_points);
    for shard in shards {
        for id in shard.reachable() {
            if let bt_anytree::NodeKind::Leaf { items } = &shard.node(id).kind {
                out.extend(items.iter().cloned());
            }
        }
    }
    out
}

/// The full kernel density estimate over every leaf kernel of a set of
/// shard views, normalised by the global observation count.  The kernel
/// sum does not care how the kernels are partitioned, so the plain tree
/// is the one-shard case.
pub(crate) fn full_kernel_density_over<S: Summary>(
    shards: &[AnytimeTree<S, Vec<f64>>],
    x: &[f64],
    bandwidth: &[f64],
    num_points: usize,
) -> f64 {
    if num_points == 0 {
        return 0.0;
    }
    let kernel = GaussianKernel;
    let mut acc = 0.0;
    for shard in shards {
        for id in shard.reachable() {
            if let bt_anytree::NodeKind::Leaf { items } = &shard.node(id).kind {
                for p in items {
                    acc += kernel.density(p, x, bandwidth);
                }
            }
        }
    }
    acc / num_points as f64
}

/// Validates every shard of a Bayes tree with the full per-node walk —
/// finiteness, fanout and leaf capacity, box nesting, CF weight and LS
/// consistency, and (when `require_balanced`) balance against the shard's
/// stored height — then checks that the shards together hold exactly
/// `num_points` observations.  The plain tree is the one-shard case;
/// errors from a multi-shard tree name the offending shard.
pub(crate) fn validate_shards<S: StoredSummary>(
    shards: &[AnytimeTree<S, Vec<f64>>],
    geometry: &PageGeometry,
    num_points: usize,
    require_balanced: bool,
) -> Result<(), String> {
    let mut seen_points = 0usize;
    for (k, shard) in shards.iter().enumerate() {
        let in_shard = |e: String| match shards.len() {
            1 => e,
            _ => format!("shard {k}: {e}"),
        };
        let mut leaves = Vec::new();
        validate_node(shard, geometry, shard.root(), 1, &mut leaves).map_err(in_shard)?;
        seen_points += leaves.iter().map(|&(_, items)| items).sum::<usize>();
        let depths = leaves.iter().map(|&(depth, _)| depth);
        if let (true, Some(min), Some(max)) = (require_balanced, depths.clone().min(), depths.max())
        {
            if min != max {
                return Err(in_shard(format!(
                    "tree is not balanced: leaf depths range from {min} to {max}"
                )));
            }
            if max != shard.height() {
                return Err(in_shard(format!(
                    "stored height {} does not match actual depth {max}",
                    shard.height()
                )));
            }
        }
    }
    if seen_points != num_points {
        return Err(format!(
            "tree claims {num_points} points but {seen_points} are reachable"
        ));
    }
    Ok(())
}

/// The recursive node check of [`validate_shards`]; records every
/// reachable leaf as `(depth, observations)` in `leaves`.
fn validate_node<S: StoredSummary>(
    view: &AnytimeTree<S, Vec<f64>>,
    geometry: &PageGeometry,
    id: NodeId,
    depth: usize,
    leaves: &mut Vec<(usize, usize)>,
) -> Result<(), String> {
    let is_root = depth == 1;
    let dims = view.dims();
    let node = view.node(id);
    check_finite(id, node)?;
    match &node.kind {
        bt_anytree::NodeKind::Leaf { items } => {
            leaves.push((depth, items.len()));
            if !is_root && items.len() > geometry.max_leaf {
                return Err(format!(
                    "leaf {id} holds {} observations, capacity is {}",
                    items.len(),
                    geometry.max_leaf
                ));
            }
            for p in items {
                if p.len() != dims {
                    return Err(format!("leaf {id} holds a point of wrong dimensionality"));
                }
            }
            Ok(())
        }
        bt_anytree::NodeKind::Inner { entries } => {
            if entries.is_empty() {
                return Err(format!("inner node {id} has no entries"));
            }
            if entries.len() > geometry.max_fanout {
                return Err(format!(
                    "inner node {id} has {} entries, fanout limit is {}",
                    entries.len(),
                    geometry.max_fanout
                ));
            }
            if !is_root && entries.len() < geometry.min_fanout.min(2) {
                return Err(format!(
                    "inner node {id} has {} entries, below the minimum",
                    entries.len()
                ));
            }
            for (i, entry) in entries.iter().enumerate() {
                if entry.buffer.is_some() {
                    return Err(format!(
                        "entry {i} of node {id} has a hitchhiker buffer (unused here)"
                    ));
                }
                let child = view.node(entry.child);
                // The decoded entry box must contain the child's decoded
                // MBR (both at full width, so the check is representation
                // agnostic — the outward-rounding contract of every
                // narrowed mode makes this hold exactly).
                if let Some(child_mbr) = node_mbr(child) {
                    let entry_mbr = entry
                        .owned_mbr()
                        .ok_or_else(|| format!("entry {i} of node {id} exposes no box"))?;
                    if !entry_mbr.contains_mbr(&child_mbr) {
                        return Err(format!(
                            "entry {i} of node {id} does not contain its child's MBR"
                        ));
                    }
                }
                // CF weight must match the number of objects below
                // (exact in every mode: weights are never quantised).
                let child_cf = node_cluster_feature(child, dims);
                if (entry.weight() - child_cf.weight()).abs() > 1e-6 {
                    return Err(format!(
                        "entry {i} of node {id} claims {} objects, child holds {}",
                        entry.weight(),
                        child_cf.weight()
                    ));
                }
                // Decoded LS must agree with the child's decoded fold up
                // to the representations' declared quantisation slack
                // (zero for the lossless-accumulation modes).
                let entry_cf = entry.exact_cf();
                let slack = entry.ls_slack() + node_ls_slack(child);
                for d in 0..dims {
                    let entry_ls = entry_cf.linear_sum()[d];
                    let child_ls = child_cf.linear_sum()[d];
                    if (entry_ls - child_ls).abs() > 1e-4 * (1.0 + child_ls.abs()) + slack {
                        return Err(format!(
                            "entry {i} of node {id}: LS[{d}] inconsistent with child"
                        ));
                    }
                }
                validate_node(view, geometry, entry.child, depth + 1, leaves)?;
            }
            Ok(())
        }
    }
}

/// Checks that everything node `id` stores is finite: every leaf kernel
/// coordinate, and every entry summary's decoded cluster feature (weight,
/// linear and squared sums) and box corners.  One NaN or infinity poisons
/// every density bound above it, so the validator runs this on every
/// reachable node of every shard.
fn check_finite<S: StoredSummary>(
    id: NodeId,
    node: &bt_anytree::Node<S, Vec<f64>>,
) -> Result<(), String> {
    match &node.kind {
        bt_anytree::NodeKind::Leaf { items } => {
            if items.iter().flatten().any(|v| !v.is_finite()) {
                return Err(format!("leaf {id} holds a non-finite observation"));
            }
        }
        bt_anytree::NodeKind::Inner { entries } => {
            for (i, entry) in entries.iter().enumerate() {
                let cf = entry.exact_cf();
                let cf_finite = cf.weight().is_finite()
                    && cf
                        .linear_sum()
                        .iter()
                        .chain(cf.squared_sum())
                        .all(|v| v.is_finite());
                let box_finite = entry
                    .owned_mbr()
                    .is_none_or(|mbr| mbr.lower().iter().chain(mbr.upper()).all(|v| v.is_finite()));
                if !(cf_finite && box_finite) {
                    return Err(format!(
                        "entry {i} of node {id} stores a non-finite summary"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Total declared LS quantisation slack of a node's own entries (zero for
/// leaves and for lossless-accumulation modes) — the child-side term of the
/// validate tolerance.
fn node_ls_slack<S: StoredSummary>(node: &bt_anytree::Node<S, Vec<f64>>) -> f64 {
    match &node.kind {
        bt_anytree::NodeKind::Leaf { .. } => 0.0,
        bt_anytree::NodeKind::Inner { entries } => entries.iter().map(|e| e.ls_slack()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> PageGeometry {
        PageGeometry::from_fanout(4, 4)
    }

    #[test]
    fn empty_tree_basics() {
        let tree: BayesTree = BayesTree::new(3, geometry());
        assert_eq!(tree.dims(), 3);
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.num_nodes(), 1);
        assert!(tree.root_entries().is_empty());
        assert_eq!(tree.full_kernel_density(&[0.0, 0.0, 0.0]), 0.0);
        assert!(tree.validate(true).is_ok());
    }

    #[test]
    fn set_bandwidth_validates() {
        let mut tree: BayesTree = BayesTree::new(2, geometry());
        tree.set_bandwidth(vec![0.5, 0.25]);
        assert_eq!(tree.bandwidth(), &[0.5, 0.25]);
    }

    #[test]
    #[should_panic(expected = "bandwidth dimensionality mismatch")]
    fn wrong_bandwidth_dims_panics() {
        let mut tree: BayesTree = BayesTree::new(2, geometry());
        tree.set_bandwidth(vec![0.5]);
    }

    #[test]
    fn summarise_leaf_root() {
        let mut tree: BayesTree = BayesTree::new(1, geometry());
        tree.node_mut(0).items_mut().push(vec![1.0]);
        tree.node_mut(0).items_mut().push(vec![3.0]);
        tree.set_num_points(2);
        let entries = tree.root_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].weight(), 2.0);
        assert_eq!(entries[0].cf.mean(), vec![2.0]);
    }

    #[test]
    fn full_kernel_density_averages_kernels() {
        let mut tree: BayesTree = BayesTree::new(1, geometry());
        tree.node_mut(0).items_mut().push(vec![-1.0]);
        tree.node_mut(0).items_mut().push(vec![1.0]);
        tree.set_num_points(2);
        tree.set_bandwidth(vec![1.0]);
        let d = tree.full_kernel_density(&[0.0]);
        let kernel = GaussianKernel;
        let expected = kernel.density(&[-1.0], &[0.0], &[1.0]);
        assert!((d - expected).abs() < 1e-12);
    }

    #[test]
    fn validate_detects_wrong_point_count() {
        let mut tree: BayesTree = BayesTree::new(1, geometry());
        tree.node_mut(0).items_mut().push(vec![1.0]);
        // num_points deliberately not incremented.
        let err = tree.validate(true).unwrap_err();
        assert!(err.contains("reachable"));
    }
}
