//! Epoch-pinned snapshots of the Bayes tree (plain or sharded) and the
//! anytime classifier.
//!
//! A snapshot is a cheap, owned, `Send + Sync` point-in-time view over the
//! shared core's versioned arena ([`bt_anytree::snapshot`]): queries
//! answered against it are bit-identical to querying the live structure at
//! snapshot time, even while later training batches mutate the tree
//! concurrently (writers copy-on-write any node a snapshot still pins).
//! This is what lets a stream processor keep serving density / outlier /
//! classification queries *while* inserts are flowing.
//!
//! There is one snapshot type for both tree handles: a plain
//! [`BayesTree`] snapshots as one pinned shard, a
//! [`ShardedBayesTree`](crate::ShardedBayesTree) as one pinned shard per
//! live shard, and every read folds the shards through [`ShardSet`].

use crate::classifier::{run_anytime_over, AnytimeClassifier, AnytimeTrace, Classification};
use crate::descent::DescentStrategy;
use crate::frontier::TreeFrontier;
use crate::node::{KernelSummary, StoredElement};
use crate::qbk::RefinementStrategy;
use crate::query::KernelQueryModel;
use crate::tree::BayesTree;
use bt_anytree::{OutlierScore, QueryStats, ShardSet, ShardedQueryAnswer, TreeSnapshot, TreeView};

/// An epoch-pinned, immutable view of a Bayes tree: one pinned core
/// snapshot per shard (exactly one for a plain [`BayesTree`]) plus the
/// global density-model parameters (observation count, bandwidth) frozen
/// at snapshot time.
#[derive(Debug, Clone)]
pub struct BayesTreeSnapshot<E: StoredElement = f64> {
    pub(crate) shards: Vec<TreeSnapshot<E::Summary, Vec<f64>>>,
    pub(crate) num_points: usize,
    pub(crate) bandwidth: Vec<f64>,
}

impl<E: StoredElement> BayesTreeSnapshot<E> {
    /// Number of shards captured (1 for a plain tree).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard core snapshots (for frontier construction and
    /// inspection through [`TreeView`]).
    #[must_use]
    pub fn shards(&self) -> &[TreeSnapshot<E::Summary, Vec<f64>>] {
        &self.shards
    }

    /// The per-shard published epochs this snapshot pins.
    #[must_use]
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(TreeSnapshot::epoch).collect()
    }

    /// Dimensionality of the stored kernels.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.shards[0].dims()
    }

    /// Number of observations stored at snapshot time (across all shards).
    #[must_use]
    pub fn len(&self) -> usize {
        self.num_points
    }

    /// Whether the snapshot holds no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_points == 0
    }

    /// Height of the tallest shard at snapshot time.
    #[must_use]
    pub fn height(&self) -> usize {
        self.shards.iter().map(TreeView::height).max().unwrap_or(1)
    }

    /// The kernel bandwidth frozen at snapshot time.
    #[must_use]
    pub fn bandwidth(&self) -> &[f64] {
        &self.bandwidth
    }

    /// The kernel-density query model frozen at snapshot time, normalised
    /// by the **global** observation count so per-shard partials fold by
    /// summation (block precision follows the stored precision, exactly as
    /// on the live tree).
    #[must_use]
    pub fn query_model(&self) -> KernelQueryModel<'_> {
        KernelQueryModel::stored::<E>(self.num_points, &self.bandwidth)
    }

    /// Budget-bracketed anytime density query against the frozen shards —
    /// exactly what the live tree's `anytime_density` returned at snapshot
    /// time ([`BayesTree::anytime_density`] is this answer's
    /// [`ShardedQueryAnswer::as_answer`]).
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    #[must_use]
    pub fn anytime_density(
        &self,
        x: &[f64],
        strategy: DescentStrategy,
        budget: usize,
    ) -> ShardedQueryAnswer {
        self.shards
            .query_with_budget(&self.query_model(), x, strategy.into(), budget)
    }

    /// Batched density queries against the frozen shards, one reused
    /// cursor per shard (see [`BayesTree::density_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if any query has the wrong dimensionality.
    #[must_use]
    pub fn density_batch(
        &self,
        queries: &[Vec<f64>],
        strategy: DescentStrategy,
        budget: usize,
    ) -> (Vec<ShardedQueryAnswer>, QueryStats) {
        self.shards
            .query_batch(&self.query_model(), queries, strategy.into(), budget)
    }

    /// Anytime outlier scoring against the frozen shards (see
    /// [`BayesTree::outlier_score`]); `budget` caps the total node reads.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    #[must_use]
    pub fn outlier_score(&self, x: &[f64], threshold: f64, budget: usize) -> OutlierScore {
        self.shards
            .outlier_score(&self.query_model(), x, threshold, budget)
    }
}

impl<E: StoredElement> BayesTree<E> {
    /// Takes an epoch-pinned snapshot: the versioned arena spine is cloned
    /// (`O(nodes)` pointer copies), the published epoch is pinned, and the
    /// density-model parameters (count, bandwidth) are frozen alongside.
    ///
    /// The snapshot is `Send + Sync` and keeps answering queries
    /// bit-identically to this moment while later inserts mutate the tree.
    #[must_use]
    pub fn snapshot(&self) -> BayesTreeSnapshot<E> {
        BayesTreeSnapshot {
            shards: vec![self.core().snapshot()],
            num_points: self.len(),
            bandwidth: self.bandwidth().to_vec(),
        }
    }
}

/// An epoch-pinned, immutable view of an [`AnytimeClassifier`]: one
/// per-class [`BayesTreeSnapshot`] plus the priors frozen at snapshot time.
///
/// `Send + Sync`, so classification keeps running on reader threads while
/// [`AnytimeClassifier::learn_batch`] drains new labelled observations into
/// the live per-class trees.
#[derive(Debug, Clone)]
pub struct ClassifierSnapshot {
    trees: Vec<BayesTreeSnapshot>,
    priors: Vec<f64>,
    refinement: RefinementStrategy,
    descent: DescentStrategy,
    dims: usize,
}

impl ClassifierSnapshot {
    /// Number of classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.trees.len()
    }

    /// Feature dimensionality.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The class priors frozen at snapshot time.
    #[must_use]
    pub fn priors(&self) -> &[f64] {
        &self.priors
    }

    /// The per-class tree snapshots.
    #[must_use]
    pub fn trees(&self) -> &[BayesTreeSnapshot] {
        &self.trees
    }

    /// Classifies `x` spending at most `budget` node reads against the
    /// frozen per-class trees — exactly what
    /// [`AnytimeClassifier::classify_with_budget`] returned at snapshot
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    #[must_use]
    pub fn classify_with_budget(&self, x: &[f64], budget: usize) -> Classification {
        let (trace, nodes_read) = self.run_anytime(x, budget, false);
        Classification {
            label: *trace.labels.last().expect("trace is never empty"),
            posteriors: trace.final_posteriors,
            nodes_read,
        }
    }

    /// The full anytime trace against the frozen per-class trees (see
    /// [`AnytimeClassifier::anytime_trace`]).
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    #[must_use]
    pub fn anytime_trace(&self, x: &[f64], max_nodes: usize) -> AnytimeTrace {
        self.run_anytime(x, max_nodes, true).0
    }

    fn run_anytime(&self, x: &[f64], budget: usize, record_all: bool) -> (AnytimeTrace, usize) {
        assert_eq!(x.len(), self.dims, "query dimensionality mismatch");
        let frontiers: Vec<TreeFrontier<'_, TreeSnapshot<KernelSummary, Vec<f64>>>> = self
            .trees
            .iter()
            .map(|t| TreeFrontier::over(&t.shards()[0], t.query_model(), x))
            .collect();
        run_anytime_over(
            frontiers,
            &self.priors,
            self.refinement,
            self.descent,
            budget,
            record_all,
        )
    }
}

impl AnytimeClassifier {
    /// Takes an epoch-pinned snapshot of every per-class tree plus the
    /// current priors.  Reader threads classify against the snapshot —
    /// bit-identically to this moment — while online learning keeps
    /// mutating the live trees.
    #[must_use]
    pub fn snapshot(&self) -> ClassifierSnapshot {
        ClassifierSnapshot {
            trees: self.trees().iter().map(BayesTree::snapshot).collect(),
            priors: self.priors().to_vec(),
            refinement: self.config().refinement,
            descent: self.config().descent,
            dims: self.dims(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassifierConfig;
    use bt_data::synth::blobs::BlobConfig;
    use bt_index::PageGeometry;

    fn sample_points(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let c = if i % 2 == 0 { 0.0 } else { 8.0 };
                vec![c + (i % 7) as f64 * 0.1, c + (i % 5) as f64 * 0.1]
            })
            .collect()
    }

    #[test]
    fn tree_snapshot_answers_stay_frozen_under_inserts() {
        let mut tree: BayesTree =
            BayesTree::build_iterative(&sample_points(150), 2, PageGeometry::from_fanout(4, 4));
        let snapshot = tree.snapshot();
        let frozen = snapshot.anytime_density(&[0.4, 0.4], DescentStrategy::default(), 12);
        tree.insert_batch(sample_points(150));
        assert_eq!(
            snapshot.anytime_density(&[0.4, 0.4], DescentStrategy::default(), 12),
            frozen
        );
        // The live tree genuinely moved on.
        assert_ne!(tree.len(), snapshot.len());
        assert!(tree.core().retired_nodes() > 0);
    }

    #[test]
    fn classifier_snapshot_matches_the_live_classifier() {
        let data = BlobConfig::new(3, 4)
            .samples_per_class(60)
            .seed(3)
            .generate();
        let mut clf = AnytimeClassifier::train(&data, &ClassifierConfig::default());
        let snapshot = clf.snapshot();
        let queries: Vec<Vec<f64>> = (0..10).map(|i| data.feature(i).to_vec()).collect();
        let frozen: Vec<Classification> = queries
            .iter()
            .map(|q| snapshot.classify_with_budget(q, 15))
            .collect();
        for (q, expected) in queries.iter().zip(&frozen) {
            assert_eq!(&clf.classify_with_budget(q, 15), expected);
        }
        // Keep learning, then re-check: the snapshot must not move.
        for i in 0..30 {
            clf.learn_one(data.feature(i).to_vec(), i % 3);
        }
        for (q, expected) in queries.iter().zip(&frozen) {
            assert_eq!(&snapshot.classify_with_budget(q, 15), expected);
        }
    }

    #[test]
    fn snapshots_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BayesTreeSnapshot>();
        assert_send_sync::<ClassifierSnapshot>();
    }

    #[test]
    fn bulk_loaded_trees_publish_an_epoch_covering_their_nodes() {
        use crate::bulk::{build_tree, BulkLoadMethod};
        let points = sample_points(120);
        for method in BulkLoadMethod::all() {
            let tree = build_tree(&points, 2, PageGeometry::from_fanout(4, 4), method, 7);
            let snapshot = tree.snapshot();
            assert!(
                snapshot.epochs()[0] >= 1,
                "{method:?}: bulk build must publish an epoch"
            );
            for id in snapshot.shards()[0].reachable() {
                assert!(
                    snapshot.shards()[0].node_version(id) <= snapshot.epochs()[0],
                    "{method:?}: node {id} stamped past the published epoch"
                );
            }
        }
    }

    #[test]
    fn classifier_reports_the_node_reads_it_spent() {
        let data = BlobConfig::new(3, 4)
            .samples_per_class(60)
            .seed(9)
            .generate();
        let config = ClassifierConfig {
            geometry: Some(PageGeometry::from_fanout(4, 4)),
            ..ClassifierConfig::default()
        };
        let clf = AnytimeClassifier::train(&data, &config);
        let c = clf.classify_with_budget(data.feature(0), 15);
        assert!(c.nodes_read > 0, "budgeted classification spends reads");
        assert!(c.nodes_read <= 15);
        let snap = clf.snapshot().classify_with_budget(data.feature(0), 15);
        assert_eq!(snap.nodes_read, c.nodes_read);
        // The reported count matches the trace's step count.
        let trace = clf.anytime_trace(data.feature(0), 15);
        assert_eq!(c.nodes_read, trace.labels.len() - 1);
    }
}
