//! The Bayes tree's instantiation of the shared anytime query engine.
//!
//! The incremental frontier machinery — which element to refine next, how
//! the partial mixture density is folded, the resumable cursor — lives in
//! [`bt_anytree::query`]; this module supplies the kernel-density
//! [`QueryModel`]:
//!
//! * a directory entry contributes the Definition 3 mixture term
//!   `(n_es / n) * g(x, mu_es, sigma_es)` ([`summary_mixture_term`], shared
//!   with the non-incremental [`crate::pdq`] reference),
//! * a leaf kernel contributes `K_h(x - x_i) / n` exactly,
//! * the certain `[lower, upper]` bounds on an entry's fully refined
//!   contribution come from its MBR: every kernel below lies inside the
//!   box, and the product kernel decreases with per-dimension distance, so
//!   `weight * K(farthest corner) <= contribution <= weight * K(nearest
//!   point)`.  Child MBRs nest inside their parent's, so refinement can only
//!   tighten the interval — the engine's monotonicity contract.
//!
//! On top of the model this module gives [`BayesTree`] budget-bracketed
//! density queries ([`BayesTree::anytime_density`],
//! [`BayesTree::density_batch`]) and the first insert-free workload over the
//! same index: anytime outlier scoring ([`BayesTree::outlier_score`]), whose
//! score *is* the refinable density interval.

use crate::descent::{DescentStrategy, PriorityMeasure};
use crate::node::{StoredElement, StoredSummary};
use crate::tree::BayesTree;
use bt_anytree::{
    Entry, OutlierScore, QueryAnswer, QueryModel, QueryStats, RefineOrder, ShardSet,
    ShardedQueryAnswer, SummaryScore,
};
use bt_stats::kernel::{
    box_min_sq_dists_block, diag_log_pdfs_block, farthest_point_log_kernels_block,
    gaussian_log_terms_block, nearest_point_log_kernels_block, sq_dists_block, GaussianKernel,
    Kernel,
};
use bt_stats::{BlockPrecision, GatheredBlock};

/// The Definition 3 mixture term `(n_es / n) * g(x, mu_es, sigma_es)` of one
/// summary — the single place this arithmetic lives; the incremental
/// frontier and the non-incremental [`crate::pdq::pdq`] reference both call
/// it.
#[must_use]
pub fn summary_mixture_term<S: StoredSummary>(summary: &S, x: &[f64], n: f64) -> f64 {
    summary.weight() / n * summary.gaussian().pdf(x)
}

/// The kernel-density query model: normalises by the global observation
/// count `n` and evaluates leaf kernels with the tree's bandwidth.
///
/// For sharded trees every shard must use the *same* global `n`, so the
/// per-shard partial densities fold by summation.
#[derive(Debug, Clone, Copy)]
pub struct KernelQueryModel<'a> {
    n: f64,
    bandwidth: &'a [f64],
    precision: BlockPrecision,
}

impl<'a> KernelQueryModel<'a> {
    /// A model normalising by `count` stored observations (clamped to at
    /// least one so empty trees score zero instead of dividing by zero).
    #[must_use]
    pub fn new(count: usize, bandwidth: &'a [f64]) -> Self {
        Self {
            n: count.max(1) as f64,
            bandwidth,
            precision: BlockPrecision::F64,
        }
    }

    /// Opts the block scoring path into a column precision —
    /// [`BlockPrecision::F32`] halves the memory bandwidth of the batch
    /// kernels at the cost of quantising the gathered means, variances and
    /// MBR corners to `f32` (query, bandwidth, weights and all accumulation
    /// stay `f64`).  The default `F64` path is bit-identical to the scalar
    /// reference.
    #[must_use]
    pub fn with_precision(mut self, precision: BlockPrecision) -> Self {
        self.precision = precision;
        self
    }

    /// The global normaliser `n`.
    #[must_use]
    pub fn n(&self) -> f64 {
        self.n
    }

    /// The model every tree, snapshot and shard set storing `E` summaries
    /// queries with: normalised by `count` observations, gathering blocks
    /// at the stored mode's precision ([`StoredElement::GATHER_PRECISION`]).
    #[must_use]
    pub(crate) fn stored<E: StoredElement>(count: usize, bandwidth: &'a [f64]) -> Self {
        Self::new(count, bandwidth).with_precision(E::GATHER_PRECISION)
    }
}

impl<S: StoredSummary> QueryModel<S> for KernelQueryModel<'_> {
    type LeafItem = Vec<f64>;

    fn summary_contribution(&self, query: &[f64], summary: &S) -> f64 {
        summary_mixture_term(summary, query, self.n)
    }

    /// Certain bounds from the summary's box: every kernel below lies inside
    /// it and the product kernel decreases with per-dimension distance, so
    /// the farthest/nearest box points bracket the contribution.  The log
    /// kernels come from [`StoredSummary::bound_log_kernels`] — each stored
    /// representation decodes its own corners, the `scale * exp(log)`
    /// arithmetic here is shared.
    fn summary_bounds(&self, query: &[f64], summary: &S) -> (f64, f64) {
        let scale = summary.weight() / self.n;
        let (farthest, nearest) = summary.bound_log_kernels(query, self.bandwidth);
        (scale * farthest.exp(), scale * nearest.exp())
    }

    fn leaf_contribution(&self, query: &[f64], item: &Vec<f64>) -> f64 {
        GaussianKernel.density(item, query, self.bandwidth) / self.n
    }

    fn leaf_sq_dist(&self, query: &[f64], item: &Vec<f64>) -> f64 {
        item.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum()
    }

    fn summarize_leaf_items(&self, items: &[Vec<f64>]) -> S {
        S::from_points(items, items[0].len()).expect("cannot summarise an empty leaf")
    }

    fn block_precision(&self) -> BlockPrecision {
        self.precision
    }

    fn leaf_block_precision(&self) -> BlockPrecision {
        // Leaf items are raw observations gathered at full width whatever
        // the stored precision (see `gather_leaf_items`), so leaf cache
        // lookups must key on `F64` or they would never hit.
        BlockPrecision::F64
    }

    /// Block gather: packs the node's entries into the structure-of-arrays
    /// [`bt_stats::SummaryBlock`] (weights, Gaussian means / variances, MBR
    /// corners) so [`QueryModel::score_gathered`] can evaluate every entry
    /// with the dimension-major batch kernels of `bt_stats::kernel` — one
    /// vectorized pass per quantity instead of four scalar loops per entry.
    ///
    /// The per-entry decode lives in [`StoredSummary::gather_into`]:
    /// full-width modes copy/widen, the quantised mode decodes its
    /// mantissas (exactly, in `f64`) — each replicates
    /// `ClusterFeature::variance` and the `DiagGaussian` variance clamp, and
    /// the gather is a pure function of `entries`, so the engine caches it
    /// per node keyed by the node's version stamp.
    fn gather_entries(&self, entries: &[Entry<S>], out: &mut GatheredBlock) -> bool {
        let dims = self.bandwidth.len();
        let len = entries.len();
        let block = &mut out.block;
        block.set_precision(self.precision);
        block.reset(dims, len);
        block.enable_boxes();
        for (i, entry) in entries.iter().enumerate() {
            entry.summary.gather_into(block, i, dims);
        }
        // Hoist the query-independent `ln(var)` out of the scoring loop:
        // the column is cached with the block, so warm hits score the node
        // without a single transcendental.
        block.fill_log_vars();
        true
    }

    /// Block scoring over gathered columns: mixture term, MBR bounds and
    /// geometric priority for all entries at once.  The batch kernels
    /// accumulate in the same per-dimension order as the scalar methods, so
    /// in the default [`BlockPrecision::F64`] mode the scores are
    /// bit-identical to the per-summary reference (the frontier tests
    /// assert this).  In the opt-in `F32` mode only the *stored* columns
    /// are quantised.
    fn score_gathered(
        &self,
        query: &[f64],
        _entries: &[Entry<S>],
        gathered: &GatheredBlock,
        lanes: &mut [Vec<f64>; 4],
        out: &mut Vec<SummaryScore>,
    ) {
        let block = &gathered.block;
        let len = block.len();
        let [contrib, far, near, dist] = lanes;
        diag_log_pdfs_block(
            query,
            block.mean(),
            block.var(),
            block.log_vars(),
            len,
            contrib,
        );
        farthest_point_log_kernels_block(
            query,
            self.bandwidth,
            block.lower(),
            block.upper(),
            len,
            far,
        );
        nearest_point_log_kernels_block(
            query,
            self.bandwidth,
            block.lower(),
            block.upper(),
            len,
            near,
        );
        box_min_sq_dists_block(query, block.lower(), block.upper(), len, dist);
        out.clear();
        out.reserve(len);
        for i in 0..len {
            let weight = block.weights()[i];
            let scale = weight / self.n;
            out.push(SummaryScore {
                weight,
                contribution: scale * contrib[i].exp(),
                lower: scale * far[i].exp(),
                upper: scale * near[i].exp(),
                min_dist_sq: dist[i],
            });
        }
    }

    /// Leaf block gather: a leaf's items are raw points, so their
    /// coordinates *are* the mean columns — nothing else is needed.
    fn gather_leaf_items(&self, items: &[Vec<f64>], out: &mut GatheredBlock) -> bool {
        let dims = self.bandwidth.len();
        let len = items.len();
        let block = &mut out.block;
        // Leaf items are raw observations, exact `f64` regardless of the
        // stored summary precision — narrowing them here would quantise the
        // converged answer, so leaf blocks always gather at full width.
        // (`self.precision` only governs directory-entry blocks, where the
        // stored values are already that narrow and the gather is lossless.)
        block.set_precision(BlockPrecision::F64);
        block.reset(dims, len);
        for (i, item) in items.iter().enumerate() {
            block.set_weight(i, 1.0);
            for (d, &v) in item.iter().take(dims).enumerate() {
                block.set_mean(d, i, v);
            }
        }
        true
    }

    /// Leaf block scoring: one [`gaussian_log_terms_block`] pass evaluates
    /// every item's product kernel (the exact sum [`GaussianKernel`] takes,
    /// in the same dimension order — bit-identical in `F64` mode) and one
    /// [`sq_dists_block`] pass their geometric priorities.
    fn score_gathered_leaves(
        &self,
        query: &[f64],
        _items: &[Vec<f64>],
        gathered: &GatheredBlock,
        lanes: &mut [Vec<f64>; 4],
        out: &mut Vec<SummaryScore>,
    ) {
        let block = &gathered.block;
        let len = block.len();
        let [logk, dist, _, _] = lanes;
        gaussian_log_terms_block(query, self.bandwidth, block.mean(), None, len, logk);
        sq_dists_block(query, block.mean(), len, dist);
        out.clear();
        out.reserve(len);
        for i in 0..len {
            let contribution = logk[i].exp() / self.n;
            out.push(SummaryScore {
                weight: 1.0,
                contribution,
                lower: contribution,
                upper: contribution,
                min_dist_sq: dist[i],
            });
        }
    }
}

impl From<DescentStrategy> for RefineOrder {
    fn from(strategy: DescentStrategy) -> RefineOrder {
        match strategy {
            DescentStrategy::BreadthFirst => RefineOrder::BreadthFirst,
            DescentStrategy::DepthFirst => RefineOrder::DepthFirst,
            DescentStrategy::GlobalBest(PriorityMeasure::Geometric) => RefineOrder::ClosestFirst,
            DescentStrategy::GlobalBest(PriorityMeasure::Probabilistic) => RefineOrder::BestFirst,
        }
    }
}

impl<E: StoredElement> BayesTree<E> {
    /// The kernel-density query model of this tree (normalised by the stored
    /// observation count, kernels evaluated with the tree's bandwidth).
    ///
    /// The block-scoring precision follows the stored mode
    /// ([`StoredElement::GATHER_PRECISION`]): an `f32` stored tree gathers
    /// `f32` columns (its summaries hold nothing wider, so the narrowed
    /// columns equal the stored values exactly and the bound intervals stay
    /// sound), while the `f64` *and* quantised trees gather full-width
    /// columns — quantised mantissas decode exactly in `f64`, so both keep
    /// the bit-identical block path.
    #[must_use]
    pub fn query_model(&self) -> KernelQueryModel<'_> {
        KernelQueryModel::stored::<E>(self.len(), self.bandwidth())
    }

    /// Budget-bracketed anytime density query: refines the frontier with the
    /// given descent strategy for up to `budget` node reads and returns the
    /// mixture estimate with its certain `[lower, upper]` bounds — the
    /// one-shard case of [`ShardSet::query_with_budget`].
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
    ) -> QueryAnswer {
        std::slice::from_ref(self.core())
            .query_with_budget(&self.query_model(), x, strategy.into(), budget)
            .as_answer()
    }

    /// Refines a batch of density queries through one reused cursor, each up
    /// to `budget` node reads; returns the per-query answers plus the merged
    /// [`QueryStats`] — the one-shard case of [`ShardSet::query_batch`].
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
    ) -> (Vec<QueryAnswer>, QueryStats) {
        let (answers, stats) = std::slice::from_ref(self.core()).query_batch(
            &self.query_model(),
            queries,
            strategy.into(),
            budget,
        );
        (
            answers.iter().map(ShardedQueryAnswer::as_answer).collect(),
            stats,
        )
    }

    /// Anytime outlier scoring: refines the density bounds (widest interval
    /// first) until the verdict against `threshold` is certain or `budget`
    /// node reads are spent.  The score is the refinable density interval —
    /// an insert-free workload over the same index, answered by the one
    /// outlier loop ([`ShardSet::outlier_score`]) as its one-shard case.
    ///
    /// # Panics
    ///
    /// Panics if the query has the wrong dimensionality.
    #[must_use]
    pub fn outlier_score(&self, x: &[f64], threshold: f64, budget: usize) -> OutlierScore {
        std::slice::from_ref(self.core()).outlier_score(&self.query_model(), x, threshold, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_anytree::{OutlierVerdict, Summary as _, TreeView};
    use bt_index::PageGeometry;
    use bt_stats::BlockScratch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let center = if i % 2 == 0 { 0.0 } else { 8.0 };
                vec![center + rng.random::<f64>(), center + rng.random::<f64>()]
            })
            .collect()
    }

    fn sample_tree(n: usize, seed: u64) -> BayesTree {
        BayesTree::build_iterative(&sample_points(n, seed), 2, PageGeometry::from_fanout(4, 4))
    }

    #[test]
    fn full_budget_density_matches_the_flat_estimate() {
        let tree: BayesTree = sample_tree(150, 1);
        let query = [0.5, 0.5];
        let answer = tree.anytime_density(&query, DescentStrategy::default(), usize::MAX);
        let expected = tree.full_kernel_density(&query);
        assert!((answer.estimate - expected).abs() < 1e-9);
        // Fully refined: the bounds collapse onto the exact density.
        assert!(answer.uncertainty() < 1e-12);
        assert!((answer.lower - expected).abs() < 1e-9);
    }

    #[test]
    fn bounds_bracket_the_true_density_at_every_budget() {
        let tree: BayesTree = sample_tree(200, 2);
        let query = [4.0, 4.0];
        let truth = tree.full_kernel_density(&query);
        let mut last_uncertainty = f64::INFINITY;
        for budget in [0, 1, 2, 4, 8, 16, 64] {
            let answer = tree.anytime_density(&query, DescentStrategy::default(), budget);
            assert!(
                answer.lower <= truth + 1e-12 && truth <= answer.upper + 1e-12,
                "budget {budget}: [{}, {}] misses {truth}",
                answer.lower,
                answer.upper
            );
            assert!(
                answer.uncertainty() <= last_uncertainty + 1e-12,
                "budget {budget} widened the bound"
            );
            last_uncertainty = answer.uncertainty();
        }
    }

    #[test]
    fn density_batch_matches_one_shot_queries() {
        let tree: BayesTree = sample_tree(120, 3);
        let queries = vec![vec![0.0, 0.0], vec![8.5, 8.5], vec![4.0, 4.0]];
        let (answers, stats) = tree.density_batch(&queries, DescentStrategy::default(), 10);
        assert_eq!(answers.len(), 3);
        assert_eq!(stats.queries, 3);
        for (answer, q) in answers.iter().zip(&queries) {
            let one_shot = tree.anytime_density(q, DescentStrategy::default(), 10);
            assert_eq!(*answer, one_shot);
        }
    }

    #[test]
    fn outlier_scoring_gives_certain_verdicts() {
        let tree: BayesTree = sample_tree(200, 4);
        // Density near the data is around 0.1; far away it is ~0.
        let far = tree.outlier_score(&[500.0, -500.0], 1e-6, 10_000);
        assert_eq!(far.verdict, OutlierVerdict::Outlier);
        let near = tree.outlier_score(&[0.5, 0.5], 1e-6, 10_000);
        assert_eq!(near.verdict, OutlierVerdict::Inlier);
        // The far verdict should be decided well before exhausting the tree.
        assert!(far.answer.nodes_read < tree.num_nodes() - 1);
    }

    #[test]
    fn pdq_and_model_share_the_mixture_arithmetic() {
        let tree: BayesTree = sample_tree(100, 5);
        let entries = tree.root_entries();
        let x = [1.0, 1.0];
        let n: f64 = entries.iter().map(|e| e.weight()).sum();
        let by_terms: f64 = entries
            .iter()
            .map(|e| summary_mixture_term(&e.summary, &x, n))
            .sum();
        assert!((by_terms - crate::pdq::pdq(&entries, &x)).abs() < 1e-12);
    }

    #[test]
    fn block_scores_match_the_scalar_reference_bitwise() {
        let tree: BayesTree = sample_tree(300, 6);
        let model = tree.query_model();
        let mut scratch = BlockScratch::new();
        let mut scores = Vec::new();
        let mut inner_nodes = 0;
        for query in [[0.5, 0.5], [8.3, 8.3], [4.0, 4.0], [-30.0, 55.0]] {
            for id in TreeView::reachable(tree.core()) {
                let node = tree.core().node(id);
                let bt_anytree::NodeKind::Inner { entries } = &node.kind else {
                    continue;
                };
                inner_nodes += 1;
                model.score_entries(&query, entries, &mut scratch, &mut scores);
                assert_eq!(scores.len(), entries.len());
                for (entry, score) in entries.iter().zip(&scores) {
                    let summary = &entry.summary;
                    let (lower, upper) = model.summary_bounds(&query, summary);
                    let expected = SummaryScore {
                        weight: summary.weight(),
                        contribution: model.summary_contribution(&query, summary),
                        lower,
                        upper,
                        min_dist_sq: model.summary_sq_dist(&query, summary),
                    };
                    assert_eq!(score.weight.to_bits(), expected.weight.to_bits());
                    assert_eq!(
                        score.contribution.to_bits(),
                        expected.contribution.to_bits()
                    );
                    assert_eq!(score.lower.to_bits(), expected.lower.to_bits());
                    assert_eq!(score.upper.to_bits(), expected.upper.to_bits());
                    assert_eq!(score.min_dist_sq.to_bits(), expected.min_dist_sq.to_bits());
                }
            }
        }
        assert!(inner_nodes > 0, "tree too small to exercise the block path");
    }

    #[test]
    fn quantized_block_scores_match_the_scalar_reference_bitwise() {
        // The quantised gather decodes into full-width f64 columns (the
        // decode `q * step` is exact), so the block path must agree with the
        // scalar StoredSummary reference bit for bit — same contract the
        // f64 mode is held to above.
        let tree: BayesTree<crate::node::Quantized> =
            BayesTree::build_iterative(&sample_points(300, 6), 2, PageGeometry::from_fanout(4, 4));
        let model = tree.query_model();
        let mut scratch = BlockScratch::new();
        let mut scores = Vec::new();
        let mut inner_nodes = 0;
        for query in [[0.5, 0.5], [8.3, 8.3], [4.0, 4.0], [-30.0, 55.0]] {
            for id in TreeView::reachable(tree.core()) {
                let node = tree.core().node(id);
                let bt_anytree::NodeKind::Inner { entries } = &node.kind else {
                    continue;
                };
                inner_nodes += 1;
                model.score_entries(&query, entries, &mut scratch, &mut scores);
                assert_eq!(scores.len(), entries.len());
                for (entry, score) in entries.iter().zip(&scores) {
                    let summary = &entry.summary;
                    let (lower, upper) = model.summary_bounds(&query, summary);
                    let expected = SummaryScore {
                        weight: summary.weight(),
                        contribution: model.summary_contribution(&query, summary),
                        lower,
                        upper,
                        min_dist_sq: model.summary_sq_dist(&query, summary),
                    };
                    assert_eq!(score.weight.to_bits(), expected.weight.to_bits());
                    assert_eq!(
                        score.contribution.to_bits(),
                        expected.contribution.to_bits()
                    );
                    assert_eq!(score.lower.to_bits(), expected.lower.to_bits());
                    assert_eq!(score.upper.to_bits(), expected.upper.to_bits());
                    assert_eq!(score.min_dist_sq.to_bits(), expected.min_dist_sq.to_bits());
                }
            }
        }
        assert!(inner_nodes > 0, "tree too small to exercise the block path");
    }

    #[test]
    fn f32_column_mode_stays_close_to_the_f64_scores() {
        let tree: BayesTree = sample_tree(300, 7);
        let exact = tree.query_model();
        let narrow = tree
            .query_model()
            .with_precision(bt_stats::BlockPrecision::F32);
        let mut scratch64 = BlockScratch::new();
        let mut scratch32 = BlockScratch::new();
        let (mut s64, mut s32) = (Vec::new(), Vec::new());
        let query = [4.2, 3.9];
        for id in TreeView::reachable(tree.core()) {
            let node = tree.core().node(id);
            let bt_anytree::NodeKind::Inner { entries } = &node.kind else {
                continue;
            };
            exact.score_entries(&query, entries, &mut scratch64, &mut s64);
            narrow.score_entries(&query, entries, &mut scratch32, &mut s32);
            for (a, b) in s64.iter().zip(&s32) {
                assert_eq!(a.weight, b.weight, "weights stay f64");
                assert!(
                    (a.contribution - b.contribution).abs() <= 1e-3 * a.contribution.abs() + 1e-9,
                    "f32 contribution drifted: {} vs {}",
                    a.contribution,
                    b.contribution
                );
                assert!((a.min_dist_sq - b.min_dist_sq).abs() <= 1e-3 * (1.0 + a.min_dist_sq));
            }
        }
    }

    #[test]
    fn strategies_map_onto_the_core_orders() {
        assert_eq!(
            RefineOrder::from(DescentStrategy::BreadthFirst),
            RefineOrder::BreadthFirst
        );
        assert_eq!(
            RefineOrder::from(DescentStrategy::GlobalBest(PriorityMeasure::Probabilistic)),
            RefineOrder::BestFirst
        );
        assert_eq!(
            RefineOrder::from(DescentStrategy::GlobalBest(PriorityMeasure::Geometric)),
            RefineOrder::ClosestFirst
        );
    }
}
