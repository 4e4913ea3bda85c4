//! Property tests for the narrowed stored-summary modes (`f32` and the
//! 16-bit block-exponent `Quantized` mode): the interval-soundness and
//! convergence contracts that make narrow storage safe to opt into.
//!
//! The stored-precision design (see `bayestree::node`) promises:
//!
//! * **Outward quantisation** — a narrowed entry box always encloses the
//!   exact box of the points below it, so the MBR-derived `[lower, upper]`
//!   density bounds of Definition 3 remain *certain* bounds,
//! * **Exact leaves** — raw observations stay `f64`, so a fully refined
//!   query converges to the exact kernel density regardless of how the
//!   directory summaries were stored,
//! * **Bounded drift** — CF sums accumulate in `f64` and quantise on write,
//!   so stored means/variances sit within storage-rounding distance of the
//!   exact ones (a few `f32` ulps for the `f32` mode, half a block step per
//!   component for the quantised mode).
//!
//! Each property is exercised on live trees, epoch-pinned snapshots and the
//! sharded variant, mirroring the structure of `tests/query_equivalence.rs`
//! for the full-width mode.

use anytime_stream_mining::anytree::CheapestRouter;
use anytime_stream_mining::bayestree::{
    BayesTree, BayesTreeF32, BayesTreeQuantized, DescentStrategy, Quantized, QuantizedSummary,
    ShardedBayesTree, StoredElement, StoredSummary,
};
use anytime_stream_mining::index::PageGeometry;
use anytime_stream_mining::stats::ClusterFeature;
use proptest::prelude::*;

/// Bounded 3-d point sets, two loose clusters to force real tree structure.
fn points_strategy(max_len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-40.0f64..40.0, 3), 8..max_len)
}

fn geometry() -> PageGeometry {
    PageGeometry::from_fanout(4, 4)
}

fn build_f32(points: &[Vec<f64>]) -> BayesTreeF32 {
    let mut tree = BayesTreeF32::new(3, geometry());
    for p in points {
        tree.insert(p.clone());
    }
    tree.set_bandwidth(vec![1.25, 0.8, 1.5]);
    tree
}

fn build_f64(points: &[Vec<f64>]) -> BayesTree {
    let mut tree: BayesTree = BayesTree::new(3, geometry());
    for p in points {
        tree.insert(p.clone());
    }
    tree.set_bandwidth(vec![1.25, 0.8, 1.5]);
    tree
}

fn build_quantized(points: &[Vec<f64>]) -> BayesTreeQuantized {
    let mut tree = BayesTreeQuantized::new(3, geometry());
    for p in points {
        tree.insert(p.clone());
    }
    tree.set_bandwidth(vec![1.25, 0.8, 1.5]);
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The structural invariants of Definition 2 (containment, CF
    /// consistency, balance) hold for `f32` stored trees under arbitrary
    /// insertion orders — outward rounding keeps every parent box a true
    /// superset of its children.
    #[test]
    fn f32_trees_stay_valid_under_arbitrary_inserts(points in points_strategy(80)) {
        let tree = build_f32(&points);
        prop_assert_eq!(tree.len(), points.len());
        tree.validate(true).expect("f32 tree invariants hold");
    }

    /// Interval soundness: at every budget, the `f32` tree's certified
    /// `[lower, upper]` interval brackets the *exact* kernel density (leaf
    /// kernels are exact `f64`, so the flat estimate is the ground truth in
    /// both modes), and the interval only tightens with budget.
    #[test]
    fn f32_bounds_bracket_the_exact_density(points in points_strategy(60), q in prop::collection::vec(-45.0f64..45.0, 3)) {
        let tree = build_f32(&points);
        let truth = tree.full_kernel_density(&q);
        let mut last = f64::INFINITY;
        for budget in [0usize, 1, 2, 4, 8, 32, usize::MAX] {
            let answer = tree.anytime_density(&q, DescentStrategy::default(), budget);
            prop_assert!(
                answer.lower <= truth + 1e-12 && truth <= answer.upper + 1e-12,
                "budget {}: [{}, {}] misses {}", budget, answer.lower, answer.upper, truth
            );
            prop_assert!(answer.uncertainty() <= last + 1e-12, "budget {} widened the interval", budget);
            last = answer.uncertainty();
        }
    }

    /// Convergence: fully refined, the `f32` tree's answer collapses onto
    /// the exact density — stored precision only affects *intermediate*
    /// summaries, never the converged result (up to summation order across
    /// the two tree shapes).
    #[test]
    fn f32_full_refinement_is_exact(points in points_strategy(60), q in prop::collection::vec(-45.0f64..45.0, 3)) {
        let narrow = build_f32(&points);
        let wide = build_f64(&points);
        let exact = wide.full_kernel_density(&q);
        let answer = narrow.anytime_density(&q, DescentStrategy::default(), usize::MAX);
        prop_assert!(answer.uncertainty() < 1e-12);
        prop_assert!(
            (answer.estimate - exact).abs() <= 1e-9 * (1.0 + exact.abs()),
            "converged f32 estimate {} != exact {}", answer.estimate, exact
        );
    }

    /// Bounded drift: the root-level mixture summaries of an `f32` tree sit
    /// within a few `f32` ulps (relative) of full-width summaries over the
    /// same points — quantise-on-write, accumulate-in-`f64` keeps the error
    /// at storage rounding, not accumulation, scale.
    #[test]
    fn f32_summary_drift_stays_at_quantisation_scale(points in points_strategy(60)) {
        let narrow = build_f32(&points);
        let wide = build_f64(&points);
        // Compare the total CF over all root entries (per-entry comparison
        // is meaningless: quantised boxes can tip R* enlargement ties, so
        // the trees may partition the points differently).
        let total_n: f64 = narrow.root_entries().iter().map(|e| e.weight()).sum();
        let total_w: f64 = wide.root_entries().iter().map(|e| e.weight()).sum();
        prop_assert!((total_n - total_w).abs() < 1e-6);
        let (ne, we) = (narrow.root_entries(), wide.root_entries());
        for d in 0..3 {
            let a: f64 = ne.iter().map(|e| f64::from(e.cf.linear_sum()[d])).sum::<f64>() / total_n;
            let b: f64 = we.iter().map(|e| e.cf.linear_sum()[d]).sum::<f64>() / total_w;
            prop_assert!(
                (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                "dim {}: f32 mean {} vs f64 mean {}", d, a, b
            );
        }
    }

    /// Outlier verdicts from the `f32` tree are trustworthy: a *certain*
    /// verdict (interval strictly on one side of the threshold) agrees with
    /// the exact density's side.
    #[test]
    fn f32_certain_outlier_verdicts_match_the_exact_density(points in points_strategy(60), q in prop::collection::vec(-45.0f64..45.0, 3)) {
        use anytime_stream_mining::anytree::OutlierVerdict;
        let tree = build_f32(&points);
        let truth = tree.full_kernel_density(&q);
        let threshold = 1e-4;
        let score = tree.outlier_score(&q, threshold, usize::MAX);
        match score.verdict {
            OutlierVerdict::Outlier => prop_assert!(truth <= threshold + 1e-12),
            OutlierVerdict::Inlier => prop_assert!(truth >= threshold - 1e-12),
            OutlierVerdict::Undecided => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Epoch-pinned snapshots of `f32` trees answer bit-identically to the
    /// live tree at snapshot time, and stay frozen while the live tree
    /// keeps ingesting.
    #[test]
    fn f32_snapshots_freeze_the_answer(points in points_strategy(60), q in prop::collection::vec(-45.0f64..45.0, 3)) {
        let mut tree = build_f32(&points);
        let snapshot = tree.snapshot();
        let live = tree.anytime_density(&q, DescentStrategy::default(), 8);
        let frozen = snapshot.anytime_density(&q, DescentStrategy::default(), 8);
        prop_assert_eq!(live, frozen.as_answer());
        tree.insert_batch(points.clone());
        prop_assert_eq!(
            snapshot.anytime_density(&q, DescentStrategy::default(), 8),
            frozen
        );
    }

    /// The sharded `f32` tree folds per-shard intervals into a sound global
    /// interval, and its converged estimate matches the flat exact density.
    #[test]
    fn sharded_f32_bounds_stay_sound(points in points_strategy(80), q in prop::collection::vec(-45.0f64..45.0, 3)) {
        let mut sharded: ShardedBayesTree<CheapestRouter, f32> =
            ShardedBayesTree::new(3, geometry(), 3);
        for chunk in points.chunks(16) {
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        sharded.set_bandwidth(vec![1.25, 0.8, 1.5]);
        sharded.validate().expect("sharded f32 invariants hold");
        let truth = sharded.full_kernel_density(&q);
        let mut last = f64::INFINITY;
        for budget in [0usize, 2, 8, usize::MAX] {
            let answer = sharded.anytime_density(&q, DescentStrategy::default(), budget);
            prop_assert!(
                answer.lower <= truth + 1e-12 && truth <= answer.upper + 1e-12,
                "budget {}: [{}, {}] misses {}", budget, answer.lower, answer.upper, truth
            );
            prop_assert!(answer.uncertainty() <= last + 1e-12);
            last = answer.uncertainty();
        }
        let full = sharded.anytime_density(&q, DescentStrategy::default(), usize::MAX);
        prop_assert!((full.estimate - truth).abs() <= 1e-9 * (1.0 + truth.abs()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The structural invariants of Definition 2 hold for quantised stored
    /// trees under arbitrary insertion orders — `bf16` outward rounding is
    /// value-deterministic and monotone, so every parent box remains a true
    /// superset of its (independently re-encoded) children.
    #[test]
    fn quantized_trees_stay_valid_under_arbitrary_inserts(points in points_strategy(80)) {
        let tree = build_quantized(&points);
        prop_assert_eq!(tree.len(), points.len());
        tree.validate(true).expect("quantised tree invariants hold");
    }

    /// Interval soundness: at every budget, the quantised tree's certified
    /// `[lower, upper]` interval brackets the *exact* kernel density, and
    /// the interval only tightens with budget.
    #[test]
    fn quantized_bounds_bracket_the_exact_density(points in points_strategy(60), q in prop::collection::vec(-45.0f64..45.0, 3)) {
        let tree = build_quantized(&points);
        let truth = tree.full_kernel_density(&q);
        let mut last = f64::INFINITY;
        for budget in [0usize, 1, 2, 4, 8, 32, usize::MAX] {
            let answer = tree.anytime_density(&q, DescentStrategy::default(), budget);
            prop_assert!(
                answer.lower <= truth + 1e-12 && truth <= answer.upper + 1e-12,
                "budget {}: [{}, {}] misses {}", budget, answer.lower, answer.upper, truth
            );
            prop_assert!(answer.uncertainty() <= last + 1e-12, "budget {} widened the interval", budget);
            last = answer.uncertainty();
        }
    }

    /// Convergence: fully refined, the quantised tree's answer collapses
    /// onto the exact density — 16-bit storage only affects *intermediate*
    /// directory summaries, never the converged result (up to summation
    /// order across the two tree shapes).
    #[test]
    fn quantized_full_refinement_is_exact(points in points_strategy(60), q in prop::collection::vec(-45.0f64..45.0, 3)) {
        let narrow = build_quantized(&points);
        let wide = build_f64(&points);
        let exact = wide.full_kernel_density(&q);
        let answer = narrow.anytime_density(&q, DescentStrategy::default(), usize::MAX);
        prop_assert!(answer.uncertainty() < 1e-12);
        prop_assert!(
            (answer.estimate - exact).abs() <= 1e-9 * (1.0 + exact.abs()),
            "converged quantised estimate {} != exact {}", answer.estimate, exact
        );
    }

    /// Per-component CF error of a freshly encoded quantised summary is at
    /// most half the advertised block step (round-to-nearest against a
    /// power-of-two step; the decode is exact in `f64`).
    #[test]
    fn quantized_cf_components_round_within_half_a_step(points in points_strategy(60)) {
        let summary = QuantizedSummary::from_points(&points, 3).expect("non-empty");
        let exact =
            ClusterFeature::<f64>::from_points(points.iter().map(Vec::as_slice), 3);
        prop_assert_eq!(summary.count(), exact.weight());
        for d in 0..3 {
            let ls_err = (summary.linear_sum_at(d) - exact.linear_sum()[d]).abs();
            let ss_err = (summary.squared_sum_at(d) - exact.squared_sum()[d]).abs();
            prop_assert!(
                ls_err <= summary.ls_step() / 2.0 + 1e-12,
                "dim {}: LS error {} exceeds half step {}", d, ls_err, summary.ls_step() / 2.0
            );
            prop_assert!(
                ss_err <= summary.ss_step() / 2.0 + 1e-12,
                "dim {}: SS error {} exceeds half step {}", d, ss_err, summary.ss_step() / 2.0
            );
        }
    }

    /// A quantised summary's stored box encloses every point it summarises:
    /// `bf16_floor` / `bf16_ceil` round corners outward, never inward.
    #[test]
    fn quantized_boxes_enclose_every_summarised_point(points in points_strategy(60)) {
        let summary = QuantizedSummary::from_points(&points, 3).expect("non-empty");
        for p in &points {
            for (d, &v) in p.iter().enumerate().take(3) {
                prop_assert!(
                    summary.lower_at(d) <= v && v <= summary.upper_at(d),
                    "dim {}: point {} outside stored box [{}, {}]",
                    d, v, summary.lower_at(d), summary.upper_at(d)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Epoch-pinned snapshots of quantised trees answer bit-identically to
    /// the live tree at snapshot time, and stay frozen while the live tree
    /// keeps ingesting.
    #[test]
    fn quantized_snapshots_freeze_the_answer(points in points_strategy(60), q in prop::collection::vec(-45.0f64..45.0, 3)) {
        let mut tree = build_quantized(&points);
        let snapshot = tree.snapshot();
        let live = tree.anytime_density(&q, DescentStrategy::default(), 8);
        let frozen = snapshot.anytime_density(&q, DescentStrategy::default(), 8);
        prop_assert_eq!(live, frozen.as_answer());
        tree.insert_batch(points.clone());
        prop_assert_eq!(
            snapshot.anytime_density(&q, DescentStrategy::default(), 8),
            frozen
        );
    }

    /// The sharded quantised tree folds per-shard intervals into a sound
    /// global interval, and its converged estimate matches the flat exact
    /// density.
    #[test]
    fn sharded_quantized_bounds_stay_sound(points in points_strategy(80), q in prop::collection::vec(-45.0f64..45.0, 3)) {
        let mut sharded: ShardedBayesTree<CheapestRouter, Quantized> =
            ShardedBayesTree::new(3, geometry(), 3);
        for chunk in points.chunks(16) {
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        sharded.set_bandwidth(vec![1.25, 0.8, 1.5]);
        sharded.validate().expect("sharded quantised invariants hold");
        let truth = sharded.full_kernel_density(&q);
        let mut last = f64::INFINITY;
        for budget in [0usize, 2, 8, usize::MAX] {
            let answer = sharded.anytime_density(&q, DescentStrategy::default(), budget);
            prop_assert!(
                answer.lower <= truth + 1e-12 && truth <= answer.upper + 1e-12,
                "budget {}: [{}, {}] misses {}", budget, answer.lower, answer.upper, truth
            );
            prop_assert!(answer.uncertainty() <= last + 1e-12);
            last = answer.uncertainty();
        }
        let full = sharded.anytime_density(&q, DescentStrategy::default(), usize::MAX);
        prop_assert!((full.estimate - truth).abs() <= 1e-9 * (1.0 + truth.abs()));
    }
}

/// The quantised mode stores 2-byte scalars — a quarter of full width — and
/// the page geometry turns that into directory fanout: a 4 KiB page that
/// holds 7 full-width 16-d entries (or 15 at `f32`) holds 29 quantised ones.
#[test]
fn quantized_entries_quarter_the_scalar_bytes_and_multiply_fanout() {
    assert_eq!(<f64 as StoredElement>::SCALAR_BYTES, 8);
    assert_eq!(<f32 as StoredElement>::SCALAR_BYTES, 4);
    assert_eq!(<Quantized as StoredElement>::SCALAR_BYTES, 2);
    let wide = PageGeometry::from_page_size_for_scalar(4096, 16, 8);
    let narrow = PageGeometry::from_page_size_for_scalar(4096, 16, 4);
    let quant = PageGeometry::from_page_size_for_scalar(4096, 16, 2);
    assert_eq!(quant.max_fanout, 29);
    assert!(quant.max_fanout >= 4 * wide.max_fanout);
    assert!(quant.max_fanout >= narrow.max_fanout * 2 - 1);
    // Leaves hold exact full-width observations in every stored mode.
    assert_eq!(quant.max_leaf, wide.max_leaf);
}

/// The half-width mode genuinely halves the stored summary footprint: one
/// directory entry's payload is `sizeof(f32)` per stored scalar instead of
/// `sizeof(f64)` (4 columns of `dims` scalars: CF LS/SS + MBR lower/upper).
#[test]
fn f32_entries_store_half_the_scalar_bytes() {
    use std::mem::size_of_val;
    let p = vec![1.0, 2.0, 3.0];
    let narrow = anytime_stream_mining::bayestree::KernelSummary::<f32>::from_point(&p);
    let wide = anytime_stream_mining::bayestree::KernelSummary::<f64>::from_point(&p);
    let narrow_bytes = size_of_val(&narrow.cf.linear_sum()[0]) * 2 * 3
        + size_of_val(&narrow.mbr.lower()[0]) * 2 * 3;
    let wide_bytes =
        size_of_val(&wide.cf.linear_sum()[0]) * 2 * 3 + size_of_val(&wide.mbr.lower()[0]) * 2 * 3;
    assert_eq!(narrow_bytes * 2, wide_bytes);
}
