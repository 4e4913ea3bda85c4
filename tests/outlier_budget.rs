//! The outlier loop's budget contract and its one-shard identity.
//!
//! Anytime outlier scoring has one loop for every shard count: each node
//! read refines the shard whose next widest-bound element is widest, and
//! the budget caps the **total** node reads across shards.  Locked down
//! here for every stored mode of the Bayes tree (`f64`, `f32`, `Quantized`)
//! and for the ClusTree:
//!
//! * at `K ∈ {2, 3}` shards, live and snapshot `outlier_score` answers
//!   never report more node reads than the budget — with the threshold set
//!   to the exact density, so no verdict can end the loop early and the
//!   budget is what stops it,
//! * at `K = 1`, live and snapshot `outlier_score` return exactly the plain
//!   tree's `OutlierScore` (bounds, estimate, verdict and node reads).

use anytime_stream_mining::anytree::{CheapestRouter, RefineOrder};
use anytime_stream_mining::bayestree::{BayesTree, Quantized, ShardedBayesTree, StoredElement};
use anytime_stream_mining::clustree::{ClusTree, ClusTreeConfig, ShardedClusTree};
use anytime_stream_mining::index::PageGeometry;

/// Budgets small enough to bind and large enough to span several shards.
const BUDGETS: [usize; 4] = [1, 5, 10, 24];

/// Deterministic 3-d points in two loose clusters (SplitMix64 stream).
fn points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut unit = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let c = if i % 2 == 0 { -4.0 } else { 4.0 };
            (0..3).map(|_| c + unit() * 6.0 - 3.0).collect()
        })
        .collect()
}

fn queries() -> Vec<Vec<f64>> {
    vec![
        vec![-4.0, -4.0, -4.0],
        vec![0.0, 0.5, -0.5],
        vec![4.5, 3.5, 4.0],
    ]
}

fn geometry() -> PageGeometry {
    PageGeometry::from_fanout(4, 4)
}

const BANDWIDTH: [f64; 3] = [0.9, 1.1, 0.8];

fn sharded_bayes<E: StoredElement>(shards: usize) -> ShardedBayesTree<CheapestRouter, E> {
    let mut tree = ShardedBayesTree::<CheapestRouter, E>::new(3, geometry(), shards);
    for chunk in points(240, 11).chunks(32) {
        let _ = tree.insert_batch(chunk.to_vec());
    }
    tree.set_bandwidth(BANDWIDTH.to_vec());
    tree
}

fn assert_bayes_budget_is_total<E: StoredElement>() {
    for shards in [2, 3] {
        let tree = sharded_bayes::<E>(shards);
        let snapshot = tree.snapshot();
        for q in queries() {
            let threshold = tree.full_kernel_density(&q);
            for budget in BUDGETS {
                for (view, score) in [
                    ("live", tree.outlier_score(&q, threshold, budget)),
                    ("snapshot", snapshot.outlier_score(&q, threshold, budget)),
                ] {
                    assert!(
                        score.answer.nodes_read <= budget,
                        "{} K={shards} {view}: {} reads over budget {budget}",
                        E::MODE,
                        score.answer.nodes_read
                    );
                }
            }
        }
    }
}

fn assert_bayes_one_shard_is_the_plain_tree<E: StoredElement>() {
    let mut plain = BayesTree::<E>::new(3, geometry());
    for chunk in points(240, 11).chunks(32) {
        plain.insert_batch(chunk.to_vec());
    }
    plain.set_bandwidth(BANDWIDTH.to_vec());
    let sharded = sharded_bayes::<E>(1);
    let (plain_snapshot, sharded_snapshot) = (plain.snapshot(), sharded.snapshot());
    for q in queries() {
        let exact = plain.full_kernel_density(&q);
        for threshold in [exact, exact * 0.5, exact * 2.0, 1e-9] {
            for budget in BUDGETS {
                let reference = plain.outlier_score(&q, threshold, budget);
                assert_eq!(
                    plain_snapshot.outlier_score(&q, threshold, budget),
                    reference
                );
                assert_eq!(sharded.outlier_score(&q, threshold, budget), reference);
                assert_eq!(
                    sharded_snapshot.outlier_score(&q, threshold, budget),
                    reference,
                    "{} at {q:?}, threshold {threshold}, budget {budget}",
                    E::MODE
                );
            }
        }
    }
}

#[test]
fn sharded_bayes_outlier_scores_keep_the_total_budget() {
    assert_bayes_budget_is_total::<f64>();
    assert_bayes_budget_is_total::<f32>();
    assert_bayes_budget_is_total::<Quantized>();
}

#[test]
fn one_shard_bayes_outlier_scores_equal_the_plain_trees() {
    assert_bayes_one_shard_is_the_plain_tree::<f64>();
    assert_bayes_one_shard_is_the_plain_tree::<f32>();
    assert_bayes_one_shard_is_the_plain_tree::<Quantized>();
}

fn clus_stream() -> Vec<Vec<f64>> {
    points(200, 23)
}

#[test]
fn sharded_clustree_outlier_scores_keep_the_total_budget() {
    let bandwidth = [1.5; 3];
    for shards in [2, 3] {
        let mut tree: ShardedClusTree = ShardedClusTree::new(3, ClusTreeConfig::default(), shards);
        for (batch, chunk) in clus_stream().chunks(20).enumerate() {
            let _ = tree.insert_batch(chunk, batch as f64, 6);
        }
        let snapshot = tree.snapshot();
        for q in queries() {
            let threshold = tree
                .anytime_density(&q, &bandwidth, RefineOrder::BestFirst, usize::MAX)
                .estimate;
            for budget in BUDGETS {
                for (view, score) in [
                    (
                        "live",
                        tree.outlier_score(&q, &bandwidth, threshold, budget),
                    ),
                    (
                        "snapshot",
                        snapshot.outlier_score(&q, &bandwidth, threshold, budget),
                    ),
                ] {
                    assert!(
                        score.answer.nodes_read <= budget,
                        "K={shards} {view}: {} reads over budget {budget}",
                        score.answer.nodes_read
                    );
                }
            }
        }
    }
}

#[test]
fn one_shard_clustree_outlier_scores_equal_the_plain_trees() {
    let bandwidth = [1.5; 3];
    let mut plain = ClusTree::new(3, ClusTreeConfig::default());
    let mut sharded: ShardedClusTree = ShardedClusTree::new(3, ClusTreeConfig::default(), 1);
    for (batch, chunk) in clus_stream().chunks(20).enumerate() {
        let _ = plain.insert_batch(chunk, batch as f64, 6);
        let _ = sharded.insert_batch(chunk, batch as f64, 6);
    }
    let (plain_snapshot, sharded_snapshot) = (plain.snapshot(), sharded.snapshot());
    for q in queries() {
        let exact = plain
            .anytime_density(&q, &bandwidth, RefineOrder::BestFirst, usize::MAX)
            .estimate;
        for threshold in [exact, exact * 0.5, exact * 2.0] {
            for budget in BUDGETS {
                let reference = plain.outlier_score(&q, &bandwidth, threshold, budget);
                for score in [
                    plain_snapshot.outlier_score(&q, &bandwidth, threshold, budget),
                    sharded.outlier_score(&q, &bandwidth, threshold, budget),
                    sharded_snapshot.outlier_score(&q, &bandwidth, threshold, budget),
                ] {
                    assert_eq!(score, reference, "at {q:?}, threshold {threshold}");
                }
            }
        }
    }
}
