//! Property tests for epoch-versioned snapshot isolation: a pinned snapshot
//! answers **bit-identically to the pre-batch tree** while a batch commits
//! concurrently.
//!
//! Locked down for both instantiations (Bayes tree and ClusTree) and their
//! sharded variants:
//!
//! * a snapshot pinned before a batch returns exactly the pre-batch
//!   density / k-NN answers even while a writer thread is mutating the tree
//!   at the same time (the writes copy-on-write every node the snapshot
//!   still pins),
//! * the sharded **pipelined mode** ([`pipelined_batch`]) — writers drain a
//!   mini-batch per shard while readers refine against the pre-batch
//!   snapshot — returns exactly the answers `query_batch` gave before the
//!   batch,
//! * the no-reader fast path never copies a node, and dropping the last
//!   snapshot unpins its epoch.

use anytime_stream_mining::anytree::RefineOrder;
use anytime_stream_mining::bayestree::{BayesTree, DescentStrategy, ShardedBayesTree};
use anytime_stream_mining::clustree::{ClusTree, ClusTreeConfig, ShardedClusTree};
use anytime_stream_mining::index::PageGeometry;
use proptest::prelude::*;

/// Strategy producing a bounded set of 3-d points.
fn stream_strategy(max_len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 3), 12..max_len)
}

fn geometry() -> PageGeometry {
    PageGeometry::from_fanout(4, 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn bayes_snapshot_is_isolated_from_a_concurrent_batch(
        points in stream_strategy(100),
        extra in stream_strategy(100),
        qx in -6.0f64..6.0,
        budget in 0usize..40,
    ) {
        let mut tree: BayesTree = BayesTree::new(3, geometry());
        for chunk in points.chunks(16) {
            tree.insert_batch(chunk.to_vec());
        }
        tree.set_bandwidth(vec![0.8, 0.8, 0.8]);
        let pre_batch = tree.clone();
        let snapshot = tree.snapshot();
        let queries = vec![vec![qx, -qx, qx * 0.5], vec![0.0, 0.0, 0.0]];

        // Query the snapshot WHILE a writer thread commits the next batch.
        let mut concurrent = Vec::new();
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for chunk in extra.chunks(8) {
                    tree.insert_batch(chunk.to_vec());
                }
            });
            for q in &queries {
                concurrent.push(snapshot.anytime_density(q, DescentStrategy::default(), budget));
            }
            writer.join().expect("writer thread");
        });

        // Bit-identical to the pre-batch tree, during and after the batch.
        for (q, got) in queries.iter().zip(&concurrent) {
            let expected = pre_batch.anytime_density(q, DescentStrategy::default(), budget);
            prop_assert_eq!(got.as_answer(), expected);
            prop_assert_eq!(
                snapshot.anytime_density(q, DescentStrategy::default(), budget).as_answer(),
                expected
            );
        }
        prop_assert_eq!(snapshot.len(), pre_batch.len());
    }

    #[test]
    fn clustree_snapshot_is_isolated_from_a_concurrent_batch(
        points in stream_strategy(90),
        extra in stream_strategy(90),
        qx in -6.0f64..6.0,
        budget in 0usize..30,
    ) {
        let mut tree = ClusTree::new(3, ClusTreeConfig::default());
        for (i, chunk) in points.chunks(12).enumerate() {
            let _ = tree.insert_batch(chunk, i as f64, 4);
        }
        let pre_batch = tree.clone();
        let snapshot = tree.snapshot();
        let bandwidth = [1.2, 1.2, 1.2];
        let query = vec![qx, qx * 0.3, -qx];

        let mut concurrent_density = None;
        let mut concurrent_knn = None;
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for (i, chunk) in extra.chunks(8).enumerate() {
                    let _ = tree.insert_batch(chunk, 100.0 + i as f64, 4);
                }
            });
            concurrent_density =
                Some(snapshot.anytime_density(&query, &bandwidth, RefineOrder::WidestBound, budget));
            concurrent_knn = Some(snapshot.anytime_knn(&query, 3, budget));
            writer.join().expect("writer thread");
        });

        let expected =
            pre_batch.anytime_density(&query, &bandwidth, RefineOrder::WidestBound, budget);
        prop_assert_eq!(concurrent_density.unwrap().as_answer(), expected);
        let expected_knn = pre_batch.anytime_knn(&query, 3, budget);
        let got_knn = concurrent_knn.unwrap();
        prop_assert_eq!(got_knn.nodes_read, expected_knn.nodes_read);
        prop_assert_eq!(got_knn.neighbors.len(), expected_knn.neighbors.len());
        for (a, b) in got_knn.neighbors.iter().zip(&expected_knn.neighbors) {
            prop_assert_eq!(&a.center, &b.center);
            prop_assert_eq!(a.weight, b.weight);
            prop_assert_eq!(a.sq_dist, b.sq_dist);
            prop_assert_eq!(a.depth, b.depth);
        }
    }

    #[test]
    fn sharded_bayes_pipelined_batch_returns_pre_batch_answers(
        points in stream_strategy(100),
        extra in stream_strategy(100),
        shards in 1usize..5,
        budget in 0usize..30,
    ) {
        let mut tree: ShardedBayesTree = ShardedBayesTree::new(3, geometry(), shards);
        for chunk in points.chunks(16) {
            let _ = tree.insert_batch(chunk.to_vec());
        }
        tree.set_bandwidth(vec![0.7, 0.9, 0.8]);
        let queries: Vec<Vec<f64>> = points.iter().take(4).cloned().collect();

        // The reference: what the live tree answers BEFORE the batch.
        let (expected, _) = tree.density_batch(&queries, DescentStrategy::default(), budget);
        // Snapshot taken before the batch answers identically...
        let snapshot = tree.snapshot();
        // ...and the pipelined batch's readers must return exactly that.
        let outcome =
            tree.pipelined_batch(extra.clone(), &queries, DescentStrategy::default(), budget);
        prop_assert_eq!(outcome.insert.outcomes.len(), extra.len());
        prop_assert_eq!(&outcome.answers, &expected);
        let (from_snapshot, _) = snapshot.density_batch(&queries, DescentStrategy::default(), budget);
        prop_assert_eq!(&from_snapshot, &expected);
        // The live tree has moved on to the post-batch state.
        prop_assert_eq!(tree.len(), points.len() + extra.len());
        tree.validate().expect("valid after pipelined batch");
    }

    #[test]
    fn sharded_clustree_pipelined_batch_returns_pre_batch_answers(
        points in stream_strategy(90),
        extra in stream_strategy(90),
        shards in 1usize..4,
        budget in 0usize..25,
    ) {
        let mut tree: ShardedClusTree = ShardedClusTree::new(3, ClusTreeConfig::default(), shards);
        for (i, chunk) in points.chunks(12).enumerate() {
            let _ = tree.insert_batch(chunk, i as f64, 4);
        }
        let bandwidth = [1.5, 1.5, 1.5];
        let queries: Vec<Vec<f64>> = points.iter().take(3).cloned().collect();

        let (expected, _) =
            tree.density_batch(&queries, &bandwidth, RefineOrder::BestFirst, budget);
        let outcome = tree.pipelined_batch(
            &extra,
            1_000.0,
            4,
            &queries,
            &bandwidth,
            RefineOrder::BestFirst,
            budget,
        );
        prop_assert_eq!(outcome.insert.outcomes.len(), extra.len());
        prop_assert_eq!(&outcome.answers, &expected);
        prop_assert_eq!(tree.len(), points.len() + extra.len());
        tree.validate().expect("valid after pipelined batch");
    }
}

#[test]
fn no_reader_fast_path_never_copies_and_pins_release() {
    let mut tree: BayesTree = BayesTree::new(3, geometry());
    let points: Vec<Vec<f64>> = (0..200)
        .map(|i| vec![(i % 13) as f64, (i % 7) as f64, (i % 5) as f64])
        .collect();
    for chunk in points.chunks(20) {
        tree.insert_batch(chunk.to_vec());
    }
    assert_eq!(tree.retired_nodes(), 0);

    let snapshot = tree.snapshot();
    assert_eq!(tree.pinned_snapshots(), 1);
    assert_eq!(snapshot.epochs()[0], tree.epoch());
    tree.insert_batch(points[..40].to_vec());
    let copied = tree.retired_nodes();
    assert!(copied > 0, "pinned snapshot forces copy-on-write");
    drop(snapshot);
    assert_eq!(tree.pinned_snapshots(), 0);
    tree.insert_batch(points[..40].to_vec());
    assert_eq!(
        tree.retired_nodes(),
        copied,
        "unpinned writes go in place again"
    );
}

#[test]
fn clustree_counters_mirror_the_bayes_tree() {
    let mut tree = ClusTree::new(2, ClusTreeConfig::default());
    for i in 0..120 {
        tree.insert(&[(i % 11) as f64, (i % 7) as f64], i as f64, 6);
    }
    assert_eq!(tree.retired_nodes(), 0);
    assert_eq!(tree.epoch(), 120);
    let snapshot = tree.snapshot();
    assert_eq!(tree.pinned_snapshots(), 1);
    tree.insert(&[0.0, 0.0], 121.0, 6);
    assert!(tree.retired_nodes() > 0);
    drop(snapshot);
    assert_eq!(tree.pinned_snapshots(), 0);
}
