//! Property tests for the sharded query path: sharding must be an
//! *organisational* change on the query side too, never an observable one.
//!
//! Locked down for both instantiations (Bayes tree and ClusTree):
//!
//! * a `Sharded*Tree` with **one shard** answers every anytime query
//!   exactly like the plain tree — estimates, certain bounds, node reads,
//!   outlier scores and retrieved neighbours,
//! * at **any shard count** the fully refined folded answer equals the
//!   plain tree's fully refined answer (the mixture sum does not care how
//!   the kernels are partitioned), and the folded bound interval is
//!   monotone in the per-shard budget.

use anytime_stream_mining::anytree::{QueryElement, RefineOrder};
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn one_shard_bayes_queries_match_the_plain_tree(
        points in stream_strategy(120),
        qx in -6.0f64..6.0,
        budget in 0usize..40,
    ) {
        let mut plain: BayesTree = BayesTree::new(3, geometry());
        let mut sharded: ShardedBayesTree = ShardedBayesTree::new(3, geometry(), 1);
        for chunk in points.chunks(16) {
            plain.insert_batch(chunk.to_vec());
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        let bandwidth = vec![0.8, 0.8, 0.8];
        plain.set_bandwidth(bandwidth.clone());
        sharded.set_bandwidth(bandwidth);
        let query = vec![qx, -qx, qx * 0.5];
        for strategy in DescentStrategy::all() {
            let reference = plain.anytime_density(&query, strategy, budget);
            let folded = sharded.anytime_density(&query, strategy, budget);
            prop_assert_eq!(folded.as_answer(), reference, "strategy {:?}", strategy);
        }
        let score_plain = plain.outlier_score(&query, 1e-3, 30);
        let score_sharded = sharded.outlier_score(&query, 1e-3, 30);
        prop_assert_eq!(score_plain, score_sharded);
    }

    #[test]
    fn sharded_bayes_full_refinement_is_partition_invariant(
        points in stream_strategy(100),
        shards in 2usize..5,
        qx in -6.0f64..6.0,
    ) {
        let mut plain: BayesTree = BayesTree::new(3, geometry());
        let mut sharded: ShardedBayesTree = ShardedBayesTree::new(3, geometry(), shards);
        for chunk in points.chunks(16) {
            plain.insert_batch(chunk.to_vec());
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        let bandwidth = vec![0.6, 0.9, 0.7];
        plain.set_bandwidth(bandwidth.clone());
        sharded.set_bandwidth(bandwidth);
        let query = vec![qx, qx, qx];
        let reference = plain.anytime_density(&query, DescentStrategy::default(), usize::MAX);
        let folded = sharded.anytime_density(&query, DescentStrategy::default(), usize::MAX);
        prop_assert!(
            (folded.estimate - reference.estimate).abs() <= 1e-9 * (1.0 + reference.estimate),
            "fully refined fold {} vs plain {}", folded.estimate, reference.estimate
        );
        prop_assert!(folded.uncertainty() < 1e-12);
        // Folded bounds are monotone in the per-shard budget.
        let mut last = f64::INFINITY;
        for budget in [0usize, 1, 2, 4, 8, 16] {
            let answer = sharded.anytime_density(&query, DescentStrategy::default(), budget);
            prop_assert!(answer.uncertainty() <= last + 1e-12);
            last = answer.uncertainty();
        }
        // Every shard routed some share of the points.
        prop_assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), points.len());
    }

    #[test]
    fn one_shard_clustree_queries_match_the_plain_tree(
        points in stream_strategy(100),
        insert_budget in 0usize..8,
        qx in -6.0f64..6.0,
        query_budget in 0usize..30,
    ) {
        let mut plain = ClusTree::new(3, ClusTreeConfig::default());
        let mut sharded: ShardedClusTree = ShardedClusTree::new(3, ClusTreeConfig::default(), 1);
        for (batch_idx, chunk) in points.chunks(12).enumerate() {
            let _ = plain.insert_batch(chunk, batch_idx as f64, insert_budget);
            let _ = sharded.insert_batch(chunk, batch_idx as f64, insert_budget);
        }
        let bandwidth = [1.5, 1.5, 1.5];
        let query = vec![qx, qx * 0.5, -qx];
        let reference = plain.anytime_density(&query, &bandwidth, RefineOrder::BestFirst, query_budget);
        let folded = sharded.anytime_density(&query, &bandwidth, RefineOrder::BestFirst, query_budget);
        prop_assert_eq!(folded.as_answer(), reference);
        let knn_plain = plain.anytime_knn(&query, 3, query_budget);
        let knn_sharded = sharded.anytime_knn(&query, 3, query_budget);
        prop_assert_eq!(knn_plain.nodes_read, knn_sharded.nodes_read);
        prop_assert_eq!(knn_plain.neighbors.len(), knn_sharded.neighbors.len());
        for (a, b) in knn_plain.neighbors.iter().zip(&knn_sharded.neighbors) {
            prop_assert_eq!(&a.center, &b.center);
            prop_assert_eq!(a.sq_dist, b.sq_dist);
            prop_assert_eq!(a.depth, b.depth);
            prop_assert_eq!(a.refinable, b.refinable);
        }
    }
}

/// The reference linear-scan selection: the index of the refinable element
/// `order` refines next, read off the public [`QueryElement`] fields.
///
/// This is the executable specification of the orderings (tie-breaking
/// included: FIFO for the minimising orders, earliest-joined-wins for the
/// maximising ones), deliberately matching the historical Bayes-tree
/// frontier step for step.  The engine selects through a per-order lazy
/// heap; the property tests below lock the two onto the same sequence.
fn scan_select(elements: &[QueryElement], order: RefineOrder) -> Option<usize> {
    let refinable = elements
        .iter()
        .enumerate()
        .filter(|(_, e)| e.is_refinable());
    match order {
        RefineOrder::BreadthFirst => refinable
            .min_by(|(_, a), (_, b)| a.depth.cmp(&b.depth).then(a.seq.cmp(&b.seq)))
            .map(|(i, _)| i),
        RefineOrder::DepthFirst => refinable
            .max_by(|(_, a), (_, b)| a.depth.cmp(&b.depth).then(a.seq.cmp(&b.seq)))
            .map(|(i, _)| i),
        RefineOrder::ClosestFirst => refinable
            .min_by(|(_, a), (_, b)| {
                a.min_dist_sq
                    .partial_cmp(&b.min_dist_sq)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.seq.cmp(&b.seq))
            })
            .map(|(i, _)| i),
        RefineOrder::BestFirst => refinable
            .max_by(|(_, a), (_, b)| {
                a.contribution
                    .partial_cmp(&b.contribution)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.seq.cmp(&a.seq))
            })
            .map(|(i, _)| i),
        RefineOrder::WidestBound => refinable
            .max_by(|(_, a), (_, b)| {
                (a.upper - a.lower)
                    .partial_cmp(&(b.upper - b.lower))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.seq.cmp(&a.seq))
            })
            .map(|(i, _)| i),
    }
}

/// Every [`RefineOrder`], exercised by the lazy-heap-vs-reference-scan
/// property tests below.
const ALL_ORDERS: [RefineOrder; 5] = [
    RefineOrder::BreadthFirst,
    RefineOrder::DepthFirst,
    RefineOrder::ClosestFirst,
    RefineOrder::BestFirst,
    RefineOrder::WidestBound,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The cursor's per-order lazy heap must pop **the identical element
    /// sequence** as the reference linear scan, for every `RefineOrder`:
    /// before each refinement the heap's choice (`peek_next`, what
    /// `refine_query` consumes) is compared against the scan's
    /// (`scan_select`), all the way to frontier exhaustion.
    #[test]
    fn bayes_heap_selection_pops_the_scan_sequence(
        points in stream_strategy(100),
        qx in -6.0f64..6.0,
    ) {
        use anytime_stream_mining::anytree::TreeView;
        let mut tree: BayesTree = BayesTree::new(3, geometry());
        for chunk in points.chunks(16) {
            tree.insert_batch(chunk.to_vec());
        }
        tree.set_bandwidth(vec![0.8, 0.9, 0.7]);
        let snapshot = tree.snapshot();
        let model = snapshot.query_model();
        let query = vec![qx, -qx, qx * 0.5];
        for order in ALL_ORDERS {
            let mut cursor = snapshot.shards()[0].new_query(&model, &query);
            let mut steps = 0usize;
            loop {
                let scan = scan_select(cursor.elements(), order);
                let heap = cursor.peek_next(order);
                prop_assert_eq!(heap, scan, "{:?} diverged at step {}", order, steps);
                if !snapshot.shards()[0].refine_query(&model, order, &mut cursor) {
                    prop_assert!(scan.is_none());
                    break;
                }
                steps += 1;
            }
        }
    }

    #[test]
    fn clustree_heap_selection_pops_the_scan_sequence(
        points in stream_strategy(90),
        insert_budget in 0usize..8,
        qx in -6.0f64..6.0,
    ) {
        use anytime_stream_mining::anytree::TreeView;
        let mut tree = ClusTree::new(3, ClusTreeConfig::default());
        for (batch_idx, chunk) in points.chunks(12).enumerate() {
            let _ = tree.insert_batch(chunk, batch_idx as f64, insert_budget);
        }
        let model = tree.query_model(&[1.3, 1.3, 1.3]);
        let query = vec![qx * 0.5, qx, -qx];
        for order in ALL_ORDERS {
            let mut cursor = tree.core().new_query(&model, &query);
            let mut steps = 0usize;
            loop {
                let scan = scan_select(cursor.elements(), order);
                let heap = cursor.peek_next(order);
                prop_assert_eq!(heap, scan, "{:?} diverged at step {}", order, steps);
                if !tree.core().refine_query(&model, order, &mut cursor) {
                    prop_assert!(scan.is_none());
                    break;
                }
                steps += 1;
            }
        }
    }

    /// Switching the order mid-query rebuilds the heap; selection must stay
    /// scan-identical across the switch.
    #[test]
    fn heap_survives_order_switches_mid_query(
        points in stream_strategy(80),
        qx in -6.0f64..6.0,
        switch in 0usize..5,
    ) {
        use anytime_stream_mining::anytree::TreeView;
        let mut tree: BayesTree = BayesTree::new(3, geometry());
        for chunk in points.chunks(16) {
            tree.insert_batch(chunk.to_vec());
        }
        let snapshot = tree.snapshot();
        let model = snapshot.query_model();
        let query = vec![qx, qx, qx];
        let mut cursor = snapshot.shards()[0].new_query(&model, &query);
        let mut order = ALL_ORDERS[switch % ALL_ORDERS.len()];
        let mut step = 0usize;
        loop {
            let scan = scan_select(cursor.elements(), order);
            prop_assert_eq!(cursor.peek_next(order), scan, "{:?} at step {}", order, step);
            if !snapshot.shards()[0].refine_query(&model, order, &mut cursor) {
                break;
            }
            step += 1;
            if step.is_multiple_of(3) {
                order = ALL_ORDERS[(switch + step) % ALL_ORDERS.len()];
            }
        }
    }
}
