//! Property tests for the observability layer: recording must be an
//! *observational* change only, and recording the same work through
//! different engine paths must produce the same registry deltas.
//!
//! Locked down here (the histogram/registry merge algebra itself is
//! property-tested inside `bt-obs`):
//!
//! * a `ShardedBayesTree` with **one shard** folds exactly the metric
//!   deltas the plain tree records — the sharding-equivalence suite
//!   extended to the registry (insert, batched-density and outlier paths),
//! * a pinned snapshot answering the same query batch records the same
//!   *cache-independent* query counters as the live tree (the block-cache
//!   counters legitimately differ: snapshot and live tree share warm
//!   `Arc`-shared cache slots, so whoever queries second sees more hits),
//! * disabling recording freezes every tree counter while answers stay
//!   bit-identical — the observability layer cannot leak into results.
//!
//! All tests in this binary serialise on one lock: they read deltas of the
//! single process-global registry, so two concurrently recording workloads
//! would pollute each other's deltas.

use anytime_stream_mining::bayestree::{BayesTree, DescentStrategy, ShardedBayesTree};
use anytime_stream_mining::eval::RegistryCapture;
use anytime_stream_mining::index::PageGeometry;
use anytime_stream_mining::obs::Snapshot;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Every tree-layer counter the equivalence tests compare.
const TREE_COUNTERS: &[&str] = &[
    "bt_insert_objects_total",
    "bt_insert_reached_leaf_total",
    "bt_insert_parked_total",
    "bt_insert_batches_total",
    "bt_insert_node_visits_total",
    "bt_insert_summary_refreshes_total",
    "bt_insert_splits_total",
    "bt_insert_prefetches_total",
    "bt_queries_total",
    "bt_query_nodes_read_total",
    "bt_query_elements_scored_total",
    "bt_query_block_gathers_total",
    "bt_query_gathers_avoided_total",
    "bt_query_prefetches_total",
    "bt_queries_certified_total",
    "bt_queries_uncertain_total",
];

/// The query counters that do not depend on block-cache temperature —
/// live trees and their snapshots share cache slots, so only these are
/// comparable across that pair.
const CACHE_INDEPENDENT_COUNTERS: &[&str] = &[
    "bt_queries_total",
    "bt_query_nodes_read_total",
    "bt_query_elements_scored_total",
    "bt_queries_certified_total",
    "bt_queries_uncertain_total",
];

fn counter_values(delta: &Snapshot, names: &[&'static str]) -> Vec<(&'static str, u64)> {
    names.iter().map(|n| (*n, delta.counter(n))).collect()
}

/// Strategy producing a bounded set of 3-d points.
fn stream_strategy(max_len: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 3), 12..max_len)
}

fn geometry() -> PageGeometry {
    PageGeometry::from_fanout(4, 4)
}

/// The workload both sides of the sharded equivalence run: batched
/// construction, a batched density pass and an outlier certification.
struct Workload {
    points: Vec<Vec<f64>>,
    queries: Vec<Vec<f64>>,
    budget: usize,
}

impl Workload {
    /// Returns the registry deltas of the two phases separately: the
    /// insert + batched-density phase and the outlier phase.  Both are
    /// step-equivalent between plain and one-shard (the outlier phase runs
    /// the one outlier loop on a one-shard slice either way), so every
    /// counter and histogram is comparable in each.
    fn run_plain(&self) -> (Snapshot, Snapshot) {
        let capture = RegistryCapture::begin();
        let mut tree: BayesTree = BayesTree::new(3, geometry());
        for chunk in self.points.chunks(16) {
            tree.insert_batch(chunk.to_vec());
        }
        tree.set_bandwidth(vec![0.8, 0.8, 0.8]);
        let _ = tree.density_batch(&self.queries, DescentStrategy::default(), self.budget);
        let density = capture.delta();
        let capture = RegistryCapture::begin();
        let _ = tree.outlier_score(&self.queries[0], 1e-3, 30);
        (density, capture.delta())
    }

    fn run_one_shard(&self) -> (Snapshot, Snapshot) {
        let capture = RegistryCapture::begin();
        let mut sharded: ShardedBayesTree = ShardedBayesTree::new(3, geometry(), 1);
        for chunk in self.points.chunks(16) {
            let _ = sharded.insert_batch(chunk.to_vec());
        }
        sharded.set_bandwidth(vec![0.8, 0.8, 0.8]);
        let _ = sharded.density_batch(&self.queries, DescentStrategy::default(), self.budget);
        let density = capture.delta();
        let capture = RegistryCapture::begin();
        let _ = sharded.outlier_score(&self.queries[0], 1e-3, 30);
        (density, capture.delta())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One-shard sharding is metric-invisible: every tree counter delta —
    /// insert, query and verdict side — matches the plain tree's exactly,
    /// and so do the refinement histogram totals, in the density phase and
    /// in the outlier phase alike.
    #[test]
    fn one_shard_records_the_plain_trees_deltas(
        points in stream_strategy(100),
        qx in -6.0f64..6.0,
        budget in 0usize..32,
    ) {
        let _guard = registry_lock();
        let workload = Workload {
            points,
            queries: vec![vec![qx, -qx, qx * 0.5], vec![qx, qx, qx]],
            budget,
        };
        let (plain, plain_outlier) = workload.run_plain();
        let (sharded, sharded_outlier) = workload.run_one_shard();
        for (phase, plain, sharded) in [
            ("density", &plain, &sharded),
            ("outlier", &plain_outlier, &sharded_outlier),
        ] {
            prop_assert_eq!(
                counter_values(plain, TREE_COUNTERS),
                counter_values(sharded, TREE_COUNTERS),
                "{} phase", phase
            );
            for hist in ["bt_query_bound_width", "bt_refine_budget_spent", "bt_refine_bound_width"] {
                let (plain_count, plain_sum) = plain.histogram_totals(hist);
                let (sharded_count, sharded_sum) = sharded.histogram_totals(hist);
                prop_assert_eq!(plain_count, sharded_count, "{} phase: {} counts", phase, hist);
                prop_assert!(
                    (plain_sum - sharded_sum).abs() <= 1e-9 * (1.0 + plain_sum.abs()),
                    "{} phase: {} sums: plain {} vs one-shard {}",
                    phase, hist, plain_sum, sharded_sum
                );
            }
        }
    }

    /// A pinned snapshot answering the same batch records the same
    /// cache-independent query counters as the live tree, and the answers
    /// are bit-identical.
    #[test]
    fn snapshot_queries_record_the_live_trees_counters(
        points in stream_strategy(100),
        qx in -6.0f64..6.0,
        budget in 0usize..32,
    ) {
        let _guard = registry_lock();
        let mut tree: BayesTree = BayesTree::new(3, geometry());
        for chunk in points.chunks(16) {
            tree.insert_batch(chunk.to_vec());
        }
        tree.set_bandwidth(vec![0.8, 0.8, 0.8]);
        let queries = vec![vec![qx, -qx, qx * 0.5], vec![qx, qx, qx]];

        let live_capture = RegistryCapture::begin();
        let (live_answers, _) = tree.density_batch(&queries, DescentStrategy::default(), budget);
        let live = live_capture.delta();

        let snapshot = tree.snapshot();
        let snap_capture = RegistryCapture::begin();
        let (snap_answers, _) = snapshot.density_batch(&queries, DescentStrategy::default(), budget);
        let snap = snap_capture.delta();

        prop_assert_eq!(live_answers, snap_answers);
        prop_assert_eq!(
            counter_values(&live, CACHE_INDEPENDENT_COUNTERS),
            counter_values(&snap, CACHE_INDEPENDENT_COUNTERS)
        );
    }

    /// Disabling recording freezes every tree counter while the engine's
    /// answers stay bit-identical — metrics cannot leak into results.
    #[test]
    fn disabled_recording_freezes_counters_without_changing_answers(
        points in stream_strategy(80),
        qx in -6.0f64..6.0,
        budget in 0usize..32,
    ) {
        let _guard = registry_lock();
        let mut tree: BayesTree = BayesTree::new(3, geometry());
        for chunk in points.chunks(16) {
            tree.insert_batch(chunk.to_vec());
        }
        tree.set_bandwidth(vec![0.8, 0.8, 0.8]);
        let queries = vec![vec![qx, -qx, qx * 0.5]];

        let (enabled_answers, _) = tree.density_batch(&queries, DescentStrategy::default(), budget);

        anytime_stream_mining::obs::set_enabled(false);
        let capture = RegistryCapture::begin();
        let (disabled_answers, _) = tree.density_batch(&queries, DescentStrategy::default(), budget);
        let frozen = capture.delta();
        anytime_stream_mining::obs::set_enabled(true);

        prop_assert_eq!(enabled_answers, disabled_answers);
        for (name, value) in counter_values(&frozen, TREE_COUNTERS) {
            prop_assert_eq!(value, 0, "{} moved while recording was disabled", name);
        }
    }
}
