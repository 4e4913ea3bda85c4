//! The three workloads.  Each builds its inputs from the seed, sets up the
//! state every episode starts from, and runs episodes: one fixed,
//! seed-determined pass of closed-loop calls from one client.

use bayestree::{BayesTree, DescentStrategy, Quantized, ShardedBayesTree, StoredElement};
use bt_anytree::{CheapestRouter, InsertOutcome, OutlierScore, OutlierVerdict};
use bt_data::stream::DriftingStream;
use bt_data::{Dataset, PoissonStream, StreamItem, StreamSimulator};
use clustree::{ClusTree, ClusTreeConfig};

use crate::probe::{quantile, Op, Recorder, SplitMix};

pub const DIMS: usize = 16;
/// Objects per `insert_batch` call, and arrivals per ClusTree query round.
pub const BATCH: usize = 256;
/// Node-read budget of every `outlier_score` call.
pub const OUTLIER_BUDGET: usize = 48;
/// Shards of the `ingest-snapshot` tree.
pub const SHARDS: usize = 2;
/// Outlier queries against each post-batch snapshot.
const QUERIES_PER_SNAPSHOT: usize = 32;
/// `anytime_knn` calls per round of [`BATCH`] arrivals, their `k` and budget.
const KNN_PER_ROUND: usize = 16;
const KNN_K: usize = 10;
const KNN_BUDGET: usize = 16;
/// ClusTree decay rate per unit of stream time (one mean inter-arrival).
const DECAY_LAMBDA: f64 = 0.002;
/// Mean node reads an arrival's inter-arrival gap pays for.
const MEAN_INSERT_BUDGET: f64 = 4.0;
/// Every `CHECK_EVERY`-th answer of the first episode is checked against
/// the exact density, which costs a scan of every stored point.
const CHECK_EVERY: usize = 32;
/// Calibration queries for the outlier threshold: enough that the 5th
/// percentile, and with it the query cost, barely moves between seeds.
const CALIBRATION: usize = 1024;

/// What one workload contributes to the state-size metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct StateSize {
    pub nodes: usize,
    pub height: usize,
    pub micro_clusters: usize,
    pub bytes_per_scored_entry: usize,
}

pub trait Workload {
    /// Builds the state every episode starts from.  Called several times
    /// per run; each call replaces the previous state.
    fn setup(&mut self, rec: &mut Recorder);
    /// One pass of the timed loop.
    fn episode(&mut self, rec: &mut Recorder);
    /// Validates the state the last episode left and reports its size.
    fn finish(&mut self, rec: &mut Recorder) -> StateSize;
    /// Threads the timed calls keep busy at once.
    fn threads(&self) -> usize {
        1
    }
}

fn drifting_points(count: usize, seed: u64) -> Vec<Vec<f64>> {
    DriftingStream::new(4, DIMS, 0.3, 0.002, seed)
        .generate(count)
        .into_iter()
        .map(|(p, _)| p)
        .collect()
}

/// `p` moved by up to ±1 in every dimension.
fn jittered(p: &[f64], rng: &mut SplitMix) -> Vec<f64> {
    p.iter().map(|v| v + 2.0 * rng.next_f64() - 1.0).collect()
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(BATCH)
}

/// The 5th percentile of the exact density over the calibration queries:
/// low enough that most verdicts are inliers, close enough to the bulk that
/// certifying them takes real refinement.  The exact density depends only
/// on the points, so the first set-up derives it, untimed and on every CPU,
/// for all.
fn threshold(
    rec: &mut Recorder,
    known: Option<f64>,
    calibration: &[Vec<f64>],
    exact: impl Fn(&[f64]) -> f64 + Sync,
) -> f64 {
    known.unwrap_or_else(|| {
        rec.untimed(|| {
            let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
            let exact = &exact;
            let densities: Vec<f64> = std::thread::scope(|scope| {
                let parts: Vec<_> = calibration
                    .chunks(calibration.len().div_ceil(cpus))
                    .map(|part| {
                        scope.spawn(move || part.iter().map(|q| exact(q)).collect::<Vec<_>>())
                    })
                    .collect();
                parts
                    .into_iter()
                    .flat_map(|part| part.join().expect("calibration thread finished"))
                    .collect()
            });
            quantile(&densities, 0.05)
        })
    })
}

/// Checks that cost nothing next to the call: a finite, ordered bracket and
/// a budget that was kept.  Counted on every answer.  (The estimate is the
/// summaries' mixture approximation and may sit outside the bracket.)
fn check_outlier(rec: &mut Recorder, score: &OutlierScore, max_reads: usize) {
    let a = &score.answer;
    let ok = a.lower.is_finite()
        && a.upper.is_finite()
        && a.estimate.is_finite()
        && 0.0 <= a.lower
        && a.lower <= a.upper
        && a.nodes_read <= max_reads;
    rec.check(ok, || format!("malformed outlier answer {a:?}"));
}

/// The sampled exact check: the bracket holds the exact density and a
/// certified verdict agrees with it.
fn check_bracket(rec: &mut Recorder, score: &OutlierScore, exact: f64, threshold: f64) {
    let a = &score.answer;
    let slack = 1e-9 * exact.abs();
    let bracketed = a.lower <= exact + slack && exact <= a.upper + slack;
    let verdict_ok = match score.verdict {
        OutlierVerdict::Outlier => exact < threshold + slack,
        OutlierVerdict::Inlier => exact >= threshold - slack,
        OutlierVerdict::Undecided => true,
    };
    rec.check(bracketed && verdict_ok, || {
        format!(
            "exact density {exact} vs [{}, {}], verdict {:?} at threshold {threshold}",
            a.lower, a.upper, score.verdict
        )
    });
}

fn tally_outlier(rec: &mut Recorder, score: &OutlierScore) {
    if !rec.counting() {
        return;
    }
    let a = &score.answer;
    let t = &mut rec.tally;
    t.queries += 1;
    t.query_nodes_read += a.nodes_read as u64;
    t.certified += u64::from(score.verdict != OutlierVerdict::Undecided);
    t.width_rel_sum += (a.upper - a.lower) / a.estimate;
    t.bracketed += 1;
}

fn check_validate(rec: &mut Recorder, what: &str, result: Result<(), String>) {
    rec.check(result.is_ok(), || {
        format!("{what} failed validation: {}", result.unwrap_err())
    });
}

/// Bytes one block-scored directory entry streams: the stored CF sums
/// (LS + SS) and MBR corners at the stored width, plus the `f64` weight.
fn bytes_per_scored_entry<E: StoredElement>() -> usize {
    std::mem::size_of::<f64>() + DIMS * 4 * E::SCALAR_BYTES
}

/// Read-only, warm-cache anytime outlier scoring on an `f64` Bayes tree.
pub struct OutlierWarm {
    points: Vec<Vec<f64>>,
    calibration: Vec<Vec<f64>>,
    queries: Vec<Vec<f64>>,
    tree: Option<BayesTree<f64>>,
    threshold: Option<f64>,
}

impl OutlierWarm {
    #[must_use]
    pub fn new(seed: u64, scale: f64) -> Self {
        let points = drifting_points(scaled(65_536, scale), seed);
        let mut rng = SplitMix(seed ^ 0x07_1e4);
        let mut around = |n: usize| -> Vec<Vec<f64>> {
            (0..n)
                .map(|_| {
                    let i = (rng.next_u64() % points.len() as u64) as usize;
                    jittered(&points[i], &mut rng)
                })
                .collect()
        };
        let calibration = around(CALIBRATION);
        let queries = around(scaled(4_096, scale));
        Self {
            points,
            calibration,
            queries,
            tree: None,
            threshold: None,
        }
    }
}

impl Workload for OutlierWarm {
    fn setup(&mut self, rec: &mut Recorder) {
        self.tree = None;
        let mut tree = BayesTree::<f64>::new(DIMS, BayesTree::<f64>::paged_geometry(DIMS));
        for chunk in self.points.chunks(BATCH) {
            rec.boundary();
            let batch = chunk.to_vec();
            rec.time(Op::InsertBatch, batch.len() as u64, || {
                tree.insert_batch(batch)
            });
        }
        let threshold = threshold(rec, self.threshold, &self.calibration, |q| {
            tree.full_kernel_density(q)
        });
        self.threshold = Some(threshold);
        // Fill the block cache: the timed loop measures the warm regime.
        for (i, q) in self.queries.iter().enumerate() {
            if i % BATCH == 0 {
                rec.boundary();
            }
            std::hint::black_box(tree.outlier_score(q, threshold, OUTLIER_BUDGET));
        }
        self.tree = Some(tree);
    }

    fn episode(&mut self, rec: &mut Recorder) {
        let tree = self.tree.as_ref().expect("set up before use");
        let threshold = self.threshold.expect("set up before use");
        for (i, q) in self.queries.iter().enumerate() {
            if i % BATCH == 0 {
                if i > 0 {
                    rec.exit();
                }
                rec.enter("round");
            }
            let score = rec.time(Op::OutlierScore, 0, || {
                tree.outlier_score(q, threshold, OUTLIER_BUDGET)
            });
            check_outlier(rec, &score, OUTLIER_BUDGET);
            tally_outlier(rec, &score);
            if rec.counting() && i % CHECK_EVERY == 0 {
                let exact = rec.untimed(|| tree.full_kernel_density(q));
                check_bracket(rec, &score, exact, threshold);
            }
        }
        rec.exit();
    }

    fn finish(&mut self, rec: &mut Recorder) -> StateSize {
        let tree = self.tree.as_ref().expect("set up before use");
        let result = tree.validate(true);
        let size = StateSize {
            nodes: tree.num_nodes(),
            height: tree.height(),
            micro_clusters: 0,
            bytes_per_scored_entry: bytes_per_scored_entry::<f64>(),
        };
        check_validate(rec, "outlier-warm tree", result);
        size
    }
}

type IngestTree = ShardedBayesTree<CheapestRouter, Quantized>;

/// Sharded quantised ingest, with a snapshot and outlier reads near the
/// newest data after every batch.
pub struct IngestSnapshot {
    preload: Vec<Vec<f64>>,
    stream: Vec<Vec<f64>>,
    calibration: Vec<Vec<f64>>,
    /// [`QUERIES_PER_SNAPSHOT`] queries per stream batch, near that batch.
    queries: Vec<Vec<Vec<f64>>>,
    base: Option<IngestTree>,
    last: Option<IngestTree>,
    threshold: Option<f64>,
}

impl IngestSnapshot {
    #[must_use]
    pub fn new(seed: u64, scale: f64) -> Self {
        let preload_len = scaled(32_768, scale);
        let mut points = drifting_points(preload_len + scaled(16_384, scale), seed);
        let stream = points.split_off(preload_len);
        let mut rng = SplitMix(seed ^ 0x1_4e57);
        let calibration = (0..CALIBRATION)
            .map(|_| {
                let i = (rng.next_u64() % points.len() as u64) as usize;
                jittered(&points[i], &mut rng)
            })
            .collect();
        let queries = stream
            .chunks(BATCH)
            .map(|batch| {
                (0..QUERIES_PER_SNAPSHOT)
                    .map(|_| {
                        let i = (rng.next_u64() % batch.len() as u64) as usize;
                        jittered(&batch[i], &mut rng)
                    })
                    .collect()
            })
            .collect();
        Self {
            preload: points,
            stream,
            calibration,
            queries,
            base: None,
            last: None,
            threshold: None,
        }
    }
}

impl Workload for IngestSnapshot {
    fn setup(&mut self, rec: &mut Recorder) {
        self.base = None;
        self.last = None;
        let geometry = BayesTree::<Quantized>::paged_geometry(DIMS);
        let mut tree = IngestTree::new(DIMS, geometry, SHARDS);
        for chunk in self.preload.chunks(BATCH) {
            rec.boundary();
            let batch = chunk.to_vec();
            rec.time(Op::InsertBatch, batch.len() as u64, || {
                tree.insert_batch(batch)
            });
        }
        let threshold = threshold(rec, self.threshold, &self.calibration, |q| {
            tree.full_kernel_density(q)
        });
        self.threshold = Some(threshold);
        self.base = Some(tree);
    }

    fn episode(&mut self, rec: &mut Recorder) {
        self.last = None;
        let base = self.base.as_ref().expect("set up before use");
        let threshold = self.threshold.expect("set up before use");
        let mut tree = rec.untimed(|| base.clone());
        let max_reads = OUTLIER_BUDGET * SHARDS;
        for (chunk, queries) in self.stream.chunks(BATCH).zip(&self.queries) {
            rec.enter("batch");
            let batch = chunk.to_vec();
            let outcome = rec.time(Op::InsertBatch, batch.len() as u64, || {
                tree.insert_batch(batch)
            });
            let routed: usize = outcome.objects_per_shard.iter().sum();
            rec.check(routed == chunk.len(), || {
                format!("batch of {} routed {routed} objects", chunk.len())
            });
            if rec.counting() {
                let busiest = outcome.objects_per_shard.iter().max().copied().unwrap_or(0);
                rec.tally.max_share_sum += busiest as f64 / chunk.len() as f64;
                rec.tally.sharded_batches += 1;
                rec.tally.objects += chunk.len() as u64;
            }
            let snap = rec.time(Op::Snapshot, 0, || tree.snapshot());
            for (j, q) in queries.iter().enumerate() {
                let score = rec.time(Op::OutlierScore, 0, || {
                    snap.outlier_score(q, threshold, OUTLIER_BUDGET)
                });
                check_outlier(rec, &score, max_reads);
                tally_outlier(rec, &score);
                if rec.counting() && j % CHECK_EVERY == 0 {
                    let (exact, per_shard) = rec.untimed(|| {
                        let exact = tree.full_kernel_density(q);
                        let probe =
                            snap.anytime_density(q, DescentStrategy::default(), OUTLIER_BUDGET);
                        (exact, probe.per_shard_nodes)
                    });
                    check_bracket(rec, &score, exact, threshold);
                    let total: usize = per_shard.iter().sum();
                    if total > 0 {
                        let max = per_shard.iter().max().copied().unwrap_or(0);
                        let mean = total as f64 / per_shard.len() as f64;
                        rec.tally.read_imbalance_sum += max as f64 / mean;
                        rec.tally.read_probes += 1;
                    }
                }
            }
            // Release the snapshot's pinned epochs inside the batch span.
            drop(snap);
            rec.exit();
        }
        self.last = Some(tree);
    }

    fn finish(&mut self, rec: &mut Recorder) -> StateSize {
        let tree = self.last.as_ref().expect("an episode ran");
        let result = tree.validate();
        let size = StateSize {
            nodes: tree.num_nodes(),
            height: tree.height(),
            micro_clusters: 0,
            bytes_per_scored_entry: bytes_per_scored_entry::<Quantized>(),
        };
        check_validate(rec, "ingest-snapshot tree", result);
        size
    }

    fn threads(&self) -> usize {
        SHARDS
    }
}

/// The paper's varying stream on a ClusTree: every arrival gets the node
/// reads its exponential inter-arrival gap pays for, with periodic anytime
/// k-NN reads.
pub struct ClusTreeVarying {
    warm: Vec<StreamItem>,
    arrivals: Vec<StreamItem>,
    /// [`KNN_PER_ROUND`] queries per round of [`BATCH`] arrivals.
    queries: Vec<Vec<Vec<f64>>>,
    base: Option<ClusTree>,
    last: Option<ClusTree>,
}

impl ClusTreeVarying {
    #[must_use]
    pub fn new(seed: u64, scale: f64) -> Self {
        let warm_len = scaled(65_536, scale);
        let points = drifting_points(warm_len + scaled(98_304, scale), seed);
        let labels = vec![0; points.len()];
        let dataset = Dataset::from_parts("drifting", DIMS, vec!["all".into()], points, labels);
        // Mean inter-arrival 1 time unit; a node read costs 1 / budget of it.
        let mut items =
            PoissonStream::new(1.0, 1.0 / MEAN_INSERT_BUDGET, seed ^ 0xc105).simulate(&dataset);
        let arrivals = items.split_off(warm_len);
        let mut rng = SplitMix(seed ^ 0x7_e1e);
        let queries = arrivals
            .chunks(BATCH)
            .map(|round| {
                (0..KNN_PER_ROUND)
                    .map(|_| {
                        let i = (rng.next_u64() % round.len() as u64) as usize;
                        jittered(&round[i].features, &mut rng)
                    })
                    .collect()
            })
            .collect();
        Self {
            warm: items,
            arrivals,
            queries,
            base: None,
            last: None,
        }
    }
}

fn insert_arrival(rec: &mut Recorder, tree: &mut ClusTree, item: &StreamItem) {
    let outcome = rec.time(Op::Insert, 1, || {
        tree.insert(&item.features, item.arrival_time, item.node_budget)
    });
    let depth = match outcome {
        InsertOutcome::ReachedLeaf => None,
        InsertOutcome::Parked { depth } => Some(depth),
    };
    let height = tree.height();
    rec.check(depth.is_none_or(|d| d >= 1 && d <= height), || {
        format!("object parked at depth {depth:?} of a height-{height} tree")
    });
    if rec.counting() {
        rec.tally.objects += 1;
        if let Some(d) = depth {
            rec.tally.parked += 1;
            rec.tally.parked_depth_sum += d as u64;
        }
    }
}

impl Workload for ClusTreeVarying {
    fn setup(&mut self, rec: &mut Recorder) {
        self.base = None;
        self.last = None;
        let config = ClusTreeConfig {
            decay_lambda: DECAY_LAMBDA,
            ..ClusTreeConfig::default()
        };
        let mut tree = ClusTree::new(DIMS, config);
        for round in self.warm.chunks(BATCH) {
            rec.boundary();
            for item in round {
                insert_arrival(rec, &mut tree, item);
            }
        }
        self.base = Some(tree);
    }

    fn episode(&mut self, rec: &mut Recorder) {
        self.last = None;
        let base = self.base.as_ref().expect("set up before use");
        let mut tree = rec.untimed(|| base.clone());
        for (round, queries) in self.arrivals.chunks(BATCH).zip(&self.queries) {
            rec.enter("round");
            for item in round {
                insert_arrival(rec, &mut tree, item);
            }
            for (j, q) in queries.iter().enumerate() {
                let answer = rec.time(Op::AnytimeKnn, 0, || tree.anytime_knn(q, KNN_K, KNN_BUDGET));
                let n = &answer.neighbors;
                let ok = !n.is_empty()
                    && n.len() <= KNN_K
                    && answer.nodes_read <= KNN_BUDGET
                    && n.windows(2).all(|w| w[0].sq_dist <= w[1].sq_dist)
                    && n.iter()
                        .all(|c| c.weight.is_finite() && c.sq_dist.is_finite());
                rec.check(ok, || format!("malformed k-NN answer {answer:?}"));
                if rec.counting() {
                    rec.tally.queries += 1;
                    rec.tally.query_nodes_read += answer.nodes_read as u64;
                    if j % (CHECK_EVERY / 2) == 0 {
                        // Each reported distance is the query's distance to
                        // the reported centre.
                        let consistent = n.iter().all(|c| {
                            let d: f64 = c.center.iter().zip(q).map(|(a, b)| (a - b).powi(2)).sum();
                            (d - c.sq_dist).abs() <= 1e-9 * d.max(1.0)
                        });
                        rec.check(consistent, || {
                            format!("k-NN distances disagree with centres: {answer:?}")
                        });
                    }
                }
            }
            rec.exit();
        }
        self.last = Some(tree);
    }

    fn finish(&mut self, rec: &mut Recorder) -> StateSize {
        let tree = self.last.as_ref().expect("an episode ran");
        let result = tree.validate();
        let size = StateSize {
            nodes: tree.num_nodes(),
            height: tree.height(),
            micro_clusters: tree.num_micro_clusters(),
            bytes_per_scored_entry: 0,
        };
        check_validate(rec, "clustree-varying tree", result);
        size
    }
}
