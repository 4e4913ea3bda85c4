//! Boundary glue between the tree engine and the [`bt_obs`] registry.
//!
//! The engine's hot loops never touch an atomic: descent and refinement
//! keep accumulating into the existing [`DescentStats`] / [`QueryStats`]
//! structs (which thereby become thin local views of the metric
//! catalogue), and the helpers here fold the accumulated deltas into the
//! global registry **once per batch or query boundary** — the merge
//! discipline `bt_obs`'s `MetricsHandle` codifies.  Every helper is a
//! no-op behind [`bt_obs::enabled`]'s single relaxed-atomic check, and
//! the span-trace emissions are additionally gated on
//! [`bt_obs::tracing`] (off by default).

use std::time::Instant;

use bt_obs::{tree_metrics, HistogramId, MetricsHandle, TraceEvent};

use crate::arena::SnapshotRefresh;
use crate::descent::{DepthHistogram, DescentStats};
use crate::query::{OutlierVerdict, QueryAnswer, QueryStats};

/// Starts a wall-clock timer only while metric recording is on, so
/// disabled runs never call [`Instant::now`].
#[inline]
#[must_use]
pub fn boundary_timer() -> Option<Instant> {
    bt_obs::enabled().then(Instant::now)
}

#[inline]
fn elapsed_ns(started: Option<Instant>) -> Option<u64> {
    started.map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// Folds one finished insert batch into the registry: the
/// [`DescentStats`] delta, the outcome split from the [`DepthHistogram`],
/// the batch latency and a `finish_batch` span event.
pub(crate) fn record_insert_batch(
    stats: &DescentStats,
    depths: &DepthHistogram,
    started: Option<Instant>,
    height: usize,
) {
    if !bt_obs::enabled() {
        return;
    }
    let m = tree_metrics();
    let reached = depths.reached_leaf as u64;
    let parked = depths.parked_total() as u64;
    m.insert_objects.add(reached + parked);
    m.insert_reached_leaf.add(reached);
    m.insert_parked.add(parked);
    m.insert_batches.add(stats.batches);
    m.insert_node_visits.add(stats.node_visits);
    m.insert_summary_refreshes.add(stats.summary_refreshes);
    m.insert_splits.add(stats.splits);
    m.insert_prefetches.add(stats.prefetches);
    m.tree_height.set(height as f64);
    if let Some(ns) = elapsed_ns(started) {
        m.batch_latency_ns.observe(ns as f64);
        bt_obs::trace(|| TraceEvent::FinishBatch {
            objects: reached + parked,
            splits: stats.splits,
            latency_ns: ns,
        });
    }
}

/// Folds a [`QueryStats`] delta into the registry's query counters.
pub(crate) fn record_query_stats(delta: &QueryStats) {
    if !bt_obs::enabled() {
        return;
    }
    let m = tree_metrics();
    m.queries.add(delta.queries);
    m.query_nodes_read.add(delta.nodes_read);
    m.query_elements_scored.add(delta.elements_scored);
    m.query_block_gathers.add(delta.block_gathers);
    m.query_gathers_avoided.add(delta.gathers_avoided);
    m.query_prefetches.add(delta.prefetches);
}

/// Records one answered query: latency, final bound width and the budget
/// it spent.
pub(crate) fn record_query_answer(answer: &QueryAnswer, started: Option<Instant>) {
    if !bt_obs::enabled() {
        return;
    }
    let m = tree_metrics();
    m.query_bound_width.observe(answer.uncertainty());
    m.refine_budget_spent.observe(answer.nodes_read as f64);
    if let Some(ns) = elapsed_ns(started) {
        m.query_latency_ns.observe(ns as f64);
    }
}

/// Folds an externally driven refinement loop into the registry as one
/// query boundary: the cursor's [`QueryStats`] delta plus the loop's
/// wall-clock latency.
///
/// The engine's own read paths (`ShardSet::query_with_budget`,
/// `query_batch` and `outlier_score`) record themselves; downstream crates that drive
/// cursors directly through `new_query` + `refine_query` — the k-NN
/// retrieval in `clustree` does — call this when their loop finishes,
/// pairing it with [`boundary_timer`] at the start.
pub fn record_external_query(delta: &QueryStats, started: Option<Instant>) {
    if !bt_obs::enabled() {
        return;
    }
    record_query_stats(delta);
    if let Some(ns) = elapsed_ns(started) {
        tree_metrics().query_latency_ns.observe(ns as f64);
    }
}

/// Per-batch recorder for [`ShardSet::query_batch`]'s per-answer
/// observations, one per folded answer whatever the shard count: buffers
/// latency / bound-width / budget histograms in a [`MetricsHandle`] and
/// merges them (plus the shards' merged [`QueryStats`] delta) into the
/// registry with one atomic op per metric when the batch finishes.  Costs nothing but the enabled check when recording is off.
///
/// Latency is clocked **once per batch**, not per answer: clock reads can
/// cost microseconds under virtualised timers, so each answered query is
/// recorded at the batch's mean — the histogram's count and sum stay
/// exact while the batched hot loop never touches the clock.
///
/// [`ShardSet::query_batch`]: crate::ShardSet::query_batch
pub(crate) struct QueryBatchRecorder(Option<RecorderInner>);

struct RecorderInner {
    handle: MetricsHandle,
    latency_ns: HistogramId,
    bound_width: HistogramId,
    budget_spent: HistogramId,
    started: Instant,
    answered: u64,
}

impl QueryBatchRecorder {
    pub(crate) fn new() -> Self {
        if !bt_obs::enabled() {
            return Self(None);
        }
        let m = tree_metrics();
        let mut handle = MetricsHandle::new();
        let latency_ns = handle.histogram(&m.query_latency_ns);
        let bound_width = handle.histogram(&m.query_bound_width);
        let budget_spent = handle.histogram(&m.refine_budget_spent);
        Self(Some(RecorderInner {
            handle,
            latency_ns,
            bound_width,
            budget_spent,
            started: Instant::now(),
            answered: 0,
        }))
    }

    /// Buffers one answered query's observations locally.
    #[inline]
    pub(crate) fn record(&mut self, answer: &QueryAnswer) {
        let Some(inner) = &mut self.0 else {
            return;
        };
        inner.answered += 1;
        inner
            .handle
            .observe(inner.bound_width, answer.uncertainty());
        inner
            .handle
            .observe(inner.budget_spent, answer.nodes_read as f64);
    }

    /// Merges the buffered observations and the batch's [`QueryStats`]
    /// delta into the registry, spreading the batch's wall-clock evenly
    /// over the answered queries.
    pub(crate) fn finish(mut self, stats: &QueryStats) {
        if let Some(inner) = &mut self.0 {
            if inner.answered > 0 {
                let total = elapsed_ns(Some(inner.started)).unwrap_or(0);
                let mean = total as f64 / inner.answered as f64;
                for _ in 0..inner.answered {
                    inner.handle.observe(inner.latency_ns, mean);
                }
            }
            inner.handle.flush();
            record_query_stats(stats);
        }
    }
}

/// Records one refinement round of an anytime verdict loop — the
/// refinement trace: bound width into the registry histogram plus a
/// `refine_step` span event carrying (budget spent, width, certified?).
#[inline]
pub(crate) fn record_refine_step(round: u32, budget_spent: u64, width: f64, certified: bool) {
    if bt_obs::enabled() {
        tree_metrics().refine_bound_width.observe(width);
    }
    bt_obs::trace(|| TraceEvent::RefineStep {
        round,
        budget_spent,
        bound_width: width,
        certified,
    });
}

/// Records the verdict of a finished outlier/density certification.
pub(crate) fn record_verdict(verdict: OutlierVerdict) {
    if !bt_obs::enabled() {
        return;
    }
    let m = tree_metrics();
    if verdict == OutlierVerdict::Undecided {
        m.queries_uncertain.inc();
    } else {
        m.queries_certified.inc();
    }
}

/// Folds one incremental snapshot refresh into the registry and emits its
/// span event.
pub(crate) fn record_snapshot_refresh(refresh: &SnapshotRefresh) {
    if !bt_obs::enabled() {
        return;
    }
    let m = tree_metrics();
    m.snapshot_refreshes.inc();
    m.snapshot_chunks_reused.add(refresh.chunks_reused as u64);
    m.snapshot_chunks_refreshed
        .add(refresh.chunks_refreshed as u64);
    m.snapshot_pages_reused.add(refresh.pages_reused as u64);
    m.snapshot_pages_refreshed
        .add(refresh.pages_refreshed as u64);
    bt_obs::trace(|| TraceEvent::SnapshotRefresh {
        chunks_reused: refresh.chunks_reused as u64,
        chunks_refreshed: refresh.chunks_refreshed as u64,
        pages_reused: refresh.pages_reused as u64,
        pages_refreshed: refresh.pages_refreshed as u64,
    });
}
