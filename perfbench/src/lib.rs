//! The repository's benchmark: three closed-loop, one-client stream-mining
//! workloads driven through the public `bayestree`, `clustree` and
//! `bt-anytree` APIs, with the metric catalogue `BENCHMARK.json` lists.
//!
//! A run sets its workload up [`SETUP_REPS`] times (reporting the median as
//! `setup_s`), then repeats identical episodes until the requested seconds
//! are spent.  Every timing is host-adjusted: between batches and rounds, at
//! most every [`probe::SEGMENT_NS`], the recorder times a fixed reference
//! kernel, and scales the calls in between to a nominal host on which the
//! kernel takes [`probe::NOMINAL_REF_US`].  On a shared host, other tenants
//! slow the program by up to 2x for seconds to minutes, and the reference
//! kernel with it.  Each call's latency is its median over the repetitions
//! of the episode, which no stall that hits a call in fewer than half of
//! them reaches; percentiles and throughputs are taken over these per-call
//! figures.  Count and quality metrics
//! come from the first episode, so one seed repeats them exactly.  A traced
//! run traces two of its episodes: they give the per-layer busy times, and
//! the untraced ones around them the tracing overhead.

pub mod probe;
pub mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use probe::{
    peak_rss_mb, quantile, registry, schedstat, self_times, Calls, EpisodeTimes, Op, Recorder,
    Span,
};
use workloads::{ClusTreeVarying, IngestSnapshot, OutlierWarm, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Latencies kept for the per-call medians: the most recent episodes whose
/// calls fit, and at least [`MIN_KEPT_EPISODES`].
const KEPT_CALLS: usize = 1 << 20;
const MIN_KEPT_EPISODES: usize = 9;

/// Which report a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What a user of the system sees; printed by untraced runs.
    EndToEnd,
    /// One layer's share of the work; printed by traced runs.
    PerLayer,
}

/// One metric: its name, unit and better direction as `BENCHMARK.json`
/// lists them.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::PerLayer,
    }
}

/// Every metric the benchmark reports.  Every workload reports every
/// metric; a layer metric reads 0 (or 1 for the shard-balance ratios of an
/// unsharded tree) on a workload that does not use its layer.
pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s", "lower"),
    e2e("queries_per_s", "1/s", "higher"),
    e2e("query_p50_us", "us", "lower"),
    e2e("query_p90_us", "us", "lower"),
    e2e("inserts_per_s", "1/s", "higher"),
    e2e("insert_p50_us", "us", "lower"),
    e2e("insert_p90_us", "us", "lower"),
    e2e("nodes_read_per_query", "count", "lower"),
    e2e("peak_rss_mb", "MiB", "lower"),
    layer("certified_share", "ratio", "higher"),
    layer("bound_width_rel", "ratio", "lower"),
    layer("parked_share", "ratio", "lower"),
    layer("error_share", "ratio", "lower"),
    layer("stats.block.gather_hit_rate", "ratio", "higher"),
    layer("stats.block.gathers_per_query", "count", "lower"),
    layer("anytree.query.busy_s", "s", "lower"),
    layer("anytree.query.elements_scored_per_read", "count", "lower"),
    layer("anytree.query.prefetches_per_read", "count", "lower"),
    layer("anytree.descent.busy_s", "s", "lower"),
    layer("anytree.descent.node_visits_per_obj", "count", "lower"),
    layer(
        "anytree.descent.summary_refreshes_per_obj",
        "count",
        "lower",
    ),
    layer("anytree.descent.splits_per_kobj", "count", "lower"),
    layer("anytree.descent.prefetches_per_obj", "count", "lower"),
    layer("anytree.shard.max_share", "ratio", "lower"),
    layer("anytree.shard.read_imbalance", "ratio", "lower"),
    layer("anytree.snapshot.busy_s", "s", "lower"),
    layer("anytree.snapshot.p99_us", "us", "lower"),
    layer("clustree.insert.busy_s", "s", "lower"),
    layer("clustree.insert.mean_parked_depth", "levels", "higher"),
    layer("clustree.micro_clusters", "count", "higher"),
    layer("clustree.knn.busy_s", "s", "lower"),
    layer("bayestree.node.bytes_per_scored_entry", "bytes", "lower"),
    layer("tree.nodes", "count", "lower"),
    layer("tree.height", "count", "lower"),
    layer("proc.cpu_share", "ratio", "higher"),
    layer("proc.runq_wait_share", "ratio", "lower"),
    layer("proc.host_slowdown", "ratio", "lower"),
    layer("obs.trace_overhead", "ratio", "lower"),
];

/// The per-layer busy times; within one traced episode they cover disjoint
/// intervals, so their sum stays within the episode wall.
pub const BUSY_METRICS: &[&str] = &[
    "anytree.query.busy_s",
    "anytree.descent.busy_s",
    "anytree.snapshot.busy_s",
    "clustree.insert.busy_s",
    "clustree.knn.busy_s",
];

/// Metrics that depend only on the seed and the code, never on timing.
pub const COUNT_METRICS: &[&str] = &[
    "nodes_read_per_query",
    "certified_share",
    "bound_width_rel",
    "parked_share",
    "error_share",
    "stats.block.gather_hit_rate",
    "stats.block.gathers_per_query",
    "anytree.query.elements_scored_per_read",
    "anytree.query.prefetches_per_read",
    "anytree.descent.node_visits_per_obj",
    "anytree.descent.summary_refreshes_per_obj",
    "anytree.descent.splits_per_kobj",
    "anytree.descent.prefetches_per_obj",
    "anytree.shard.max_share",
    "anytree.shard.read_imbalance",
    "clustree.insert.mean_parked_depth",
    "clustree.micro_clusters",
    "bayestree.node.bytes_per_scored_entry",
    "tree.nodes",
    "tree.height",
];

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    OutlierWarm,
    IngestSnapshot,
    ClusTreeVarying,
}

impl WorkloadName {
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::OutlierWarm,
        WorkloadName::IngestSnapshot,
        WorkloadName::ClusTreeVarying,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::OutlierWarm => "outlier-warm",
            WorkloadName::IngestSnapshot => "ingest-snapshot",
            WorkloadName::ClusTreeVarying => "clustree-varying",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: WorkloadName,
    pub seed: u64,
    /// Episode seconds to measure (at least one episode always runs, four
    /// when tracing).
    pub seconds: f64,
    pub trace: bool,
    /// Multiplies every input size; 1.0 is the benchmark proper.
    pub scale: f64,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every metric of [`METRICS`], in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub episodes: usize,
    /// Distinct query and insert calls the latency percentiles cover.
    pub query_samples: usize,
    pub insert_samples: usize,
    /// Mean wall seconds of a traced episode (0 for an untraced run).
    pub traced_episode_s: f64,
}

impl Report {
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// # Panics
    ///
    /// Panics if `name` is not in [`METRICS`].
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .1
    }

    /// The one-line JSON result: the metrics of `kind` with their units.
    #[must_use]
    pub fn to_json(&self, kind: Kind) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for def in METRICS.iter().filter(|d| d.kind == kind) {
            let value = self.get(def.name);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if first { "" } else { ", " };
            first = false;
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn write_spans(path: &PathBuf, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Runs one workload and measures it.
///
/// # Panics
///
/// Panics if the spans of a traced run cannot be written.
#[must_use]
pub fn run(config: &Config) -> Report {
    let (seed, scale) = (config.seed, config.scale);
    let mut workload: Box<dyn Workload> = match config.workload {
        WorkloadName::OutlierWarm => Box::new(OutlierWarm::new(seed, scale)),
        WorkloadName::IngestSnapshot => Box::new(IngestSnapshot::new(seed, scale)),
        WorkloadName::ClusTreeVarying => Box::new(ClusTreeVarying::new(seed, scale)),
    };
    let mut rec = Recorder::new(workload.threads());

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_delta = None;
    let mut setup_calls = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let before = registry();
        rec.close_segment();
        let start = rec.adjusted_ns();
        workload.setup(&mut rec);
        let calls = rec.take_calls();
        setup_s.push((rec.adjusted_ns() - start) / 1e9);
        setup_delta = Some(registry().delta_since(&before));
        setup_calls.push(calls);
    }
    let setup_delta = setup_delta.expect("at least one set-up");

    let sched_start = schedstat();
    let wall_start = Instant::now();
    let mut first_delta = None;
    // Host-adjusted walls of the untraced and traced episodes, and the raw
    // walls of the traced ones.
    let (mut untraced_s, mut traced_s, mut traced_raw_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_descent_ns, mut traced_query_ns) = (0.0, 0.0);
    // A traced run traces its second and fourth episodes; the untraced ones
    // around them give the tracing overhead.
    let min_episodes = if config.trace { 4 } else { 1 };
    let mut measured = 0.0;
    let mut episodes = 0usize;
    let mut kept = std::collections::VecDeque::new();
    loop {
        let traced = config.trace && (episodes == 1 || episodes == 3);
        rec.set_tracing(traced);
        rec.set_counting(episodes == 0);
        let before = registry();
        rec.close_segment();
        let start = rec.timed_clock_ns();
        let start_adjusted = rec.adjusted_ns();
        rec.enter("episode");
        workload.episode(&mut rec);
        rec.exit();
        let wall = (rec.timed_clock_ns() - start) as f64 / 1e9;
        let delta = registry().delta_since(&before);
        let calls = rec.take_calls();
        let keep = (KEPT_CALLS / calls.count().max(1)).max(MIN_KEPT_EPISODES);
        kept.push_back(calls);
        if kept.len() > keep {
            kept.pop_front();
        }
        let adjusted = (rec.adjusted_ns() - start_adjusted) / 1e9;
        if traced {
            let factor = ratio(adjusted, wall);
            traced_s.push(adjusted);
            traced_raw_s.push(wall);
            traced_descent_ns += delta.histogram_totals("bt_batch_latency_ns").1 * factor;
            traced_query_ns += delta.histogram_totals("bt_query_latency_ns").1 * factor;
        } else {
            untraced_s.push(adjusted);
        }
        if episodes == 0 {
            first_delta = Some(delta);
        }
        measured += wall;
        episodes += 1;
        if episodes >= min_episodes && measured + measured / episodes as f64 > config.seconds {
            break;
        }
    }
    rec.set_tracing(false);
    let wall_ns = wall_start.elapsed().as_nanos() as f64;
    let sched_end = schedstat();
    let size = workload.finish(&mut rec);
    let first = first_delta.expect("at least one episode");
    let t = rec.tally.clone();

    let times = EpisodeTimes::of(&Calls::median_of(&kept));
    // A workload that inserts only while setting up reports those inserts.
    let insert_times = if times.inserts > 0 {
        times
    } else {
        EpisodeTimes::of(&Calls::median_of(&setup_calls))
    };
    // Descent counters come from the inserts the workload times.
    let descent = if first.counter("bt_insert_objects_total") > 0 {
        &first
    } else {
        &setup_delta
    };
    let descent_objects = descent.counter("bt_insert_objects_total") as f64;
    let per_obj = |name: &str| ratio(descent.counter(name) as f64, descent_objects);
    let gathers = first.counter("bt_query_block_gathers_total") as f64;
    let avoided = first.counter("bt_query_gathers_avoided_total") as f64;
    let reads = first.counter("bt_query_nodes_read_total") as f64;
    let (cpu_share, runq_share) = match (sched_start, sched_end) {
        (Some((cpu0, wait0)), Some((cpu1, wait1))) => (
            ratio((cpu1 - cpu0) as f64, wall_ns),
            ratio((wait1 - wait0) as f64, wall_ns),
        ),
        _ => (0.0, 0.0),
    };

    // Busy time per layer: the self time of the calls into it, per traced
    // episode.  A ClusTree call's own span splits into the shared core's
    // time (the registry's batch and query latency sums over the traced
    // episodes) and the ClusTree layer's remainder.  Span times are raw;
    // the traced episodes' mean host-speed factor adjusts them.
    let traced_factor = ratio(traced_s.iter().sum(), traced_raw_s.iter().sum());
    let own = self_times(rec.spans());
    let own_s = |name: &str| {
        own.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, ns)| *ns as f64 * traced_factor / 1e9)
    };
    let per_traced = |s: f64| ratio(s, traced_s.len() as f64);
    let clus_insert = own_s(Op::Insert.name());
    let clus_knn = own_s(Op::AnytimeKnn.name());
    let (core_descent, core_query) = if clus_insert > 0.0 || clus_knn > 0.0 {
        (
            (traced_descent_ns / 1e9).min(clus_insert),
            (traced_query_ns / 1e9).min(clus_knn),
        )
    } else {
        (0.0, 0.0)
    };
    let later_untraced = if untraced_s.len() > 1 {
        &untraced_s[1..]
    } else {
        &untraced_s[..]
    };

    let values: Vec<(&'static str, f64)> = vec![
        ("setup_s", median(&setup_s)),
        ("queries_per_s", times.queries_per_s),
        ("query_p50_us", times.query_p50_us),
        ("query_p90_us", times.query_p90_us),
        ("inserts_per_s", insert_times.inserts_per_s),
        ("insert_p50_us", insert_times.insert_p50_us),
        ("insert_p90_us", insert_times.insert_p90_us),
        (
            "nodes_read_per_query",
            ratio(t.query_nodes_read as f64, t.queries as f64),
        ),
        ("peak_rss_mb", peak_rss_mb()),
        (
            "certified_share",
            ratio(t.certified as f64, t.bracketed as f64),
        ),
        (
            "bound_width_rel",
            ratio(t.width_rel_sum, t.bracketed as f64),
        ),
        ("parked_share", ratio(t.parked as f64, t.objects as f64)),
        (
            "error_share",
            ratio(rec.failed as f64, rec.attempted as f64),
        ),
        (
            "stats.block.gather_hit_rate",
            ratio(avoided, gathers + avoided),
        ),
        (
            "stats.block.gathers_per_query",
            ratio(gathers + avoided, t.queries as f64),
        ),
        (
            "anytree.query.busy_s",
            per_traced(own_s(Op::OutlierScore.name()) + core_query),
        ),
        (
            "anytree.query.elements_scored_per_read",
            ratio(
                first.counter("bt_query_elements_scored_total") as f64,
                reads,
            ),
        ),
        (
            "anytree.query.prefetches_per_read",
            ratio(first.counter("bt_query_prefetches_total") as f64, reads),
        ),
        (
            "anytree.descent.busy_s",
            per_traced(own_s(Op::InsertBatch.name()) + core_descent),
        ),
        (
            "anytree.descent.node_visits_per_obj",
            per_obj("bt_insert_node_visits_total"),
        ),
        (
            "anytree.descent.summary_refreshes_per_obj",
            per_obj("bt_insert_summary_refreshes_total"),
        ),
        (
            "anytree.descent.splits_per_kobj",
            1000.0 * per_obj("bt_insert_splits_total"),
        ),
        (
            "anytree.descent.prefetches_per_obj",
            per_obj("bt_insert_prefetches_total"),
        ),
        (
            "anytree.shard.max_share",
            if t.sharded_batches > 0 {
                t.max_share_sum / t.sharded_batches as f64
            } else {
                1.0
            },
        ),
        (
            "anytree.shard.read_imbalance",
            if t.read_probes > 0 {
                t.read_imbalance_sum / t.read_probes as f64
            } else {
                1.0
            },
        ),
        (
            "anytree.snapshot.busy_s",
            per_traced(own_s(Op::Snapshot.name())),
        ),
        (
            "anytree.snapshot.p99_us",
            times.snapshot_p99_us,
        ),
        (
            "clustree.insert.busy_s",
            per_traced(clus_insert - core_descent),
        ),
        (
            "clustree.insert.mean_parked_depth",
            ratio(t.parked_depth_sum as f64, t.parked as f64),
        ),
        ("clustree.micro_clusters", size.micro_clusters as f64),
        ("clustree.knn.busy_s", per_traced(clus_knn - core_query)),
        (
            "bayestree.node.bytes_per_scored_entry",
            size.bytes_per_scored_entry as f64,
        ),
        ("tree.nodes", size.nodes as f64),
        ("tree.height", size.height as f64),
        ("proc.cpu_share", cpu_share),
        ("proc.runq_wait_share", runq_share),
        ("proc.host_slowdown", rec.host_slowdown()),
        (
            "obs.trace_overhead",
            ratio(median(&traced_s), median(later_untraced)),
        ),
    ];
    let metrics = METRICS
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(n, _)| *n == def.name)
                .unwrap_or_else(|| panic!("metric {} is not computed", def.name))
                .1;
            (def.name, value)
        })
        .collect();

    if let (true, Some(path)) = (config.trace, &config.trace_out) {
        write_spans(path, rec.spans()).expect("trace spans are writable");
    }
    Report {
        metrics,
        attempted: rec.attempted,
        failed: rec.failed,
        failures: rec.failures.clone(),
        episodes,
        query_samples: times.queries,
        insert_samples: insert_times.inserts,
        traced_episode_s: ratio(traced_s.iter().sum(), traced_s.len() as f64),
    }
}
