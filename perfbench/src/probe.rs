//! Measurement plumbing: per-call timing and spans, the untimed correctness
//! tally, registry deltas and the `/proc` figures that tell program time
//! from host noise.

use std::time::Instant;

use bt_obs::{Registry, Snapshot};

/// The public calls the benchmark times, one per layer boundary it crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `BayesTree::insert_batch` / `ShardedBayesTree::insert_batch`.
    InsertBatch,
    /// `ClusTree::insert`.
    Insert,
    /// `ShardedBayesTree::snapshot`.
    Snapshot,
    /// `outlier_score` on a tree or a snapshot.
    OutlierScore,
    /// `ClusTree::anytime_knn`.
    AnytimeKnn,
}

impl Op {
    pub const ALL: [Op; 5] = [
        Op::InsertBatch,
        Op::Insert,
        Op::Snapshot,
        Op::OutlierScore,
        Op::AnytimeKnn,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Op::InsertBatch => "insert_batch",
            Op::Insert => "insert",
            Op::Snapshot => "snapshot",
            Op::OutlierScore => "outlier_score",
            Op::AnytimeKnn => "anytime_knn",
        }
    }

    /// Whether the call inserts (and so counts toward the insert metrics)
    /// rather than reads.
    #[must_use]
    pub fn is_insert(self) -> bool {
        matches!(self, Op::InsertBatch | Op::Insert)
    }

    /// Whether the call answers a query.
    #[must_use]
    pub fn is_query(self) -> bool {
        matches!(self, Op::OutlierScore | Op::AnytimeKnn)
    }
}

/// One recorded interval: a call into the library, or a batch, round or
/// episode of the benchmark loop that caused such calls.  `parent` is the
/// id of the enclosing span (0 for an episode, whose ids start at 1).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time per span name: each span's duration minus what its child
/// spans cover, summed by name, in nanoseconds.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_ns = std::collections::HashMap::<u32, u64>::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let mut by_name: Vec<(&'static str, u64)> = Vec::new();
    for s in spans {
        let own = s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += own,
            None => by_name.push((s.name, own)),
        }
    }
    by_name
}

/// Answer-quality and work counts of the first episode of a run.  The
/// first episode starts from the same state on every run of a seed, so
/// these counts repeat exactly.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub queries: u64,
    pub query_nodes_read: u64,
    /// Outlier verdicts certified within budget.
    pub certified: u64,
    /// Sum over bracketed answers of `(upper - lower) / estimate`.
    pub width_rel_sum: f64,
    /// Answers that carry a `[lower, upper]` bracket.
    pub bracketed: u64,
    pub objects: u64,
    pub parked: u64,
    pub parked_depth_sum: u64,
    /// Sum over sharded batches of the largest shard's share of the batch.
    pub max_share_sum: f64,
    pub sharded_batches: u64,
    /// Sum over probed sharded queries of max / mean per-shard node reads.
    pub read_imbalance_sum: f64,
    pub read_probes: u64,
}

/// Timed calls: latencies in microseconds and the objects they carried,
/// by [`Op`].
#[derive(Debug, Clone, Default)]
pub struct Calls {
    latencies_us: [Vec<f64>; 5],
    objects: [u64; 5],
}

impl Calls {
    /// Latencies and summed objects of the calls whose op `pick` selects.
    #[must_use]
    pub fn of(&self, pick: fn(Op) -> bool) -> (Vec<f64>, u64) {
        let mut latencies = Vec::new();
        let mut objects = 0;
        for op in Op::ALL.into_iter().filter(|op| pick(*op)) {
            latencies.extend_from_slice(&self.latencies_us[op_index(op)]);
            objects += self.objects[op_index(op)];
        }
        (latencies, objects)
    }

    /// Number of timed calls, over all ops.
    #[must_use]
    pub fn count(&self) -> usize {
        self.latencies_us.iter().map(Vec::len).sum()
    }

    /// Call by call, the median latency over repetitions of the same call
    /// sequence.  A stall that hits a call in fewer than half of its
    /// repetitions leaves no trace.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is empty or the repetitions differ in their calls.
    #[must_use]
    pub fn median_of<'a>(reps: impl IntoIterator<Item = &'a Calls>) -> Calls {
        let reps: Vec<&Calls> = reps.into_iter().collect();
        let first = reps.first().expect("at least one repetition");
        let mut out = Calls {
            latencies_us: Default::default(),
            objects: first.objects,
        };
        for (i, merged) in out.latencies_us.iter_mut().enumerate() {
            let n = first.latencies_us[i].len();
            assert!(
                reps.iter().all(|r| r.latencies_us[i].len() == n && r.objects == first.objects),
                "repetitions differ"
            );
            let mut column = Vec::with_capacity(reps.len());
            *merged = (0..n)
                .map(|j| {
                    column.clear();
                    column.extend(reps.iter().map(|r| r.latencies_us[i][j]));
                    quantile(&column, 0.5)
                })
                .collect();
        }
        out
    }
}

/// Timing figures over a sequence of host-adjusted calls: per-call
/// percentiles and call-time throughputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpisodeTimes {
    pub queries_per_s: f64,
    pub query_p50_us: f64,
    pub query_p90_us: f64,
    pub inserts_per_s: f64,
    pub insert_p50_us: f64,
    pub insert_p90_us: f64,
    pub snapshot_p99_us: f64,
    /// Query and insert calls the percentiles cover.
    pub queries: usize,
    pub inserts: usize,
}

impl EpisodeTimes {
    #[must_use]
    pub fn of(calls: &Calls) -> Self {
        let (query_us, _) = calls.of(Op::is_query);
        let (insert_us, objects) = calls.of(Op::is_insert);
        let per_s = |count: f64, us: &[f64]| {
            let total_s = us.iter().sum::<f64>() / 1e6;
            if total_s > 0.0 {
                count / total_s
            } else {
                0.0
            }
        };
        Self {
            queries_per_s: per_s(query_us.len() as f64, &query_us),
            query_p50_us: quantile(&query_us, 0.5),
            query_p90_us: quantile(&query_us, 0.9),
            inserts_per_s: per_s(objects as f64, &insert_us),
            insert_p50_us: quantile(&insert_us, 0.5),
            insert_p90_us: quantile(&insert_us, 0.9),
            snapshot_p99_us: quantile(&calls.of(|op| op == Op::Snapshot).0, 0.99),
            queries: query_us.len(),
            inserts: insert_us.len(),
        }
    }
}

/// Collects everything a run measures.  Every call goes through
/// [`Recorder::time`]; spans are only kept while tracing is on, so an
/// untraced episode pays two clock reads per call and nothing else.
///
/// At batch and round boundaries ([`Recorder::enter`]), at most every
/// [`SEGMENT_NS`], the recorder times the [`HostReference`] kernel, untimed,
/// and scales the calls timed since the previous sample by that segment's
/// host-speed factor.  The adjusted clock ([`Recorder::adjusted_ns`])
/// advances by each closed segment's timed length times its factor.
pub struct Recorder {
    host: HostReference,
    /// The last reference time and when it was taken.
    ref_us: f64,
    ref_at_ns: u64,
    /// Timed clock at the start of the open segment, and the calls of each
    /// op recorded before it.
    segment_start_ns: u64,
    segment_calls: [usize; 5],
    adjusted_ns: f64,
    origin: Instant,
    tracing: bool,
    spans: Vec<Span>,
    /// Ids of the open loop spans, innermost last.  A span's id is its
    /// index in `spans` plus one.
    open: Vec<u32>,
    untimed_ns: u64,
    /// Whether the running episode updates [`Recorder::tally`].
    counting: bool,
    calls: Calls,
    pub tally: Tally,
    /// Operations whose output was checked, and checks that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of the first few failed checks.
    pub failures: Vec<String>,
}

fn op_index(op: Op) -> usize {
    Op::ALL
        .iter()
        .position(|o| *o == op)
        .expect("every Op is listed in Op::ALL")
}

/// Shortest timed stretch between two reference samples.
pub const SEGMENT_NS: u64 = 20_000_000;

impl Recorder {
    /// A recorder whose reference kernel runs on `threads` threads.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let mut host = HostReference::new(threads);
        let ref_us = host.sample();
        let origin = Instant::now();
        Self {
            host,
            ref_us,
            ref_at_ns: 0,
            segment_start_ns: 0,
            segment_calls: [0; 5],
            adjusted_ns: 0.0,
            origin,
            tracing: false,
            spans: Vec::new(),
            open: Vec::new(),
            untimed_ns: 0,
            counting: false,
            calls: Calls::default(),
            tally: Tally::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    pub fn set_counting(&mut self, on: bool) {
        self.counting = on;
    }

    #[must_use]
    pub fn counting(&self) -> bool {
        self.counting
    }

    fn push_span(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = u32::try_from(self.spans.len() + 1).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Times one library call carrying `objects` insert objects (0 for
    /// reads) and, while tracing, records it as a child of the innermost
    /// open span.
    pub fn time<T>(&mut self, op: Op, objects: u64, call: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = std::hint::black_box(call());
        let end = self.now_ns();
        let i = op_index(op);
        self.calls.latencies_us[i].push((end - start) as f64 / 1e3);
        self.calls.objects[i] += objects;
        if self.tracing {
            self.push_span(op.name(), start, end);
        }
        out
    }

    /// Opens a loop span (`episode`, `batch`, `round`) that later calls
    /// name as their cause, after marking a [`Recorder::boundary`].  Opens
    /// no span while tracing is off.
    pub fn enter(&mut self, name: &'static str) {
        self.boundary();
        if !self.tracing {
            return;
        }
        let start = self.now_ns();
        let id = self.push_span(name, start, start);
        self.open.push(id);
    }

    /// Closes the innermost span opened by [`Recorder::enter`].
    pub fn exit(&mut self) {
        if !self.tracing {
            return;
        }
        let id = self.open.pop().expect("exit matches an enter");
        let end = self.now_ns();
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Runs a correctness check or probe outside the measurement: its time
    /// is excluded from the episode wall and the metrics registry does not
    /// record the calls it makes.
    pub fn untimed<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let was_enabled = bt_obs::enabled();
        bt_obs::set_enabled(false);
        let out = work();
        bt_obs::set_enabled(was_enabled);
        self.untimed_ns += self.now_ns() - start;
        out
    }

    /// Counts one checked operation; a failed check is remembered.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Marks a batch or round boundary: closes the open segment once it
    /// has run for [`SEGMENT_NS`].
    pub fn boundary(&mut self) {
        if self.now_ns() - self.ref_at_ns >= SEGMENT_NS {
            self.close_segment();
        }
    }

    /// Samples the reference kernel, untimed, and scales the open segment's
    /// calls and timed length by the factor of the samples around it.
    pub fn close_segment(&mut self) {
        let start = self.now_ns();
        let ref_us = self.host.sample();
        let end = self.now_ns();
        self.untimed_ns += end - start;
        let factor = HostReference::factor(self.ref_us, ref_us);
        self.ref_us = ref_us;
        self.ref_at_ns = end;
        let timed = self.timed_clock_ns();
        self.adjusted_ns += (timed - self.segment_start_ns) as f64 * factor;
        self.segment_start_ns = timed;
        for (latencies, from) in self.calls.latencies_us.iter_mut().zip(&mut self.segment_calls) {
            for us in &mut latencies[*from..] {
                *us *= factor;
            }
            *from = latencies.len();
        }
    }

    /// Timed nanoseconds of the closed segments, each scaled by its
    /// host-speed factor.  Call [`Recorder::close_segment`] first to
    /// include the work up to now.
    #[must_use]
    pub fn adjusted_ns(&self) -> f64 {
        self.adjusted_ns
    }

    /// The median reference time over [`NOMINAL_REF_US`].
    #[must_use]
    pub fn host_slowdown(&self) -> f64 {
        self.host.slowdown()
    }

    /// Nanoseconds since the recorder was made, net of untimed work.
    #[must_use]
    pub fn timed_clock_ns(&self) -> u64 {
        self.now_ns() - self.untimed_ns
    }

    /// The calls timed since the last take, closing the open segment so
    /// that all of them are scaled.
    pub fn take_calls(&mut self) -> Calls {
        self.close_segment();
        self.segment_calls = [0; 5];
        std::mem::take(&mut self.calls)
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The metrics registry now; subtract two with [`Snapshot::delta_since`].
#[must_use]
pub fn registry() -> Snapshot {
    Registry::global().snapshot()
}

/// On-CPU and run-queue-wait nanoseconds of the calling thread
/// (`/proc/thread-self/schedstat`), or `None` where the file is missing.
#[must_use]
pub fn schedstat() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

/// Peak resident set size of the process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` is missing.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reference-kernel time, in microseconds, that defines the nominal host:
/// timing metrics are reported as if every reference measurement had read
/// this.  It is the kernel's time on one quiet vCPU of a 2-vCPU Sapphire
/// Rapids cloud VM.
pub const NOMINAL_REF_US: f64 = 200.0;

/// Reference measurements per sample; a sample is their median.
const REF_REPS: usize = 3;

/// A fixed reference kernel, timed apart from the program: a throughput
/// loop of `f64::exp` over a 256 KiB table, the instruction mix that
/// dominates kernel-density scoring.  It runs none of the library, so its
/// time moves only with the host.  On a shared 2-vCPU cloud VM, other
/// tenants mostly slowed this kernel and the workloads together, by
/// 1.2–2x for seconds to minutes, while a dependent multiply chain barely
/// moved; for stretches of minutes the kernel also slowed alone.  Sampled
/// between segments of a run, it gives each segment its host-speed factor
/// `NOMINAL_REF_US / reference time`.
pub struct HostReference {
    table: Vec<f64>,
    /// Threads the kernel runs on at once: as many as the workload uses.
    threads: usize,
    samples_us: Vec<f64>,
}

impl HostReference {
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            table: (0..32_768).map(|i| -f64::from(i % 1000) / 125.0).collect(),
            threads: threads.max(1),
            samples_us: Vec::new(),
        }
    }

    fn kernel(table: &[f64]) -> f64 {
        table.iter().map(|v| v.exp()).sum()
    }

    /// Times the kernel, on every thread at once, and returns the median
    /// of [`REF_REPS`] timings in microseconds.
    pub fn sample(&mut self) -> f64 {
        let table = &self.table;
        let mut reps = [0.0; REF_REPS];
        for rep in &mut reps {
            let start = Instant::now();
            if self.threads == 1 {
                std::hint::black_box(Self::kernel(table));
            } else {
                std::thread::scope(|scope| {
                    for _ in 0..self.threads {
                        scope.spawn(|| std::hint::black_box(Self::kernel(table)));
                    }
                });
            }
            *rep = start.elapsed().as_secs_f64() * 1e6;
        }
        let us = quantile(&reps, 0.5);
        self.samples_us.push(us);
        us
    }

    /// The host-speed factor of the work between two samples.
    #[must_use]
    pub fn factor(before_us: f64, after_us: f64) -> f64 {
        2.0 * NOMINAL_REF_US / (before_us + after_us)
    }

    /// The median sample over [`NOMINAL_REF_US`]: how much slower than
    /// nominal the host ran.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        quantile(&self.samples_us, 0.5) / NOMINAL_REF_US
    }
}

/// SplitMix64: the benchmark's own seeded generator for query jitter.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
