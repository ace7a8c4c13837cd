//! Pieces every workload shares: latency samples, the open-loop query
//! generator, the traced-run ledger and its timing decorators, and the
//! per-pass record the run loop aggregates.

use ga_core::flow::BatchAnalytic;
use ga_core::serve::{QueryClient, QueryOutcome};
use ga_graph::dynamic::ApplyResult;
use ga_graph::snapshot::SnapshotEpoch;
use ga_graph::sub::Subgraph;
use ga_graph::{DynamicGraph, Timestamp, VertexId};
use ga_kernels::KernelCtx;
use ga_obs::{MetricsSnapshot, Step, StepMetrics};
use ga_stream::update::Update;
use ga_stream::{EpochSnapshot, Event, Monitor, Query, QueryResponse, SnapshotReader};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic 64-bit mixer (splitmix64) for query and batch choices.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time one call, adding its duration to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += secs(t);
    out
}

/// Raw samples of one latency or duration; quantiles are exact
/// (nearest rank over the sorted samples).
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Nearest-rank quantile; `None` without samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        Some(v[rank - 1])
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }
}

/// Restart the process's peak-RSS watermark at its current RSS, so the
/// next reading covers one pass and not the gates of an earlier one.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Read a CPU-time clock, in seconds (0 if the call fails).
fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target this benchmark builds
    // for), and clock_gettime writes nothing beyond it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// CPU seconds of the whole process, exited threads included
/// (`CLOCK_PROCESS_CPUTIME_ID`). Under paravirtual steal accounting the
/// kernel's task clock leaves out the time the hypervisor ran something
/// else, so this reads the run's own work whatever the host's load.
pub fn process_cpu_s() -> f64 {
    cpu_clock(2)
}

/// CPU seconds of the calling thread (`CLOCK_THREAD_CPUTIME_ID`),
/// steal excluded like [`process_cpu_s`].
pub fn thread_cpu_s() -> f64 {
    cpu_clock(3)
}

/// Peak resident set (VmHWM) of this process in MB, from procfs.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Open-loop query generator
// ---------------------------------------------------------------------

/// A query the reader sends, and the tenant client it goes through.
pub struct Planned {
    pub query: Query,
    pub bulk: bool,
}

/// What one open-loop reader saw.
#[derive(Default)]
pub struct ReaderOut {
    /// Latency from the scheduled send to completion, µs.
    pub latency_us: Samples,
    /// Time inside `QueryClient::run`, µs.
    pub service_us: Samples,
    /// Generator lateness, µs: actual send minus the later of the
    /// scheduled send and the previous query's completion. Waiting
    /// behind a slow query is the system's latency, not lateness.
    pub lateness_us: Samples,
    pub sent: u64,
    pub answered: u64,
    pub shed_high: u64,
    pub shed_bulk: u64,
    /// Every answered epoch was ≥ the one before it.
    pub epochs_monotonic: bool,
    /// Queries still due when the reader stopped (a backlog means the
    /// generator fell behind its schedule).
    pub backlog: u64,
    /// Sampled answers (every 8th query) checked against the snapshot
    /// that stayed published throughout their call, and how many of
    /// them differed from that snapshot's own answer or epoch.
    pub epoch_checked: u64,
    pub epoch_mismatched: u64,
    /// CPU seconds the reader thread itself used (pacing included).
    pub cpu_s: f64,
}

/// Wait until `deadline`: sleep while more than 2 ms remain (a sleeping
/// thread can wake a millisecond late on a loaded host), then yield.
fn pace_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_millis(2) {
            std::thread::sleep(left - Duration::from_millis(2));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Open loop: query `k` is due at `start + k / rate`, whether or not
/// earlier ones finished, and each is timed from when it was due.
/// `check` reads the same handle the clients serve from; every 8th
/// answer is checked against the generation it must have run on.
pub fn open_loop_reader(
    high: &mut QueryClient,
    bulk: &mut QueryClient,
    mut check: SnapshotReader,
    rate_qps: f64,
    mut next: impl FnMut(u64) -> Planned,
    stop: &AtomicBool,
) -> ReaderOut {
    let mut out = ReaderOut {
        epochs_monotonic: true,
        ..ReaderOut::default()
    };
    let cpu0 = thread_cpu_s();
    let interval = Duration::from_secs_f64(1.0 / rate_qps);
    let start = Instant::now();
    let mut last_epoch: Option<SnapshotEpoch> = None;
    let mut k = 0u64;
    let mut prev_done = start;
    while !stop.load(Ordering::Acquire) {
        let due = start + interval * k as u32;
        pace_until(due);
        let p = next(k);
        let sampled = k.is_multiple_of(8).then(|| check.snapshot_arc()).flatten();
        k += 1;
        let sent = Instant::now();
        let client = if p.bulk { &mut *bulk } else { &mut *high };
        let outcome = client.run(&p.query);
        let done = Instant::now();
        out.sent += 1;
        out.lateness_us
            .push(sent.duration_since(due.max(prev_done)).as_secs_f64() * 1e6);
        prev_done = done;
        match outcome {
            QueryOutcome::Answered { epoch, response } => {
                out.answered += 1;
                out.latency_us
                    .push(done.duration_since(due).as_secs_f64() * 1e6);
                out.service_us
                    .push(done.duration_since(sent).as_secs_f64() * 1e6);
                if last_epoch.is_some_and(|e| epoch < e) {
                    out.epochs_monotonic = false;
                }
                last_epoch = Some(epoch);
                // No publish between the two loads: the call ran on `snap`.
                if let Some(snap) = sampled {
                    if check.snapshot().is_some_and(|s| Arc::ptr_eq(s, &snap)) {
                        out.epoch_checked += 1;
                        if epoch != snap.stamp || p.query.run(&snap) != response {
                            out.epoch_mismatched += 1;
                        }
                    }
                }
            }
            QueryOutcome::Shed(_) if p.bulk => out.shed_bulk += 1,
            QueryOutcome::Shed(_) => out.shed_high += 1,
        }
    }
    let due_by_now = (start.elapsed().as_secs_f64() * rate_qps) as u64;
    out.backlog = due_by_now.saturating_sub(k);
    out.cpu_s = thread_cpu_s() - cpu0;
    out
}

/// Point query mix over `n` vertices: degree, neighbors, one property.
pub fn point_query(rng: &mut u64, n: u32, prop: &str) -> Query {
    let v = (splitmix(rng) % n as u64) as VertexId;
    query_on(rng, v, prop)
}

/// Vertices the serving probe queries. A hot set this small stays in
/// the core's own caches, so the probe's CPU reads the serving path
/// rather than how much of the shared cache other tenants hold.
pub const PROBE_HOT: usize = 1024;

/// The serving probe's query list, made from `seed`: `count` point
/// queries over [`PROBE_HOT`] vertices drawn from `n`.
pub fn probe_queries(seed: u64, n: u32, count: usize, prop: &str) -> Vec<Query> {
    let mut rng = seed ^ 0x0dd;
    let hot: Vec<VertexId> = (0..PROBE_HOT)
        .map(|_| (splitmix(&mut rng) % n as u64) as VertexId)
        .collect();
    (0..count)
        .map(|_| {
            let v = hot[(splitmix(&mut rng) % PROBE_HOT as u64) as usize];
            query_on(&mut rng, v, prop)
        })
        .collect()
}

fn query_on(rng: &mut u64, v: VertexId, prop: &str) -> Query {
    match splitmix(rng) % 3 {
        0 => Query::Degree { vertex: v },
        1 => Query::Neighbors {
            vertex: v,
            limit: 16,
        },
        _ => Query::get_property(v, prop),
    }
}

// ---------------------------------------------------------------------
// Traced-run ledger and timing decorators
// ---------------------------------------------------------------------

/// Per-pass self-time ledger of the driving thread, plus layer counts.
/// Rows are disjoint: summed with `unattributed_s` they give `wall_s`.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Named values (seconds for `_s` rows, counts or ratios otherwise).
    pub rows: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.rows.entry(name).or_insert(0.0) += v;
    }
}

/// The rows whose values are disjoint self times of the driving thread;
/// a traced record lists them under `self_rows`.
pub const SELF_ROWS: [&str; 21] = [
    "dedup.busy_s",
    "monitor.jaccard.busy_s",
    "monitor.triangles.busy_s",
    "stream.apply_self_s",
    "wal.busy_s",
    "snapshot.busy_s",
    "flow.selection_s",
    "flow.extract_s",
    "flow.writeback_s",
    "kernels.pagerank.busy_s",
    "kernels.triangles.busy_s",
    "kernels.components.busy_s",
    "flow.other_s",
    "durability.checkpoint_s",
    "durability.recover_s",
    "sharded.process_s",
    "sharded.checkpoint_s",
    "sharded.pagerank_s",
    "sharded.components_s",
    "sharded.bfs_s",
    "unattributed_s",
];

/// Busy time and call/event counts one decorator collected.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallTally {
    pub busy_s: f64,
    pub calls: u64,
    pub events: u64,
}

pub type Tally = Rc<RefCell<CallTally>>;

/// Times every call into a wrapped [`Monitor`] through the public trait.
struct TimedMonitor {
    inner: Box<dyn Monitor>,
    tally: Tally,
}

impl Monitor for TimedMonitor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_update(
        &mut self,
        graph: &DynamicGraph,
        update: &Update,
        result: ApplyResult,
        time: Timestamp,
        out: &mut Vec<Event>,
    ) {
        let before = out.len();
        let t = Instant::now();
        self.inner.on_update(graph, update, result, time, out);
        let mut tally = self.tally.borrow_mut();
        tally.busy_s += secs(t);
        tally.calls += 1;
        tally.events += (out.len() - before) as u64;
    }

    fn on_batch_end(&mut self, graph: &DynamicGraph, time: Timestamp, out: &mut Vec<Event>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.on_batch_end(graph, time, out);
        let mut tally = self.tally.borrow_mut();
        tally.busy_s += secs(t);
        tally.events += (out.len() - before) as u64;
    }
}

/// Times every run of a wrapped [`BatchAnalytic`] (its kernels).
struct TimedAnalytic {
    inner: Box<dyn BatchAnalytic>,
    tally: Tally,
}

impl BatchAnalytic for TimedAnalytic {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, sub: &Subgraph, ctx: &KernelCtx) -> ga_core::flow::AnalyticOutput {
        let t = Instant::now();
        let out = self.inner.run(sub, ctx);
        let mut tally = self.tally.borrow_mut();
        tally.busy_s += secs(t);
        tally.calls += 1;
        out
    }
}

/// Wrap `m` in a [`TimedMonitor`] when tracing, keeping its tally.
pub fn monitor(m: Box<dyn Monitor>, traced: bool, tallies: &mut Vec<Tally>) -> Box<dyn Monitor> {
    if !traced {
        return m;
    }
    let tally = Tally::default();
    tallies.push(Rc::clone(&tally));
    Box::new(TimedMonitor { inner: m, tally })
}

/// Wrap `a` in a [`TimedAnalytic`] when tracing, keeping its tally.
pub fn analytic(
    a: Box<dyn BatchAnalytic>,
    traced: bool,
    tallies: &mut Vec<Tally>,
) -> Box<dyn BatchAnalytic> {
    if !traced {
        return a;
    }
    let tally = Tally::default();
    tallies.push(Rc::clone(&tally));
    Box::new(TimedAnalytic { inner: a, tally })
}

/// Sum of one field of one step across recorder snapshots.
pub fn step_total(snaps: &[MetricsSnapshot], step: Step, field: fn(&StepMetrics) -> u64) -> f64 {
    snaps.iter().map(|s| field(s.step(step)) as f64).sum()
}

/// Sum of one step's wall seconds across recorder snapshots.
pub fn step_s(snaps: &[MetricsSnapshot], step: Step) -> f64 {
    step_total(snaps, step, |m| m.wall_nanos) / 1e9
}

/// Book a FlowEngine's recorder totals and decorator tallies into the
/// ledger. `flow_calls_s` is the summed time of the benchmark's timers
/// around `process_stream*` and `run_batch`; everything inside them that
/// no span or decorator names lands in `flow.other_s` (epoch
/// publication's property clone, trigger dispatch, counter drains).
/// `monitors` and `kernels` are (name, tally) pairs.
pub fn book_flow(
    l: &mut Ledger,
    snap: &MetricsSnapshot,
    flow_calls_s: f64,
    monitors: &[(&str, &Tally)],
    kernels: &[(&str, &Tally)],
) {
    let snaps = std::slice::from_ref(snap);
    let mut named = 0.0;
    let mut monitors_s = 0.0;
    for (name, t) in monitors {
        let t = t.borrow();
        let (busy, calls, events) = match *name {
            "jaccard" => (
                "monitor.jaccard.busy_s",
                "monitor.jaccard.calls",
                "monitor.jaccard.events",
            ),
            _ => (
                "monitor.triangles.busy_s",
                "monitor.triangles.calls",
                "monitor.triangles.events",
            ),
        };
        l.add(busy, t.busy_s);
        l.add(calls, t.calls as f64);
        l.add(events, t.events as f64);
        monitors_s += t.busy_s;
    }
    let ingest = step_s(snaps, Step::Ingest);
    l.add("stream.apply_self_s", ingest - monitors_s);
    named += ingest;
    for (step, row) in [
        (Step::Wal, "wal.busy_s"),
        (Step::Snapshot, "snapshot.busy_s"),
        (Step::Selection, "flow.selection_s"),
        (Step::Extraction, "flow.extract_s"),
        (Step::WriteBack, "flow.writeback_s"),
    ] {
        let s = step_s(snaps, step);
        l.add(row, s);
        named += s;
    }
    for (name, t) in kernels {
        let row = match *name {
            "pagerank" => "kernels.pagerank.busy_s",
            "triangles" => "kernels.triangles.busy_s",
            _ => "kernels.components.busy_s",
        };
        let s = t.borrow().busy_s;
        l.add(row, s);
        named += s;
    }
    l.add("flow.other_s", flow_calls_s - named);
}

/// Rows derived from the engine's own `FlowStats` counters.
pub fn book_flow_stats(
    l: &mut Ledger,
    st: &ga_core::flow::FlowStats,
    batches: usize,
    publishes: u64,
    vertices: usize,
) {
    l.add("flow.triggers", st.ingest.triggers_fired as f64);
    l.add("flow.events", st.ingest.events_observed as f64);
    l.add("stream.quarantined", st.ingest.updates_quarantined as f64);
    l.add("snapshot.rows_reused", st.snapshots.rows_reused as f64);
    l.add(
        "snapshot.row_capacity",
        (st.snapshots.rebuilds * vertices) as f64,
    );
    l.add(
        "flow.extract_vertices",
        st.analytics.vertices_extracted as f64,
    );
    l.add("flow.extract_edges", st.analytics.edges_extracted as f64);
    l.add("flow.props_written", st.analytics.props_written_back as f64);
    l.add(
        "kernels.edges_touched",
        st.analytics.kernel_edges_touched as f64,
    );
    l.add("epoch.publishes", publishes as f64);
    l.add("stream.batches", batches as f64);
}

/// Counts and byte totals every engine-backed workload reports.
pub fn book_counts(l: &mut Ledger, snaps: &[MetricsSnapshot]) {
    let count = |m: &StepMetrics| m.count;
    let disk = |m: &StepMetrics| m.disk_bytes;
    l.add("wal.appends", step_total(snaps, Step::Wal, count));
    l.add("wal.bytes", step_total(snaps, Step::Wal, disk));
    l.add(
        "snapshot.rebuilds",
        step_total(snaps, Step::Snapshot, count),
    );
    l.add(
        "snapshot.mem_bytes",
        step_total(snaps, Step::Snapshot, |m| m.mem_bytes),
    );
    l.add(
        "durability.checkpoint_count",
        step_total(snaps, Step::Checkpoint, count),
    );
    l.add(
        "durability.checkpoint_bytes",
        step_total(snaps, Step::Checkpoint, disk),
    );
}

/// What one pass measured; the run loop aggregates these across passes.
#[derive(Default)]
pub struct PassOut {
    pub setup_s: f64,
    pub processing_s: f64,
    /// Peak RSS over this pass's set-up and processing, MB.
    pub peak_rss_mb: f64,
    /// CPU seconds of the processing, the reader thread's excluded.
    pub processing_cpu_s: f64,
    /// Per-batch acknowledgement latency, ms.
    pub ack_ms: Samples,
    pub updates_acked: u64,
    /// Driving-thread CPU seconds inside acknowledged ingest calls.
    pub ingest_cpu_s: f64,
    pub dedup_records: u64,
    pub dedup_s: f64,
    /// Driving-thread CPU per query of the serving probe, µs.
    pub query_cpu_us: Option<f64>,
    pub batch_s: Option<f64>,
    pub scatter_gather_s: Option<f64>,
    pub recover_s: Option<f64>,
    pub reader: Option<ReaderOut>,
    /// Operations attempted (acked batches, queries sent, jobs run).
    pub attempted: u64,
    /// Quarantined updates, WAL errors, shed High queries.
    pub failed: u64,
    pub ledger: Ledger,
}

impl PassOut {
    /// Run one ingest call of `updates` updates and book it: an
    /// acknowledged batch adds its wall latency and the driving thread's
    /// CPU time, a failed one counts as a failed operation. Returns the
    /// call's wall seconds.
    pub fn ack<T, E>(&mut self, updates: usize, call: impl FnOnce() -> Result<T, E>) -> f64 {
        let cpu = thread_cpu_s();
        let t = Instant::now();
        let r = call();
        let dt = secs(t);
        self.attempted += 1;
        match r {
            Ok(_) => {
                self.ack_ms.push(dt * 1e3);
                self.ingest_cpu_s += thread_cpu_s() - cpu;
                self.updates_acked += updates as u64;
            }
            Err(_) => self.failed += 1,
        }
        dt
    }

    /// The serving probe, run after the timed region: one burst of
    /// `queries` through `serve` (the workload's serving front end) that
    /// keeps the answers for the gates and warms the caches, then
    /// `PROBE_BURSTS` timed bursts that drop them. Books their thread CPU
    /// per query, steal excluded, and each unanswered query as a failed
    /// operation. Returns the first burst's answers.
    pub fn probe(
        &mut self,
        queries: &[Query],
        mut serve: impl FnMut(&Query) -> Option<QueryResponse>,
    ) -> Vec<Option<QueryResponse>> {
        let answers: Vec<Option<QueryResponse>> = queries.iter().map(&mut serve).collect();
        let mut unanswered = answers.iter().filter(|a| a.is_none()).count();
        let cpu = thread_cpu_s();
        for _ in 0..PROBE_BURSTS {
            unanswered += queries.iter().filter(|q| serve(q).is_none()).count();
        }
        let timed = PROBE_BURSTS * queries.len();
        self.query_cpu_us = Some((thread_cpu_s() - cpu) * 1e6 / timed as f64);
        self.attempted += (queries.len() + timed) as u64;
        self.failed += unanswered as u64;
        answers
    }

    /// Fold a reader's counts into the pass's attempted/failed totals.
    pub fn take_reader(&mut self, r: ReaderOut) {
        self.processing_cpu_s -= r.cpu_s;
        self.attempted += r.sent;
        self.failed += r.shed_high;
        self.reader = Some(r);
    }
}

/// Timed closed-loop bursts in one serving probe.
pub const PROBE_BURSTS: usize = 10;

/// A named correctness check of one pass.
pub struct Gate {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Gate {
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Gate {
        Gate {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Probe answers that differ from `oracle`'s (an unanswered query
/// differs).
pub fn probe_mismatches(
    queries: &[Query],
    answers: &[Option<QueryResponse>],
    oracle: &EpochSnapshot,
) -> usize {
    queries
        .iter()
        .zip(answers)
        .filter(|(q, a)| a.as_ref() != Some(&q.run(oracle)))
        .count()
}

/// `acc += after - before`, step by step.
pub fn diff_into(acc: &mut MetricsSnapshot, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    for ((a, b), c) in acc.steps.iter_mut().zip(&before.steps).zip(&after.steps) {
        a.count += c.count - b.count;
        a.wall_nanos += c.wall_nanos - b.wall_nanos;
        a.disk_bytes += c.disk_bytes - b.disk_bytes;
        a.mem_bytes += c.mem_bytes - b.mem_bytes;
    }
}

/// `a - b`, step by step.
pub fn minus(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = a.clone();
    for (o, s) in out.steps.iter_mut().zip(&b.steps) {
        o.count -= s.count;
        o.wall_nanos -= s.wall_nanos;
        o.disk_bytes -= s.disk_bytes;
        o.mem_bytes -= s.mem_bytes;
    }
    out
}

/// WAL batches a recovered engine replayed on top of its checkpoint.
pub fn replayed(flow: &ga_core::flow::FlowEngine) -> f64 {
    match (flow.next_wal_seq(), flow.last_checkpoint_seq()) {
        (Some(next), Some(ckpt)) => next.saturating_sub(ckpt) as f64,
        _ => 0.0,
    }
}
