//! End-to-end benchmark of the Fig. 2 engine.
//!
//! ```sh
//! perfbench --workload fig2-flow --seed 1 --seconds 12 --trace 0
//! perfbench --workload batch-analytics --seed 1 --seconds 1 --smoke
//! ```
//!
//! One run repeats set-up + one fixed pass of the workload until
//! `--seconds` have elapsed (at least three passes; `--smoke` shrinks
//! every input so that all correctness gates run in seconds), then prints one
//! JSON record: every end-to-end metric it measured with its unit and
//! sample count, the correctness gates, run metadata and, with
//! `--trace 1`, the per-layer self-time table. `perfbench/run.py` builds
//! this binary, runs it and reduces the record to the benchmark's
//! result line.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux procfs and CPU clocks: build it on 64-bit Linux");

mod batch;
mod common;
mod fig2;
mod firehose;
mod fleet;

use common::*;
use ga_obs::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What every workload pass reads from the command line.
pub struct Run {
    pub seed: u64,
    pub smoke: bool,
    /// Scratch directory for WAL and checkpoint files.
    pub dir: PathBuf,
    /// Open-loop reader threads (0 or 1).
    pub readers: usize,
}

type PassFn = fn(&Run, usize, bool, bool) -> (PassOut, Vec<Gate>);

struct Workload {
    name: &'static str,
    pass: PassFn,
    describe: fn(bool) -> Vec<(&'static str, f64)>,
    /// Whether the workload runs a query reader beside the driving thread.
    serves: bool,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig2-flow",
        pass: fig2::pass,
        describe: fig2::describe,
        serves: true,
    },
    Workload {
        name: "serve-firehose",
        pass: firehose::pass,
        describe: firehose::describe,
        serves: true,
    },
    Workload {
        name: "batch-analytics",
        pass: batch::pass,
        describe: batch::describe,
        serves: false,
    },
    Workload {
        name: "sharded-fleet",
        pass: fleet::pass,
        describe: fleet::describe,
        serves: false,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    workdir: PathBuf,
}

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S [--trace 0|1] [--smoke] [--workdir DIR]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: f64::NAN,
        trace: false,
        smoke: false,
        workdir: PathBuf::from(".bench_run"),
    };
    let mut seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = value() == "1",
            "--workdir" => a.workdir = PathBuf::from(value()),
            "--smoke" => a.smoke = true,
            _ => usage(),
        }
    }
    a.seed = seed.unwrap_or_else(|| usage());
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        usage();
    }
    a
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(v: f64) -> Json {
    Json::Float(v)
}

/// Per-pass results, split by whether the pass was traced.
#[derive(Default)]
struct Passes {
    untraced: Vec<PassOut>,
    traced: Vec<PassOut>,
}

fn median_of(v: impl Iterator<Item = f64>) -> Option<f64> {
    let mut s = Samples::default();
    v.for_each(|x| s.push(x));
    s.median()
}

/// End-to-end metrics from the untraced passes: (name, value, unit, samples).
fn end_to_end(p: &Passes) -> Vec<(&'static str, f64, &'static str, usize)> {
    let all = || p.untraced.iter().chain(&p.traced);
    let u = &p.untraced;
    let mut m = Vec::new();
    if let Some(v) = median_of(all().map(|x| x.setup_s)) {
        m.push(("setup_s", v, "s", all().count()));
    }
    if let Some(v) = median_of(u.iter().map(|x| x.processing_s)) {
        m.push(("processing_s", v, "s", u.len()));
    }
    if let Some(v) = median_of(u.iter().map(|x| x.processing_cpu_s)) {
        m.push(("processing_cpu_s", v, "s", u.len()));
    }
    if let Some(v) = median_of(
        u.iter()
            .map(|x| x.ingest_cpu_s * 1e6 / x.updates_acked as f64),
    ) {
        m.push(("ingest_cpu_us_per_update", v, "us", u.len()));
    }
    let mut acks = Samples::default();
    u.iter().for_each(|x| acks.extend(&x.ack_ms));
    if acks.len() > 0 {
        // Per pass: updates acknowledged per second spent acknowledging.
        let rate = median_of(
            u.iter()
                .map(|x| x.updates_acked as f64 / (x.ack_ms.sum() / 1e3)),
        );
        m.push(("ingest_updates_per_s", rate.unwrap(), "updates/s", u.len()));
        m.push(("ack_p50_ms", acks.median().unwrap(), "ms", acks.len()));
        m.push(("ack_p99_ms", acks.quantile(0.99).unwrap(), "ms", acks.len()));
    }
    let mut lat = Samples::default();
    u.iter()
        .filter_map(|x| x.reader.as_ref())
        .for_each(|r| lat.extend(&r.latency_us));
    if lat.len() > 0 {
        m.push(("query_p50_us", lat.median().unwrap(), "us", lat.len()));
        m.push(("query_p99_us", lat.quantile(0.99).unwrap(), "us", lat.len()));
    }
    let records: u64 = u.iter().map(|x| x.dedup_records).sum();
    if records > 0 {
        let s: f64 = u.iter().map(|x| x.dedup_s).sum();
        m.push((
            "dedup_records_per_s",
            records as f64 / s,
            "records/s",
            u.len(),
        ));
    }
    for (name, get) in [
        (
            "batch_s",
            (|x: &PassOut| x.batch_s) as fn(&PassOut) -> Option<f64>,
        ),
        ("scatter_gather_s", |x: &PassOut| x.scatter_gather_s),
        ("recover_s", |x: &PassOut| x.recover_s),
    ] {
        if let Some(v) = median_of(u.iter().filter_map(get)) {
            m.push((name, v, "s", u.iter().filter_map(get).count()));
        }
    }
    if let Some(v) = median_of(u.iter().filter_map(|x| x.query_cpu_us)) {
        m.push(("query_cpu_us", v, "us", u.len()));
    }
    if let Some(v) = median_of(all().map(|x| x.peak_rss_mb)) {
        m.push(("peak_rss_mb", v, "MB", all().count()));
    }
    m
}

/// Per-layer table: per-pass means over the traced passes, derived
/// ratios, and `unattributed_s` closing the self-time sum to `wall_s`.
/// Only booked rows appear, plus every self-time row (0 where the
/// workload does not run that layer).
fn per_layer(p: &Passes, busy_threads: usize) -> BTreeMap<&'static str, f64> {
    let k = p.traced.len().max(1) as f64;
    let mut sum = Ledger::default();
    for x in &p.traced {
        for (name, v) in &x.ledger.rows {
            sum.add(name, *v);
        }
    }
    let mut rows: BTreeMap<&'static str, f64> = SELF_ROWS.iter().map(|n| (*n, 0.0)).collect();
    rows.extend(sum.rows.iter().map(|(n, v)| (*n, v / k)));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let get = |n: &str| rows.get(n).copied().unwrap_or(0.0);
    let derived = [
        (
            "flow.trigger_ratio",
            ratio(get("flow.triggers"), get("flow.events")),
        ),
        (
            "dedup.match_ratio",
            ratio(get("dedup.merges"), get("dedup.comparisons")),
        ),
        (
            "epoch.publishes_per_batch",
            ratio(get("epoch.publishes"), get("stream.batches")),
        ),
        (
            "snapshot.reuse_ratio",
            ratio(get("snapshot.rows_reused"), get("snapshot.row_capacity")),
        ),
    ];
    rows.extend(derived);
    let mut service = Samples::default();
    let mut lateness = Samples::default();
    let (mut answered, mut shed_high, mut shed_bulk) = (0u64, 0u64, 0u64);
    for r in p.traced.iter().filter_map(|x| x.reader.as_ref()) {
        service.extend(&r.service_us);
        lateness.extend(&r.lateness_us);
        answered += r.answered;
        shed_high += r.shed_high;
        shed_bulk += r.shed_bulk;
    }
    rows.insert("serve.service_us_p50", service.median().unwrap_or(0.0));
    rows.insert(
        "serve.service_us_p99",
        service.quantile(0.99).unwrap_or(0.0),
    );
    rows.insert("serve.answered", answered as f64 / k);
    rows.insert("serve.shed_high", shed_high as f64 / k);
    rows.insert("serve.shed_bulk", shed_bulk as f64 / k);
    rows.insert(
        "loadgen.lateness_us_p99",
        lateness.quantile(0.99).unwrap_or(0.0),
    );
    rows.insert("loadgen.busy_threads", busy_threads as f64);
    let untraced = median_of(p.untraced.iter().map(|x| x.processing_s));
    let traced = median_of(p.traced.iter().map(|x| x.processing_s));
    if let (Some(u), Some(t)) = (untraced, traced) {
        rows.insert("obs.overhead_frac", t / u - 1.0);
    }
    let attributed: f64 = SELF_ROWS
        .iter()
        .filter(|n| **n != "unattributed_s")
        .map(|n| get_row(&rows, n))
        .sum();
    rows.insert("unattributed_s", get_row(&rows, "wall_s") - attributed);
    rows
}

/// (steal, total) jiffies of all CPUs, from procfs; zeros elsewhere.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time the hypervisor withheld between two readings: a
/// run on a loaded host reads slower for reasons outside the program.
fn steal_frac(a: (u64, u64), b: (u64, u64)) -> f64 {
    let total = b.1.saturating_sub(a.1);
    if total == 0 {
        0.0
    } else {
        b.0.saturating_sub(a.0) as f64 / total as f64
    }
}

fn get_row(rows: &BTreeMap<&'static str, f64>, n: &str) -> f64 {
    rows.get(n).copied().unwrap_or(0.0)
}

fn main() {
    let args = parse_args();
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        usage();
    };
    // Load-generator discipline: the driving thread plus any reader never
    // exceed the cores, and kernel worker threads take what is left.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let readers = usize::from(w.serves && nproc >= 2);
    let kernel_threads = (nproc - readers).max(1);
    // Set before any thread exists; the vendored rayon reads it per call.
    std::env::set_var("RAYON_NUM_THREADS", kernel_threads.to_string());
    let busy_threads = (1 + readers).max(kernel_threads);

    let dir = args
        .workdir
        .join(format!("{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let run = Run {
        seed: args.seed,
        smoke: args.smoke,
        dir: dir.clone(),
        readers,
    };

    let start = Instant::now();
    let cpu_start = cpu_ticks();
    let mut passes = Passes::default();
    let mut gates: Vec<Gate> = Vec::new();
    let min_passes = if args.trace { 4 } else { 3 };
    let mut idx = 0;
    loop {
        let traced = args.trace && idx % 2 == 1;
        reset_peak_rss();
        let (out, g) = (w.pass)(&run, idx, traced, idx == 0);
        gates.extend(g);
        if traced {
            passes.traced.push(out);
        } else {
            passes.untraced.push(out);
        }
        idx += 1;
        if idx >= min_passes && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let all = || passes.untraced.iter().chain(&passes.traced);
    let failed_gates = gates.iter().filter(|g| !g.ok).count() as u64;
    let attempted: u64 = all().map(|x| x.attempted).sum::<u64>() + gates.len() as u64;
    let failed: u64 = all().map(|x| x.failed).sum::<u64>() + failed_gates;
    for g in gates.iter().filter(|g| !g.ok) {
        eprintln!("gate FAILED: {} ({})", g.name, g.detail);
    }

    let mut lateness = Samples::default();
    let mut backlog = 0u64;
    for r in all().filter_map(|x| x.reader.as_ref()) {
        lateness.extend(&r.lateness_us);
        backlog += r.backlog;
    }
    let lateness_p99 = lateness.quantile(0.99).unwrap_or(0.0);
    // Behind schedule: 1 % of sends at least 1 ms late while idle. A
    // backlog at stop is queueing behind slow queries, reported apart.
    let behind = lateness_p99 > 1_000.0;
    if behind {
        eprintln!("load generator fell behind: lateness p99 {lateness_p99:.0} us");
    }

    let metrics = end_to_end(&passes)
        .into_iter()
        .map(|(name, v, unit, n)| {
            let m = obj(vec![
                ("value", num(v)),
                ("unit", Json::Str(unit.into())),
                ("samples", Json::UInt(n as u64)),
            ]);
            (name.to_string(), m)
        })
        .collect();
    let mut record = vec![
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::UInt(args.seed)),
        ("correct", Json::Bool(failed_gates == 0)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        ("metrics", Json::Obj(metrics)),
        (
            "gates",
            Json::Arr(
                gates
                    .iter()
                    .map(|g| {
                        obj(vec![
                            ("name", Json::Str(g.name.clone())),
                            ("ok", Json::Bool(g.ok)),
                            ("detail", Json::Str(g.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    let sizes = (w.describe)(args.smoke)
        .into_iter()
        .map(|(k, v)| (k.to_string(), num(v)))
        .collect();
    record.push((
        "meta",
        obj(vec![
            ("nproc", Json::UInt(nproc as u64)),
            ("readers", Json::UInt(readers as u64)),
            ("kernel_threads", Json::UInt(kernel_threads as u64)),
            ("busy_threads", Json::UInt(busy_threads as u64)),
            (
                "build_profile",
                Json::Str(
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }
                    .into(),
                ),
            ),
            ("smoke", Json::Bool(args.smoke)),
            ("passes_untraced", Json::UInt(passes.untraced.len() as u64)),
            ("passes_traced", Json::UInt(passes.traced.len() as u64)),
            ("run_s", num(start.elapsed().as_secs_f64())),
            ("cpu_steal_frac", num(steal_frac(cpu_start, cpu_ticks()))),
            ("loadgen_lateness_us_p99", num(lateness_p99)),
            ("loadgen_behind", Json::Bool(behind)),
            ("loadgen_backlog_at_stop", Json::UInt(backlog)),
            ("sizes", Json::Obj(sizes)),
        ]),
    ));
    if args.trace {
        let layers = per_layer(&passes, busy_threads)
            .into_iter()
            .map(|(k, v)| (k.to_string(), num(v)))
            .collect();
        record.push(("layers", Json::Obj(layers)));
        let self_rows = SELF_ROWS.iter().map(|n| Json::Str(n.to_string())).collect();
        record.push(("self_rows", Json::Arr(self_rows)));
    }
    println!("{}", obj(record).to_string_compact());
    if failed_gates > 0 {
        std::process::exit(1);
    }
}
