//! E12 driver: measure the snapshot pipeline and emit a machine-readable
//! `BENCH_snapshot.json` so later PRs have a perf trajectory to compare
//! against.
//!
//! Times three things on an R-MAT graph (default scale 16, 8 edges per
//! vertex):
//!
//! * `legacy_full_ms` — the old tuple-materializing global-sort freeze,
//! * `rowwise_full_ms` — the row-wise counting-sort freeze (serial and
//!   parallel),
//! * `delta_ms` at 0.1% / 1% / 10% dirty rows — the cached rebuild,
//!   with evenly strided dirty rows and the previous CSR dropped;
//! * `hub_churn` — the serving pattern: batches of 63 R-MAT updates
//!   (5 % deletes, both directions of each edge), one rebuild per
//!   batch, the newest generation held until the next one replaces it
//!   the way a publishing `SnapshotHandle` holds it. R-MAT dirties hub
//!   rows, and the held generation keeps the cache from reusing the
//!   arrays it is still serving.
//!
//! The acceptance criteria this file certifies: row-wise full freeze no
//! slower than legacy, and delta ≥5x faster than a full legacy rebuild
//! at ≤1% dirty rows.
//!
//! ```sh
//! cargo run --release -p ga-bench --bin bench_snapshot
//! # smoke (CI): GA_BENCH_SMOKE=1 shrinks to scale 12, 3 reps
//! # embed another commit's output (same bin, same machine) as "baseline"
//! cargo run --release -p ga-bench --bin bench_snapshot -- --baseline parent.json
//! ```

use ga_bench::{apply_symmetric, header, smoke};
use ga_graph::gen;
use ga_graph::snapshot::{freeze, SnapshotCache};
use ga_graph::{DynamicGraph, Parallelism};
use ga_stream::update::rmat_edge_stream;
use std::hint::black_box;
use std::time::Instant;

fn rmat_dynamic(scale: u32, edges_per_v: usize, seed: u64) -> DynamicGraph {
    let n = 1usize << scale;
    let edges = gen::rmat(scale, edges_per_v * n, gen::RmatParams::GRAPH500, seed);
    let mut g = DynamicGraph::new(n);
    for (i, &(u, v)) in edges.iter().enumerate() {
        g.insert_edge(u, v, 1.0, i as u64);
    }
    g
}

/// Median wall time (ms) of `reps` runs of `f`.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn dirty_rows(g: &mut DynamicGraph, frac: f64, ts: u64) -> usize {
    let n = g.num_vertices();
    let k = ((n as f64 * frac) as usize).max(1);
    let stride = (n / k).max(1);
    let mut touched = 0;
    for u in (0..n).step_by(stride).take(k) {
        let u = u as u32;
        g.insert_edge(u, (u + 1) % n as u32, 2.0, ts);
        touched += 1;
    }
    touched
}

/// What the hub-churn case measured.
struct HubChurn {
    batches: usize,
    /// Median wall time of one rebuild, ms.
    ms: f64,
    rows_dirty_mean: f64,
    /// Slots (live + tombstoned) of the dirty rows, per batch.
    slots_dirty_mean: f64,
    max_dirty_row_slots: usize,
}

/// Rebuild once per batch of 63 R-MAT updates, holding the newest
/// generation until the next one is served.
fn hub_churn(g: &mut DynamicGraph, scale: u32, batches: usize) -> HubChurn {
    const BATCH: usize = 63;
    let stream = rmat_edge_stream(scale, BATCH * batches, 0.05, 0xf1e);
    let mut cache = SnapshotCache::new();
    let mut held = cache.snapshot(g, Parallelism::Auto);
    let (mut rows, mut slots, mut max_slots) = (0usize, 0usize, 0usize);
    let mut samples = Vec::with_capacity(batches);
    for (b, chunk) in stream.chunks(BATCH).enumerate() {
        let since = g.version();
        apply_symmetric(g, chunk, 1_000_000 + b as u64);
        for u in 0..g.num_vertices() as u32 {
            if g.row_changed_since(u, since) {
                let len = g.row_slots(u).len();
                rows += 1;
                slots += len;
                max_slots = max_slots.max(len);
            }
        }
        let t = Instant::now();
        let next = cache.snapshot(g, Parallelism::Auto);
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        // The handle swaps in the new generation, then lets the old go.
        held = black_box(next);
    }
    drop(held);
    samples.sort_by(|a, b| a.total_cmp(b));
    HubChurn {
        batches,
        ms: samples[samples.len() / 2],
        rows_dirty_mean: rows as f64 / batches as f64,
        slots_dirty_mean: slots as f64 / batches as f64,
        max_dirty_row_slots: max_slots,
    }
}

struct DeltaPoint {
    label: &'static str,
    frac: f64,
    rows_dirty: usize,
    ms: f64,
    speedup_vs_legacy_full: f64,
}

fn main() {
    let smoke = smoke();
    let scale: u32 = std::env::var("GA_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 12 } else { 16 });
    let reps = if smoke { 3 } else { 7 };
    let edges_per_v = 8;

    header(&format!(
        "E12 — snapshot pipeline, R-MAT scale {scale} ({} edges/vertex), median of {reps}",
        edges_per_v
    ));
    let g = rmat_dynamic(scale, edges_per_v, 3);
    let (n, m) = (g.num_vertices(), g.num_live_edges());
    println!("graph: {n} vertices, {m} live directed edges");

    let legacy_ms = time_ms(reps, || g.snapshot_legacy());
    let rowwise_serial_ms = time_ms(reps, || freeze(&g, Parallelism::Serial));
    let rowwise_parallel_ms = time_ms(reps, || freeze(&g, Parallelism::Parallel));
    println!("full freeze:  legacy {legacy_ms:9.3} ms");
    println!(
        "              rowwise serial {rowwise_serial_ms:9.3} ms  ({:.2}x)",
        legacy_ms / rowwise_serial_ms
    );
    println!(
        "              rowwise parallel {rowwise_parallel_ms:7.3} ms  ({:.2}x)",
        legacy_ms / rowwise_parallel_ms
    );

    let mut deltas: Vec<DeltaPoint> = Vec::new();
    for (label, frac) in [
        ("dirty_0.1pct", 0.001),
        ("dirty_1pct", 0.01),
        ("dirty_10pct", 0.1),
    ] {
        let mut gd = rmat_dynamic(scale, edges_per_v, 3);
        let mut cache = SnapshotCache::new();
        cache.snapshot(&gd, Parallelism::Auto);
        let rows_dirty = dirty_rows(&mut gd, frac, u64::MAX);
        let ms = time_ms(reps, || {
            let mut c = cache.clone();
            c.snapshot(&gd, Parallelism::Auto)
        });
        let speedup = legacy_ms / ms;
        println!(
            "delta {label:>12}: {rows_dirty:7} rows dirty, {ms:9.3} ms  ({speedup:.1}x vs legacy full)"
        );
        deltas.push(DeltaPoint {
            label,
            frac,
            rows_dirty,
            ms,
            speedup_vs_legacy_full: speedup,
        });
    }

    let churn_batches = if smoke { 40 } else { 300 };
    let mut gc = rmat_dynamic(scale, edges_per_v, 3);
    let churn = hub_churn(&mut gc, scale, churn_batches);
    println!(
        "hub churn: {} batches, {:.0} rows / {:.0} slots dirty per batch (largest row {}), {:9.3} ms per rebuild",
        churn.batches,
        churn.rows_dirty_mean,
        churn.slots_dirty_mean,
        churn.max_dirty_row_slots,
        churn.ms
    );

    // Hand-rolled JSON (no serde in the dependency budget).
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str(&format!("  \"scale\": {scale},\n"));
    j.push_str(&format!("  \"vertices\": {n},\n"));
    j.push_str(&format!("  \"edges\": {m},\n"));
    j.push_str(&format!("  \"smoke\": {smoke},\n"));
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    j.push_str(&format!("  \"nproc\": {nproc},\n"));
    j.push_str(&format!("  \"reps\": {reps},\n"));
    j.push_str(&format!("  \"legacy_full_ms\": {legacy_ms:.4},\n"));
    j.push_str(&format!(
        "  \"rowwise_full_serial_ms\": {rowwise_serial_ms:.4},\n"
    ));
    j.push_str(&format!(
        "  \"rowwise_full_parallel_ms\": {rowwise_parallel_ms:.4},\n"
    ));
    j.push_str("  \"delta\": [\n");
    for (i, d) in deltas.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"label\": \"{}\", \"dirty_fraction\": {}, \"rows_dirty\": {}, \"ms\": {:.4}, \"speedup_vs_legacy_full\": {:.2}}}{}\n",
            d.label,
            d.frac,
            d.rows_dirty,
            d.ms,
            d.speedup_vs_legacy_full,
            if i + 1 < deltas.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str(&format!(
        "  \"hub_churn\": {{\"batches\": {}, \"batch_updates\": 63, \"rows_dirty_mean\": {:.1}, \"slots_dirty_mean\": {:.1}, \"max_dirty_row_slots\": {}, \"ms\": {:.4}}},\n",
        churn.batches,
        churn.rows_dirty_mean,
        churn.slots_dirty_mean,
        churn.max_dirty_row_slots,
        churn.ms
    ));
    // `--baseline <file>`: the same bin's JSON from another commit,
    // embedded verbatim so one file carries the before/after pair.
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1))
    {
        let base = std::fs::read_to_string(path).expect("read --baseline file");
        j.push_str(&format!("  \"baseline\": {},\n", base.trim()));
    }
    let rowwise_ok = rowwise_serial_ms <= legacy_ms * 1.05 || rowwise_parallel_ms <= legacy_ms;
    let delta_ok = deltas
        .iter()
        .filter(|d| d.frac <= 0.01)
        .all(|d| d.speedup_vs_legacy_full >= 5.0);
    j.push_str(&format!(
        "  \"rowwise_no_slower_than_legacy\": {rowwise_ok},\n"
    ));
    j.push_str(&format!("  \"delta_5x_at_1pct\": {delta_ok}\n"));
    j.push_str("}\n");

    std::fs::write("BENCH_snapshot.json", &j).expect("write BENCH_snapshot.json");
    println!("\nwrote BENCH_snapshot.json");
    if !(rowwise_ok && delta_ok) {
        println!("WARNING: acceptance thresholds not met on this host (see JSON)");
    }
}
