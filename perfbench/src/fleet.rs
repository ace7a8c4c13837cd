//! `sharded-fleet`: a durable, replicated 2-shard `ShardedFlow` ingests
//! an R-MAT stream in 1 000-update batches, checkpoints every N batches,
//! runs scatter-gather PageRank, components and BFS every M batches,
//! and ends with a full fleet restart and recovery. It is the only
//! workload that runs `ga_core::sharded`. After the timed region, the
//! recovered fleet serves a probe of point queries through its router.

use crate::common::*;
use crate::Run;
use ga_core::flow::FlowEngine;
use ga_core::sharded::ShardedFlow;
use ga_graph::CsrBuilder;
use ga_kernels::bfs::bfs_depths;
use ga_kernels::cc::wcc_union_find;
use ga_kernels::pagerank::pagerank_with;
use ga_kernels::KernelCtx;
use ga_obs::{MetricsSnapshot, Step};
use ga_stream::update::{into_batches, rmat_edge_stream, UpdateBatch};
use std::time::Instant;

const SHARDS: usize = 2;

struct Sizes {
    scale: u32,
    updates: usize,
    batch: usize,
    checkpoint_every: usize,
    analytics_every: usize,
    probe_queries: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            scale: 9,
            updates: 6_000,
            batch: 200,
            checkpoint_every: 10,
            analytics_every: 15,
            probe_queries: 2_000,
        }
    } else {
        Sizes {
            scale: 14,
            updates: 200_000,
            batch: 1_000,
            checkpoint_every: 50,
            analytics_every: 100,
            probe_queries: 50_000,
        }
    }
}

pub fn describe(smoke: bool) -> Vec<(&'static str, f64)> {
    let s = sizes(smoke);
    vec![
        ("shards", SHARDS as f64),
        ("rmat_scale", s.scale as f64),
        ("stream_updates", s.updates as f64),
        ("batch_updates", s.batch as f64),
        ("checkpoint_every_batches", s.checkpoint_every as f64),
        ("scatter_gather_every_batches", s.analytics_every as f64),
        ("probe_queries", s.probe_queries as f64),
    ]
}

/// Element-wise `a - b` over per-recorder snapshots.
fn minus_all(a: &[MetricsSnapshot], b: &[MetricsSnapshot]) -> Vec<MetricsSnapshot> {
    a.iter().zip(b).map(|(a, b)| minus(a, b)).collect()
}

pub fn pass(run: &Run, idx: usize, traced: bool, full_gate: bool) -> (PassOut, Vec<Gate>) {
    let s = sizes(run.smoke);
    let n = 1usize << s.scale;
    let mut out = PassOut::default();
    let mut gates = Vec::new();

    let t_setup = Instant::now();
    let batches: Vec<UpdateBatch> = into_batches(
        rmat_edge_stream(s.scale, s.updates, 0.05, run.seed ^ 0xf1ee7),
        s.batch,
        1,
    );
    let probe = probe_queries(run.seed, n as u32, s.probe_queries, "pagerank");
    let base = run.dir.join(format!("fleet-{idx}"));
    let _ = std::fs::remove_dir_all(&base);
    let mut fleet = ShardedFlow::builder(SHARDS)
        .durability_base(&base)
        .replicate(true)
        .record_metrics(traced)
        .build(n)
        .expect("build fleet");
    let setup_steps = fleet.metrics();
    out.setup_s = secs(t_setup);

    let t0 = Instant::now();
    let cpu0 = process_cpu_s();
    let (mut process_s, mut checkpoint_s) = (0.0, 0.0);
    let (mut pr_s, mut cc_s, mut bfs_s) = (0.0, 0.0, 0.0);
    let mut ckpt_steps = vec![MetricsSnapshot::empty(); setup_steps.len()];
    let mut last = None;
    for (i, batch) in batches.iter().enumerate() {
        process_s += out.ack(batch.updates.len(), || fleet.process_batch(batch));
        if (i + 1) % s.checkpoint_every == 0 {
            let before = fleet.metrics();
            let report = timed(&mut checkpoint_s, || fleet.checkpoint()).expect("checkpoint");
            out.attempted += 1;
            if !report.is_complete() {
                out.failed += 1;
            }
            let after = fleet.metrics();
            for ((acc, b), a) in ckpt_steps.iter_mut().zip(&before).zip(&after) {
                diff_into(acc, b, a);
            }
        }
        if (i + 1) % s.analytics_every == 0 || i + 1 == batches.len() {
            let pr = timed(&mut pr_s, || fleet.pagerank(0.85, 1e-10, 50));
            let cc = timed(&mut cc_s, || fleet.components());
            let bfs = timed(&mut bfs_s, || fleet.bfs(0));
            out.attempted += 3;
            last = Some((pr, cc, bfs));
        }
    }
    out.scatter_gather_s = Some(pr_s + cc_s + bfs_s);
    let before_restart = fleet.merged_graph();
    let lost = fleet.lost_updates();
    let quarantined = fleet.dead_letter_count() as u64;
    let snaps = minus_all(&fleet.metrics(), &setup_steps);
    let ghost = fleet.ghost_updates();
    let traffic = fleet.traffic().total();
    let edges: Vec<f64> = fleet
        .shards()
        .iter()
        .map(|e| e.graph().num_live_edges() as f64)
        .collect();
    drop(fleet);
    let t_rec = Instant::now();
    let mut recovered = ShardedFlow::builder(SHARDS)
        .replicate(true)
        .recover(&base)
        .expect("recover fleet");
    let recover_s = secs(t_rec);
    out.recover_s = Some(recover_s);
    out.processing_s = secs(t0);
    out.peak_rss_mb = peak_rss_mb();
    out.processing_cpu_s += process_cpu_s() - cpu0;
    out.failed += quarantined + lost;

    if traced {
        let l = &mut out.ledger;
        l.add("wall_s", out.processing_s);
        let work = minus_all(&snaps, &ckpt_steps);
        let mut inside_process = 0.0;
        for (step, row) in [
            (Step::Ingest, "stream.apply_self_s"),
            (Step::Wal, "wal.busy_s"),
            (Step::Snapshot, "snapshot.busy_s"),
        ] {
            let v = step_s(&work, step);
            l.add(row, v);
            inside_process += v;
        }
        l.add("sharded.process_s", process_s - inside_process);
        l.add("sharded.checkpoint_s", checkpoint_s);
        l.add("sharded.pagerank_s", pr_s);
        l.add("sharded.components_s", cc_s);
        l.add("sharded.bfs_s", bfs_s);
        l.add("durability.recover_s", recover_s);
        let replayed_batches: f64 = recovered.shards().iter().map(replayed).sum();
        l.add("durability.recover_replayed_batches", replayed_batches);
        book_counts(l, &snaps);
        l.add("stream.quarantined", quarantined as f64);
        l.add("stream.batches", batches.len() as f64);
        l.add("sharded.ghost_updates", ghost as f64);
        l.add("sharded.cross_shard_bytes", traffic as f64);
        let mean = edges.iter().sum::<f64>() / edges.len() as f64;
        let max = edges.iter().copied().fold(0.0, f64::max);
        l.add(
            "sharded.edge_skew",
            if mean > 0.0 { max / mean } else { 0.0 },
        );
    }
    let mut router = recovered.query_router();
    let served = out.probe(&probe, |q| router.run(q).ok());

    gates.push(Gate::new(
        "fleet.zero_lost_updates",
        lost == 0,
        format!("{lost} updates lost"),
    ));
    gates.push(Gate::new(
        "fleet.recovered_equals_before_restart",
        recovered.merged_graph() == before_restart,
        "merged graph after full fleet recovery",
    ));
    if full_gate {
        // Unsharded oracle: one engine fed the same batches, kernels run
        // serially on its graph.
        let mut oracle = FlowEngine::new(n);
        for batch in &batches {
            oracle.process_stream(batch, |_| None, None);
        }
        gates.push(Gate::new(
            "fleet.merged_graph_equals_unsharded",
            &before_restart == oracle.graph(),
            "merged fleet graph vs one unsharded engine",
        ));
        let snap = oracle.graph().snapshot();
        let rev = CsrBuilder::new(n).edges(snap.edges()).reverse(true).build();
        let pr_ref = pagerank_with(&rev, 0.85, 1e-10, 50, &KernelCtx::serial());
        let cc_ref = wcc_union_find(&snap);
        let bfs_ref = bfs_depths(&snap, 0);
        let (pr, cc, bfs) = last.expect("scatter-gather ran");
        gates.push(Gate::new(
            "fleet.scatter_gather_bit_identical",
            pr.rank == pr_ref.rank
                && pr.work == pr_ref.work
                && cc.label == cc_ref.label
                && cc.count == cc_ref.count
                && bfs == bfs_ref,
            "final PageRank/CC/BFS vs unsharded serial kernels",
        ));
        let oracle = oracle.serve_handle().load().expect("oracle snapshot");
        let bad = probe_mismatches(&probe, &served, &oracle);
        gates.push(Gate::new(
            "fleet.routed_equals_unsharded",
            bad == 0,
            format!(
                "{bad}/{} probe answers routed by the recovered fleet differ from one unsharded engine's",
                probe.len()
            ),
        ));
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&base);
    (out, gates)
}
