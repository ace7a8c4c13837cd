//! `fig2-flow`: the paper's Fig. 2 reference run. Dedup, then durable
//! streaming ingest through the triangle and Jaccard monitors with
//! rationed triggers while one open-loop reader queries, then the
//! two-job batch path, then a restart that recovers from a non-empty
//! WAL tail.

use crate::common::*;
use crate::Run;
use ga_core::dedup::{dedup_batch, generate_records};
use ga_core::flow::{
    ComponentsAnalytic, FlowEngine, PageRankAnalytic, SelectionCriteria, TriangleAnalytic,
};
use ga_core::serve::{QueryService, ServeConfig, TenantConfig};
use ga_graph::ExtractOptions;
use ga_kernels::Parallelism;
use ga_obs::Recorder;
use ga_stream::admission::Priority;
use ga_stream::jaccard_stream::JaccardMonitor;
use ga_stream::tri_inc::IncrementalTriangles;
use ga_stream::update::{into_batches, rmat_edge_stream, UpdateBatch};
use ga_stream::{Event, EventKind};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

struct Sizes {
    records: usize,
    entities: usize,
    scale: u32,
    updates: usize,
    batch: usize,
    checkpoint_every: usize,
    trigger_budget: usize,
    query_rate: f64,
    probe_queries: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            records: 400,
            entities: 100,
            scale: 8,
            updates: 2_500,
            batch: 200,
            checkpoint_every: 5,
            trigger_budget: 5,
            query_rate: 2_000.0,
            probe_queries: 2_000,
        }
    } else {
        Sizes {
            records: 4_000,
            entities: 1_000,
            scale: 12,
            updates: 18_000,
            batch: 1_000,
            checkpoint_every: 10,
            trigger_budget: 50,
            query_rate: 2_000.0,
            probe_queries: 50_000,
        }
    }
}

pub fn describe(smoke: bool) -> Vec<(&'static str, f64)> {
    let s = sizes(smoke);
    vec![
        ("dedup_records", s.records as f64),
        ("rmat_scale", s.scale as f64),
        ("stream_updates", s.updates as f64),
        ("batch_updates", s.batch as f64),
        ("checkpoint_every_batches", s.checkpoint_every as f64),
        ("trigger_budget", s.trigger_budget as f64),
        ("query_rate_qps", s.query_rate),
        ("probe_queries", s.probe_queries as f64),
    ]
}

struct Engine {
    flow: FlowEngine,
    pr: usize,
    tri: usize,
    comp: usize,
    monitors: Vec<Tally>,
    kernels: Vec<Tally>,
}

fn build(s: &Sizes, dir: Option<&std::path::Path>, par: Parallelism, traced: bool) -> Engine {
    let mut cfg = FlowEngine::builder()
        .parallelism(par)
        .extract(ExtractOptions {
            depth: 2,
            max_vertices: 1024,
            ..ExtractOptions::default()
        })
        .recorder(if traced {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        });
    if let Some(dir) = dir {
        cfg = cfg.durability_dir(dir);
    }
    let mut flow = cfg.build(1 << s.scale).expect("build flow engine");
    let (mut monitors, mut kernels) = (Vec::new(), Vec::new());
    let pr = flow.register_analytic(analytic(
        Box::new(PageRankAnalytic { damping: 0.85 }),
        traced,
        &mut kernels,
    ));
    let tri = flow.register_analytic(analytic(
        Box::new(TriangleAnalytic {
            alert_transitivity: 0.4,
        }),
        traced,
        &mut kernels,
    ));
    let comp = flow.register_analytic(analytic(Box::new(ComponentsAnalytic), traced, &mut kernels));
    flow.register_monitor(monitor(
        Box::new(IncrementalTriangles::new()),
        traced,
        &mut monitors,
    ));
    flow.register_monitor(monitor(
        Box::new(JaccardMonitor::new(0.95)),
        traced,
        &mut monitors,
    ));
    Engine {
        flow,
        pr,
        tri,
        comp,
        monitors,
        kernels,
    }
}

/// The rationed trigger: the first `budget` pair-threshold events
/// launch the triangle analytic around the pair.
fn trigger(budget: &Cell<usize>) -> impl Fn(&Event) -> Option<Vec<u32>> + '_ {
    move |ev: &Event| match ev.kind {
        EventKind::PairThreshold { a, b, .. } if budget.get() > 0 => {
            budget.set(budget.get() - 1);
            Some(vec![a, b])
        }
        _ => None,
    }
}

/// The two-job batch path; returns the reports' globals for the gate.
fn batch_path(e: &mut Engine) -> Vec<(String, f64)> {
    let r1 = e
        .flow
        .run_batch(&SelectionCriteria::TopKDegree { k: 4 }, e.pr);
    let r2 = e.flow.run_batch(
        &SelectionCriteria::TopKProperty {
            name: "pagerank".into(),
            k: 2,
        },
        e.comp,
    );
    r1.globals.into_iter().chain(r2.globals).collect()
}

pub fn pass(run: &Run, idx: usize, traced: bool, full_gate: bool) -> (PassOut, Vec<Gate>) {
    let s = sizes(run.smoke);
    let mut out = PassOut::default();
    let mut gates = Vec::new();

    // ---- set-up: inputs from the seed, engine build -----------------
    let t_setup = Instant::now();
    let records = generate_records(s.entities, s.records, 0.15, run.seed);
    let batches: Vec<UpdateBatch> = into_batches(
        rmat_edge_stream(s.scale, s.updates, 0.05, run.seed ^ 0xf162),
        s.batch,
        1,
    );
    let n = 1u32 << s.scale;
    let probe = probe_queries(run.seed, n, s.probe_queries, "clustering");
    let dir = run.dir.join(format!("fig2-{idx}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut e = build(&s, Some(&dir), Parallelism::Auto, traced);
    let handle = e.flow.serve_handle();
    let service = QueryService::new(handle.clone(), ServeConfig::default());
    let high = service.tenant(TenantConfig::new("point", Priority::High));
    let bulk = service.tenant(TenantConfig::new("bulk", Priority::Bulk));
    let (mut high_c, mut bulk_c) = (service.client(&high), service.client(&bulk));
    out.setup_s = secs(t_setup);

    // ---- processing --------------------------------------------------
    let t0 = Instant::now();
    let cpu0 = process_cpu_s();
    let mut flow_calls_s = 0.0;
    let mut checkpoint_s = 0.0;
    let dedup = timed(&mut out.dedup_s, || dedup_batch(&records, 0.78));
    e.flow.note_ingest(records.len(), dedup.num_entities);
    out.dedup_records = records.len() as u64;

    let budget = Cell::new(s.trigger_budget);
    let stop = AtomicBool::new(false);
    let mut ckpt_steps = ga_obs::MetricsSnapshot::empty();
    let reader = std::thread::scope(|scope| {
        let reader = (run.readers > 0).then(|| {
            let stop = &stop;
            let (high_c, bulk_c) = (&mut high_c, &mut bulk_c);
            let check = handle.reader();
            scope.spawn(move || {
                let mut rng = run.seed ^ 0x5eed;
                open_loop_reader(
                    high_c,
                    bulk_c,
                    check,
                    s.query_rate,
                    |_| Planned {
                        query: point_query(&mut rng, n, "clustering"),
                        bulk: false,
                    },
                    stop,
                )
            })
        });
        for (i, batch) in batches.iter().enumerate() {
            flow_calls_s += out.ack(batch.updates.len(), || {
                e.flow
                    .process_stream_durable(batch, trigger(&budget), Some(e.tri))
            });
            if (i + 1) % s.checkpoint_every == 0 {
                let before = e.flow.metrics();
                timed(&mut checkpoint_s, || e.flow.checkpoint()).expect("checkpoint");
                diff_into(&mut ckpt_steps, &before, &e.flow.metrics());
            }
        }
        stop.store(true, Ordering::Release);
        reader.map(|h| h.join().expect("reader thread"))
    });
    if let Some(r) = reader {
        out.take_reader(r);
    }

    let t_batch = Instant::now();
    let globals = batch_path(&mut e);
    let batch_s = secs(t_batch);
    flow_calls_s += batch_s;
    out.batch_s = Some(batch_s);
    out.attempted += 2;

    // Restart: the live engine goes away, recovery replays the WAL tail
    // written after the last checkpoint.
    let publishes = handle.publishes();
    let live_graph = e.flow.graph().clone();
    let live_applied = applied(&e.flow);
    let snap = e.flow.metrics();
    let stats = e.flow.stats();
    drop(e.flow);
    let t_rec = Instant::now();
    let recovered = FlowEngine::builder().recover(&dir).expect("recover");
    let recover_s = secs(t_rec);
    out.recover_s = Some(recover_s);
    out.processing_s = secs(t0);
    out.peak_rss_mb = peak_rss_mb();
    out.processing_cpu_s += process_cpu_s() - cpu0;
    out.failed += stats.ingest.updates_quarantined as u64;

    if traced {
        let l = &mut out.ledger;
        l.add("wall_s", out.processing_s);
        l.add("dedup.busy_s", out.dedup_s);
        l.add("dedup.comparisons", dedup.comparisons as f64);
        l.add("dedup.merges", (records.len() - dedup.num_entities) as f64);
        let flow_snap = minus(&snap, &ckpt_steps);
        let names = ["triangles", "jaccard"];
        let monitors: Vec<(&str, &Tally)> = names.iter().copied().zip(&e.monitors).collect();
        let knames = ["pagerank", "triangles", "components"];
        let kernels: Vec<(&str, &Tally)> = knames.iter().copied().zip(&e.kernels).collect();
        book_flow(l, &flow_snap, flow_calls_s, &monitors, &kernels);
        book_counts(l, std::slice::from_ref(&snap));
        l.add("durability.checkpoint_s", checkpoint_s);
        l.add("durability.recover_s", recover_s);
        l.add("durability.recover_replayed_batches", replayed(&recovered));
        book_flow_stats(l, &stats, batches.len(), publishes, n as usize);
    }
    // The engine is gone; the service keeps serving its last generation.
    let served = out.probe(&probe, |q| high_c.run(q).response().cloned());

    // ---- correctness gates ------------------------------------------
    gates.push(Gate::new(
        "fig2.recovered_equals_live",
        recovered.graph() == &live_graph && applied(&recovered) == live_applied,
        "graph and applied/quarantined counts after WAL-tail recovery",
    ));
    if let Some(r) = &out.reader {
        gates.push(Gate::new(
            "fig2.epochs_monotonic",
            r.epochs_monotonic,
            "reader-observed epochs never go backwards",
        ));
        gates.push(Gate::new(
            "fig2.zero_high_shed",
            r.shed_high == 0,
            format!("{} High queries shed", r.shed_high),
        ));
        gates.push(Gate::new(
            "fig2.served_match_their_epoch",
            r.epoch_checked > 0 && r.epoch_mismatched == 0,
            format!(
                "{}/{} sampled answers under ingest differ from their generation's",
                r.epoch_mismatched, r.epoch_checked
            ),
        ));
    }
    if full_gate {
        // Single-threaded replay: same inputs, serial kernels, no
        // durability and no reader.
        let mut o = build(&s, None, Parallelism::Serial, false);
        let handle = o.flow.serve_handle();
        let budget = Cell::new(s.trigger_budget);
        for batch in &batches {
            o.flow.process_stream(batch, trigger(&budget), Some(o.tri));
        }
        let oracle_globals = batch_path(&mut o);
        let oracle = handle.load().expect("oracle snapshot");
        let bad = probe_mismatches(&probe, &served, &oracle);
        gates.push(Gate::new(
            "fig2.served_equals_replay",
            bad == 0,
            format!(
                "{bad}/{} probe answers served after the batch path differ from the replay's",
                probe.len()
            ),
        ));
        gates.push(Gate::new(
            "fig2.batch_equals_replay",
            oracle_globals == globals && o.flow.graph() == &live_graph,
            "batch-path globals and graph vs the serial replay",
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    (out, gates)
}

/// Updates applied and quarantined: the durable part of the counters
/// (recovery replays the WAL tail without monitors, so event counts
/// legitimately differ).
fn applied(flow: &FlowEngine) -> (usize, usize) {
    let st = flow.stats().ingest;
    (st.updates_applied, st.updates_quarantined)
}
