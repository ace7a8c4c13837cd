//! `serve-firehose`: a preloaded scale-14 graph takes durable 64-update
//! batches, each carrying one property write, with no monitors and no
//! kernels, while one open-loop reader sends point queries (and about
//! 1 % bulk top-k scans) through `QueryService` tenants. Epoch
//! publication, the WAL and serving carry the load.

use crate::common::*;
use crate::Run;
use ga_core::flow::FlowEngine;
use ga_core::serve::{QueryService, ServeConfig, TenantConfig};
use ga_graph::gen::{rmat, RmatParams};
use ga_graph::props::PropertyStore;
use ga_graph::DynamicGraph;
use ga_obs::Recorder;
use ga_stream::admission::Priority;
use ga_stream::update::{rmat_edge_stream, Update, UpdateBatch};
use ga_stream::Query;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

struct Sizes {
    scale: u32,
    preload_edges: usize,
    batches: usize,
    batch: usize,
    query_rate: f64,
    probe_queries: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            scale: 9,
            preload_edges: 4_000,
            batches: 60,
            batch: 64,
            query_rate: 2_000.0,
            probe_queries: 2_000,
        }
    } else {
        Sizes {
            scale: 14,
            preload_edges: 16 << 14,
            batches: 300,
            batch: 64,
            query_rate: 4_000.0,
            probe_queries: 50_000,
        }
    }
}

pub fn describe(smoke: bool) -> Vec<(&'static str, f64)> {
    let s = sizes(smoke);
    vec![
        ("rmat_scale", s.scale as f64),
        ("preload_edges", s.preload_edges as f64),
        ("batches", s.batches as f64),
        ("batch_updates", s.batch as f64),
        ("query_rate_qps", s.query_rate),
        ("bulk_query_share", 0.01),
        ("probe_queries", s.probe_queries as f64),
    ]
}

/// The preloaded graph and a `w` column on every vertex.
fn preload(s: &Sizes, seed: u64) -> (DynamicGraph, PropertyStore) {
    let n = 1usize << s.scale;
    let mut g = DynamicGraph::new(n);
    g.insert_undirected(
        &rmat(s.scale, s.preload_edges, RmatParams::GRAPH500, seed),
        0,
    );
    let mut props = PropertyStore::new(n);
    let mut rng = seed ^ 0x77;
    for v in 0..n as u32 {
        props.set("w", v, (splitmix(&mut rng) % 1000) as f64);
    }
    (g, props)
}

/// Batches of `batch - 1` R-MAT edge updates plus one property write.
fn stream(s: &Sizes, seed: u64) -> Vec<UpdateBatch> {
    let edges = rmat_edge_stream(s.scale, (s.batch - 1) * s.batches, 0.05, seed ^ 0xf1e);
    let mut rng = seed ^ 0x9e;
    edges
        .chunks(s.batch - 1)
        .enumerate()
        .map(|(i, chunk)| {
            let mut updates = chunk.to_vec();
            updates.push(Update::PropertySet {
                vertex: (splitmix(&mut rng) % (1u64 << s.scale)) as u32,
                name: "w".into(),
                value: (splitmix(&mut rng) % 1000) as f64,
            });
            UpdateBatch {
                time: 1 + i as u64,
                updates,
            }
        })
        .collect()
}

fn planned(rng: &mut u64, n: u32) -> Planned {
    if splitmix(rng).is_multiple_of(100) {
        Planned {
            query: Query::top_k_by_property("w", 10),
            bulk: true,
        }
    } else {
        Planned {
            query: point_query(rng, n, "w"),
            bulk: false,
        }
    }
}

pub fn pass(run: &Run, idx: usize, traced: bool, full_gate: bool) -> (PassOut, Vec<Gate>) {
    let s = sizes(run.smoke);
    let n = 1u32 << s.scale;
    let mut out = PassOut::default();
    let mut gates = Vec::new();

    let t_setup = Instant::now();
    let (g, props) = preload(&s, run.seed);
    let batches = stream(&s, run.seed);
    let probe = probe_queries(run.seed, n, s.probe_queries, "w");
    let dir = run.dir.join(format!("firehose-{idx}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut flow = FlowEngine::builder()
        .durability_dir(&dir)
        .recorder(if traced {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        })
        .build_with_graph(g, props)
        .expect("build flow engine");
    let handle = flow.serve_handle();
    let service = QueryService::new(handle.clone(), ServeConfig::default());
    let high = service.tenant(TenantConfig::new("point", Priority::High));
    let bulk = service.tenant(TenantConfig::new("bulk", Priority::Bulk));
    let (mut high_c, mut bulk_c) = (service.client(&high), service.client(&bulk));
    // Set-up's own spans (initial checkpoint, first publish) are not
    // part of the processing budget.
    let setup_steps = flow.metrics();
    let publishes_before = handle.publishes();
    out.setup_s = secs(t_setup);

    let t0 = Instant::now();
    let cpu0 = process_cpu_s();
    let mut flow_calls_s = 0.0;
    let stop = AtomicBool::new(false);
    let reader = std::thread::scope(|scope| {
        let reader = (run.readers > 0).then(|| {
            let stop = &stop;
            let (high_c, bulk_c) = (&mut high_c, &mut bulk_c);
            let check = handle.reader();
            scope.spawn(move || {
                let mut rng = run.seed ^ 0x5eed;
                let next = |_| planned(&mut rng, n);
                open_loop_reader(high_c, bulk_c, check, s.query_rate, next, stop)
            })
        });
        for batch in &batches {
            flow_calls_s += out.ack(batch.updates.len(), || {
                flow.process_stream_durable(batch, |_| None, None)
            });
        }
        stop.store(true, Ordering::Release);
        reader.map(|h| h.join().expect("reader thread"))
    });
    out.processing_s = secs(t0);
    out.peak_rss_mb = peak_rss_mb();
    out.processing_cpu_s += process_cpu_s() - cpu0;
    if let Some(r) = reader {
        out.take_reader(r);
    }
    let stats = flow.stats();
    out.failed += stats.ingest.updates_quarantined as u64;
    let publishes = handle.publishes() - publishes_before;

    if traced {
        let l = &mut out.ledger;
        l.add("wall_s", out.processing_s);
        let snap = minus(&flow.metrics(), &setup_steps);
        book_flow(l, &snap, flow_calls_s, &[], &[]);
        book_counts(l, std::slice::from_ref(&snap));
        book_flow_stats(l, &stats, batches.len(), publishes, n as usize);
    }
    let served = out.probe(&probe, |q| high_c.run(q).response().cloned());

    if let Some(r) = &out.reader {
        gates.push(Gate::new(
            "firehose.epochs_monotonic",
            r.epochs_monotonic,
            "reader-observed epochs never go backwards",
        ));
        gates.push(Gate::new(
            "firehose.zero_high_shed",
            r.shed_high == 0,
            format!("{} High queries shed", r.shed_high),
        ));
        gates.push(Gate::new(
            "firehose.served_match_their_epoch",
            r.epoch_checked > 0 && r.epoch_mismatched == 0,
            format!(
                "{}/{} sampled answers under ingest differ from their generation's",
                r.epoch_mismatched, r.epoch_checked
            ),
        ));
    }
    if full_gate {
        // Single-threaded replay of the same preload and batches.
        let (g, props) = preload(&s, run.seed);
        let mut o = FlowEngine::builder()
            .build_with_graph(g, props)
            .expect("build replay engine");
        for batch in &batches {
            o.process_stream(batch, |_| None, None);
        }
        let oracle = o.serve_handle().load().expect("oracle snapshot");
        let bad = probe_mismatches(&probe, &served, &oracle);
        gates.push(Gate::new(
            "firehose.final_snapshot_equals_replay",
            o.graph() == flow.graph() && o.props() == flow.props() && bad == 0,
            format!(
                "graph/props vs replay; {bad}/{} probe answers served at the final epoch differ",
                probe.len()
            ),
        ));
    }
    drop(flow);
    let _ = std::fs::remove_dir_all(&dir);
    (out, gates)
}
