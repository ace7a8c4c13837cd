//! `batch-analytics`: dedup, then rounds of three batch jobs on a
//! preloaded R-MAT graph — PageRank on top-degree seeds, then triangles
//! and components on top-PageRank seeds — with one small update batch
//! between rounds so each round starts from a delta snapshot.
//! Extraction, kernels and write-back do the work; there is no WAL, no
//! monitor and no serving until the serving probe after the timed region.

use crate::common::*;
use crate::Run;
use ga_core::dedup::{dedup_batch, generate_records};
use ga_core::flow::{
    BatchRunReport, ComponentsAnalytic, FlowEngine, PageRankAnalytic, SelectionCriteria,
    TriangleAnalytic,
};
use ga_core::serve::{QueryService, ServeConfig, TenantConfig};
use ga_graph::gen::{rmat, RmatParams};
use ga_graph::props::PropertyStore;
use ga_graph::{DynamicGraph, ExtractOptions};
use ga_kernels::Parallelism;
use ga_obs::Recorder;
use ga_stream::admission::Priority;
use ga_stream::update::{into_batches, rmat_edge_stream, UpdateBatch};
use std::time::Instant;

struct Sizes {
    records: usize,
    entities: usize,
    scale: u32,
    preload_edges: usize,
    rounds: usize,
    seeds: usize,
    between_updates: usize,
    probe_queries: usize,
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            records: 400,
            entities: 100,
            scale: 9,
            preload_edges: 4_000,
            rounds: 2,
            seeds: 4,
            between_updates: 100,
            probe_queries: 2_000,
        }
    } else {
        Sizes {
            records: 6_000,
            entities: 1_500,
            scale: 15,
            preload_edges: 16 << 15,
            rounds: 2,
            seeds: 4,
            between_updates: 1_000,
            probe_queries: 50_000,
        }
    }
}

pub fn describe(smoke: bool) -> Vec<(&'static str, f64)> {
    let s = sizes(smoke);
    vec![
        ("dedup_records", s.records as f64),
        ("rmat_scale", s.scale as f64),
        ("preload_edges", s.preload_edges as f64),
        ("rounds", s.rounds as f64),
        ("jobs_per_round", 3.0),
        ("seeds_per_job", s.seeds as f64),
        ("updates_between_rounds", s.between_updates as f64),
        ("probe_queries", s.probe_queries as f64),
    ]
}

struct Engine {
    flow: FlowEngine,
    jobs: [usize; 3],
    kernels: Vec<Tally>,
}

fn build(s: &Sizes, seed: u64, par: Parallelism, traced: bool) -> Engine {
    let n = 1usize << s.scale;
    let mut g = DynamicGraph::new(n);
    g.insert_undirected(
        &rmat(s.scale, s.preload_edges, RmatParams::GRAPH500, seed),
        0,
    );
    let mut flow = FlowEngine::builder()
        .parallelism(par)
        .extract(ExtractOptions {
            depth: 2,
            max_vertices: n,
            ..ExtractOptions::default()
        })
        .recorder(if traced {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        })
        .build_with_graph(g, PropertyStore::new(n))
        .expect("build flow engine");
    let mut kernels = Vec::new();
    let jobs = [
        flow.register_analytic(analytic(
            Box::new(PageRankAnalytic { damping: 0.85 }),
            traced,
            &mut kernels,
        )),
        flow.register_analytic(analytic(
            Box::new(TriangleAnalytic {
                alert_transitivity: 0.4,
            }),
            traced,
            &mut kernels,
        )),
        flow.register_analytic(analytic(Box::new(ComponentsAnalytic), traced, &mut kernels)),
    ];
    Engine {
        flow,
        jobs,
        kernels,
    }
}

/// One round's three jobs, in order.
fn round(e: &mut Engine, seeds: usize) -> Vec<BatchRunReport> {
    let top_pr = SelectionCriteria::TopKProperty {
        name: "pagerank".into(),
        k: seeds,
    };
    vec![
        e.flow
            .run_batch(&SelectionCriteria::TopKDegree { k: seeds }, e.jobs[0]),
        e.flow.run_batch(&top_pr, e.jobs[1]),
        e.flow.run_batch(&top_pr, e.jobs[2]),
    ]
}

/// What the gate compares: job, seeds, subgraph size and globals.
type Digest = (String, Vec<u32>, (usize, usize), Vec<(String, f64)>);

fn digest(r: &BatchRunReport) -> Digest {
    (
        r.analytic.to_string(),
        r.seeds.clone(),
        r.subgraph_size,
        r.globals.clone(),
    )
}

pub fn pass(run: &Run, _idx: usize, traced: bool, full_gate: bool) -> (PassOut, Vec<Gate>) {
    let s = sizes(run.smoke);
    let mut out = PassOut::default();
    let mut gates = Vec::new();

    let t_setup = Instant::now();
    let records = generate_records(s.entities, s.records, 0.15, run.seed);
    let between: Vec<UpdateBatch> = into_batches(
        rmat_edge_stream(
            s.scale,
            s.between_updates * s.rounds,
            0.05,
            run.seed ^ 0xba7,
        ),
        s.between_updates,
        1,
    );
    let probe = probe_queries(run.seed, 1 << s.scale, s.probe_queries, "pagerank");
    let mut e = build(&s, run.seed, Parallelism::Auto, traced);
    out.setup_s = secs(t_setup);

    let t0 = Instant::now();
    let cpu0 = process_cpu_s();
    let dedup = timed(&mut out.dedup_s, || dedup_batch(&records, 0.78));
    e.flow.note_ingest(records.len(), dedup.num_entities);
    out.dedup_records = records.len() as u64;
    let mut batch_s = 0.0;
    let mut flow_calls_s = 0.0;
    let mut reports = Vec::new();
    for batch in &between {
        let t = Instant::now();
        reports.extend(round(&mut e, s.seeds));
        batch_s += secs(t);
        out.attempted += 3;
        flow_calls_s += out.ack(batch.updates.len(), || {
            e.flow.process_stream(batch, |_| None, None);
            Ok::<(), ()>(())
        });
    }
    flow_calls_s += batch_s;
    out.batch_s = Some(batch_s);
    out.processing_s = secs(t0);
    out.peak_rss_mb = peak_rss_mb();
    out.processing_cpu_s += process_cpu_s() - cpu0;
    let stats = e.flow.stats();
    out.failed += stats.ingest.updates_quarantined as u64;

    if traced {
        let l = &mut out.ledger;
        l.add("wall_s", out.processing_s);
        l.add("dedup.busy_s", out.dedup_s);
        l.add("dedup.comparisons", dedup.comparisons as f64);
        l.add("dedup.merges", (records.len() - dedup.num_entities) as f64);
        let snap = e.flow.metrics();
        let knames = ["pagerank", "triangles", "components"];
        let kernels: Vec<(&str, &Tally)> = knames.iter().copied().zip(&e.kernels).collect();
        book_flow(l, &snap, flow_calls_s, &[], &kernels);
        book_counts(l, std::slice::from_ref(&snap));
        book_flow_stats(l, &stats, between.len(), 0, 1 << s.scale);
    }
    // Serving starts after the job list, so it adds no epoch publication
    // to the timed region.
    let service = QueryService::new(e.flow.serve_handle(), ServeConfig::default());
    let mut client = service.client(&service.tenant(TenantConfig::new("point", Priority::High)));
    let served = out.probe(&probe, |q| client.run(q).response().cloned());

    if full_gate {
        // Untimed serial run of the same job list.
        let mut o = build(&s, run.seed, Parallelism::Serial, false);
        let mut oracle = Vec::new();
        for batch in &between {
            oracle.extend(round(&mut o, s.seeds));
            o.flow.process_stream(batch, |_| None, None);
        }
        let same_reports = reports.iter().map(digest).eq(oracle.iter().map(digest));
        gates.push(Gate::new(
            "batch.reports_equal_serial",
            same_reports,
            format!("{} job reports vs a Parallelism::Serial run", reports.len()),
        ));
        gates.push(Gate::new(
            "batch.writeback_equals_serial",
            o.flow.props() == e.flow.props() && o.flow.graph() == e.flow.graph(),
            "written-back property columns and graph vs the serial run",
        ));
        let oracle = o.flow.serve_handle().load().expect("oracle snapshot");
        let bad = probe_mismatches(&probe, &served, &oracle);
        gates.push(Gate::new(
            "batch.served_equals_serial",
            bad == 0,
            format!(
                "{bad}/{} probe answers differ from the serial run's",
                probe.len()
            ),
        ));
    }
    (out, gates)
}
