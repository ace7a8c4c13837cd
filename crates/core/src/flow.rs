//! Fig. 2: the canonical graph-processing flow, with instrumentation.
//!
//! The paper's conclusion asks for exactly this artifact: "a reference
//! implementation, with explicit instrumentation, of a combined
//! benchmark would allow calibration of the model."
//!
//! [`FlowEngine`] wires the stages of Fig. 2 together around a
//! persistent property graph:
//!
//! ```text
//!   update stream ─▶ StreamEngine ─ monitors ─ events ─┐
//!                         │                            ▼ (threshold)
//!   bulk records ─▶ dedup ┴▶ persistent graph ◀─ property write-back
//!                              │        ▲
//!              selection criteria       │
//!                seeds ─▶ subgraph extraction (+projection)
//!                              │
//!                       batch analytics ─▶ global metrics / alerts
//! ```
//!
//! Every stage increments [`FlowStats`] — the calibration counters the
//! NORA model (`crate::model`) prices.
//!
//! The streaming side is one staged ingest — **log → apply →
//! observe/trigger → publish** — that every entry point runs a batch
//! through: [`FlowEngine::process_stream`] (no log stage),
//! [`FlowEngine::process_stream_durable`], [`FlowEngine::pump`] (one
//! batch at a time, at the degradation rung in force),
//! [`FlowEngine::replay_dead_letters`], the WAL replay inside
//! [`FlowEngine::recover`] (logging off), and every routed delivery to
//! a [`crate::sharded::ShardedFlow`] shard. Durability and degradation
//! pick which stages run and how, not which code path.

use crate::durability::{Checkpoint, Durability};
use crate::retry::{CircuitBreaker, RetryPolicy};
use ga_graph::sub::{extract_ball, Subgraph};
use ga_graph::{
    CompressedCsr, DynamicGraph, ExtractOptions, PropertyStore, SnapshotEpoch, VertexId,
};
use ga_kernels::{topk, Budget, KernelCtx, Parallelism};
use ga_obs::{MetricsSnapshot, Recorder, Step};
use ga_stream::admission::{
    AdmissionConfig, AdmissionDecision, AdmissionQueue, AdmissionStats, Ewma, Priority,
};
use ga_stream::engine::QuarantinedUpdate;
use ga_stream::epoch::{EpochSnapshot, SnapshotHandle};
use ga_stream::update::UpdateBatch;
use ga_stream::{Event, EventKind, StreamEngine};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the batch path picks its seed vertices (Fig. 2's "selection
/// criteria" box).
#[derive(Clone, Debug)]
pub enum SelectionCriteria {
    /// Explicit vertex list ("as simple as specifying some particular
    /// vertex").
    Explicit(Vec<VertexId>),
    /// Scan for the top-k vertices of a property column ("scanning for
    /// the top-k vertices with the highest values of some properties").
    TopKProperty {
        /// Property column name.
        name: String,
        /// Seed count.
        k: usize,
    },
    /// Top-k by current out-degree.
    TopKDegree {
        /// Seed count.
        k: usize,
    },
    /// All vertices whose property exceeds a threshold.
    PropertyAbove {
        /// Property column name.
        name: String,
        /// Threshold.
        tau: f64,
    },
}

/// What a batch analytic produced.
#[derive(Clone, Debug, Default)]
pub struct AnalyticOutput {
    /// Global scalar metrics (name, value).
    pub globals: Vec<(String, f64)>,
    /// Per-vertex properties in *subgraph* ids, to be written back
    /// through the back-map.
    pub vertex_props: Vec<(String, Vec<f64>)>,
    /// Human-readable alerts for the external system.
    pub alerts: Vec<String>,
}

/// A batch analytic runnable on an extracted subgraph.
pub trait BatchAnalytic {
    /// Stable name (used in stats and write-back provenance).
    fn name(&self) -> &'static str;
    /// Run on the extracted subgraph. The context selects serial vs
    /// parallel kernel engines and collects the kernels' operation
    /// counters, which the engine drains into [`FlowStats`] after each
    /// run.
    fn run(&self, sub: &Subgraph, ctx: &KernelCtx) -> AnalyticOutput;
}

/// Ingest-side counters: bulk dedup plus the streaming path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Raw records deduped into the graph.
    pub records_ingested: usize,
    /// Entities created by dedup.
    pub entities_created: usize,
    /// Streaming updates applied.
    pub updates_applied: usize,
    /// Malformed streaming updates quarantined to the dead-letter queue
    /// instead of applied.
    pub updates_quarantined: usize,
    /// Streaming events observed.
    pub events_observed: usize,
    /// Streaming events that triggered a batch analytic.
    pub triggers_fired: usize,
}

/// Batch-path counters: selection → extraction → analytic → write-back,
/// plus the kernels' own operation tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalyticsStats {
    /// Batch runs executed.
    pub batch_runs: usize,
    /// Seeds selected across runs.
    pub seeds_selected: usize,
    /// Subgraphs extracted.
    pub subgraphs_extracted: usize,
    /// Vertices copied into extracted subgraphs.
    pub vertices_extracted: usize,
    /// Edges copied into extracted subgraphs.
    pub edges_extracted: usize,
    /// Property values written back to the persistent graph.
    pub props_written_back: usize,
    /// Global metrics produced.
    pub globals_produced: usize,
    /// Alerts raised.
    pub alerts_raised: usize,
    /// CPU operations the batch kernels reported ([`ga_graph::OpCounters`]).
    pub kernel_cpu_ops: usize,
    /// Memory traffic (bytes) the batch kernels reported.
    pub kernel_mem_bytes: usize,
    /// Edges the batch kernels touched.
    pub kernel_edges_touched: usize,
}

/// CSR snapshot-pipeline counters (the "copy subgraph into faster
/// memory" step of Fig. 2 the model prices).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// CSR snapshot rebuilds (full + delta) the batch path and epoch
    /// publication performed.
    pub rebuilds: usize,
    /// Rows whose CSR slices were reused from the previous snapshot
    /// instead of re-sorted (the delta path's savings).
    pub rows_reused: usize,
    /// Bytes written into snapshot arrays.
    pub mem_bytes: usize,
}

/// Durability counters (WAL + checkpoint retry machinery).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Durable-write attempts that failed transiently and were retried
    /// (WAL appends + checkpoint writes).
    pub retries: usize,
    /// Times the durability circuit breaker tripped open (each trip also
    /// raises an alert).
    pub breaker_trips: usize,
}

/// Overload counters (admission control + degradation ladder).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Updates refused or evicted by admission control under overload
    /// (they never reached the graph).
    pub updates_shed: usize,
    /// Analytic runs that hit their op/deadline budget and returned a
    /// typed partial result instead of a complete one.
    pub deadline_partials: usize,
    /// Triggered analytic runs skipped outright at the `SeedsOnly`
    /// degradation level (seeds were still selected).
    pub analytics_skipped: usize,
}

/// The instrumentation record (the paper's "explicit instrumentation"),
/// grouped by pipeline concern. The GAC1 checkpoint codec serialises
/// these groups as stats version 3 (version 2 plus the tier group) and
/// still decodes the version-2 grouped layout and the flat 25-field
/// version-1 layout older checkpoints carry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Bulk + streaming ingest.
    pub ingest: IngestStats,
    /// The batch analytic path.
    pub analytics: AnalyticsStats,
    /// CSR snapshot pipeline.
    pub snapshots: SnapshotStats,
    /// WAL/checkpoint retry machinery.
    pub durability: DurabilityStats,
    /// Admission control + degradation ladder.
    pub overload: OverloadStats,
    /// Tiered segment-store IO (spill, page cache, scrub, repair).
    pub tier: ga_graph::tier::TierStats,
}

impl IngestStats {
    /// Add another shard's counters into this one.
    pub fn merge(&mut self, o: &IngestStats) {
        self.records_ingested += o.records_ingested;
        self.entities_created += o.entities_created;
        self.updates_applied += o.updates_applied;
        self.updates_quarantined += o.updates_quarantined;
        self.events_observed += o.events_observed;
        self.triggers_fired += o.triggers_fired;
    }
}

impl AnalyticsStats {
    /// Add another shard's counters into this one.
    pub fn merge(&mut self, o: &AnalyticsStats) {
        self.batch_runs += o.batch_runs;
        self.seeds_selected += o.seeds_selected;
        self.subgraphs_extracted += o.subgraphs_extracted;
        self.vertices_extracted += o.vertices_extracted;
        self.edges_extracted += o.edges_extracted;
        self.props_written_back += o.props_written_back;
        self.globals_produced += o.globals_produced;
        self.alerts_raised += o.alerts_raised;
        self.kernel_cpu_ops += o.kernel_cpu_ops;
        self.kernel_mem_bytes += o.kernel_mem_bytes;
        self.kernel_edges_touched += o.kernel_edges_touched;
    }
}

impl SnapshotStats {
    /// Add another shard's counters into this one.
    pub fn merge(&mut self, o: &SnapshotStats) {
        self.rebuilds += o.rebuilds;
        self.rows_reused += o.rows_reused;
        self.mem_bytes += o.mem_bytes;
    }
}

impl DurabilityStats {
    /// Add another shard's counters into this one.
    pub fn merge(&mut self, o: &DurabilityStats) {
        self.retries += o.retries;
        self.breaker_trips += o.breaker_trips;
    }
}

impl OverloadStats {
    /// Add another shard's counters into this one.
    pub fn merge(&mut self, o: &OverloadStats) {
        self.updates_shed += o.updates_shed;
        self.deadline_partials += o.deadline_partials;
        self.analytics_skipped += o.analytics_skipped;
    }
}

impl FlowStats {
    /// Add another engine's counters into this one, group by group —
    /// how a sharded deployment reports one grouped record across its
    /// shard-local engines. Ghost (replicated) work is counted on every
    /// shard that performed it, so merged sums can exceed an unsharded
    /// run's by exactly the replicated cross-shard work.
    pub fn merge(&mut self, o: &FlowStats) {
        self.ingest.merge(&o.ingest);
        self.analytics.merge(&o.analytics);
        self.snapshots.merge(&o.snapshots);
        self.durability.merge(&o.durability);
        self.overload.merge(&o.overload);
        self.tier.merge(&o.tier);
    }
}

/// Rung of the overload degradation ladder, least to most degraded.
/// `Ord` follows declaration order, so `max(depth_level, latency_level)`
/// picks the more degraded of the two signals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// Normal operation: full analytics on every trigger.
    #[default]
    Full,
    /// Analytics run under a reduced op/deadline budget and may return
    /// typed partial results.
    PartialDeadline,
    /// Seeds are still selected (cheap) but triggered analytics are
    /// skipped entirely.
    SeedsOnly,
    /// Updates are applied unmonitored — no events, no triggers, no
    /// analytics — keeping the graph current at minimal cost.
    Shed,
}

impl DegradationLevel {
    /// Stable name (event payloads, JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            DegradationLevel::Full => "full",
            DegradationLevel::PartialDeadline => "partial-deadline",
            DegradationLevel::SeedsOnly => "seeds-only",
            DegradationLevel::Shed => "shed",
        }
    }
}

/// Thresholds driving the degradation ladder. Depth thresholds are in
/// queued *updates* (the [`AdmissionQueue::depth`] quantity) and are the
/// deterministic signal; the latency thresholds consume a wall-clock
/// EWMA of per-batch processing time and default to *off* so tests and
/// reproducible runs are depth-driven only.
#[derive(Clone, Copy, Debug)]
pub struct OverloadConfig {
    /// Queue depth at or above which analytics run under the degraded
    /// budget.
    pub partial_at: usize,
    /// Queue depth at or above which triggered analytics are skipped.
    pub seeds_only_at: usize,
    /// Queue depth at or above which updates are applied unmonitored.
    pub shed_at: usize,
    /// Op budget for analytic runs at `PartialDeadline` (see
    /// [`ga_kernels::Budget::ops`]).
    pub degraded_budget_ops: u64,
    /// Optional wall-clock deadline composed into the degraded budget.
    pub degraded_deadline: Option<Duration>,
    /// Smoothing factor of the recent-latency EWMA.
    pub latency_alpha: f64,
    /// Mean batch latency above which to enter `PartialDeadline`
    /// (`None` = latency never drives this rung).
    pub latency_partial: Option<Duration>,
    /// Mean batch latency above which to enter `SeedsOnly`.
    pub latency_seeds_only: Option<Duration>,
    /// Mean batch latency above which to enter `Shed`.
    pub latency_shed: Option<Duration>,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        let adm = AdmissionConfig::default();
        OverloadConfig {
            partial_at: adm.bulk_watermark / 2,
            seeds_only_at: adm.normal_watermark,
            shed_at: adm.capacity,
            degraded_budget_ops: 1 << 20,
            degraded_deadline: None,
            latency_alpha: 0.2,
            latency_partial: None,
            latency_seeds_only: None,
            latency_shed: None,
        }
    }
}

/// Report of one batch run.
#[derive(Clone, Debug)]
pub struct BatchRunReport {
    /// The analytic that ran.
    pub analytic: &'static str,
    /// Seeds used.
    pub seeds: Vec<VertexId>,
    /// Extracted subgraph size (vertices, edges).
    pub subgraph_size: (usize, usize),
    /// Global metrics produced.
    pub globals: Vec<(String, f64)>,
    /// Alerts raised.
    pub alerts: Vec<String>,
}

/// Construction-time configuration for a [`FlowEngine`]: the one
/// coherent way to set parallelism, budgets, retry/breaker, admission,
/// overload thresholds, durability, and observability. (The scattered
/// pre-PR-5 setters — `enable_durability`, `set_admission_config`,
/// `set_retry_policy`, `set_breaker` — are gone; this builder is the
/// only configuration surface.)
///
/// ```
/// # use ga_core::flow::FlowEngine;
/// # use ga_core::retry::RetryPolicy;
/// # use ga_kernels::Parallelism;
/// let engine = FlowEngine::builder()
///     .parallelism(Parallelism::Serial)
///     .retry(RetryPolicy::retries(3, 42))
///     .build(1 << 10)
///     .unwrap();
/// ```
#[derive(Debug)]
pub struct FlowConfig {
    parallelism: Parallelism,
    budget: Budget,
    retry: RetryPolicy,
    breaker_threshold: u32,
    admission: AdmissionConfig,
    overload: OverloadConfig,
    extract: ExtractOptions,
    project_columns: Vec<String>,
    vertex_limit: Option<usize>,
    symmetrize: bool,
    durability_dir: Option<PathBuf>,
    recorder: Recorder,
    shard_label: String,
    compressed_adjacency: bool,
    tier: Option<ga_graph::tier::TierConfig>,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            parallelism: Parallelism::Auto,
            budget: Budget::unlimited(),
            retry: RetryPolicy::none(),
            breaker_threshold: 3,
            admission: AdmissionConfig::default(),
            overload: OverloadConfig::default(),
            extract: ExtractOptions {
                depth: 2,
                max_vertices: 4096,
                undirected_expand: false,
            },
            project_columns: Vec::new(),
            vertex_limit: None,
            symmetrize: true,
            durability_dir: None,
            recorder: Recorder::disabled(),
            shard_label: String::new(),
            compressed_adjacency: false,
            tier: None,
        }
    }
}

impl FlowConfig {
    /// Serial/parallel kernel dispatch policy (default `Auto`).
    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// Standing op/deadline budget for analytic runs (default
    /// unlimited).
    pub fn budget(mut self, b: Budget) -> Self {
        self.budget = b;
        self
    }

    /// Retry policy for durable writes (default
    /// [`RetryPolicy::none`]).
    pub fn retry(mut self, r: RetryPolicy) -> Self {
        self.retry = r;
        self
    }

    /// Consecutive durable-write failures before the circuit breaker
    /// trips (default 3).
    pub fn breaker_threshold(mut self, consecutive_failures: u32) -> Self {
        self.breaker_threshold = consecutive_failures;
        self
    }

    /// Admission-queue watermarks for the overload front door.
    pub fn admission(mut self, cfg: AdmissionConfig) -> Self {
        self.admission = cfg;
        self
    }

    /// Degradation-ladder thresholds.
    pub fn overload(mut self, cfg: OverloadConfig) -> Self {
        self.overload = cfg;
        self
    }

    /// Subgraph-extraction settings for both paths (default depth 2,
    /// 4096 vertices).
    pub fn extract(mut self, opts: ExtractOptions) -> Self {
        self.extract = opts;
        self
    }

    /// Property columns projected into extracted subgraphs.
    pub fn project_columns(mut self, cols: Vec<String>) -> Self {
        self.project_columns = cols;
        self
    }

    /// Vertex-id bound above which updates are quarantined (default
    /// [`ga_stream::engine::DEFAULT_VERTEX_LIMIT`]).
    pub fn vertex_limit(mut self, limit: usize) -> Self {
        self.vertex_limit = Some(limit);
        self
    }

    /// Mirror edge updates in both directions (default true). The
    /// streaming Jaccard monitor and query engine find every qualifying
    /// pair only on this symmetric graph; with `false` the coefficients
    /// they report stay exact, but pairs reachable only against edge
    /// direction can be missed.
    pub fn symmetrize(mut self, symmetrize: bool) -> Self {
        self.symmetrize = symmetrize;
        self
    }

    /// Enable durability (WAL + checkpoints) under `dir`. The directory
    /// must not already hold engine state; use [`FlowEngine::recover`]
    /// for that. `build` writes the initial checkpoint.
    pub fn durability_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durability_dir = Some(dir.into());
        self
    }

    /// Attach an observability recorder; it is threaded through the
    /// kernel context, stream engine, WAL, and checkpoint writer so
    /// [`FlowEngine::metrics`] reports the whole stack.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Maintain a delta-varint [`CompressedCsr`] snapshot alongside
    /// the plain CSR (default off). Each batch run re-serves it through
    /// the snapshot cache — an unchanged graph costs one `Arc` clone —
    /// and [`FlowEngine::compressed_snapshot`] hands it to whole-graph
    /// kernels, which accept it through the `Adjacency` trait and
    /// return bit-identical results at ~2–4× fewer adjacency bytes.
    pub fn compressed_adjacency(mut self, on: bool) -> Self {
        self.compressed_adjacency = on;
        self
    }

    /// Serve batch extraction through a tiered larger-than-RAM segment
    /// store (default off): each batch's CSR snapshot spills to
    /// CRC-framed segments under the tier directory and the extraction
    /// BFS pages rows back in through a RAM-budgeted cache, so cold
    /// rows cost real disk IO that shows up as disk demand in the
    /// calibration model. See [`ga_graph::tier::TieredCsr`].
    pub fn tiered(mut self, cfg: ga_graph::tier::TierConfig) -> Self {
        self.tier = Some(cfg);
        self
    }

    /// Label this engine as one shard of a multi-engine deployment
    /// (e.g. `"shard-03"`). The label is prefixed onto durability
    /// errors raised during [`FlowConfig::recover`], so a failed
    /// shard-local recovery names the shard and checkpoint path in CI
    /// logs instead of an anonymous `io::Error`.
    pub fn shard_label(mut self, label: impl Into<String>) -> Self {
        self.shard_label = label.into();
        self
    }

    /// Build an engine over an empty persistent graph of
    /// `num_vertices`.
    pub fn build(self, num_vertices: usize) -> io::Result<FlowEngine> {
        self.build_with_graph(
            DynamicGraph::new(num_vertices),
            PropertyStore::new(num_vertices),
        )
    }

    /// Build an engine over an existing persistent graph.
    pub fn build_with_graph(
        self,
        graph: DynamicGraph,
        props: PropertyStore,
    ) -> io::Result<FlowEngine> {
        let mut engine = FlowEngine::with_graph(graph, props);
        if let Some(limit) = self.vertex_limit {
            engine.stream.set_vertex_limit(limit);
        }
        engine.stream.symmetrize = self.symmetrize;
        let durability_dir = self.apply_runtime(&mut engine);
        // Durability last: the initial checkpoint must capture the
        // configured symmetrize/vertex-limit state.
        if let Some(dir) = durability_dir {
            engine.enable_durability_impl(&dir)?;
        }
        Ok(engine)
    }

    /// Recover an engine from a durability directory (see
    /// [`FlowEngine::recover`]) and apply this configuration's runtime
    /// settings to it. The persisted state knobs — `vertex_limit`,
    /// `symmetrize`, and the durability directory itself — come from the
    /// checkpoint, not from the builder, so replay stays deterministic.
    pub fn recover(self, dir: impl AsRef<Path>) -> io::Result<FlowEngine> {
        let mut engine = FlowEngine::recover_labeled(dir, &self.shard_label)?;
        self.apply_runtime(&mut engine);
        Ok(engine)
    }

    /// Apply every non-persisted setting to `engine`; returns the
    /// durability directory for the caller to act on (or ignore).
    fn apply_runtime(self, engine: &mut FlowEngine) -> Option<PathBuf> {
        engine.kernel_ctx.parallelism = self.parallelism;
        engine.kernel_ctx.budget = self.budget;
        engine.retry = self.retry;
        engine.breaker = CircuitBreaker::new(self.breaker_threshold);
        engine.admission = AdmissionQueue::new(self.admission);
        engine.batch_latency = Ewma::new(self.overload.latency_alpha);
        engine.overload = self.overload;
        engine.extract = self.extract;
        engine.project_columns = self.project_columns;
        engine.compressed_adjacency = self.compressed_adjacency;
        engine.tier_config = self.tier;
        engine.set_recorder(self.recorder);
        self.durability_dir
    }
}

/// Publication state for the concurrent query-serving front end: the
/// shared [`SnapshotHandle`] readers load from, plus enough caching to
/// make a no-op republish free.
struct ServePublisher {
    /// The slot reader threads load from ([`FlowEngine::serve_handle`]
    /// hands out clones).
    handle: SnapshotHandle,
    /// Frozen property columns keyed by [`PropertyStore::version`]: the
    /// deep clone is taken only when the columns actually moved.
    props: Option<(u64, Arc<PropertyStore>)>,
    /// `(stamp, props_version)` of the last publish — an unchanged pair
    /// skips publication entirely.
    last: Option<(SnapshotEpoch, u64)>,
}

/// Where a batch handed to the staged ingest comes from, which decides
/// its log stage.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Caller-side non-durable ingest, or a WAL frame replayed by
    /// recovery: never logged.
    Unlogged,
    /// A durable or pumped batch: written ahead to the WAL (when the
    /// engine has one) before it is applied.
    Logged,
    /// The dead-letter queue's contents: logged like [`Origin::Logged`],
    /// then the queue is drained just before the batch re-applies.
    DeadLetters,
}

/// The Fig. 2 engine: a persistent graph with batch and streaming paths.
pub struct FlowEngine {
    stream: StreamEngine,
    analytics: Vec<Box<dyn BatchAnalytic>>,
    stats: FlowStats,
    durability: Option<Durability>,
    /// Bounded priority-classed ingest queue (the overload front door).
    admission: AdmissionQueue,
    /// Retry policy for durable writes (WAL appends, checkpoints).
    retry: RetryPolicy,
    /// Trips after consecutive exhausted-retry durability failures.
    breaker: CircuitBreaker,
    /// True once the breaker tripped: the engine runs non-durably.
    durability_suspended: bool,
    /// Recent per-batch processing latency (seconds).
    batch_latency: Ewma,
    /// Current rung of the degradation ladder (for change events).
    level: DegradationLevel,
    /// Overload events (LoadShed / Degraded / CircuitBreaker) pending
    /// collection via [`Self::take_overload_events`].
    overload_events: Vec<Event>,
    /// Observability sink: span totals, latency histograms, and the
    /// unified event journal. Disabled (free) unless configured through
    /// [`FlowConfig::recorder`] or [`Self::set_recorder`].
    recorder: Recorder,
    /// Degradation-ladder thresholds.
    pub overload: OverloadConfig,
    /// Extraction settings used by both paths.
    pub extract: ExtractOptions,
    /// Property columns projected into extracted subgraphs.
    pub project_columns: Vec<String>,
    /// Kernel execution context handed to every analytic run; set its
    /// `parallelism` to steer serial/parallel kernel dispatch and its
    /// `budget` to impose a standing op/deadline budget on analytics.
    pub kernel_ctx: KernelCtx,
    /// When set ([`FlowConfig::compressed_adjacency`]), each batch run
    /// also refreshes the delta-varint compressed snapshot.
    compressed_adjacency: bool,
    /// When set ([`FlowConfig::tiered`]), batch extraction reads
    /// through a spilled segment tier instead of the in-RAM snapshot.
    tier_config: Option<ga_graph::tier::TierConfig>,
    /// The live tier, tagged with the snapshot it was spilled from so
    /// an unchanged graph skips the respill.
    tier: Option<(std::sync::Arc<ga_graph::CsrGraph>, ga_graph::TieredCsr)>,
    /// Epoch publication state, lazily created by
    /// [`Self::serve_handle`]. `None` = not serving (publication hooks
    /// are free).
    serve: Option<ServePublisher>,
}

impl FlowEngine {
    /// Engine over an empty persistent graph of `num_vertices`.
    pub fn new(num_vertices: usize) -> Self {
        Self::with_graph(
            DynamicGraph::new(num_vertices),
            PropertyStore::new(num_vertices),
        )
    }

    /// Start a [`FlowConfig`] builder — the one coherent way to
    /// configure parallelism, budgets, retry/breaker, admission,
    /// overload thresholds, durability, and observability at
    /// construction time.
    pub fn builder() -> FlowConfig {
        FlowConfig::default()
    }

    /// Engine over an existing persistent graph.
    pub fn with_graph(graph: DynamicGraph, props: PropertyStore) -> Self {
        let overload = OverloadConfig::default();
        FlowEngine {
            stream: StreamEngine::with_graph(graph, props),
            analytics: Vec::new(),
            stats: FlowStats::default(),
            durability: None,
            admission: AdmissionQueue::new(AdmissionConfig::default()),
            retry: RetryPolicy::none(),
            breaker: CircuitBreaker::new(3),
            durability_suspended: false,
            batch_latency: Ewma::new(overload.latency_alpha),
            level: DegradationLevel::Full,
            overload_events: Vec::new(),
            recorder: Recorder::disabled(),
            overload,
            extract: ExtractOptions {
                depth: 2,
                max_vertices: 4096,
                undirected_expand: false,
            },
            project_columns: Vec::new(),
            kernel_ctx: KernelCtx::new(Parallelism::Auto),
            compressed_adjacency: false,
            tier_config: None,
            tier: None,
            serve: None,
        }
    }

    /// A delta-varint compressed snapshot of the persistent graph,
    /// served through the stream engine's snapshot cache. Pass it to
    /// any whole-graph kernel (they are generic over
    /// `ga_graph::Adjacency`) for bit-identical results at the
    /// compressed representation's byte cost. Available regardless of
    /// [`FlowConfig::compressed_adjacency`]; the knob only controls
    /// whether batch runs keep the mirror warm.
    pub fn compressed_snapshot(&mut self) -> std::sync::Arc<CompressedCsr> {
        self.stream
            .compressed_csr_snapshot(self.kernel_ctx.parallelism)
    }

    /// Whether batch runs maintain the compressed adjacency mirror.
    pub fn compressed_adjacency(&self) -> bool {
        self.compressed_adjacency
    }

    // -----------------------------------------------------------------
    // Concurrent query serving: epoch-based snapshot publication.
    // -----------------------------------------------------------------

    /// Start serving: publish the current state and return the
    /// [`SnapshotHandle`] query threads read from. Clone the handle
    /// freely (clones share the slot); each reader thread should take
    /// one [`ga_stream::SnapshotReader`] via `handle.reader()` — its
    /// steady-state load is a single atomic read.
    ///
    /// Once serving, every ingest/batch entry point
    /// ([`Self::process_stream`], [`Self::pump`], [`Self::run_batch`],
    /// durable and recovery paths included) republishes automatically
    /// when the graph or its property columns moved, so readers always
    /// see one consistent frozen generation. Engines that never call
    /// this pay nothing.
    pub fn serve_handle(&mut self) -> SnapshotHandle {
        if self.serve.is_none() {
            self.serve = Some(ServePublisher {
                handle: SnapshotHandle::new(),
                props: None,
                last: None,
            });
        }
        self.publish_epoch();
        self.serve.as_ref().unwrap().handle.clone()
    }

    /// Publish the current graph + property generation to the serving
    /// slot, if serving is on and anything moved since the last publish.
    /// The ingest/batch entry points call this automatically; call it
    /// directly after out-of-band mutation (e.g. [`Self::props_mut`]
    /// write-backs from external code).
    pub fn publish_epoch(&mut self) {
        if self.serve.is_none() {
            return;
        }
        let par = self.kernel_ctx.parallelism;
        let (csr, stamp) = self.stream.csr_snapshot_stamped(par);
        let props_version = self.stream.props().version();
        let serve = self.serve.as_mut().unwrap();
        if serve.last == Some((stamp, props_version)) {
            return;
        }
        let compressed = if self.compressed_adjacency {
            Some(self.stream.compressed_csr_snapshot_stamped(par).0)
        } else {
            None
        };
        self.drain_snapshot_stats();
        let serve = self.serve.as_mut().unwrap();
        let props = match &serve.props {
            Some((v, arc)) if *v == props_version => Arc::clone(arc),
            _ => {
                let arc = Arc::new(self.stream.props().clone());
                serve.props = Some((props_version, Arc::clone(&arc)));
                arc
            }
        };
        serve.handle.publish(EpochSnapshot {
            stamp,
            props_version,
            time: self.stream.last_batch_time(),
            csr,
            compressed,
            props,
        });
        serve.last = Some((stamp, props_version));
    }

    /// Fold the snapshot cache's counters into [`FlowStats::snapshots`]:
    /// both the batch path and epoch publication rebuild snapshots.
    fn drain_snapshot_stats(&mut self) {
        let snap_stats = self.stream.take_snapshot_stats();
        self.stats.snapshots.rebuilds += snap_stats.rebuilds() as usize;
        self.stats.snapshots.rows_reused += snap_stats.rows_reused as usize;
        self.stats.snapshots.mem_bytes += snap_stats.mem_bytes as usize;
    }

    /// The live segment tier, if [`FlowConfig::tiered`] is on and a
    /// batch has spilled one.
    pub fn tier(&self) -> Option<&ga_graph::TieredCsr> {
        self.tier.as_ref().map(|(_, t)| t)
    }

    /// Scrub the segment tier and repair what the scrub (or earlier
    /// reads) quarantined, using the current CSR snapshot — the same
    /// state a checkpoint+WAL recovery reproduces — as the repair
    /// source. Corruption is detected by CRC, quarantined, rewritten
    /// from good data, and journalled; a segment with no source left is
    /// refused and counted lost, never fabricated. Returns `None` when
    /// no tier is live.
    pub fn scrub_tier(
        &mut self,
    ) -> Option<(ga_graph::tier::ScrubReport, ga_graph::tier::RepairReport)> {
        let snap = self.stream.csr_snapshot(self.kernel_ctx.parallelism);
        let time = self.stream.last_batch_time();
        let (_, tier) = self.tier.as_ref()?;
        let scrub = tier.scrub();
        if !scrub.corrupt.is_empty() {
            self.recorder.journal(
                time,
                "tier_quarantine",
                format!("scrub quarantined {} segment(s)", scrub.corrupt.len()),
            );
        }
        let repair = tier.repair_from(Some(&snap));
        self.recorder.journal(
            time,
            "tier_scrub",
            format!(
                "scanned {} clean / {} corrupt / {} missing, repaired {}, unrepairable {}",
                scrub.clean,
                scrub.corrupt.len(),
                scrub.missing.len(),
                repair.repaired.len(),
                repair.unrepairable.len()
            ),
        );
        self.stats.tier.merge(&tier.take_stats());
        Some((scrub, repair))
    }

    /// Register a batch analytic; returns its index.
    pub fn register_analytic(&mut self, a: Box<dyn BatchAnalytic>) -> usize {
        self.analytics.push(a);
        self.analytics.len() - 1
    }

    /// Attach a streaming monitor (incremental kernel).
    pub fn register_monitor(&mut self, m: Box<dyn ga_stream::Monitor>) {
        self.stream.register(m);
    }

    /// The persistent graph.
    pub fn graph(&self) -> &DynamicGraph {
        self.stream.graph()
    }

    /// The persistent property store.
    pub fn props(&self) -> &PropertyStore {
        self.stream.props()
    }

    /// Mutable property access (bulk write-back).
    pub fn props_mut(&mut self) -> &mut PropertyStore {
        self.stream.props_mut()
    }

    /// The instrumentation counters.
    pub fn stats(&self) -> FlowStats {
        self.stats
    }

    /// The stream layer's own counters (persisted in checkpoints and
    /// restored by recovery alongside [`FlowStats`]).
    pub fn stream_stats(&self) -> ga_stream::engine::StreamStats {
        self.stream.stats()
    }

    /// Attach (or replace) the observability recorder, threading it
    /// through the kernel context, stream engine, WAL, and checkpoint
    /// writer. Pass [`Recorder::disabled`] to turn instrumentation off.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.kernel_ctx.recorder = recorder.clone();
        self.stream.set_recorder(recorder.clone());
        if let Some(d) = self.durability.as_mut() {
            d.set_recorder(recorder.clone());
        }
        self.recorder = recorder;
    }

    /// The attached recorder (disabled by default). Callers owning flow
    /// stages the engine cannot see — e.g. the dedup pass feeding
    /// [`Self::note_ingest`] — open their own spans on this.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Point-in-time export of everything the recorder has seen: span
    /// totals and wall-time histograms for every [`Step`], plus the
    /// journal of overload events. Empty (but schema-valid) when the
    /// recorder is disabled.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.recorder.snapshot()
    }

    /// Record that `records → entities` dedup ingest happened (the
    /// caller builds graph edges from the deduped entities; see the
    /// NORA example for the full path).
    pub fn note_ingest(&mut self, records: usize, entities: usize) {
        self.stats.ingest.records_ingested += records;
        self.stats.ingest.entities_created += entities;
    }

    /// Resolve selection criteria into seed vertices.
    pub fn select_seeds(&self, criteria: &SelectionCriteria) -> Vec<VertexId> {
        match criteria {
            SelectionCriteria::Explicit(v) => v.clone(),
            SelectionCriteria::TopKProperty { name, k } => {
                topk::top_k_property(self.stream.props(), name, *k)
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect()
            }
            SelectionCriteria::TopKDegree { k } => {
                let g = self.stream.graph();
                topk::top_k_by(g.num_vertices(), *k, |v| Some(g.degree(v) as f64))
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect()
            }
            SelectionCriteria::PropertyAbove { name, tau } => {
                let tau = *tau;
                self.stream.props().select_f64(name, |x| x > tau)
            }
        }
    }

    /// The full batch path: select seeds → extract (with projection) →
    /// run the analytic → write back vertex properties → collect
    /// globals and alerts.
    pub fn run_batch(
        &mut self,
        criteria: &SelectionCriteria,
        analytic_idx: usize,
    ) -> BatchRunReport {
        let mut span = self.recorder.span(Step::Selection);
        let seeds = self.select_seeds(criteria);
        if span.is_recording() {
            // Explicit selection touches only its own list; every other
            // criterion scans the full vertex set.
            let scanned = match criteria {
                SelectionCriteria::Explicit(v) => v.len() as u64,
                _ => self.stream.graph().num_vertices() as u64,
            };
            span.add(scanned, scanned * 8, 0, 0);
        }
        drop(span);
        self.stats.analytics.seeds_selected += seeds.len();
        let report = self.run_batch_on_seeds(&seeds, analytic_idx);
        self.publish_epoch();
        report
    }

    fn run_batch_on_seeds(&mut self, seeds: &[VertexId], analytic_idx: usize) -> BatchRunReport {
        // Freeze through the stream engine's snapshot cache: repeat
        // triggers against an unchanged graph reuse the cached CSR, and
        // after an update batch only the dirtied rows are rebuilt.
        let snap = self.stream.csr_snapshot(self.kernel_ctx.parallelism);
        if self.compressed_adjacency {
            // Keep the compressed mirror current while the plain rows
            // are still warm; a repeat trigger on an unchanged graph is
            // an Arc clone.
            self.stream
                .compressed_csr_snapshot(self.kernel_ctx.parallelism);
        }
        self.drain_snapshot_stats();
        if let Some(cfg) = &self.tier_config {
            // Respill only when the snapshot actually changed; a repeat
            // trigger on an unchanged graph keeps the warm tier. Spill
            // bytes are disk traffic of the Snapshot step.
            let stale = !matches!(&self.tier, Some((s, _)) if std::sync::Arc::ptr_eq(s, &snap));
            if stale {
                let mut span = self.recorder.span(Step::Snapshot);
                match ga_graph::TieredCsr::spill(&snap, cfg.clone()) {
                    Ok(tier) => {
                        if span.is_recording() {
                            span.add_disk_bytes(tier.stats().spilled_bytes);
                        }
                        self.tier = Some((std::sync::Arc::clone(&snap), tier));
                    }
                    Err(e) => {
                        // Spill refused (tier directory unusable):
                        // degrade to in-RAM extraction, on the record.
                        self.recorder.journal(
                            self.stream.last_batch_time(),
                            "tier_spill_failed",
                            format!("{e}"),
                        );
                        self.tier = None;
                    }
                }
                drop(span);
            }
            if let Some((_, tier)) = &self.tier {
                tier.begin_io_window();
            }
        } else {
            self.tier = None;
        }
        let mut span = self.recorder.span(Step::Extraction);
        let cols: Vec<&str> = self.project_columns.iter().map(|s| s.as_str()).collect();
        let props_ref = (!cols.is_empty()).then(|| (self.stream.props(), cols.as_slice()));
        let sub = match &self.tier {
            // The extraction BFS reads through the tier: cold rows page
            // in from disk and the IO lands on this span's disk axis.
            Some((_, tier)) => {
                let before = tier.stats().read_bytes;
                let sub = extract_ball(tier, seeds, &self.extract, props_ref);
                if span.is_recording() {
                    span.add_disk_bytes(tier.stats().read_bytes - before);
                }
                sub
            }
            None => extract_ball(&*snap, seeds, &self.extract, props_ref),
        };
        if span.is_recording() {
            let (nv, ne) = (sub.num_vertices() as u64, sub.graph.num_edges() as u64);
            // One visit per vertex + edge; ids and CSR copies dominate
            // the memory traffic.
            span.add(nv + ne, nv * 8 + ne * 16, 0, 0);
        }
        drop(span);
        if let Some((_, tier)) = &self.tier {
            self.stats.tier.merge(&tier.take_stats());
        }
        self.stats.analytics.subgraphs_extracted += 1;
        self.stats.analytics.vertices_extracted += sub.num_vertices();
        self.stats.analytics.edges_extracted += sub.graph.num_edges();

        let analytic = &self.analytics[analytic_idx];
        let name = analytic.name();
        let mut span = self.recorder.span(Step::BatchAnalytic);
        let out = analytic.run(&sub, &self.kernel_ctx);
        // Drain the kernels' operation counters into the run stats — the
        // measured inputs model calibration consumes — and attribute the
        // same work to the analytic's span.
        let ops = self.kernel_ctx.take();
        span.add(ops.cpu_ops, ops.mem_bytes, 0, 0);
        drop(span);
        self.stats.analytics.kernel_cpu_ops += ops.cpu_ops as usize;
        self.stats.analytics.kernel_mem_bytes += ops.mem_bytes as usize;
        self.stats.analytics.kernel_edges_touched += ops.edges_touched as usize;
        // A budgeted run that tripped its op/deadline bound produced a
        // typed partial result (see the Completion fields on kernel
        // results) — count it.
        if self.kernel_ctx.budget.take_hits() > 0 {
            self.stats.overload.deadline_partials += 1;
        }
        self.stats.analytics.batch_runs += 1;
        self.stats.analytics.globals_produced += out.globals.len();
        self.stats.analytics.alerts_raised += out.alerts.len();

        // Write back per-vertex results through the back-map ("use of
        // the analytic to compute/update properties of vertices ... sent
        // back to update the original persistent graph").
        let mut span = self.recorder.span(Step::WriteBack);
        let mut written = 0usize;
        for (prop_name, values) in &out.vertex_props {
            assert_eq!(values.len(), sub.num_vertices());
            for (local, &value) in values.iter().enumerate() {
                let global = sub.back_map[local];
                self.stream.props_mut().set(prop_name, global, value);
                written += 1;
            }
        }
        if span.is_recording() {
            // Each write-back is a property-store update shipped to the
            // persistent side: name lookup + one f64 slot, modeled as a
            // network transfer in the distributed configurations.
            let w = written as u64;
            span.add(w, w * 8, 0, w * 8);
        }
        drop(span);
        self.stats.analytics.props_written_back += written;
        BatchRunReport {
            analytic: name,
            seeds: seeds.to_vec(),
            subgraph_size: (sub.num_vertices(), sub.graph.num_edges()),
            globals: out.globals,
            alerts: out.alerts,
        }
    }

    /// The streaming path: apply a batch of updates, observe monitor
    /// events, and for each event the `trigger` turns into seeds, run
    /// the chosen analytic on the extracted neighborhood ("use the
    /// modified vertices/edges as seeds into a subgraph extraction
    /// process similar to that described for the batch process").
    ///
    /// The batch runs through the staged ingest at the `Full` rung
    /// without a log stage (see [`Self::process_stream_durable`] for
    /// the write-ahead form).
    pub fn process_stream(
        &mut self,
        batch: &UpdateBatch,
        trigger: impl Fn(&Event) -> Option<Vec<VertexId>>,
        analytic_idx: Option<usize>,
    ) -> Vec<BatchRunReport> {
        self.ingest(
            batch,
            Origin::Unlogged,
            DegradationLevel::Full,
            trigger,
            analytic_idx,
        )
        .expect("an unlogged ingest has no failing stage")
    }

    /// Deliver one routed shard sub-batch through the staged ingest:
    /// logged when this engine has a WAL, applied at `Full` with no
    /// trigger. Returns how many of its updates were quarantined.
    pub(crate) fn deliver(&mut self, batch: &UpdateBatch) -> io::Result<usize> {
        let before = self.stats.ingest.updates_quarantined;
        self.ingest(
            batch,
            Origin::Logged,
            DegradationLevel::Full,
            |_| None,
            None,
        )?;
        Ok(self.stats.ingest.updates_quarantined - before)
    }

    /// The one staged ingest every entry point runs a batch through:
    ///
    /// 1. **log** — unless the batch is [`Origin::Unlogged`], append it
    ///    to the WAL (with retry and breaker) before it touches the
    ///    engine; an append error returns here with nothing applied.
    /// 2. **apply** — validate, quarantine and apply the updates, with
    ///    the monitor fan-out unless `level` is `Shed`. The
    ///    `updates_applied`/`updates_quarantined` counters move here
    ///    and nowhere else.
    /// 3. **observe/trigger** — count the monitors' events; each one
    ///    the `trigger` turns into seeds runs the analytic, under the
    ///    degraded budget at `PartialDeadline`. At `SeedsOnly` seeds
    ///    are still counted but the run is skipped (`analytics_skipped`).
    /// 4. **publish** — republish the serving epoch at `Full` and
    ///    `PartialDeadline`; [`Self::pump`] publishes once after
    ///    draining for the cheaper rungs.
    fn ingest(
        &mut self,
        batch: &UpdateBatch,
        origin: Origin,
        level: DegradationLevel,
        trigger: impl Fn(&Event) -> Option<Vec<VertexId>>,
        analytic_idx: Option<usize>,
    ) -> io::Result<Vec<BatchRunReport>> {
        if origin != Origin::Unlogged {
            self.append_with_retry(batch)?;
        }
        if origin == Origin::DeadLetters {
            // The batch is the queue's contents, now safely logged:
            // still-invalid updates re-enter the queue as they apply.
            self.stream.drain_dead_letters();
        }
        // The degraded budget is swapped in before the apply so its
        // deadline (if any) covers the whole batch.
        let standing_budget = (level == DegradationLevel::PartialDeadline).then(|| {
            let o = &self.overload;
            let degraded = match o.degraded_deadline {
                Some(d) => Budget::ops_and_deadline(o.degraded_budget_ops, d),
                None => Budget::ops(o.degraded_budget_ops),
            };
            std::mem::replace(&mut self.kernel_ctx.budget, degraded)
        });

        let quarantined = if level == DegradationLevel::Shed {
            self.stream.apply_batch_unmonitored(batch)
        } else {
            self.stream.apply_batch(batch)
        };
        self.stats.ingest.updates_applied += batch.updates.len() - quarantined;
        self.stats.ingest.updates_quarantined += quarantined;

        let events = self.stream.take_events();
        self.stats.ingest.events_observed += events.len();
        let mut reports = Vec::new();
        for ev in &events {
            let Some(seeds) = trigger(ev) else { continue };
            self.stats.ingest.triggers_fired += 1;
            let Some(idx) = analytic_idx else { continue };
            self.stats.analytics.seeds_selected += seeds.len();
            if level == DegradationLevel::SeedsOnly {
                self.stats.overload.analytics_skipped += 1;
            } else {
                reports.push(self.run_batch_on_seeds(&seeds, idx));
            }
        }
        if let Some(budget) = standing_budget {
            self.kernel_ctx.budget = budget;
        }

        if level <= DegradationLevel::PartialDeadline {
            self.publish_epoch();
        }
        Ok(reports)
    }

    // -----------------------------------------------------------------
    // Durability: WAL + checkpoint/recovery (crate::durability).
    // -----------------------------------------------------------------

    /// Make this engine durable: every subsequent
    /// [`Self::process_stream_durable`] batch is written ahead to a log
    /// in `dir`, and [`Self::checkpoint`] snapshots full state there.
    ///
    /// Writes an initial checkpoint capturing the *current* state, so
    /// recovery always has a base — including any graph content or
    /// analytic write-backs that predate durability (those are not in
    /// the WAL and are only durable via checkpoints). Fails if `dir`
    /// already holds engine state; use [`Self::recover`] for that.
    fn enable_durability_impl(&mut self, dir: &Path) -> io::Result<()> {
        let ckpt = self.snapshot(1);
        let mut d = Durability::create(dir, &ckpt)?;
        d.set_recorder(self.recorder.clone());
        self.durability = Some(d);
        Ok(())
    }

    /// Whether [`FlowConfig::durability_dir`] / [`Self::recover`]
    /// attached a durability directory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Sequence number the next WAL append will carry (1-based; frame
    /// `i` holds the `i`-th durable batch). Recovery drivers use this to
    /// know where to resume an input stream.
    pub fn next_wal_seq(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.next_wal_seq())
    }

    /// Cursor of the newest successfully written checkpoint.
    pub fn last_checkpoint_seq(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.last_checkpoint_seq())
    }

    /// Durable form of [`Self::process_stream`]: the staged ingest's
    /// log stage appends the batch to the write-ahead log (fsynced)
    /// *before* it touches the engine, so a crash at any later point
    /// replays it on recovery.
    ///
    /// Transient append failures are retried per the configured
    /// [`FlowConfig::retry`] policy (the torn tail is repaired between
    /// attempts). With the default no-retry policy this is the
    /// fail-fast contract: on a WAL error the engine state is untouched
    /// and the batch is NOT applied. Once the circuit breaker trips, the
    /// engine degrades to non-durable operation — the batch IS applied
    /// and `Ok` is returned, with the trip surfaced as an alert, a
    /// `CircuitBreaker` event, and the `breaker_trips` counter.
    pub fn process_stream_durable(
        &mut self,
        batch: &UpdateBatch,
        trigger: impl Fn(&Event) -> Option<Vec<VertexId>>,
        analytic_idx: Option<usize>,
    ) -> io::Result<Vec<BatchRunReport>> {
        if self.durability.is_none() {
            return Err(io::Error::other(
                "durability not enabled; build with durability_dir or recover first",
            ));
        }
        self.ingest(
            batch,
            Origin::Logged,
            DegradationLevel::Full,
            trigger,
            analytic_idx,
        )
    }

    /// Append `batch` to the WAL, retrying transient failures with the
    /// configured backoff. Exhausted retries feed the circuit breaker;
    /// when it trips the engine suspends durability (returning `Ok` so
    /// the caller proceeds non-durably) instead of erroring forever.
    fn append_with_retry(&mut self, batch: &UpdateBatch) -> io::Result<()> {
        if self.durability_suspended || self.durability.is_none() {
            return Ok(());
        }
        let mut attempt = 0u32;
        let err = loop {
            let d = self.durability.as_mut().unwrap();
            match d.append(batch) {
                Ok(_) => {
                    self.breaker.record_success();
                    return Ok(());
                }
                Err(e) => {
                    // A failed append may have torn the log; truncate the
                    // tail so the retried frame lands on a clean boundary.
                    // A repair failure is itself a durability failure —
                    // and on a hard storage fault the most likely
                    // correlated one — so it must feed the breaker below
                    // rather than bypass it.
                    if let Err(re) = d.repair_wal() {
                        break re;
                    }
                    if attempt < self.retry.max_retries {
                        std::thread::sleep(self.retry.delay(attempt));
                        attempt += 1;
                        self.stats.durability.retries += 1;
                    } else {
                        break e;
                    }
                }
            }
        };
        if self.breaker.record_failure() {
            self.trip_breaker();
            return Ok(());
        }
        Err(err)
    }

    /// Record a breaker trip: suspend durable writes, raise an alert,
    /// and emit a `CircuitBreaker` event.
    fn trip_breaker(&mut self) {
        self.durability_suspended = true;
        self.stats.durability.breaker_trips += 1;
        self.stats.analytics.alerts_raised += 1;
        let time = self.stream.last_batch_time();
        self.recorder
            .journal(time, "circuit_breaker", "durability open".into());
        self.overload_events.push(Event {
            time,
            source: "flow",
            kind: EventKind::CircuitBreaker {
                site: "durability",
                open: true,
            },
        });
    }

    /// Snapshot current state as a checkpoint with the given cursor.
    fn snapshot(&self, next_wal_seq: u64) -> Checkpoint {
        Checkpoint {
            graph: self.stream.graph().clone(),
            props: self.stream.props().clone(),
            flow: self.stats,
            stream: self.stream.stats(),
            symmetrize: self.stream.symmetrize,
            vertex_limit: self.stream.vertex_limit() as u64,
            last_batch_time: self.stream.last_batch_time(),
            next_wal_seq,
        }
    }

    /// Write a checkpoint of the current state, rotate the WAL, and
    /// prune old files. Returns the checkpoint's path.
    ///
    /// Transient write failures are retried like WAL appends (the
    /// tmp-file + rename protocol makes a retried write safe), feeding
    /// the same circuit breaker. Fails fast when durability is already
    /// suspended — a checkpoint is an explicit durability request the
    /// engine cannot silently skip.
    pub fn checkpoint(&mut self) -> io::Result<PathBuf> {
        if self.durability.is_none() {
            return Err(io::Error::other(
                "durability not enabled; build with durability_dir or recover first",
            ));
        }
        if self.durability_suspended {
            return Err(io::Error::other(
                "durability suspended by the circuit breaker; call resume_durability",
            ));
        }
        let seq = self.durability.as_ref().unwrap().next_wal_seq();
        let ckpt = self.snapshot(seq);
        // Retries of this very write cannot be part of the image being
        // written; the live counter is folded up after the write lands
        // (recovered counters lag by exactly those retries, which the
        // equivalence suite normalizes).
        let mut attempt = 0u32;
        let result = loop {
            let d = self.durability.as_mut().unwrap();
            match d.checkpoint(&ckpt) {
                Ok(path) => break Ok(path),
                Err(_) if attempt < self.retry.max_retries => {
                    std::thread::sleep(self.retry.delay(attempt));
                    attempt += 1;
                }
                Err(e) => break Err(e),
            }
        };
        self.stats.durability.retries += attempt as usize;
        match result {
            Ok(path) => {
                self.breaker.record_success();
                Ok(path)
            }
            Err(e) => {
                if self.breaker.record_failure() {
                    self.trip_breaker();
                }
                Err(e)
            }
        }
    }

    /// Rebuild an engine from a durability directory: load the newest
    /// usable checkpoint, replay the WAL suffix through the normal
    /// ingest path (quarantine included), and reattach the log for
    /// further appends.
    ///
    /// The recovered state — graph slots, property columns, stats,
    /// batch-time watermark — is bit-identical to an uninterrupted run
    /// over the same durable batches. Configuration that is not state
    /// (registered analytics, monitors, extraction options, kernel
    /// context) is NOT persisted; re-register after recovery.
    pub fn recover(dir: impl AsRef<Path>) -> io::Result<FlowEngine> {
        Self::recover_labeled(dir, "")
    }

    /// [`Self::recover`] for one shard of a multi-engine deployment:
    /// `label` (e.g. `"shard-03"`) is prefixed onto every durability
    /// error so a failed recovery names the shard and the offending
    /// checkpoint/WAL path.
    pub fn recover_labeled(dir: impl AsRef<Path>, label: &str) -> io::Result<FlowEngine> {
        let (durability, ckpt, replay) = Durability::recover_labeled(dir, label)?;
        let mut engine = FlowEngine::with_graph(ckpt.graph, ckpt.props);
        engine.stats = ckpt.flow;
        engine.stream.set_stats(ckpt.stream);
        engine.stream.symmetrize = ckpt.symmetrize;
        engine.stream.set_vertex_limit(ckpt.vertex_limit as usize);
        engine.stream.set_last_batch_time(ckpt.last_batch_time);
        engine.durability = Some(durability);
        for (_seq, batch) in &replay {
            // Replay through the staged ingest with logging off: the
            // frames are already in the log, and re-validation
            // re-quarantines deterministically.
            engine.process_stream(batch, |_| None, None);
        }
        Ok(engine)
    }

    /// Quarantined updates, oldest first (bounded dead-letter queue).
    pub fn dead_letters(&self) -> impl Iterator<Item = &QuarantinedUpdate> {
        self.stream.dead_letters()
    }

    /// Remove and return every quarantined update (oldest first),
    /// leaving the dead-letter queue empty. For re-admission through
    /// the normal ingest path use [`Self::replay_dead_letters`], which
    /// WAL-logs the replay on durable engines.
    pub fn drain_dead_letters(&mut self) -> Vec<QuarantinedUpdate> {
        self.stream.drain_dead_letters()
    }

    /// Align the batch-time watermark without ingesting (used when a
    /// shard engine is rebuilt from replica rows: the copied rows carry
    /// the fleet's timestamps, so the clock must match the fleet's).
    pub(crate) fn set_last_batch_time(&mut self, t: ga_graph::Timestamp) {
        self.stream.set_last_batch_time(t);
    }

    /// Set the vertex-id bound above which updates are quarantined.
    pub fn set_vertex_limit(&mut self, limit: usize) {
        self.stream.set_vertex_limit(limit);
    }

    /// Mirror edge updates in both directions (undirected mode). Must
    /// match across crash/recovery for replay to reproduce state.
    pub fn set_symmetrize(&mut self, symmetrize: bool) {
        self.stream.symmetrize = symmetrize;
    }

    /// Whether edge updates are mirrored in both directions (persisted
    /// in checkpoints, so valid right after recovery too).
    pub fn symmetrize(&self) -> bool {
        self.stream.symmetrize
    }

    // -----------------------------------------------------------------
    // Overload resilience: admission control, degradation ladder,
    // retry/backoff + circuit breaker, dead-letter replay.
    // -----------------------------------------------------------------

    /// The configured retry policy (set via [`FlowConfig::retry`]).
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// True once the circuit breaker has suspended durable writes.
    pub fn durability_suspended(&self) -> bool {
        self.durability_suspended
    }

    /// Operator action after the storage fault is fixed: close the
    /// breaker, repair the WAL tail, and resume durable operation.
    /// Batches applied while suspended were never logged — take a
    /// [`Self::checkpoint`] right after resuming to re-base recovery.
    pub fn resume_durability(&mut self) -> io::Result<()> {
        if let Some(d) = self.durability.as_mut() {
            d.repair_wal()?;
        }
        self.breaker.reset();
        if self.durability_suspended {
            self.durability_suspended = false;
            let time = self.stream.last_batch_time();
            self.recorder
                .journal(time, "circuit_breaker", "durability closed".into());
            self.overload_events.push(Event {
                time,
                source: "flow",
                kind: EventKind::CircuitBreaker {
                    site: "durability",
                    open: false,
                },
            });
        }
        Ok(())
    }

    /// Offer a batch to the admission queue under `class`. Refused or
    /// evicted updates are counted in `updates_shed` and surfaced as
    /// [`EventKind::LoadShed`] events; nothing here touches the graph —
    /// call [`Self::pump`] to drain admitted work.
    pub fn offer(&mut self, class: Priority, batch: UpdateBatch) -> AdmissionDecision {
        let lost_before = self.admission.stats().total_lost();
        let decision = self.admission.offer(class, batch);
        self.stats.overload.updates_shed += self.admission.stats().total_lost() - lost_before;
        let events = self.admission.take_events();
        if self.recorder.is_enabled() {
            for ev in &events {
                if let EventKind::LoadShed {
                    class,
                    updates,
                    queue_depth,
                } = ev.kind
                {
                    self.recorder.journal(
                        ev.time,
                        "load_shed",
                        format!("{class}: {updates} updates at depth {queue_depth}"),
                    );
                }
            }
        }
        self.overload_events.extend(events);
        decision
    }

    /// Queued updates awaiting [`Self::pump`].
    pub fn queue_depth(&self) -> usize {
        self.admission.depth()
    }

    /// Admission counters (offered/admitted/shed/evicted per class).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Overload events (load shedding, ladder moves, breaker trips)
    /// accumulated since the last take.
    pub fn take_overload_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.overload_events)
    }

    /// The rung of the degradation ladder the next pumped batch will be
    /// processed at: the more degraded of the queue-depth signal
    /// (deterministic) and the recent-latency EWMA signal (off unless
    /// latency thresholds are configured).
    pub fn degradation_level(&self) -> DegradationLevel {
        let depth = self.admission.depth();
        let o = &self.overload;
        let by_depth = if depth >= o.shed_at {
            DegradationLevel::Shed
        } else if depth >= o.seeds_only_at {
            DegradationLevel::SeedsOnly
        } else if depth >= o.partial_at {
            DegradationLevel::PartialDeadline
        } else {
            DegradationLevel::Full
        };
        let by_latency = match self.batch_latency.value() {
            None => DegradationLevel::Full,
            Some(secs) => {
                let over = |t: Option<Duration>| t.is_some_and(|t| secs > t.as_secs_f64());
                if over(o.latency_shed) {
                    DegradationLevel::Shed
                } else if over(o.latency_seeds_only) {
                    DegradationLevel::SeedsOnly
                } else if over(o.latency_partial) {
                    DegradationLevel::PartialDeadline
                } else {
                    DegradationLevel::Full
                }
            }
        };
        by_depth.max(by_latency)
    }

    /// Emit a `Degraded` event when the ladder rung changed since the
    /// last pump (recovery back toward `Full` is reported the same way).
    fn note_level(&mut self, level: DegradationLevel) {
        if level != self.level {
            let time = self.stream.last_batch_time();
            if self.recorder.is_enabled() {
                self.recorder.journal(
                    time,
                    "degraded",
                    format!(
                        "{} -> {} at depth {}",
                        self.level.name(),
                        level.name(),
                        self.admission.depth()
                    ),
                );
            }
            self.overload_events.push(Event {
                time,
                source: "flow",
                kind: EventKind::Degraded {
                    from: self.level.name(),
                    to: level.name(),
                    queue_depth: self.admission.depth(),
                },
            });
            self.level = level;
        }
    }

    /// Drain up to `max_batches` admitted batches through the staged
    /// ingest, one batch per pass, each at the degradation level in
    /// force when it is popped (high-priority batches first):
    ///
    /// * `Full` — every stage, as in [`Self::process_stream_durable`].
    /// * `PartialDeadline` — analytics run under
    ///   [`OverloadConfig::degraded_budget_ops`] (+ optional deadline)
    ///   and may return typed partial results (`deadline_partials`).
    /// * `SeedsOnly` — triggers still fire and seeds are selected, but
    ///   analytic runs are skipped (`analytics_skipped`).
    /// * `Shed` — updates are applied unmonitored: no events, no
    ///   triggers, minimal cost.
    ///
    /// Durable engines append every pumped batch (with retry) before it
    /// touches the graph, at every level — degradation sacrifices
    /// analytics, never durability. If an append fails without tripping
    /// the breaker, the popped batch is re-queued at the front of its
    /// class before the error is returned, so a durability error never
    /// silently loses an admitted batch. `Full` and `PartialDeadline`
    /// batches republish the serving epoch as they land; the pump
    /// republishes once more after draining, which covers the cheaper
    /// rungs. Returns the reports of analytic runs that did execute.
    pub fn pump(
        &mut self,
        max_batches: usize,
        trigger: impl Fn(&Event) -> Option<Vec<VertexId>>,
        analytic_idx: Option<usize>,
    ) -> io::Result<Vec<BatchRunReport>> {
        let mut reports = Vec::new();
        for _ in 0..max_batches {
            let level = self.degradation_level();
            self.note_level(level);
            let Some((class, batch)) = self.admission.pop() else {
                break;
            };
            let t0 = Instant::now();
            match self.ingest(&batch, Origin::Logged, level, &trigger, analytic_idx) {
                Ok(r) => reports.extend(r),
                Err(e) => {
                    // The log stage failed, so the batch never touched
                    // the graph; put it back at the front of its class
                    // so nothing admitted is lost to a durability error.
                    self.admission.requeue_front(class, batch);
                    return Err(e);
                }
            }
            self.batch_latency.observe(t0.elapsed().as_secs_f64());
        }
        // Re-evaluate after draining so recovery back to Full is visible
        // without waiting for the next pump.
        let level = self.degradation_level();
        self.note_level(level);
        // The SeedsOnly/Shed rungs skip the per-batch publish stage, so
        // republish here — degradation sheds analytics, never freshness.
        self.publish_epoch();
        Ok(reports)
    }

    /// Drain the dead-letter queue and re-admit every quarantined update
    /// through the normal ingest path (after the operator fixed the
    /// cause — e.g. [`Self::set_vertex_limit`]). The replay batch is
    /// WAL-logged first on durable engines, so recovery reproduces it.
    /// Still-invalid updates are re-quarantined.
    ///
    /// Returns `(applied, requarantined)`.
    pub fn replay_dead_letters(&mut self) -> io::Result<(usize, usize)> {
        // Build the replay batch from a *copy* of the queue and append
        // it to the WAL before draining: if the append fails, the
        // quarantined updates stay safely retained in the dead-letter
        // queue instead of being destroyed with the error.
        let updates: Vec<_> = self
            .stream
            .dead_letters()
            .map(|l| l.update.clone())
            .collect();
        if updates.is_empty() {
            return Ok((0, 0));
        }
        let batch = UpdateBatch {
            time: self.stream.last_batch_time(),
            updates,
        };
        let before = self.stats.ingest.updates_quarantined;
        self.ingest(
            &batch,
            Origin::DeadLetters,
            DegradationLevel::Full,
            |_| None,
            None,
        )?;
        let requarantined = self.stats.ingest.updates_quarantined - before;
        Ok((batch.updates.len() - requarantined, requarantined))
    }
}

// ---------------------------------------------------------------------
// Built-in analytics wrapping the kernel crate.
// ---------------------------------------------------------------------

/// PageRank over the extracted subgraph; writes `pagerank` back.
pub struct PageRankAnalytic {
    /// Damping factor (0.85 typical).
    pub damping: f64,
}

impl BatchAnalytic for PageRankAnalytic {
    fn name(&self) -> &'static str {
        "pagerank"
    }
    fn run(&self, sub: &Subgraph, ctx: &KernelCtx) -> AnalyticOutput {
        let r = ga_kernels::pagerank::pagerank_delta_with(&sub.graph, self.damping, 1e-3, ctx);
        AnalyticOutput {
            globals: vec![("pagerank_pushes".into(), r.work as f64)],
            vertex_props: vec![("pagerank".into(), r.rank)],
            alerts: vec![],
        }
    }
}

/// Connected components; writes `component` back and reports the count.
pub struct ComponentsAnalytic;

impl BatchAnalytic for ComponentsAnalytic {
    fn name(&self) -> &'static str {
        "components"
    }
    fn run(&self, sub: &Subgraph, ctx: &KernelCtx) -> AnalyticOutput {
        let c = ga_kernels::cc::wcc_with(&sub.graph, ctx);
        AnalyticOutput {
            globals: vec![("num_components".into(), c.count as f64)],
            vertex_props: vec![(
                "component".into(),
                c.label.iter().map(|&l| l as f64).collect(),
            )],
            alerts: vec![],
        }
    }
}

/// Triangle count + clustering; alerts when transitivity exceeds a
/// threshold (a toy "dense neighborhood" detector).
pub struct TriangleAnalytic {
    /// Transitivity above which to raise an alert.
    pub alert_transitivity: f64,
}

impl BatchAnalytic for TriangleAnalytic {
    fn name(&self) -> &'static str {
        "triangles"
    }
    fn run(&self, sub: &Subgraph, ctx: &KernelCtx) -> AnalyticOutput {
        let c = ga_kernels::cluster::clustering_coefficients(&sub.graph);
        let triangles = ga_kernels::triangles::count_global_with(&sub.graph, ctx);
        let mut alerts = vec![];
        if c.transitivity > self.alert_transitivity {
            alerts.push(format!(
                "dense neighborhood: transitivity {:.3} over {} vertices",
                c.transitivity,
                sub.num_vertices()
            ));
        }
        AnalyticOutput {
            globals: vec![
                ("triangles".into(), triangles as f64),
                ("transitivity".into(), c.transitivity),
            ],
            vertex_props: vec![("clustering".into(), c.local)],
            alerts,
        }
    }
}

/// All-pairs Jaccard over the extracted subgraph — the NORA-class
/// analytic (§III: "close to the Jaccard coefficient kernel"). Writes
/// each vertex's best coefficient back as `jaccard_max` and alerts on
/// pairs at or above `alert_tau`.
pub struct JaccardAnalytic {
    /// Pairs with J >= this threshold are reported.
    pub tau: f64,
    /// Pairs with J >= this (higher) threshold raise alerts.
    pub alert_tau: f64,
}

impl BatchAnalytic for JaccardAnalytic {
    fn name(&self) -> &'static str {
        "jaccard"
    }
    fn run(&self, sub: &Subgraph, ctx: &KernelCtx) -> AnalyticOutput {
        let pairs = ga_kernels::jaccard::all_pairs_above(&sub.graph, self.tau);
        // The Jaccard kernel isn't internally instrumented yet; record
        // the dominant traffic (every adjacency list read per probed
        // pair's merge) analytically.
        let m = sub.graph.num_edges() as u64;
        ctx.counters.flush(2 * m, 8 * m, m);
        let mut best = vec![0.0f64; sub.num_vertices()];
        let mut alerts = Vec::new();
        for &(a, b, j) in &pairs {
            best[a as usize] = best[a as usize].max(j);
            best[b as usize] = best[b as usize].max(j);
            if j >= self.alert_tau {
                alerts.push(format!(
                    "near-duplicate neighborhoods: {} and {} (J = {j:.3})",
                    sub.to_source(a),
                    sub.to_source(b)
                ));
            }
        }
        AnalyticOutput {
            globals: vec![("jaccard_pairs".into(), pairs.len() as f64)],
            vertex_props: vec![("jaccard_max".into(), best)],
            alerts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::gen;
    use ga_stream::engine::QuarantineReason;
    use ga_stream::update::{into_batches, Update};
    use ga_stream::EventKind;

    fn engine_with_ring(n: usize) -> FlowEngine {
        let mut g = DynamicGraph::new(n);
        g.insert_undirected(&gen::ring(n), 1);
        FlowEngine::with_graph(g, PropertyStore::new(n))
    }

    #[test]
    fn batch_path_writes_back_properties() {
        let mut e = engine_with_ring(20);
        let idx = e.register_analytic(Box::new(ComponentsAnalytic));
        let report = e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        assert_eq!(report.analytic, "components");
        // depth-2 ball around 0 on a ring: {18,19,0,1,2}
        assert_eq!(report.subgraph_size.0, 5);
        assert_eq!(report.globals[0].1, 1.0); // one component
                                              // Write-back landed on persistent (global) vertex ids.
        assert!(e.props().get_f64("component", 0).is_some());
        assert!(e.props().get_f64("component", 19).is_some());
        assert!(e.props().get_f64("component", 10).is_none());
        let s = e.stats();
        assert_eq!(s.analytics.batch_runs, 1);
        assert_eq!(s.analytics.props_written_back, 5);
    }

    #[test]
    fn compressed_adjacency_mirror_is_exact_and_accounted() {
        let n = 64;
        let mut g = DynamicGraph::new(n);
        g.insert_undirected(&gen::erdos_renyi(n, 200, 5), 1);
        let props = PropertyStore::new(n);
        let mut e = FlowEngine::builder()
            .compressed_adjacency(true)
            .build_with_graph(g, props)
            .unwrap();
        assert!(e.compressed_adjacency());
        let idx = e.register_analytic(Box::new(ComponentsAnalytic));
        e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        // The mirror decodes to the exact plain snapshot, and kernels
        // accept it directly with bit-identical results.
        let compressed = e.compressed_snapshot();
        let plain = e.graph().snapshot();
        let decoded = compressed.to_csr();
        assert_eq!(decoded.num_edges(), plain.num_edges());
        for v in 0..n as VertexId {
            assert_eq!(decoded.neighbors(v), plain.neighbors(v));
        }
        let cc_plain = ga_kernels::cc::wcc_union_find(&plain);
        let cc_comp = ga_kernels::cc::wcc_union_find(compressed.as_ref());
        assert_eq!(cc_plain.label, cc_comp.label);
        // The compressed build was charged to the snapshot stats the
        // batch path folds into FlowStats.
        assert!(e.stats().snapshots.mem_bytes > 0);
    }

    #[test]
    fn top_k_degree_selection() {
        let mut g = DynamicGraph::new(10);
        g.insert_undirected(&gen::star(10), 1);
        let e = FlowEngine::with_graph(g, PropertyStore::new(10));
        let seeds = e.select_seeds(&SelectionCriteria::TopKDegree { k: 1 });
        assert_eq!(seeds, vec![0]);
    }

    #[test]
    fn property_selection_paths() {
        let mut e = engine_with_ring(6);
        e.props_mut()
            .set_column_f64("risk", &[0.1, 0.9, 0.2, 0.8, 0.0, 0.5]);
        let top = e.select_seeds(&SelectionCriteria::TopKProperty {
            name: "risk".into(),
            k: 2,
        });
        assert_eq!(top, vec![1, 3]);
        let above = e.select_seeds(&SelectionCriteria::PropertyAbove {
            name: "risk".into(),
            tau: 0.45,
        });
        assert_eq!(above, vec![1, 3, 5]);
    }

    #[test]
    fn projection_carries_columns_into_subgraph() {
        let mut e = engine_with_ring(8);
        e.props_mut().set_column_f64("score", &[0.0; 8]);
        e.project_columns = vec!["score".into()];
        let idx = e.register_analytic(Box::new(ComponentsAnalytic));
        // Smoke: run succeeds with projection enabled.
        let r = e.run_batch(&SelectionCriteria::Explicit(vec![3]), idx);
        assert_eq!(r.subgraph_size.0, 5);
    }

    #[test]
    fn pagerank_analytic_writes_ranks() {
        let mut e = engine_with_ring(12);
        e.extract.depth = 6;
        let idx = e.register_analytic(Box::new(PageRankAnalytic { damping: 0.85 }));
        e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        let total: f64 = (0..12)
            .filter_map(|v| e.props().get_f64("pagerank", v))
            .sum();
        assert!((total - 1.0).abs() < 1e-3, "ranks sum to {total}");
    }

    #[test]
    fn triangle_analytic_alerts_on_dense_region() {
        let mut g = DynamicGraph::new(5);
        g.insert_undirected(&gen::complete(5), 1);
        let mut e = FlowEngine::with_graph(g, PropertyStore::new(5));
        let idx = e.register_analytic(Box::new(TriangleAnalytic {
            alert_transitivity: 0.5,
        }));
        let r = e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        assert_eq!(r.alerts.len(), 1);
        assert_eq!(r.globals[0].1, 10.0); // C(5,3)
        assert_eq!(e.stats().analytics.alerts_raised, 1);
    }

    #[test]
    fn streaming_trigger_runs_analytic() {
        let mut e = FlowEngine::new(16);
        e.extract.depth = 1;
        e.register_monitor(Box::new(ga_stream::jaccard_stream::JaccardMonitor::new(
            0.99,
        )));
        let idx = e.register_analytic(Box::new(TriangleAnalytic {
            alert_transitivity: 0.0,
        }));
        // Build two vertices with identical neighborhoods -> J = 1.0.
        let ups = vec![
            Update::EdgeInsert {
                src: 0,
                dst: 2,
                weight: 1.0,
            },
            Update::EdgeInsert {
                src: 0,
                dst: 3,
                weight: 1.0,
            },
            Update::EdgeInsert {
                src: 1,
                dst: 2,
                weight: 1.0,
            },
            Update::EdgeInsert {
                src: 1,
                dst: 3,
                weight: 1.0,
            },
        ];
        let mut reports = Vec::new();
        for b in into_batches(ups, 1, 0) {
            reports.extend(e.process_stream(
                &b,
                |ev| match ev.kind {
                    EventKind::PairThreshold { a, b, .. } => Some(vec![a, b]),
                    _ => None,
                },
                Some(idx),
            ));
        }
        assert!(!reports.is_empty(), "no triggered analytic runs");
        let s = e.stats();
        assert!(s.ingest.triggers_fired >= 1);
        assert_eq!(s.ingest.updates_applied, 4);
        assert!(s.ingest.events_observed >= 1);
        // Triggered run extracted the pair's neighborhood.
        assert!(reports[0].subgraph_size.0 >= 3);
    }

    #[test]
    fn jaccard_analytic_reports_twin_neighborhoods() {
        // Vertices 0 and 1 share exactly the same two neighbors.
        let mut g = DynamicGraph::new(5);
        for (u, v) in [(0, 2), (0, 3), (1, 2), (1, 3)] {
            g.insert_edge(u, v, 1.0, 1);
            g.insert_edge(v, u, 1.0, 1);
        }
        let mut e = FlowEngine::with_graph(g, PropertyStore::new(5));
        let idx = e.register_analytic(Box::new(JaccardAnalytic {
            tau: 0.3,
            alert_tau: 0.99,
        }));
        let r = e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        // Two perfect twins: (0,1) share {2,3} and (2,3) share {0,1}.
        assert_eq!(r.alerts.len(), 2, "alerts: {:?}", r.alerts);
        assert!(r.alerts.iter().all(|a| a.contains("J = 1.000")));
        // Write-back landed in persistent ids.
        assert_eq!(e.props().get_f64("jaccard_max", 0), Some(1.0));
        assert_eq!(e.props().get_f64("jaccard_max", 1), Some(1.0));
    }

    #[test]
    fn stats_accumulate_across_runs() {
        let mut e = engine_with_ring(30);
        let idx = e.register_analytic(Box::new(ComponentsAnalytic));
        e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        e.run_batch(&SelectionCriteria::Explicit(vec![15]), idx);
        let s = e.stats();
        assert_eq!(s.analytics.batch_runs, 2);
        assert_eq!(s.analytics.subgraphs_extracted, 2);
        assert_eq!(s.analytics.seeds_selected, 2);
        assert_eq!(s.analytics.vertices_extracted, 10);
    }

    #[test]
    fn batch_runs_drain_kernel_counters_into_stats() {
        let mut e = engine_with_ring(40);
        let idx = e.register_analytic(Box::new(ComponentsAnalytic));
        e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        let s = e.stats();
        assert!(s.analytics.kernel_cpu_ops > 0);
        assert!(s.analytics.kernel_mem_bytes > 0);
        assert!(s.analytics.kernel_edges_touched > 0);
        // The engine-held counters were drained, not left accumulating.
        assert!(e.kernel_ctx.snapshot().is_zero());
        // A second run accumulates further.
        e.run_batch(&SelectionCriteria::Explicit(vec![20]), idx);
        assert!(e.stats().analytics.kernel_edges_touched > s.analytics.kernel_edges_touched);
    }

    #[test]
    fn note_ingest_counts() {
        let mut e = FlowEngine::new(4);
        e.note_ingest(100, 37);
        assert_eq!(e.stats().ingest.records_ingested, 100);
        assert_eq!(e.stats().ingest.entities_created, 37);
    }

    /// Emits one O(1) event per batch end — a deterministic trigger
    /// source for ladder tests.
    struct PulseMonitor;

    impl ga_stream::Monitor for PulseMonitor {
        fn name(&self) -> &'static str {
            "pulse"
        }
        fn on_update(
            &mut self,
            _g: &DynamicGraph,
            _u: &ga_stream::Update,
            _r: ga_graph::dynamic::ApplyResult,
            _t: u64,
            _out: &mut Vec<Event>,
        ) {
        }
        fn on_batch_end(&mut self, _g: &DynamicGraph, time: u64, out: &mut Vec<Event>) {
            out.push(Event {
                time,
                source: "pulse",
                kind: EventKind::GlobalValue {
                    metric: "pulse",
                    value: 1.0,
                },
            });
        }
    }

    fn ring_batch(n: usize, time: u64, len: usize) -> UpdateBatch {
        UpdateBatch {
            time,
            updates: (0..len)
                .map(|i| Update::EdgeInsert {
                    src: (i % n) as u32,
                    dst: ((i + 1) % n) as u32,
                    weight: 1.0,
                })
                .collect(),
        }
    }

    #[test]
    fn zero_budget_run_counts_deadline_partial() {
        let mut e = engine_with_ring(20);
        let idx = e.register_analytic(Box::new(ComponentsAnalytic));
        e.kernel_ctx.budget = Budget::ops(0);
        e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        assert_eq!(e.stats().overload.deadline_partials, 1);
        // An unlimited run does not count one.
        e.kernel_ctx.budget = Budget::unlimited();
        e.run_batch(&SelectionCriteria::Explicit(vec![5]), idx);
        assert_eq!(e.stats().overload.deadline_partials, 1);
    }

    #[test]
    fn offer_sheds_over_watermark_and_counts() {
        let mut e = FlowEngine::builder()
            .admission(AdmissionConfig {
                capacity: 100,
                normal_watermark: 80,
                bulk_watermark: 40,
            })
            .build(8)
            .unwrap();
        assert!(e.offer(Priority::Bulk, ring_batch(8, 1, 40)).admitted());
        let d = e.offer(Priority::Bulk, ring_batch(8, 2, 10));
        assert!(!d.admitted());
        assert_eq!(e.stats().overload.updates_shed, 10);
        assert_eq!(e.queue_depth(), 40);
        let evs = e.take_overload_events();
        assert_eq!(evs.len(), 1);
        assert!(matches!(
            evs[0].kind,
            EventKind::LoadShed {
                class: "bulk",
                updates: 10,
                ..
            }
        ));
    }

    #[test]
    fn pump_walks_the_degradation_ladder() {
        let mut e = FlowEngine::builder()
            .admission(AdmissionConfig {
                capacity: 1000,
                normal_watermark: 800,
                bulk_watermark: 500,
            })
            .build(16)
            .unwrap();
        e.extract.depth = 1;
        e.register_monitor(Box::new(PulseMonitor));
        let idx = e.register_analytic(Box::new(ComponentsAnalytic));
        e.overload.partial_at = 100;
        e.overload.seeds_only_at = 200;
        e.overload.shed_at = 300;
        e.overload.degraded_budget_ops = 0; // any analytic run is partial
        let trigger = |ev: &Event| match ev.kind {
            EventKind::GlobalValue { .. } => Some(vec![0]),
            _ => None,
        };

        // Depth 50 → Full: the analytic runs to completion.
        e.offer(Priority::Normal, ring_batch(16, 1, 50));
        assert_eq!(e.degradation_level(), DegradationLevel::Full);
        let r = e.pump(1, trigger, Some(idx)).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(e.stats().overload.deadline_partials, 0);

        // Depth 150 → PartialDeadline: runs happen but trip the budget.
        for t in 2..5 {
            e.offer(Priority::Normal, ring_batch(16, t, 50));
        }
        assert_eq!(e.degradation_level(), DegradationLevel::PartialDeadline);
        e.pump(1, trigger, Some(idx)).unwrap();
        assert_eq!(e.stats().overload.deadline_partials, 1);
        assert_eq!(e.stats().analytics.batch_runs, 2);
        // The standing budget was restored afterwards.
        assert!(!e.kernel_ctx.budget.is_limited());

        // Depth 250 → SeedsOnly: trigger fires, analytic skipped.
        for t in 5..8 {
            e.offer(Priority::Normal, ring_batch(16, t, 50));
        }
        assert_eq!(e.degradation_level(), DegradationLevel::SeedsOnly);
        e.pump(1, trigger, Some(idx)).unwrap();
        assert_eq!(e.stats().overload.analytics_skipped, 1);
        assert_eq!(e.stats().analytics.batch_runs, 2, "no analytic ran");

        // Depth 300 → Shed: updates applied, no events observed.
        for t in 8..10 {
            e.offer(Priority::Normal, ring_batch(16, t, 50));
        }
        assert_eq!(e.degradation_level(), DegradationLevel::Shed);
        let observed = e.stats().ingest.events_observed;
        e.pump(1, trigger, Some(idx)).unwrap();
        assert_eq!(
            e.stats().ingest.events_observed,
            observed,
            "shed batch is silent"
        );

        // Drain the rest: the ladder recovers to Full and said so.
        e.pump(100, trigger, Some(idx)).unwrap();
        assert_eq!(e.queue_depth(), 0);
        assert_eq!(e.degradation_level(), DegradationLevel::Full);
        let evs = e.take_overload_events();
        let moves: Vec<(&str, &str)> = evs
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::Degraded { from, to, .. } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert!(moves.contains(&("full", "partial-deadline")), "{moves:?}");
        // Recovery is stepwise as the queue drains, but it ends at full
        // and the shed level was both entered and left.
        assert_eq!(moves.last().map(|m| m.1), Some("full"), "{moves:?}");
        assert!(moves.iter().any(|m| m.0 == "shed"), "{moves:?}");
        // Every update was accounted: applied, nothing lost.
        assert_eq!(e.stats().ingest.updates_applied, 450);
        assert_eq!(e.stats().overload.updates_shed, 0);
    }

    #[test]
    fn flow_replay_dead_letters_after_raising_limit() {
        let mut e = FlowEngine::new(4);
        e.set_vertex_limit(10);
        e.process_stream(
            &UpdateBatch {
                time: 1,
                updates: vec![
                    Update::EdgeInsert {
                        src: 0,
                        dst: 50,
                        weight: 1.0,
                    },
                    Update::EdgeInsert {
                        src: 0,
                        dst: 1,
                        weight: 1.0,
                    },
                ],
            },
            |_| None,
            None,
        );
        assert_eq!(e.stats().ingest.updates_quarantined, 1);
        e.set_vertex_limit(100);
        let (applied, requarantined) = e.replay_dead_letters().unwrap();
        assert_eq!((applied, requarantined), (1, 0));
        assert!(e.graph().has_edge(0, 50));
        assert_eq!(e.stats().ingest.updates_applied, 2);
        // Queue is empty now; a second replay is a no-op.
        assert_eq!(e.replay_dead_letters().unwrap(), (0, 0));

        // An unfixable update (NaN weight) is re-quarantined by the
        // replay, for the same reason.
        e.process_stream(
            &UpdateBatch {
                time: 2,
                updates: vec![Update::EdgeInsert {
                    src: 1,
                    dst: 2,
                    weight: f32::NAN,
                }],
            },
            |_| None,
            None,
        );
        assert_eq!(e.replay_dead_letters().unwrap(), (0, 1));
        let letters: Vec<_> = e.dead_letters().map(|l| l.reason).collect();
        assert_eq!(letters, [QuarantineReason::NonFiniteWeight]);
        assert_eq!(e.stats().ingest.updates_quarantined, 3);
        e.drain_dead_letters();

        // A stale batch is dead-lettered whole for NonMonotonicTime; the
        // replay readmits it at the watermark without moving the clock.
        let edge = |time, src, dst| UpdateBatch {
            time,
            updates: vec![Update::EdgeInsert {
                src,
                dst,
                weight: 1.0,
            }],
        };
        e.process_stream(&edge(10, 2, 3), |_| None, None);
        e.process_stream(&edge(3, 1, 3), |_| None, None);
        assert_eq!(
            e.dead_letters().next().map(|l| l.reason),
            Some(QuarantineReason::NonMonotonicTime)
        );
        assert_eq!(e.replay_dead_letters().unwrap(), (1, 0));
        assert!(e.graph().has_edge(1, 3));
        assert_eq!(e.stream.last_batch_time(), 10);
    }

    #[test]
    fn batch_runs_account_snapshot_cost_and_hit_cache() {
        let mut e = engine_with_ring(40);
        let idx = e.register_analytic(Box::new(ComponentsAnalytic));
        e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        let s1 = e.stats();
        assert_eq!(s1.snapshots.rebuilds, 1, "first run freezes the graph");
        assert!(s1.snapshots.mem_bytes > 0);
        // Second run against the unchanged graph: cache hit, no rebuild.
        e.run_batch(&SelectionCriteria::Explicit(vec![20]), idx);
        let s2 = e.stats();
        assert_eq!(s2.snapshots.rebuilds, 1, "unchanged graph must not rebuild");
        assert_eq!(s2.snapshots.mem_bytes, s1.snapshots.mem_bytes);
        // An update dirties two rows (symmetrized insert); the next run
        // takes the delta path and reuses every clean row.
        e.process_stream(
            &UpdateBatch {
                time: 9,
                updates: vec![Update::EdgeInsert {
                    src: 0,
                    dst: 20,
                    weight: 1.0,
                }],
            },
            |_| None,
            None,
        );
        e.run_batch(&SelectionCriteria::Explicit(vec![0]), idx);
        let s3 = e.stats();
        assert_eq!(s3.snapshots.rebuilds, 2);
        assert_eq!(s3.snapshots.rows_reused, 38, "40 rows - 2 dirty");
    }

    #[test]
    fn serving_publishes_account_delta_rebuilds() {
        let mut e = engine_with_ring(40);
        e.serve_handle();
        let first = e.stats().snapshots;
        assert_eq!(first.rebuilds, 1, "serving starts with one full freeze");
        let batches = 5;
        for i in 0..batches {
            e.process_stream(
                &UpdateBatch {
                    time: 10 + i as u64,
                    updates: vec![Update::EdgeInsert {
                        src: i,
                        dst: 20 + i,
                        weight: 1.0,
                    }],
                },
                |_| None,
                None,
            );
        }
        let s = e.stats().snapshots;
        assert_eq!(s.rebuilds - first.rebuilds, batches as usize);
        assert!(s.rows_reused > 0, "delta rebuilds reuse clean rows");
        assert!(s.mem_bytes > first.mem_bytes);
    }
}
