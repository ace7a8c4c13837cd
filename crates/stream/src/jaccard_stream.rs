//! Streaming Jaccard coefficients — both forms from §II of the paper.
//!
//! **Form 1 (update-driven):** "On addition of an edge, a Jaccard kernel
//! may ask what the graph modification does to the maximum Jaccard
//! coefficient the two vertices may have with any other" —
//! [`JaccardMonitor`] recomputes the endpoints' best coefficients after
//! each structural update and emits a [`EventKind::PairThreshold`] event
//! when a pair crosses the configured threshold.
//!
//! **Form 2 (query-driven):** "a sequence of vertices, where for each
//! provided vertex the kernel should return what other vertices have a
//! non-zero Jaccard coefficient (perhaps greater than some threshold)" —
//! [`JaccardQueryEngine`] answers such queries against the live graph;
//! its per-query latency is experiment E7 (the paper projects "10s of
//! microseconds" on Emu-class hardware).
//!
//! **The scan both forms share** ([`for_vertex_dynamic`]) is exact and
//! prefix-filtered (Bayardo et al., WWW'07). On a symmetric graph
//! `|N(u) ∩ N(x)| ≤ deg(x)`, so the union is at least `deg(u)` and
//! `J(u, x) ≥ τ` forces at least `o = max(1, ⌈τ·deg(u)⌉)` common
//! neighbours. By pigeonhole any `deg(u) − o + 1` neighbours of `u`
//! include one of them, so the scan walks only that many — the ones
//! with the shortest rows, which keeps R-MAT hubs out of the walk — and
//! verifies each candidate exactly against a stamp-marked `N(u)`. A
//! query costs O(Σ_{w∈prefix} deg(w) + Σ_{candidates} deg(x)) instead of
//! the full 2-hop walk's O(Σ_{w∈N(u)} deg(w)), with no per-call
//! allocation beyond the answer when the caller keeps its scratch (the
//! monitor and the query engine do).
//!
//! Candidate completeness needs the symmetric graph the stream engine
//! builds by default (`symmetrize = true`). On a directed graph every
//! reported coefficient is still exact (it equals [`pair_dynamic`]),
//! but pairs reachable only against edge direction can be missed.

use crate::engine::Monitor;
use crate::events::{Event, EventKind};
use crate::marks::VertexMarks;
use crate::update::Update;
use ga_graph::dynamic::ApplyResult;
use ga_graph::{DynamicGraph, Timestamp, VertexId};
use std::collections::{HashMap, HashSet};

/// Jaccard coefficient of two vertices on the live graph.
pub fn pair_dynamic(g: &DynamicGraph, u: VertexId, v: VertexId) -> f64 {
    let nu: HashSet<VertexId> = g.neighbor_ids(u).collect();
    let nv: HashSet<VertexId> = g.neighbor_ids(v).collect();
    if nu.is_empty() && nv.is_empty() {
        return 0.0;
    }
    let inter = nu.intersection(&nv).count();
    let union = nu.len() + nv.len() - inter;
    inter as f64 / union as f64
}

/// All vertices with Jaccard >= tau against `u` on the live graph,
/// sorted by descending coefficient (ties by id), via the module's
/// prefix-filtered scan. Complete on symmetric graphs (the engine
/// default); see the module docs. Allocates O(|V|) scratch per call —
/// [`JaccardQueryEngine`] keeps its scratch across queries.
pub fn for_vertex_dynamic(g: &DynamicGraph, u: VertexId, tau: f64) -> Vec<(VertexId, f64)> {
    Scratch::default().for_vertex(g, u, tau)
}

/// Least shared-neighbour count `c ≥ 1` whose best possible coefficient
/// `c / deg_u` reaches `tau`, `None` when no `c ≤ deg_u` does (always
/// so for `deg_u = 0`).
/// Decided by the same `f64` division the verified coefficient uses, so
/// rounding can never shrink the scanned prefix: float division is
/// monotone, and a real union is at least `deg_u`.
fn min_overlap(deg_u: usize, tau: f64) -> Option<usize> {
    let reaches = |c: usize| c as f64 / deg_u as f64 >= tau;
    let mut c = ((tau * deg_u as f64).ceil() as usize).clamp(1, deg_u + 1);
    while c > 1 && reaches(c - 1) {
        c -= 1;
    }
    while c <= deg_u && !reaches(c) {
        c += 1;
    }
    (c <= deg_u).then_some(c)
}

/// Reusable scratch of the prefix-filtered scan: two dense vertex sets
/// (one `u32` per vertex each, emptied in O(1)) plus the scan's working
/// lists, so a scan allocates nothing but its answer.
#[derive(Default)]
struct Scratch {
    /// Live neighbours of the scanned vertex.
    in_nu: VertexMarks,
    /// Vertices already met as candidates.
    seen: VertexMarks,
    /// Live neighbours of the scanned vertex with their slot-row lengths.
    order: Vec<(usize, VertexId)>,
    candidates: Vec<VertexId>,
}

impl Scratch {
    /// The prefix-filtered scan behind [`for_vertex_dynamic`].
    fn for_vertex(&mut self, g: &DynamicGraph, u: VertexId, tau: f64) -> Vec<(VertexId, f64)> {
        self.in_nu.clear(g.num_vertices());
        self.seen.clear(g.num_vertices());
        self.order.clear();
        for r in g.row_slots(u).iter().filter(|r| !r.deleted) {
            self.in_nu.insert(r.dst);
            self.order.push((g.row_slots(r.dst).len(), r.dst));
        }
        let deg_u = self.order.len();
        let Some(overlap) = min_overlap(deg_u, tau) else {
            return Vec::new();
        };
        // Row length bounds degree from above, so ordering by it is
        // only a heuristic; any `prefix` neighbours keep the scan exact.
        let prefix = deg_u - overlap + 1;
        if prefix < deg_u {
            self.order.select_nth_unstable(prefix - 1);
        }
        self.seen.insert(u);
        self.candidates.clear();
        for &(_, w) in &self.order[..prefix] {
            for r in g.row_slots(w).iter().filter(|r| !r.deleted) {
                if self.seen.insert(r.dst) && g.row_slots(r.dst).len() >= overlap {
                    self.candidates.push(r.dst);
                }
            }
        }
        let mut out = Vec::new();
        for &x in &self.candidates {
            let (mut deg_x, mut inter) = (0usize, 0usize);
            for r in g.row_slots(x).iter().filter(|r| !r.deleted) {
                deg_x += 1;
                inter += usize::from(self.in_nu.contains(r.dst));
            }
            let union = deg_u + deg_x - inter;
            let j = inter as f64 / union as f64;
            if j >= tau && j > 0.0 {
                out.push((x, j));
            }
        }
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// The endpoints of an update that changed the edge set, if it did.
fn changed_edge(update: &Update, result: ApplyResult) -> Option<(VertexId, VertexId)> {
    match *update {
        Update::EdgeInsert { src, dst, .. } if result == ApplyResult::Inserted => Some((src, dst)),
        Update::EdgeDelete { src, dst } if result == ApplyResult::Deleted => Some((src, dst)),
        _ => None,
    }
}

/// Form 1: update-driven threshold monitoring. Like
/// [`for_vertex_dynamic`], it finds every crossing pair on a symmetric
/// graph (the engine default).
pub struct JaccardMonitor {
    /// Pairs report when their coefficient reaches this value.
    pub tau: f64,
    /// Endpoints with degree above this are not rescanned (hubs cannot
    /// reach a high coefficient — their union term is huge — and their
    /// 2-hop scans are quadratic; every production streaming-Jaccard
    /// system applies such a cap).
    pub degree_cap: usize,
    /// Best coefficient seen per vertex (the "maximum Jaccard the vertex
    /// has with any other" the paper describes tracking).
    best: HashMap<VertexId, f64>,
    /// Pairs already reported (suppress duplicate events).
    reported: HashSet<(VertexId, VertexId)>,
    scratch: Scratch,
}

impl JaccardMonitor {
    /// Monitor with threshold `tau`.
    pub fn new(tau: f64) -> Self {
        JaccardMonitor {
            tau,
            degree_cap: 128,
            best: HashMap::new(),
            reported: HashSet::new(),
            scratch: Scratch::default(),
        }
    }

    /// Best coefficient currently tracked for `v` (0 if never computed).
    pub fn best_of(&self, v: VertexId) -> f64 {
        self.best.get(&v).copied().unwrap_or(0.0)
    }

    fn scan_endpoint(
        &mut self,
        g: &DynamicGraph,
        v: VertexId,
        time: Timestamp,
        out: &mut Vec<Event>,
    ) {
        if g.degree(v) > self.degree_cap {
            return;
        }
        let matches = self.scratch.for_vertex(g, v, self.tau);
        self.record(v, matches, time, out);
    }

    /// Fold one endpoint's match list into `best` and report new pairs.
    fn record(
        &mut self,
        v: VertexId,
        matches: Vec<(VertexId, f64)>,
        time: Timestamp,
        out: &mut Vec<Event>,
    ) {
        if let Some(&(_, best)) = matches.first() {
            let e = self.best.entry(v).or_insert(0.0);
            if best > *e {
                *e = best;
            }
        }
        for (other, j) in matches {
            let key = (v.min(other), v.max(other));
            if self.reported.insert(key) {
                out.push(Event {
                    time,
                    source: "jaccard_stream",
                    kind: EventKind::PairThreshold {
                        metric: "jaccard",
                        a: key.0,
                        b: key.1,
                        value: j,
                    },
                });
            }
        }
    }
}

impl Monitor for JaccardMonitor {
    fn name(&self) -> &'static str {
        "jaccard_stream"
    }

    fn on_update(
        &mut self,
        g: &DynamicGraph,
        update: &Update,
        result: ApplyResult,
        time: Timestamp,
        out: &mut Vec<Event>,
    ) {
        // The modification can only change coefficients involving the
        // endpoints' neighborhoods; rescanning both endpoints covers the
        // "max J of the two vertices" question.
        if let Some((u, v)) = changed_edge(update, result) {
            self.scan_endpoint(g, u, time, out);
            self.scan_endpoint(g, v, time, out);
        }
    }
}

/// Form 2: the independent-query stream engine.
pub struct JaccardQueryEngine {
    /// Threshold applied to query answers.
    pub tau: f64,
    /// Queries served (instrumentation).
    pub queries: usize,
    scratch: Scratch,
}

impl JaccardQueryEngine {
    /// Engine answering queries at threshold `tau`.
    pub fn new(tau: f64) -> Self {
        JaccardQueryEngine {
            tau,
            queries: 0,
            scratch: Scratch::default(),
        }
    }

    /// Answer one query: all vertices with J(u, ·) >= tau right now.
    pub fn query(&mut self, g: &DynamicGraph, u: VertexId) -> Vec<(VertexId, f64)> {
        self.queries += 1;
        self.scratch.for_vertex(g, u, self.tau)
    }

    /// Serve a query stream, returning per-query answer sizes (the
    /// latency benchmark wraps this).
    pub fn serve(&mut self, g: &DynamicGraph, queries: &[VertexId]) -> Vec<usize> {
        queries.iter().map(|&q| self.query(g, q).len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamEngine;
    use crate::update::{into_batches, rmat_edge_stream, uniform_edge_stream, UpdateBatch};
    use ga_kernels::jaccard;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn insert(src: VertexId, dst: VertexId) -> Update {
        Update::EdgeInsert {
            src,
            dst,
            weight: 1.0,
        }
    }

    /// Reference scan, the oracle of the equality suite: the full 2-hop
    /// walk through every neighbour's row, shared counts in a `HashMap`,
    /// `g.degree` per candidate.
    fn oracle_for_vertex(g: &DynamicGraph, u: VertexId, tau: f64) -> Vec<(VertexId, f64)> {
        let nu: Vec<VertexId> = g.neighbor_ids(u).collect();
        let deg_u = nu.len();
        let mut shared: HashMap<VertexId, usize> = HashMap::new();
        for &w in &nu {
            for x in g.neighbor_ids(w) {
                if x != u {
                    *shared.entry(x).or_default() += 1;
                }
            }
        }
        let mut out: Vec<(VertexId, f64)> = shared
            .into_iter()
            .filter_map(|(v, inter)| {
                let union = deg_u + g.degree(v) - inter;
                let j = inter as f64 / union as f64;
                (j >= tau && j > 0.0).then_some((v, j))
            })
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        out
    }

    /// [`JaccardMonitor`]'s bookkeeping driven by the oracle scan.
    struct OracleMonitor(JaccardMonitor);
    impl Monitor for OracleMonitor {
        fn name(&self) -> &'static str {
            "jaccard_oracle"
        }
        fn on_update(
            &mut self,
            g: &DynamicGraph,
            update: &Update,
            result: ApplyResult,
            time: Timestamp,
            out: &mut Vec<Event>,
        ) {
            let Some((u, v)) = changed_edge(update, result) else {
                return;
            };
            for x in [u, v] {
                if g.degree(x) <= self.0.degree_cap {
                    let matches = oracle_for_vertex(g, x, self.0.tau);
                    self.0.record(x, matches, time, out);
                }
            }
        }
    }

    /// Wrapper exposing a registered monitor to the test.
    struct Shared<M>(Rc<RefCell<M>>);
    impl<M: Monitor> Monitor for Shared<M> {
        fn name(&self) -> &'static str {
            "shared"
        }
        fn on_update(
            &mut self,
            g: &DynamicGraph,
            u: &Update,
            r: ApplyResult,
            t: Timestamp,
            out: &mut Vec<Event>,
        ) {
            self.0.borrow_mut().on_update(g, u, r, t, out);
        }
    }

    /// Run `updates` through the monitor (starting from `scratch`) and
    /// the oracle monitor on twin engines; assert equal event streams,
    /// equal `best_of` for every vertex, and equal scans of every vertex
    /// of the final graph. Returns the event count.
    fn assert_matches_oracle(updates: Vec<Update>, tau: f64, scratch: Scratch) -> usize {
        let fast = Rc::new(RefCell::new(JaccardMonitor::new(tau)));
        fast.borrow_mut().scratch = scratch;
        let oracle = Rc::new(RefCell::new(OracleMonitor(JaccardMonitor::new(tau))));
        let (mut ef, mut eo) = (StreamEngine::new(1), StreamEngine::new(1));
        ef.register(Box::new(Shared(fast.clone())));
        eo.register(Box::new(Shared(oracle.clone())));
        for b in into_batches(updates, 50, 0) {
            ef.apply_batch(&b);
            eo.apply_batch(&b);
        }
        assert_eq!(ef.events(), eo.events(), "tau={tau}");
        let g = ef.graph();
        let mut q = JaccardQueryEngine::new(tau);
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(
                fast.borrow().best_of(v).to_bits(),
                oracle.borrow().0.best_of(v).to_bits(),
                "tau={tau} v={v}"
            );
            assert_eq!(
                q.query(g, v),
                oracle_for_vertex(g, v, tau),
                "tau={tau} v={v}"
            );
        }
        ef.events().len()
    }

    const TAUS: [f64; 5] = [0.0, 0.2, 0.5, 0.95, 1.0];

    #[test]
    fn monitor_matches_oracle_on_rmat() {
        for (i, tau) in TAUS.into_iter().enumerate() {
            let events = assert_matches_oracle(
                rmat_edge_stream(8, 1_500, 0.1, 40 + i as u64),
                tau,
                Scratch::default(),
            );
            assert!(events > 0, "tau={tau}");
        }
    }

    #[test]
    fn monitor_matches_oracle_on_uniform() {
        for (i, tau) in TAUS.into_iter().enumerate() {
            assert_matches_oracle(
                uniform_edge_stream(7, 1_200, 0.1, 50 + i as u64),
                tau,
                Scratch::default(),
            );
        }
    }

    #[test]
    fn monitor_matches_oracle_on_tombstone_heavy_stream() {
        for (i, tau) in TAUS.into_iter().enumerate() {
            assert_matches_oracle(
                rmat_edge_stream(8, 1_500, 0.3, 60 + i as u64),
                tau,
                Scratch::default(),
            );
        }
    }

    /// A hub climbs past the 128 degree cap, drops back below it through
    /// deletes, and keeps changing while its leaves pair up, so the cap
    /// both suppresses and resumes scans mid-stream.
    #[test]
    fn monitor_matches_oracle_across_degree_cap() {
        let mut ups = Vec::new();
        for x in 1..=140u32 {
            ups.push(insert(0, x));
            if x % 3 == 0 {
                ups.push(insert(x, x - 1));
                ups.push(insert(x, 141 + x % 7));
            }
        }
        for x in (1..=140u32).step_by(7) {
            ups.push(Update::EdgeDelete { src: 0, dst: x });
            ups.push(insert(x, 141 + x % 5));
        }
        for x in (2..=140u32).step_by(11) {
            ups.push(Update::EdgeDelete { src: x, dst: 0 });
            ups.push(insert(0, 141 + x % 9));
        }
        let mut e = StreamEngine::new(1);
        let mut peak = 0;
        for u in &ups {
            e.apply_batch(&UpdateBatch {
                time: 0,
                updates: vec![u.clone()],
            });
            peak = peak.max(e.graph().degree(0));
        }
        assert!(peak > 128 && e.graph().degree(0) <= 128, "peak {peak}");
        for tau in TAUS {
            assert_matches_oracle(ups.clone(), tau, Scratch::default());
        }
    }

    /// Scratch whose marks wrap after `stamps_left` scans, holding
    /// stale marks that only the wrap's reset removes.
    fn pre_wrap_scratch(n: usize, stamps_left: u32) -> Scratch {
        Scratch {
            in_nu: VertexMarks::pre_wrap(n, stamps_left),
            seen: VertexMarks::pre_wrap(n, stamps_left),
            ..Scratch::default()
        }
    }

    #[test]
    fn monitor_matches_oracle_across_stamp_wraparound() {
        for tau in [0.0, 0.5] {
            let scratch = pre_wrap_scratch(1 << 7, 100);
            assert_matches_oracle(rmat_edge_stream(7, 600, 0.2, 70), tau, scratch);
        }
    }

    #[test]
    fn min_overlap_is_the_least_reaching_count() {
        for deg in 0..=64usize {
            for tau in [-1.0, 0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.95, 1.0, 1.5, f64::NAN] {
                let least = (1..=deg).find(|&c| c as f64 / deg as f64 >= tau);
                assert_eq!(min_overlap(deg, tau), least, "deg={deg} tau={tau}");
            }
        }
    }

    /// On a directed graph a 2-hop count can exceed deg(x); counting the
    /// overlap from x's own row keeps every value equal to
    /// `pair_dynamic`, never `inf`.
    #[test]
    fn directed_graph_reports_no_infinite_coefficient() {
        let mut e = StreamEngine::new(3);
        e.symmetrize = false;
        e.register(Box::new(JaccardMonitor::new(0.95)));
        e.apply_batch(&UpdateBatch {
            time: 0,
            updates: vec![insert(2, 1), insert(0, 2)],
        });
        assert_eq!(pair_dynamic(e.graph(), 0, 1), 0.0);
        assert!(for_vertex_dynamic(e.graph(), 0, 0.95).is_empty());
        for ev in e.events() {
            if let EventKind::PairThreshold { a, b, value, .. } = ev.kind {
                assert_eq!(value, pair_dynamic(e.graph(), a, b), "({a},{b})");
                assert!(value <= 1.0, "({a},{b}) value {value}");
            }
        }
    }

    #[test]
    fn dynamic_pair_matches_batch() {
        let mut e = StreamEngine::new(1 << 6);
        for b in into_batches(rmat_edge_stream(6, 500, 0.1, 2), 100, 0) {
            e.apply_batch(&b);
        }
        let snap = e.graph().snapshot();
        for u in 0..20u32 {
            for v in 20..40u32 {
                let a = pair_dynamic(e.graph(), u, v);
                let b = jaccard::pair(&snap, u, v);
                assert!((a - b).abs() < 1e-12, "({u},{v}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn dynamic_for_vertex_matches_batch() {
        let mut e = StreamEngine::new(1 << 6);
        for b in into_batches(rmat_edge_stream(6, 400, 0.0, 5), 100, 0) {
            e.apply_batch(&b);
        }
        let snap = e.graph().snapshot();
        for u in [0u32, 3, 17, 40] {
            let a = for_vertex_dynamic(e.graph(), u, 0.2);
            let b = jaccard::for_vertex(&snap, u, 0.2);
            assert_eq!(a.len(), b.len(), "u={u}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.0, y.0);
                assert!((x.1 - y.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn monitor_fires_on_threshold_crossing() {
        let mut e = StreamEngine::new(5);
        e.register(Box::new(JaccardMonitor::new(0.99)));
        // Make 0 and 1 share both neighbors 2, 3 and nothing else:
        // J(0,1) = 1.0 crosses 0.99.
        e.apply_batch(&UpdateBatch {
            time: 0,
            updates: vec![insert(0, 2), insert(0, 3), insert(1, 2), insert(1, 3)],
        });
        let hits: Vec<_> = e
            .events()
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::PairThreshold { a, b, value, .. } => Some((a, b, value)),
                _ => None,
            })
            .collect();
        assert!(hits.contains(&(0, 1, 1.0)), "events: {hits:?}");
        // No duplicate report for the same pair.
        assert_eq!(
            hits.iter().filter(|&&(a, b, _)| (a, b) == (0, 1)).count(),
            1
        );
    }

    #[test]
    fn monitor_quiet_below_threshold() {
        let mut e = StreamEngine::new(6);
        e.register(Box::new(JaccardMonitor::new(0.95)));
        // 0 and 1 end up sharing one of several neighbors: J(0,1) = 1/3
        // never crosses 0.95. (Other pairs — e.g. (2,3) while both have
        // only vertex 0 as a neighbor — legitimately cross during the
        // stream; the monitor is *supposed* to report those transients.)
        e.apply_batch(&UpdateBatch {
            time: 0,
            updates: vec![insert(0, 2), insert(0, 3), insert(1, 2), insert(1, 4)],
        });
        assert!(e
            .events()
            .iter()
            .all(|ev| !matches!(ev.kind, EventKind::PairThreshold { a: 0, b: 1, .. })));
    }

    #[test]
    fn query_engine_counts_and_answers() {
        let mut e = StreamEngine::new(1 << 6);
        for b in into_batches(rmat_edge_stream(6, 500, 0.0, 8), 100, 0) {
            e.apply_batch(&b);
        }
        let mut q = JaccardQueryEngine::new(0.1);
        let answers = q.serve(e.graph(), &[0, 1, 2, 3, 4]);
        assert_eq!(q.queries, 5);
        assert_eq!(answers.len(), 5);
        // Answers agree with the direct function.
        let direct = for_vertex_dynamic(e.graph(), 0, 0.1);
        assert_eq!(answers[0], direct.len());
    }
}
