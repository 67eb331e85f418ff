//! Inputs, set-up timing, the closed-loop runner and the direct layer
//! probes shared by the workloads.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tdfs_core::engine::edge_admitted;
use tdfs_core::{
    host_filter_edges, match_plan, match_plan_on_edges, MatcherConfig, RunStats, StackConfig,
};
use tdfs_graph::container::{write_container, ContainerOptions};
use tdfs_graph::{CsrGraph, DatasetId, GraphBuilder, GraphView, MapOptions, MmapGraph};
use tdfs_mem::PageArena;
use tdfs_query::{Pattern, QueryPlan};
use tdfs_service::{QueryOutcome, QueryRequest, Service, ServiceMetrics};

use crate::stats::{median, ratio};
use crate::trace::{SpanId, Trace};
use crate::Report;

/// Set-ups per run; `setup_s` is their median, so one slow disk sync or
/// page-fault burst does not decide it.
const SETUP_REPS: usize = 101;

/// Pause before each set-up (untimed), so every set-up starts from the
/// same quiet host rather than from the tail of the previous one.
const SETUP_GAP: Duration = Duration::from_millis(10);

/// Segments a measured run is split into. Each segment is one window of
/// the result, and the spare set-ups run between segments, so both
/// sample the host across the whole run: contention lasting less than
/// half of it moves neither the medians over windows nor `setup_s`.
const SEGMENTS: usize = 5;

/// Probe requests replayed directly against the layers in a traced run.
pub const PROBE_REQUESTS: usize = 256;

/// The `youtube_s` stand-in as an edge list: heavy degree skew, a
/// planted straggler twin-hub pair and an isolated broadcast star. The
/// graph is the same for every seed; seeds drive the request streams.
pub fn youtube_edges() -> (usize, Vec<(u32, u32)>) {
    let g = DatasetId::YoutubeS.generate(1.0);
    let edges = g.arcs().filter(|&(u, v)| u < v).collect();
    (g.num_vertices(), edges)
}

/// The system's CSR build from an edge list (the first set-up step).
pub fn build_csr(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
    GraphBuilder::with_edge_capacity(edges.len())
        .num_vertices(n)
        .edges(edges.iter().copied())
        .build()
}

/// Times the workload's set-up. `setup(rep)` builds one instance in
/// fresh state and returns it with the seconds of its own timed steps.
/// Rep 0 is the instance the workload measures; the other reps are
/// spares, dropped (untimed) as soon as they are built.
pub struct Setups<F> {
    setup: F,
    secs: Vec<f64>,
}

impl<T, F: FnMut(usize) -> Result<(T, f64), String>> Setups<F> {
    pub fn new(setup: F) -> Self {
        Self {
            setup,
            secs: Vec::with_capacity(SETUP_REPS),
        }
    }

    /// Runs one set-up after the untimed pause and records its time.
    fn once(&mut self) -> Result<T, String> {
        std::thread::sleep(SETUP_GAP);
        let (instance, s) = (self.setup)(self.secs.len())?;
        self.secs.push(s);
        Ok(instance)
    }

    /// The instance the workload measures (rep 0).
    pub fn first(&mut self) -> Result<T, String> {
        assert!(self.secs.is_empty(), "first set-up already made");
        self.once()
    }

    /// Runs up to `n` spare set-ups, never more than [`SETUP_REPS`] in all.
    fn spares(&mut self, n: usize) -> Result<(), String> {
        for _ in 0..n.min(SETUP_REPS - self.secs.len()) {
            drop(self.once()?);
        }
        Ok(())
    }

    /// The spares due after one of the [`SEGMENTS`] measured segments.
    pub fn burst(&mut self) -> Result<(), String> {
        self.spares((SETUP_REPS - 1).div_ceil(SEGMENTS))
    }

    /// Runs every remaining spare (a traced run makes them all before
    /// its windows) and releases the set-up's borrows.
    pub fn finish(mut self) -> Result<(), String> {
        self.spares(SETUP_REPS)
    }

    /// Median seconds over every set-up so far.
    pub fn median_s(&self) -> f64 {
        median(&self.secs)
    }
}

/// The state directory of set-up `rep`: the measured instance (rep 0)
/// keeps its own, the spares reuse one emptied (untimed) before each.
pub fn setup_dir(state: &Path, rep: usize) -> Result<PathBuf, String> {
    fresh_dir(&state.join(if rep == 0 { "live" } else { "spare" }))
}

/// A fresh, empty directory under the run's output directory.
pub fn scratch_dir(out: &Path, name: &str) -> Result<PathBuf, String> {
    fresh_dir(&out.join(format!("state-{}-{name}", std::process::id())))
}

/// Empties `dir` (creating it if needed) and returns it.
pub fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// Operation accounting of one or more clients.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Latency of every operation, failed ones included.
    pub latencies_ms: Vec<f64>,
    /// Completion instant of every operation, in record order.
    done: Vec<Instant>,
}

/// One window of a run: operations per second and their latencies.
pub struct Window {
    pub ops_per_s: f64,
    pub latencies_ms: Vec<f64>,
}

/// The start and end of one segment of a measured run.
pub type Segment = (Instant, Instant);

impl Tally {
    /// Records one operation started at `t0`. `ok` is false for any
    /// failure, `wrong` marks a result that disagreed with its
    /// expectation (also a failure).
    pub fn record(&mut self, t0: Instant, ok: bool, wrong: bool) {
        let now = Instant::now();
        self.latencies_ms.push((now - t0).as_secs_f64() * 1e3);
        self.done.push(now);
        self.attempted += 1;
        if !ok || wrong {
            self.failed += 1;
        }
        if wrong {
            self.wrong += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.latencies_ms.extend(other.latencies_ms);
        self.done.extend(other.done);
    }

    /// One window per segment: the operations that completed within
    /// it, over its length.
    pub fn windows(&self, segments: &[Segment]) -> Vec<Window> {
        segments
            .iter()
            .map(|&(start, end)| {
                let latencies_ms: Vec<f64> = self
                    .done
                    .iter()
                    .zip(&self.latencies_ms)
                    .filter(|(&d, _)| start <= d && d <= end)
                    .map(|(_, &l)| l)
                    .collect();
                Window {
                    ops_per_s: latencies_ms.len() as f64 / (end - start).as_secs_f64(),
                    latencies_ms,
                }
            })
            .collect()
    }
}

/// Checks a service outcome against its expected count, when one is
/// known: `(ok, wrong)`.
pub fn judge(outcome: &QueryOutcome, expected: Option<u64>) -> (bool, bool) {
    match &outcome.result {
        Ok(r) if outcome.partial.is_none() && !r.stats.cancelled => {
            let wrong = expected.is_some_and(|e| e != r.matches);
            (!wrong, wrong)
        }
        Ok(_) | Err(_) => (false, false),
    }
}

/// Closed loop: every client runs `step` on its own state, one
/// operation after another, until `seconds` have passed and at least
/// `min_ops` operations completed over all clients. Returns the states
/// and the window length in seconds.
pub fn closed_loop<S: Send>(
    states: Vec<S>,
    seconds: f64,
    min_ops: usize,
    step: impl Fn(&mut S) + Sync,
) -> (Vec<S>, f64) {
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut s| {
                let (done, step) = (&done, &step);
                scope.spawn(move || {
                    while start.elapsed().as_secs_f64() < seconds
                        || done.load(Ordering::Relaxed) < min_ops
                    {
                        step(&mut s);
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    s
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (states, start.elapsed().as_secs_f64())
}

/// A measured run of `seconds`: [`SEGMENTS`] closed-loop segments of
/// equal length, each holding at least `min_ops` operations, with
/// `between` run (untimed, outside every segment) after each. Returns
/// the states and the segments.
pub fn measure<S: Send>(
    mut states: Vec<S>,
    seconds: f64,
    min_ops: usize,
    step: impl Fn(&mut S) + Sync,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<(Vec<S>, Vec<Segment>), String> {
    let mut segments = Vec::with_capacity(SEGMENTS);
    for _ in 0..SEGMENTS {
        let start = Instant::now();
        let (next, _) = closed_loop(states, seconds / SEGMENTS as f64, min_ops, &step);
        states = next;
        segments.push((start, Instant::now()));
        between()?;
    }
    Ok((states, segments))
}

/// One request replayed directly against the layers.
pub struct ProbeRequest {
    pub pattern: Pattern,
    /// Anchor edges, or `None` for a whole-graph count.
    pub seeds: Option<Vec<(u32, u32)>>,
}

fn run_engine<V: GraphView>(
    g: &V,
    plan: &QueryPlan,
    cfg: &MatcherConfig,
    seeds: &Option<Vec<(u32, u32)>>,
) -> Result<tdfs_core::RunResult, String> {
    match seeds {
        Some(s) => match_plan_on_edges(g, plan, cfg, s.clone(), None),
        None => match_plan(g, plan, cfg),
    }
    .map_err(|e| format!("direct engine run: {e}"))
}

/// Times each layer's public entry points directly on the workload's
/// own inputs and pushes the per-layer metrics every workload reports.
///
/// `view` is the graph the workload serves; `base` is written to a
/// TDFSGRPH container and mapped to time the storage layer.
pub fn probe_layers<V: GraphView>(
    report: &mut Report,
    trace: &mut Trace,
    out: &Path,
    view: &V,
    base: &CsrGraph,
    requests: &[ProbeRequest],
    cfg: &MatcherConfig,
) -> Result<(), String> {
    let root = trace.begin("probe", None, 0);
    let requests = &requests[..requests.len().min(PROBE_REQUESTS)];

    // Storage: container install and mapped open, then the requests on
    // the mapped copy for the decode-cache misses.
    let path = out.join(format!("probe-{}.tdfsgrph", std::process::id()));
    let mut mapped = None;
    for rep in 0..SETUP_REPS {
        drop(mapped.take());
        trace.time("graph.container_install", Some(root), rep as u64, || {
            let mut f = std::fs::File::create(&path).map_err(|e| e.to_string())?;
            write_container(base, &mut f, &ContainerOptions::default())
                .map_err(|e| e.to_string())?;
            f.sync_all().map_err(|e| e.to_string())
        })?;
        mapped = Some(
            trace
                .time("graph.mapped_open", Some(root), rep as u64, || {
                    MmapGraph::open_with(&path, &MapOptions::default())
                })
                .map_err(|e| format!("map probe container: {e}"))?,
        );
    }
    let mapped = mapped.expect("SETUP_REPS >= 1");
    for (i, r) in requests.iter().enumerate() {
        let plan = QueryPlan::build_with(&r.pattern, cfg.plan);
        trace.time("graph.mapped_query", Some(root), i as u64, || {
            run_engine(&mapped, &plan, cfg, &r.seeds)
        })?;
    }
    let cache = mapped.cache_stats();
    drop(mapped);
    let _ = std::fs::remove_file(&path);

    // Query, engine and device layers on the served view.
    let dispatch0 = tdfs_gpu::simd::dispatch_counts();
    let mut sum = RunStats::default();
    let (mut matches, mut makespan, mut balanced) = (0u64, 0.0f64, 0.0f64);
    for (i, r) in requests.iter().enumerate() {
        let req = i as u64;
        let span = trace.begin("request", Some(root), req);
        let plan = trace.time("query.plan_build", Some(span), req, || {
            QueryPlan::build_with(&r.pattern, cfg.plan)
        });
        // The admitted-edge filter the service runs before the engine:
        // over the seeds of an anchored query, over every arc otherwise.
        let admitted = trace.time("core.host_filter", Some(span), req, || match &r.seeds {
            Some(s) => s
                .iter()
                .filter(|&&(u, v)| edge_admitted(view, &plan, u, v))
                .count(),
            None => host_filter_edges(view, &plan).len(),
        });
        std::hint::black_box(admitted);
        let res = trace.time("core.engine", Some(span), req, || {
            run_engine(view, &plan, cfg, &r.seeds)
        })?;
        trace.end(span);
        matches += res.matches;
        makespan += res.stats.warp_makespan as f64;
        balanced += res.stats.warp_work_total as f64 / cfg.num_warps as f64;
        sum.merge(&res.stats);
    }
    let dispatch1 = tdfs_gpu::simd::dispatch_counts();

    // Memory: the paged arena every engine run allocates.
    let pages = match cfg.stack {
        StackConfig::Paged { arena_pages, .. } => arena_pages,
        StackConfig::Array { .. } => return Err("probe expects paged stacks".into()),
    };
    for rep in 0..16 {
        let arena = trace.time("mem.arena_new", Some(root), rep, || PageArena::new(pages));
        drop(std::hint::black_box(arena));
    }
    trace.end(root);

    let n = requests.len().max(1) as f64;
    let w = &sum.warp;
    let kernels = (w.merge_kernels + w.bsearch_kernels + w.gallop_kernels) as f64;
    let simd = dispatch1.simd - dispatch0.simd;
    let scalar = dispatch1.scalar - dispatch0.scalar;
    let ms = |name: &str| trace.median_us(name).map_or(0.0, |us| us / 1e3);
    report.push(
        "graph.container_install_ms",
        ms("graph.container_install"),
        "ms",
    );
    report.push("graph.mapped_open_ms", ms("graph.mapped_open"), "ms");
    // Decode-cache misses; `CacheStats::hits` counts only hits taken on
    // the locked slow path, so a hit ratio from it would be meaningless.
    report.push("graph.decodes_per_query", cache.decodes as f64 / n, "count");
    let us = |name: &str| trace.median_us(name).unwrap_or(0.0);
    report.push("query.plan_build_us", us("query.plan_build"), "us");
    report.push("mem.arena_new_us", us("mem.arena_new"), "us");
    report.push(
        "mem.stack_peak_kib",
        sum.stack_bytes_peak as f64 / 1024.0,
        "KiB",
    );
    report.push("mem.pages_spilled", sum.pages_spilled as f64, "count");
    report.push(
        "gpu.intersections_per_query",
        w.intersections as f64 / n,
        "count",
    );
    report.push(
        "gpu.probe_per_emit",
        ratio(w.elements_probed as f64, w.elements_emitted as f64),
        "ratio",
    );
    report.push(
        "gpu.bytes_per_match",
        ratio(w.bytes_touched as f64, matches as f64),
        "B",
    );
    report.push(
        "gpu.kernel_share.merge",
        ratio(w.merge_kernels as f64, kernels),
        "ratio",
    );
    report.push(
        "gpu.kernel_share.bsearch",
        ratio(w.bsearch_kernels as f64, kernels),
        "ratio",
    );
    report.push(
        "gpu.kernel_share.gallop",
        ratio(w.gallop_kernels as f64, kernels),
        "ratio",
    );
    report.push(
        "gpu.simd_share",
        ratio(simd as f64, (simd + scalar) as f64),
        "ratio",
    );
    report.push("core.engine_us", us("core.engine"), "us");
    report.push("core.host_filter_us", us("core.host_filter"), "us");
    report.push(
        "core.timeouts_per_query",
        sum.timeouts_fired as f64 / n,
        "count",
    );
    report.push("core.makespan_ratio", ratio(makespan, balanced), "ratio");
    Ok(())
}

/// Records one set-up step as a span when tracing and returns its
/// result and seconds.
pub fn setup_step<T>(
    trace: &mut Option<Trace>,
    name: &'static str,
    rep: usize,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t0 = Instant::now();
    let out = match trace {
        Some(t) => t.time(name, None::<SpanId>, rep as u64, f),
        None => f(),
    };
    (out, t0.elapsed().as_secs_f64())
}

/// Pushes the median of every set-up step span as `<step>_ms`.
pub fn push_setup_steps(report: &mut Report, trace: &Trace, steps: &[&'static str]) {
    for &name in steps {
        if let Some(us) = trace.median_us(name) {
            report.push(format!("{name}_ms"), us / 1e3, "ms");
        }
    }
}

/// Windows of a traced run. Untraced and traced windows alternate, so
/// drift over the run does not read as tracing cost.
const TRACE_WINDOWS: usize = 4;

/// Runs the traced run's windows: `window(traced, seconds)` runs one
/// window and returns the queries it completed and its length. Pushes
/// the throughput of each kind and the tracing overhead.
pub fn alternate(
    report: &mut Report,
    seconds: f64,
    mut window: impl FnMut(&mut Report, bool, f64) -> Result<(u64, f64), String>,
) -> Result<(), String> {
    let mut sums = [(0u64, 0.0f64); 2];
    for w in 0..TRACE_WINDOWS {
        let traced = w % 2 == 1;
        let (ops, secs) = window(report, traced, seconds / TRACE_WINDOWS as f64)?;
        sums[usize::from(traced)].0 += ops;
        sums[usize::from(traced)].1 += secs;
    }
    let qps = |(ops, secs): (u64, f64)| ops as f64 / secs;
    let (untraced, traced) = (qps(sums[0]), qps(sums[1]));
    report.push("trace.qps_untraced", untraced, "1/s");
    report.push("trace.qps_traced", traced, "1/s");
    report.push(
        "trace.overhead_pct",
        (ratio(untraced, traced) - 1.0) * 100.0,
        "%",
    );
    Ok(())
}

/// A closed-loop client: times each operation it makes, counts it
/// against its tally and, in a traced run, records its spans.
pub struct Client {
    pub tally: Tally,
    pub trace: Option<Trace>,
    /// Outcome latency minus engine time, per traced service query.
    pub overhead_us: Vec<f64>,
    /// Position in the workload's request stream.
    pub cursor: usize,
}

/// Request ids of traced spans, unique within the run.
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

impl Client {
    pub fn new(cursor: usize, trace_origin: Option<Instant>) -> Self {
        Self {
            tally: Tally::default(),
            trace: trace_origin.map(Trace::new),
            overhead_us: Vec::new(),
            cursor,
        }
    }

    /// One operation, call → return, recorded as a span named `name`
    /// when tracing. `op` runs it with this client, the operation's
    /// span and its request id, and returns `(ok, wrong)` as [`judge`]
    /// does.
    pub fn op(
        &mut self,
        name: &'static str,
        op: impl FnOnce(&mut Self, Option<SpanId>, u64) -> (bool, bool),
    ) {
        let id = NEXT_REQUEST.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let span = self.trace.as_mut().map(|t| t.begin(name, None, id));
        let (ok, wrong) = op(self, span, id);
        self.tally.record(t0, ok, wrong);
        if let (Some(t), Some(span)) = (self.trace.as_mut(), span) {
            t.end(span);
        }
    }

    /// Runs `f`, as a child span of `parent` when tracing.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        match self.trace.as_mut() {
            Some(t) => t.time(name, parent, id, f),
            None => f(),
        }
    }

    /// One service query, submit → outcome, checked against `expected`.
    pub fn query(&mut self, svc: &Service, req: QueryRequest, expected: Option<u64>) {
        self.op("request", |c, span, id| {
            let Ok(handle) = c.child("service.submit", span, id, || svc.submit(req)) else {
                return (false, false);
            };
            let outcome = c.child("service.wait", span, id, || handle.wait());
            if let (Some(_), Ok(r)) = (&c.trace, &outcome.result) {
                c.overhead_us
                    .push(outcome.latency.saturating_sub(r.elapsed).as_secs_f64() * 1e6);
            }
            judge(&outcome, expected)
        });
    }
}

/// Merges clients' tallies and, into `trace`, their spans.
pub fn merge_clients(clients: Vec<Client>, mut trace: Option<&mut Trace>) -> (Tally, Vec<f64>) {
    let mut tally = Tally::default();
    let mut overhead = Vec::new();
    for c in clients {
        tally.merge(c.tally);
        overhead.extend(c.overhead_us);
        if let (Some(all), Some(t)) = (trace.as_deref_mut(), c.trace) {
            all.absorb(t);
        }
    }
    (tally, overhead)
}

/// Service-side counters over a traced run.
pub fn push_service_counters(
    report: &mut Report,
    before: &ServiceMetrics,
    after: &ServiceMetrics,
    queries: u64,
    overhead_us: &[f64],
    trace: &Trace,
) {
    let hits = after.plan_cache.hits - before.plan_cache.hits;
    let misses = after.plan_cache.misses - before.plan_cache.misses;
    if !overhead_us.is_empty() {
        report.push("service.overhead_us", median(overhead_us), "us");
    }
    if let Some(us) = trace.median_us("service.submit") {
        report.push("service.submit_us", us, "us");
    }
    report.push(
        "service.plan_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    report.push(
        "service.leases_per_query",
        ratio(
            (after.leases_granted - before.leases_granted) as f64,
            queries as f64,
        ),
        "count",
    );
}
