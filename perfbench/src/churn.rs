//! `churn`: one generator thread interleaves, in a fixed ratio,
//! `Service::apply` of an edge batch with anchored reads on the same
//! graph, while standing K3 and P1 queries are maintained. Every write
//! bumps the graph version (plan-cache misses for the next reads), grows
//! the delta overlay reads pay for, and runs standing maintenance on the
//! same workers the reads use.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tdfs_core::{host_filter_edges, match_plan_on_edges, reference_count, MatcherConfig};
use tdfs_graph::rng::Rng;
use tdfs_graph::{CsrGraph, DeltaCsr, EdgeBatch, GraphView};
use tdfs_query::{Pattern, PatternId, QueryPlan};
use tdfs_service::{QueryRequest, Service, ServiceConfig, StandingRequest};

use crate::common::*;
use crate::stats::median;
use crate::trace::Trace;
use crate::{Args, Report};

const GRAPH: &str = "youtube_s";
/// Reads after each write; one thread keeps the op mix identical from
/// run to run.
const READS_PER_APPLY: usize = 8;
/// Operations per apply: the apply, then its reads.
const CYCLE: usize = READS_PER_APPLY + 1;
/// Edges toggled per batch from the seeded set (~0.17% of the graph).
const TOGGLES: usize = 64;
/// Hub-incident pairs every batch toggles on top, the same for every
/// seed, so every seed pays the same skew-driven maintenance cost.
const HUB_PAIRS: usize = 2;
/// Vertex pairs batches toggle: half existing edges, half absent ones.
/// Bounding the set bounds the delta overlay reads and applies pay for,
/// so the cost per operation stays level over a run of any length.
const CHURN_SET: usize = 1024;
/// Batches before the stream turns back: batch `HALF + i` repeats batch
/// `HALF - 1 - i`, which undoes it, so the stream is periodic and the
/// graph returns to its initial state every `2 * HALF` batches.
const HALF: usize = 128;
/// Anchored reads the generator cycles through.
const READ_POOL: usize = 1024;

fn matcher() -> MatcherConfig {
    MatcherConfig::tdfs().with_warps(1)
}

fn patterns() -> [Pattern; 2] {
    [Pattern::clique(3), PatternId(1).pattern()]
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Operations after which the op stream repeats itself: op `i` applies
/// batch `(i / CYCLE) % batches` or reads `reads[i % READ_POOL]`.
fn period() -> usize {
    let applies = CYCLE * 2 * HALF;
    applies / gcd(applies, READ_POOL) * READ_POOL
}

struct Inputs {
    reads: Vec<(usize, (u32, u32))>,
    batches: Vec<EdgeBatch>,
    /// Expected count of the read at each op index of one period.
    expected: Vec<u64>,
}

/// The `HUB_PAIRS` highest-degree vertices, each paired with the
/// non-hub vertex, not adjacent to it, that shares the most neighbours
/// with it (lowest id on ties). Absent from the base graph, so no read
/// is anchored on one.
fn hub_pairs(g: &CsrGraph, by_degree: &[u32], hubs: &HashSet<u32>) -> Vec<(u32, u32)> {
    by_degree[..HUB_PAIRS]
        .iter()
        .map(|&h| {
            let mut common: HashMap<u32, usize> = HashMap::new();
            for &w in g.neighbors(h) {
                for &x in g.neighbors(w) {
                    *common.entry(x).or_default() += 1;
                }
            }
            let partner = (0..g.num_vertices() as u32)
                .filter(|&v| v != h && !hubs.contains(&v) && g.degree(v) >= 2)
                .filter(|&v| !g.has_edge(h, v))
                .max_by_key(|&v| (common.get(&v).copied().unwrap_or(0), Reverse(v)))
                .expect("a vertex not adjacent to the hub");
            (h.min(partner), h.max(partner))
        })
        .collect()
}

/// Seeded reads and batches. Read anchors are never toggled, so every
/// read stays rooted at an existing edge.
fn inputs(g: &Arc<CsrGraph>, seed: u64) -> Result<Inputs, String> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xC4A2);
    let cfg = matcher();
    let plans: Vec<_> = patterns()
        .iter()
        .map(|p| QueryPlan::build_with(p, cfg.plan))
        .collect();
    let admitted: Vec<_> = plans.iter().map(|p| host_filter_edges(&**g, p)).collect();
    let mut anchors = HashSet::new();
    let reads: Vec<_> = (0..READ_POOL)
        .map(|i| {
            let k = i % admitted.len();
            let (u, v) = admitted[k][rng.gen_range(0..admitted[k].len())];
            anchors.insert((u.min(v), u.max(v)));
            (k, (u, v))
        })
        .collect();

    // The seeded set avoids the top 1% of vertices by degree (the
    // broadcast star, the planted hubs and their twins): one toggle at a
    // hub re-enumerates thousands of its matches, so whether a seed's set
    // held one would decide the run. Hub maintenance is measured by the
    // fixed hub pairs instead. Vertices of degree 1 (the star's leaves)
    // are skipped too.
    let mut by_degree: Vec<u32> = (0..g.num_vertices() as u32).collect();
    by_degree.sort_unstable_by_key(|&v| (Reverse(g.degree(v)), v));
    let hubs: HashSet<u32> = by_degree[..g.num_vertices() / 100]
        .iter()
        .copied()
        .collect();
    let hub_set = hub_pairs(g, &by_degree, &hubs);
    let core: Vec<u32> = (0..g.num_vertices() as u32)
        .filter(|&v| !hubs.contains(&v) && g.degree(v) >= 2)
        .collect();
    let mut existing: Vec<(u32, u32)> = g
        .arcs()
        .filter(|&(u, v)| {
            u < v && !hubs.contains(&u) && !hubs.contains(&v) && !anchors.contains(&(u, v))
        })
        .collect();
    let mut set = HashSet::new();
    while set.len() < CHURN_SET / 2 {
        set.insert(existing.swap_remove(rng.gen_range(0..existing.len())));
    }
    while set.len() < CHURN_SET {
        let a = core[rng.gen_range(0..core.len())];
        let b = core[rng.gen_range(0..core.len())];
        if a != b && !g.has_edge(a, b) {
            set.insert((a.min(b), a.max(b)));
        }
    }
    let mut set: Vec<_> = set.into_iter().collect();
    set.sort_unstable();
    let seeded = set.len();
    set.extend(&hub_set);
    let mut present: Vec<bool> = set.iter().map(|&(u, v)| g.has_edge(u, v)).collect();
    let mut first_half: Vec<EdgeBatch> = (0..HALF)
        .map(|_| {
            let mut picked = HashSet::new();
            while picked.len() < TOGGLES {
                picked.insert(rng.gen_range(0..seeded));
            }
            let mut picked: Vec<_> = picked.into_iter().collect();
            picked.sort_unstable();
            picked.extend(seeded..set.len());
            let mut batch = EdgeBatch::new();
            for i in picked {
                let (u, v) = set[i];
                batch = if present[i] {
                    batch.delete(u, v)
                } else {
                    batch.insert(u, v)
                };
                present[i] = !present[i];
            }
            batch
        })
        .collect();
    let undo: Vec<EdgeBatch> = first_half
        .iter()
        .rev()
        .map(|b| {
            let undo = b
                .inserts()
                .iter()
                .fold(EdgeBatch::new(), |u, &(x, y)| u.delete(x, y));
            b.deletes().iter().fold(undo, |u, &(x, y)| u.insert(x, y))
        })
        .collect();
    first_half.extend(undo);
    let batches = first_half;

    // Expected counts: a second engine (STMatch-style half stealing) on
    // the graph as each read sees it, after the batches applied before it.
    let oracle = MatcherConfig::stmatch_like().with_warps(1);
    let mut by_state: Vec<Vec<usize>> = vec![Vec::new(); batches.len()];
    for i in (0..period()).filter(|i| i % CYCLE != 0) {
        by_state[(i / CYCLE + 1) % batches.len()].push(i);
    }
    let mut expected = vec![0; period()];
    let mut view = DeltaCsr::from_base(g.clone());
    for (state, ops) in by_state.iter().enumerate() {
        if state > 0 {
            view = view
                .apply(&batches[state - 1])
                .map_err(|e| format!("DeltaCsr::apply: {e}"))?
                .0;
        }
        for &i in ops {
            let (k, edge) = reads[i % reads.len()];
            expected[i] = match_plan_on_edges(&view, &plans[k], &oracle, vec![edge], None)
                .map_err(|e| format!("oracle engine: {e}"))?
                .matches;
        }
    }
    Ok(Inputs {
        reads,
        batches,
        expected,
    })
}

/// Running Σ(added − removed) of one standing query.
type Net = Arc<AtomicI64>;

struct Gen {
    reads: Client,
    applies: Client,
    ops: usize,
}

impl Gen {
    fn new(origin: Option<Instant>, ops: usize) -> Self {
        Self {
            reads: Client::new(0, origin),
            applies: Client::new(0, origin),
            ops,
        }
    }

    fn step(&mut self, svc: &Service, inp: &Inputs) {
        let i = self.ops;
        self.ops += 1;
        if i.is_multiple_of(CYCLE) {
            let batch = &inp.batches[(i / CYCLE) % inp.batches.len()];
            self.applies.op("service.apply", |_, _, _| {
                let res = svc.apply(GRAPH, batch);
                (
                    res.is_ok_and(|r| r.notifications == patterns().len()),
                    false,
                )
            });
        } else {
            let (k, edge) = inp.reads[i % inp.reads.len()];
            let req = QueryRequest::new(GRAPH, patterns()[k].clone())
                .with_config(matcher())
                .with_seed_edges(vec![edge]);
            self.reads
                .query(svc, req, Some(inp.expected[i % inp.expected.len()]));
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let (n, edges) = youtube_edges();
    let mut trace = args.trace.then(|| Trace::new(origin));
    let cfg = matcher();

    let mut setups = Setups::new(|rep| {
        let (g, a) = setup_step(&mut trace, "graph.csr_build", rep, || {
            Arc::new(build_csr(n, &edges))
        });
        let (svc, b) = setup_step(&mut trace, "service.new", rep, || {
            Service::new(ServiceConfig::default())
        });
        let (_, c) = setup_step(&mut trace, "service.register", rep, || {
            svc.register_graph(GRAPH, g.clone())
        });
        let nets: Vec<Net> = patterns().iter().map(|_| Net::default()).collect();
        let (registered, d) = setup_step(&mut trace, "service.register_standing", rep, || {
            patterns()
                .into_iter()
                .zip(&nets)
                .map(|(p, net)| {
                    let net = net.clone();
                    svc.register_standing(
                        StandingRequest::new(GRAPH, p).with_config(matcher()),
                        move |d| {
                            net.fetch_add(d.added as i64 - d.removed as i64, Ordering::Relaxed);
                        },
                    )
                })
                .collect::<Result<Vec<_>, _>>()
        });
        registered.map_err(|e| format!("register_standing: {e}"))?;
        Ok(((svc, g, nets), a + b + c + d))
    });
    let (svc, graph, nets) = setups.first()?;

    let plans: Vec<_> = patterns()
        .iter()
        .map(|p| QueryPlan::build_with(p, cfg.plan))
        .collect();
    let initial: Vec<u64> = plans.iter().map(|p| reference_count(&*graph, p)).collect();
    let inp = inputs(&graph, args.seed)?;

    let mut report = Report::default();
    let mut warm = Gen::new(None, 0);
    for _ in 0..CYCLE {
        warm.step(&svc, &inp);
    }
    report.tally(&warm.reads.tally);
    report.tally(&warm.applies.tally);
    let mut ops = warm.ops;

    if !args.trace {
        // Enough operations for p90 of the writes, the rarer side.
        let min_ops = crate::stats::min_samples(90) * CYCLE;
        let (mut gens, segments) = measure(
            vec![Gen::new(None, ops)],
            args.seconds,
            min_ops,
            |g| g.step(&svc, &inp),
            || setups.burst(),
        )?;
        let gen = gens.pop().expect("one generator");
        ops = gen.ops;
        report.tally(&gen.reads.tally);
        report.tally(&gen.applies.tally);
        report.push("setup_s", setups.median_s(), "s");
        report.windowed("query", &gen.reads.tally, &segments, &[50, 90, 99], true);
        report.windowed("apply", &gen.applies.tally, &segments, &[50, 90], false);
        report.push("rss_peak_mb", crate::stats::rss_peak_mb(), "MiB");
    } else {
        setups.finish()?;
        let mut trace = trace.take().expect("traced run");
        let before = svc.metrics();
        let (mut queries, mut overhead) = (0, Vec::new());
        alternate(&mut report, args.seconds, |report, traced, secs| {
            let gen = Gen::new(traced.then_some(origin), ops);
            let (mut gens, secs) = closed_loop(vec![gen], secs, 1, |g| g.step(&svc, &inp));
            let gen = gens.pop().expect("one generator");
            ops = gen.ops;
            let (applies, _) = merge_clients(vec![gen.applies], Some(&mut trace));
            report.tally(&applies);
            let (tally, o) = merge_clients(vec![gen.reads], Some(&mut trace));
            report.tally(&tally);
            overhead.extend(o);
            queries += tally.attempted;
            Ok((tally.attempted, secs))
        })?;
        let after = svc.metrics();
        push_setup_steps(
            &mut report,
            &trace,
            &[
                "graph.csr_build",
                "service.new",
                "service.register",
                "service.register_standing",
            ],
        );
        push_service_counters(&mut report, &before, &after, queries, &overhead, &trace);
        let applied = (after.batches_applied - before.batches_applied).max(1) as f64;
        report.push(
            "service.maintenance_jobs_per_apply",
            (after.maintenance_jobs - before.maintenance_jobs) as f64 / applied,
            "count",
        );
        report.push(
            "service.inline_fallbacks",
            (after.maintenance_inline_fallbacks - before.maintenance_inline_fallbacks) as f64,
            "count",
        );
        // The graph layer's own apply, timed directly on the same
        // batches in the order the service applied them.
        let mut view = DeltaCsr::from_base(graph.clone());
        let mut apply_us = Vec::new();
        for (i, batch) in inp.batches.iter().take(PROBE_REQUESTS).enumerate() {
            let t0 = Instant::now();
            let (next, _) = trace
                .time("graph.apply", None, i as u64, || view.apply(batch))
                .map_err(|e| format!("DeltaCsr::apply: {e}"))?;
            apply_us.push(t0.elapsed().as_secs_f64() * 1e6);
            view = next;
        }
        report.push("graph.apply_us", median(&apply_us), "us");
        let live = svc.catalog().get(GRAPH).ok_or("graph vanished")?;
        let probes: Vec<_> = inp
            .reads
            .iter()
            .map(|&(k, e)| ProbeRequest {
                pattern: patterns()[k].clone(),
                seeds: Some(vec![e]),
            })
            .collect();
        probe_layers(
            &mut report,
            &mut trace,
            &args.out,
            &*live,
            &graph,
            &probes,
            &cfg,
        )?;
        report.trace = Some(trace);
    }

    // Correctness gate: the standing deltas must telescope to the
    // change in the full count between the first and the final view.
    let applies = ops.div_ceil(CYCLE);
    let last = svc.catalog().get(GRAPH).ok_or("graph vanished")?;
    for ((plan, net), before) in plans.iter().zip(&nets).zip(&initial) {
        let after = reference_count(&*last, plan) as i64;
        let delta = net.load(Ordering::Relaxed);
        report.attempted += 1;
        if after - *before as i64 != delta {
            eprintln!(
                "churn: standing delta sum {delta} != {after} - {before} after {applies} batches"
            );
            report.failed += 1;
            report.wrong += 1;
        }
    }
    svc.shutdown();
    Ok(report)
}
