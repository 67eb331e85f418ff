//! `point`: two clients send anchored queries (one seed edge each) for a
//! seeded K3/P1/P3 mix at one warp, against a graph served from its
//! TDFSGRPH container. The fixed per-query path dominates: admission,
//! plan-cache hit, durable shard and lease, engine set-up, mapped decode.

use std::sync::Arc;
use std::time::Instant;

use tdfs_core::{host_filter_edges, match_plan_on_edges, MatcherConfig};
use tdfs_graph::rng::Rng;
use tdfs_query::{Pattern, PatternId, QueryPlan};
use tdfs_service::{QueryRequest, Service, ServiceConfig};

use crate::common::*;
use crate::trace::Trace;
use crate::{Args, Report};

const GRAPH: &str = "youtube_s";
const CLIENTS: usize = 2;
/// Distinct anchored requests the clients cycle through.
const POOL: usize = 1024;
const WARMUP: usize = 256;

struct Request {
    pattern: Pattern,
    edge: (u32, u32),
    expected: u64,
}

fn matcher() -> MatcherConfig {
    MatcherConfig::tdfs().with_warps(1)
}

/// Seeded anchored requests; each expected count comes from a second
/// engine (STMatch-style half stealing) on the same plan and edge.
fn requests(g: &tdfs_graph::CsrGraph, seed: u64) -> Result<Vec<Request>, String> {
    let patterns = [
        Pattern::clique(3),
        PatternId(1).pattern(),
        PatternId(3).pattern(),
    ];
    // p50 falls in the middle of P1's share of the mix, p90 well inside
    // P3's, so neither sits on the edge between two patterns.
    let weights = [0.25, 0.5, 0.25];
    let cfg = matcher();
    let oracle = MatcherConfig::stmatch_like().with_warps(1);
    let plans: Vec<_> = patterns
        .iter()
        .map(|p| QueryPlan::build_with(p, cfg.plan))
        .collect();
    let admitted: Vec<_> = plans.iter().map(|pl| host_filter_edges(g, pl)).collect();
    let mut rng = Rng::seed_from_u64(seed ^ 0x9017);
    let pick = tdfs_graph::rng::WeightedIndex::new(&weights);
    (0..POOL)
        .map(|_| {
            let k = pick.sample(&mut rng);
            let edge = admitted[k][rng.gen_range(0..admitted[k].len())];
            let expected = match_plan_on_edges(g, &plans[k], &oracle, vec![edge], None)
                .map_err(|e| format!("oracle engine: {e}"))?
                .matches;
            Ok(Request {
                pattern: patterns[k].clone(),
                edge,
                expected,
            })
        })
        .collect()
}

fn step(svc: &Service, pool: &[Request], c: &mut Client) {
    let r = &pool[c.cursor % pool.len()];
    c.cursor += 1;
    let req = QueryRequest::new(GRAPH, r.pattern.clone())
        .with_config(matcher())
        .with_seed_edges(vec![r.edge]);
    c.query(svc, req, Some(r.expected));
}

fn clients(origin: Option<Instant>) -> Vec<Client> {
    (0..CLIENTS)
        .map(|i| Client::new(i * POOL / CLIENTS, origin))
        .collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let (n, edges) = youtube_edges();
    let state = scratch_dir(&args.out, "point")?;
    let mut trace = args.trace.then(|| Trace::new(origin));

    let mut setups = Setups::new(|rep| {
        let dir = setup_dir(&state, rep)?;
        let (g, a) = setup_step(&mut trace, "graph.csr_build", rep, || {
            Arc::new(build_csr(n, &edges))
        });
        let (opened, b) = setup_step(&mut trace, "service.open", rep, || {
            Service::open(&dir, ServiceConfig::default())
        });
        let svc = opened.map_err(|e| format!("Service::open: {e}"))?.service;
        let (installed, c) = setup_step(&mut trace, "service.register_persistent", rep, || {
            svc.register_graph_persistent(GRAPH, g.clone())
        });
        installed.map_err(|e| format!("register_graph_persistent: {e}"))?;
        Ok(((svc, g), a + b + c))
    });
    let (svc, graph) = setups.first()?;

    let pool = requests(&graph, args.seed)?;
    let mut warm = Client::new(0, None);
    for _ in 0..WARMUP {
        step(&svc, &pool, &mut warm);
    }
    let mut report = Report::default();
    report.tally(&warm.tally);

    let min_ops = crate::stats::min_samples(90);
    if !args.trace {
        let (cs, segments) = measure(
            clients(None),
            args.seconds,
            min_ops,
            |c| step(&svc, &pool, c),
            || setups.burst(),
        )?;
        let (tally, _) = merge_clients(cs, None);
        report.tally(&tally);
        report.push("setup_s", setups.median_s(), "s");
        report.windowed("query", &tally, &segments, &[50, 90, 99], true);
        report.push("rss_peak_mb", crate::stats::rss_peak_mb(), "MiB");
    } else {
        setups.finish()?;
        let mut trace = trace.take().expect("traced run");
        let before = svc.metrics();
        let (mut queries, mut overhead) = (0, Vec::new());
        alternate(&mut report, args.seconds, |report, traced, secs| {
            let (cs, secs) = closed_loop(clients(traced.then_some(origin)), secs, 1, |c| {
                step(&svc, &pool, c)
            });
            let (tally, o) = merge_clients(cs, Some(&mut trace));
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
                "service.open",
                "service.register_persistent",
            ],
        );
        push_service_counters(&mut report, &before, &after, queries, &overhead, &trace);
        let view = svc.catalog().get(GRAPH).ok_or("graph vanished")?;
        let probes: Vec<_> = pool
            .iter()
            .map(|r| ProbeRequest {
                pattern: r.pattern.clone(),
                seeds: Some(vec![r.edge]),
            })
            .collect();
        probe_layers(
            &mut report,
            &mut trace,
            &args.out,
            &*view,
            &graph,
            &probes,
            &matcher(),
        )?;
        report.trace = Some(trace);
    }
    svc.shutdown();
    drop(svc);
    let _ = std::fs::remove_dir_all(&state);
    Ok(report)
}
