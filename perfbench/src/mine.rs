//! `mine`: one client runs whole-graph counts of P1/P3/P4/P5/P9 at two
//! warps on the heap-CSR graph. The engine does almost all the work:
//! intersection kernels, timeout decomposition of the straggler
//! patterns (P3, P4) and paged stacks.

use std::sync::Arc;
use std::time::Instant;

use tdfs_core::{reference_count, MatcherConfig};
use tdfs_graph::rng::Rng;
use tdfs_query::{PatternId, QueryPlan};
use tdfs_service::{QueryRequest, Service, ServiceConfig};

use crate::common::*;
use crate::trace::Trace;
use crate::{Args, Report};

const GRAPH: &str = "youtube_s";

/// One block of the request stream; every block is a seeded shuffle of
/// it. Weights place p50 inside P9's mode (30–70% of the mix) and p90
/// inside P3's (80–100%), away from the gaps between patterns. P8 and
/// P11 are left out: each takes seconds, so a few of them would decide
/// every percentile.
const MIX: [u8; 10] = [1, 1, 5, 9, 9, 9, 9, 4, 3, 3];
const STREAM: usize = 8192;

fn matcher() -> MatcherConfig {
    MatcherConfig::tdfs().with_warps(2)
}

fn stream(seed: u64) -> Vec<u8> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x3133);
    let mut out = Vec::with_capacity(STREAM);
    while out.len() < STREAM {
        let mut block = MIX;
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_range(0..i + 1));
        }
        out.extend_from_slice(&block);
    }
    out
}

fn clients(origin: Option<Instant>) -> Vec<Client> {
    vec![Client::new(0, origin)]
}

pub fn run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let (n, edges) = youtube_edges();
    let mut trace = args.trace.then(|| Trace::new(origin));

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
        Ok(((svc, g), a + b + c))
    });
    let (svc, graph) = setups.first()?;

    let ids: Vec<u8> = {
        let mut ids = MIX.to_vec();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let cfg = matcher();
    let expected: Vec<(u8, u64)> = ids
        .iter()
        .map(|&id| {
            let plan = QueryPlan::build_with(&PatternId(id).pattern(), cfg.plan);
            (id, reference_count(&*graph, &plan))
        })
        .collect();
    let expect = |id: u8| expected.iter().find(|e| e.0 == id).expect("mix pattern").1;
    let order = stream(args.seed);
    let step = |c: &mut Client| {
        let id = order[c.cursor % order.len()];
        c.cursor += 1;
        let req = QueryRequest::new(GRAPH, PatternId(id).pattern()).with_config(matcher());
        c.query(&svc, req, Some(expect(id)));
    };

    let mut report = Report::default();
    let mut warm = Client::new(0, None);
    for &id in &ids {
        let req = QueryRequest::new(GRAPH, PatternId(id).pattern()).with_config(matcher());
        warm.query(&svc, req, Some(expect(id)));
    }
    report.tally(&warm.tally);

    let min_ops = crate::stats::min_samples(90);
    if !args.trace {
        let (cs, segments) = measure(clients(None), args.seconds, min_ops, step, || {
            setups.burst()
        })?;
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
            let (cs, secs) = closed_loop(clients(traced.then_some(origin)), secs, 1, step);
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
            &["graph.csr_build", "service.new", "service.register"],
        );
        push_service_counters(&mut report, &before, &after, queries, &overhead, &trace);
        let probes: Vec<_> = order[..2 * MIX.len()]
            .iter()
            .map(|&id| ProbeRequest {
                pattern: PatternId(id).pattern(),
                seeds: None,
            })
            .collect();
        probe_layers(
            &mut report,
            &mut trace,
            &args.out,
            &*graph,
            &graph,
            &probes,
            &cfg,
        )?;
        report.trace = Some(trace);
    }
    svc.shutdown();
    Ok(report)
}
