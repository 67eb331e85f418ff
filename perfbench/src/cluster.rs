//! `cluster`: one client runs whole-graph counts through
//! `Coordinator::start_query`/`wait` against two in-process nodes over
//! loopback TCP (node services with one worker each). The only workload
//! on the wire protocol, the poll ladder, remote leases and container
//! shipping.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdfs_cluster::{ClusterConfig, Coordinator, NodeConfig, NodeHandle};
use tdfs_core::MatcherConfig;
use tdfs_graph::rng::Rng;
use tdfs_graph::CsrGraph;
use tdfs_query::{Pattern, PatternId};
use tdfs_service::{QueryRequest, Service, ServiceConfig};

use crate::common::*;
use crate::stats::median;
use crate::trace::Trace;
use crate::{Args, Report};

const GRAPH: &str = "youtube_s";
const NODES: u64 = 2;
const WAIT: Duration = Duration::from_secs(60);
/// Paired cluster/in-process runs for `cluster.overhead_ms`.
const OVERHEAD_PAIRS: usize = 30;

fn matcher() -> MatcherConfig {
    MatcherConfig::tdfs().with_warps(1)
}

fn node_service() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }
}

/// Request stream: seeded shuffles of this block (K3, P1 and P2).
fn block() -> [Pattern; 4] {
    let k3 = Pattern::clique(3);
    [
        k3.clone(),
        k3,
        PatternId(1).pattern(),
        PatternId(2).pattern(),
    ]
}

fn stream(seed: u64) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xC105);
    let mut out = Vec::new();
    while out.len() < 4096 {
        let mut b: Vec<usize> = (0..block().len()).collect();
        for i in (1..b.len()).rev() {
            b.swap(i, rng.gen_range(0..i + 1));
        }
        out.extend(b);
    }
    out
}

/// A coordinator and its nodes; nodes are stopped before the
/// coordinator so they can say goodbye.
struct Cluster {
    coord: Coordinator,
    nodes: Vec<NodeHandle>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for n in &mut self.nodes {
            n.stop();
        }
        self.coord.shutdown();
    }
}

/// Polls `done` every 100 µs until it holds (or a minute passes).
fn await_state(what: &str, done: impl Fn() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + WAIT;
    while !done() {
        if Instant::now() > deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(())
}

fn set_up(
    trace: &mut Option<Trace>,
    rep: usize,
    n: usize,
    edges: &[(u32, u32)],
    state: &Path,
) -> Result<((Cluster, Arc<CsrGraph>), f64), String> {
    let dir = setup_dir(state, rep)?;
    let (g, a) = setup_step(trace, "graph.csr_build", rep, || {
        Arc::new(build_csr(n, edges))
    });
    let (coord, b) = setup_step(trace, "cluster.bind", rep, || {
        Coordinator::bind("127.0.0.1:0", ClusterConfig::default())
    });
    let coord = coord.map_err(|e| format!("Coordinator::bind: {e}"))?;
    let addr = coord.addr().to_string();
    let mut cluster = Cluster {
        coord,
        nodes: Vec::new(),
    };
    // The graph is registered before the nodes start, so each node's
    // first poll ships the container: no node sits out an idle `Wait`
    // on its poll timer inside the timed step.
    let (shipped, c) = setup_step(trace, "cluster.ship", rep, || {
        cluster
            .coord
            .register_graph(GRAPH, 0, g.clone())
            .map_err(|e| format!("register_graph: {e}"))?;
        for id in 1..=NODES {
            cluster.nodes.push(NodeHandle::spawn(NodeConfig {
                service: node_service(),
                ..NodeConfig::new(addr.clone(), id, dir.clone())
            }));
        }
        await_state("nodes to join and receive the container", || {
            cluster.nodes.iter().all(|n| {
                n.stats()
                    .graphs_received
                    .load(std::sync::atomic::Ordering::Acquire)
                    > 0
            })
        })
    });
    shipped?;
    Ok(((cluster, g), a + b + c))
}

fn query(cluster: &Cluster, order: &[usize], expected: &[u64], c: &mut Client) {
    let k = order[c.cursor % order.len()];
    c.cursor += 1;
    let pattern = block()[k].clone();
    c.op("cluster.query", |_, _, _| {
        match cluster
            .coord
            .start_query(GRAPH, pattern, matcher())
            .and_then(|h| h.wait(WAIT))
        {
            Ok(count) => (count == expected[k], count != expected[k]),
            Err(_) => (false, false),
        }
    });
}

pub fn run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let (n, edges) = youtube_edges();
    let state = scratch_dir(&args.out, "cluster")?;
    let mut trace = args.trace.then(|| Trace::new(origin));
    let mut setups = Setups::new(|rep| set_up(&mut trace, rep, n, &edges, &state));
    let (cluster, graph) = setups.first()?;

    // Expected counts: the same queries in process, on a service
    // configured like the nodes'.
    let local = Service::new(node_service());
    local.register_graph(GRAPH, graph.clone());
    let run_local = |p: &Pattern| -> Result<u64, String> {
        let o = local
            .submit(QueryRequest::new(GRAPH, p.clone()).with_config(matcher()))
            .map_err(|e| format!("in-process submit: {e}"))?
            .wait();
        o.result
            .map(|r| r.matches)
            .map_err(|e| format!("in-process query: {e}"))
    };
    let expected: Vec<u64> = block().iter().map(run_local).collect::<Result<_, _>>()?;
    let order = stream(args.seed);

    let mut report = Report::default();
    let mut warm = Client::new(0, None);
    for _ in 0..block().len() {
        query(&cluster, &order, &expected, &mut warm);
    }
    report.tally(&warm.tally);
    let at_start = cluster.coord.metrics();

    let min_ops = crate::stats::min_samples(90);
    let step = |c: &mut Client| query(&cluster, &order, &expected, c);
    if !args.trace {
        let (mut rs, segments) = measure(
            vec![Client::new(warm.cursor, None)],
            args.seconds,
            min_ops,
            step,
            || setups.burst(),
        )?;
        let r = rs.pop().expect("one client");
        report.tally(&r.tally);
        report.push("setup_s", setups.median_s(), "s");
        report.windowed("query", &r.tally, &segments, &[50, 90, 99], true);
        report.push("rss_peak_mb", crate::stats::rss_peak_mb(), "MiB");
    } else {
        setups.finish()?;
        let mut trace = trace.take().expect("traced run");
        let before = cluster.coord.metrics();
        let (mut queries, mut cursor) = (0, warm.cursor);
        alternate(&mut report, args.seconds, |report, traced, secs| {
            let client = Client::new(cursor, traced.then_some(origin));
            let (mut rs, secs) = closed_loop(vec![client], secs, 1, step);
            let r = rs.pop().expect("one client");
            cursor = r.cursor;
            report.tally(&r.tally);
            queries += r.tally.attempted;
            if let Some(t) = r.trace {
                trace.absorb(t);
            }
            Ok((r.tally.attempted, secs))
        })?;
        let after = cluster.coord.metrics();
        let q = queries.max(1) as f64;
        push_setup_steps(
            &mut report,
            &trace,
            &["graph.csr_build", "cluster.bind", "cluster.ship"],
        );
        report.push(
            "cluster.polls_per_query",
            (after.polls - before.polls) as f64 / q,
            "count",
        );
        report.push(
            "cluster.grants_per_query",
            (after.grants - before.grants) as f64 / q,
            "count",
        );

        // The same query on the cluster and in process, alternately.
        let mut diffs = Vec::new();
        for (i, &k) in order.iter().enumerate().take(OVERHEAD_PAIRS) {
            let p = &block()[k];
            let t0 = Instant::now();
            let remote = trace.time("cluster.query", None, i as u64, || {
                cluster
                    .coord
                    .start_query(GRAPH, p.clone(), matcher())
                    .and_then(|h| h.wait(WAIT))
            });
            let cluster_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = Instant::now();
            let local = trace.time("service.query", None, i as u64, || run_local(p))?;
            diffs.push(cluster_ms - t0.elapsed().as_secs_f64() * 1e3);
            let wrong = remote.as_ref().is_ok_and(|&c| c != expected[k]) || local != expected[k];
            report.attempted += 1;
            if remote.is_err() || wrong {
                report.failed += 1;
            }
            if wrong {
                report.wrong += 1;
            }
        }
        report.push("cluster.overhead_ms", median(&diffs), "ms");
        let probes: Vec<_> = order
            .iter()
            .take(2 * block().len())
            .map(|&k| ProbeRequest {
                pattern: block()[k].clone(),
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
            &matcher(),
        )?;
        report.trace = Some(trace);
    }
    let end = cluster.coord.metrics();
    report.push(
        "cluster.acks_fenced",
        (end.acks_fenced - at_start.acks_fenced) as f64,
        "count",
    );
    report.push(
        "cluster.replies_resent",
        (end.replies_resent - at_start.replies_resent) as f64,
        "count",
    );
    local.shutdown();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&state);
    Ok(report)
}
